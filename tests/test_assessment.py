import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (FAMILY_CASES, assert_same_integrals, deadline, random_instance,
                      random_marginals, wide_grid)
from copreli import (
    Clayton,
    CopreliError,
    DomainError,
    ErrorReport,
    Exponential,
    Fgm,
    GumbelBarnet,
    Independence,
    IntegrationError,
    MarshallOlkin,
    SingularityError,
    SystemPair,
    Weibull,
    classify_assessment,
    parse_copula,
)

E1 = Exponential(1.0)
E2 = Exponential(2.0)
LN2 = math.log(2.0)


def pair(copula, structure, marginals=(E1, E1)):
    return SystemPair(copula=copula, marginals=marginals, structure=structure)


# ---------------------------------------------------------------------------
# survival-function errors (closed-form checks)
# ---------------------------------------------------------------------------


def test_fgm_series_sf_error():
    raw, rel = pair(Fgm(alpha=0.5), "series").sf_error(LN2)
    # relative error is alpha * prod(1 - uhat_i) = 0.5 * 0.25
    assert rel == pytest.approx(0.125, abs=1e-14)
    assert raw == pytest.approx(0.03125, abs=1e-14)


def test_fgm_series_sf_error_negative_alpha():
    _, rel = pair(Fgm(alpha=-1.0), "series").sf_error(LN2)
    assert rel == pytest.approx(-0.25, abs=1e-14)


def test_independence_gives_zero_errors():
    p = pair(Independence(), "series")
    raw, rel = p.sf_error(0.9)
    assert raw == pytest.approx(0.0, abs=1e-15)
    assert rel == pytest.approx(0.0, abs=1e-15)
    for t in (0.2, 1.0, 3.0):
        assert pair(Independence(), "parallel").hr_error(t) == pytest.approx(0.0, abs=1e-9)
        assert pair(Independence(), "series").rhr_error(t) == pytest.approx(0.0, abs=1e-9)


def test_fgm_parallel_sf_error():
    raw, rel = pair(Fgm(alpha=0.5), "parallel").sf_error(LN2)
    # raw = prod u - C(u) = -alpha u1 u2 (1-u1)(1-u2)
    assert raw == pytest.approx(-0.03125, abs=1e-14)
    assert rel == pytest.approx(-0.03125 / 0.75, abs=1e-14)


def test_clayton_parallel_sf_error():
    raw, rel = pair(Clayton(alpha=1.0), "parallel").sf_error(LN2)
    assert raw == pytest.approx(0.25 - 1.0 / 3.0, abs=1e-14)
    assert rel == pytest.approx((0.25 - 1.0 / 3.0) / 0.75, abs=1e-14)


def test_sf_error_denominator_underflow():
    with pytest.raises(SingularityError):
        pair(Fgm(alpha=0.5), "series").sf_error(40.0)


# ---------------------------------------------------------------------------
# hazard-type errors
# ---------------------------------------------------------------------------


def test_gumbel_barnet_series_hr_error_is_2_alpha_t():
    for alpha in (0.25, 0.5, 1.0):
        p = pair(GumbelBarnet(alpha=alpha), "series")
        for t in (0.3, 1.0, 2.0):
            assert p.hr_error(t) == pytest.approx(2.0 * alpha * t, abs=1e-6)


def test_fgm_series_hr_error_sign():
    # UA in sf implies the dependent series hazard sits below the
    # independent one here
    p = pair(Fgm(alpha=0.5), "series")
    assert p.hr_error(LN2) < 0.0


def test_hr_error_matches_direct_subtraction():
    p = pair(Fgm(alpha=0.5), "parallel")
    dep, ind = p.dependent, p.independent
    for t in (0.4, 1.1, 2.0):
        direct = dep.hazard(t) - ind.hazard(t)
        assert p.hr_error(t) == pytest.approx(direct, abs=1e-5)
    ps = pair(Clayton(alpha=2.0), "series")
    dep, ind = ps.dependent, ps.independent
    for t in (0.4, 1.1):
        direct = dep.reversed_hazard(t) - ind.reversed_hazard(t)
        assert ps.rhr_error(t) == pytest.approx(direct, abs=1e-5)


def test_antisymmetry_of_raw_error():
    # dependent-minus-independent flips sign when the roles are read the
    # other way round; verdicts flip with it
    p = pair(Fgm(alpha=0.5), "series")
    raw, _ = p.sf_error(LN2)
    assert raw > 0
    q = pair(Fgm(alpha=-0.5), "series")
    raw_neg, _ = q.sf_error(LN2)
    assert raw_neg < 0


def test_fgm_positive_alpha_error_signs_on_grid():
    grid = np.geomspace(0.05, 4.0, 40)
    ser = pair(Fgm(alpha=0.5), "series").error_report(grid, measure="sf")
    par = pair(Fgm(alpha=0.5), "parallel").error_report(grid, measure="sf")
    assert np.all(ser.raw >= 0.0)
    assert np.all(par.raw <= 0.0)


# ---------------------------------------------------------------------------
# reports and classification
# ---------------------------------------------------------------------------


def test_classify_fgm_reports():
    grid = np.geomspace(0.05, 4.0, 32)
    ser = pair(Fgm(alpha=0.5), "series").error_report(grid, measure="sf")
    assert classify_assessment(ser) == "uniform UA"
    par = pair(Fgm(alpha=0.5), "parallel").error_report(grid, measure="sf")
    assert classify_assessment(par) == "uniform OA"
    zero = pair(Independence(), "series").error_report(grid, measure="sf")
    assert classify_assessment(zero) == "zero"


def test_classify_mixed():
    from copreli import RluExtended

    grid = np.geomspace(0.02, 5.0, 48)
    rep = pair(RluExtended(a=(2.0, 2.0), b=(3.0, 3.0), alpha=1.0),
               "parallel").error_report(grid, measure="rhr")
    assert classify_assessment(rep) == "mixed"


def test_mrl_error_report():
    grid = np.array([0.1, 0.5, 1.0])
    rep = pair(Fgm(alpha=0.5), "series").error_report(grid, measure="mrl")
    assert classify_assessment(rep) == "uniform UA"  # longer life under positive dependence


def test_report_serialization():
    grid = np.array([0.25, 0.5, 1.0])
    rep = pair(Fgm(alpha=0.5), "series").error_report(grid, measure="sf")
    lines = rep.to_csv().strip().splitlines()
    assert lines[0] == "t,raw,relative,verdict"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.25
    assert first[3] == "UA"
    record = json.loads(rep.to_json())
    assert record["measure"] == "sf"
    assert record["classification"] == "uniform UA"
    assert len(record["raw"]) == 3


def test_report_flags_singular_points():
    grid = np.array([0.5, 45.0])  # second point far past the survival floor
    rep = pair(Fgm(alpha=0.5), "series").error_report(grid, measure="sf")
    assert np.isnan(rep.raw[1])
    assert rep.verdict_per_t[1] == "undefined"
    assert rep.flags and rep.flags[0][0] == 1
    assert classify_assessment(rep) == "uniform UA"  # defined points only


def test_bad_measure_rejected():
    with pytest.raises(DomainError):
        pair(Fgm(alpha=0.5), "series").error_report([0.5], measure="cdf")


# ---------------------------------------------------------------------------
# whole-grid evaluation against a point-by-point reference
# ---------------------------------------------------------------------------


def point_by_point_report(p, grid, measure):
    """(raw, relative, flags) from one scalar call per grid point and quantity."""
    raw = np.full(grid.shape, np.nan)
    rel = np.full(grid.shape, np.nan)
    flags = []
    for i, t in enumerate(grid):
        t = float(t)
        try:
            if measure == "sf":
                raw[i], rel[i] = p.sf_error(t)
            elif measure == "hr":
                raw[i] = p.hr_error(t)
                rate = p.independent.hazard(t)
            else:
                raw[i] = p.rhr_error(t)
                rate = p.independent.reversed_hazard(t)
            if measure != "sf" and rate == 0.0:
                flags.append((i, "relative error undefined: the independent rate is 0"))
            elif measure != "sf":
                rel[i] = raw[i] / rate
        except SingularityError as exc:
            flags.append((i, str(exc)))
    return raw, rel, tuple(flags)


@given(case=st.sampled_from(FAMILY_CASES), seed=st.integers(0, 2**32 - 1),
       structure=st.sampled_from(("series", "parallel")),
       measure=st.sampled_from(("sf", "hr", "rhr")))
@settings(max_examples=80, deadline=None)
def test_error_report_matches_point_by_point_reference(case, seed, structure, measure):
    family, dim = case
    rng = np.random.default_rng(seed)
    marginals = random_marginals(rng, dim)
    p = SystemPair(copula=random_instance(family, rng, dim), marginals=marginals,
                   structure=structure)
    grid = wide_grid(marginals)
    rep = p.error_report(grid, measure=measure)
    with np.errstate(divide="ignore", invalid="ignore"):
        raw, rel, flags = point_by_point_report(p, grid, measure)
    assert rep.flags == flags
    reference = ErrorReport(grid=grid, raw=raw, relative=rel, measure=measure,
                            structure=structure, flags=flags)
    assert rep.verdict_per_t == reference.verdict_per_t
    np.testing.assert_allclose(rep.raw, raw, rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(rep.relative, rel, rtol=1e-9, atol=0.0)


def test_row_with_a_zero_independent_rate_keeps_its_error_and_is_flagged():
    # far out both cdfs are 1 to rounding, so both reversed hazards are 0
    rep = pair(Fgm(alpha=0.5), "series").error_report([0.0, 30.0, 60.0], measure="rhr")
    assert rep.raw[1:].tolist() == [0.0, 0.0]
    assert np.isnan(rep.relative[1:]).all()
    assert rep.verdict_per_t[1:] == ["zero", "zero"]
    reason = "relative error undefined: the independent rate is 0"
    assert rep.flags[1:] == ((1, reason), (2, reason))


def test_hr_row_with_vanished_independent_hazard_keeps_its_error():
    # at t = 36 the independent series sf (e^-72) is below the 1e-12 floor,
    # so the independent hazard is undefined, but the sf ratio is not
    rep = pair(Fgm(alpha=0.5), "series").error_report(np.array([0.5, 36.0]), measure="hr")
    assert rep.flags == ((1, "survival function vanished"),)
    assert not np.isnan(rep.raw[1]) and np.isnan(rep.relative[1])
    assert rep.verdict_per_t[1] != "undefined"


def test_rhr_where_only_the_independent_cdf_underflows():
    # at t = 1e-170 the independent parallel cdf (about t^2) underflows to
    # 0.0 while the Clayton one (about t) does not: the ratio is inf
    rep = pair(Clayton(alpha=2.0), "parallel").error_report(np.array([1e-170, 0.5]),
                                                            measure="rhr")
    assert rep.flags == ((0, "function vanishes inside the stencil"),)
    assert np.isnan(rep.raw[0]) and not np.isnan(rep.raw[1])


def test_hazard_type_rows_without_a_stencil_are_flagged():
    # t <= 0 has no interior stencil; the row is flagged before any system
    # is evaluated there, so a negative time does not raise
    for measure in ("hr", "rhr"):
        rep = pair(Fgm(alpha=0.5), "series").error_report(np.array([-1.0, 0.0, 0.5]),
                                                          measure=measure)
        reason = "log-derivative needs an interior point t > 0"
        assert rep.flags == ((0, reason), (1, reason))
        assert not np.isnan(rep.raw[2])


def test_series_hr_where_the_independent_sf_underflows():
    # three Weibull components under Marshall-Olkin: on the CLI's default grid
    # the independent series sf underflows to 0.0 at the last rows, so the sf
    # ratio in the stencil is 0/0 there; those rows are flagged, not raised
    marginals = (Weibull(1.7913190580699387, 2.748260610637292),
                 Weibull(0.5637169418659368, 0.9069634832251845),
                 Weibull(1.0962210981969736, 0.8197876113467362))
    copula = MarshallOlkin(alpha=(0.3887870827033031, 1.5751037601909295,
                                  0.2675059305740639), dim=3)
    grid = np.geomspace(min(m.quantile(0.01) for m in marginals),
                        max(m.quantile(0.99) for m in marginals), 25)
    p = SystemPair(copula=copula, marginals=marginals, structure="series")
    assert p.independent.sf(grid[-1]) == 0.0
    rep = p.error_report(grid, measure="hr")
    flagged = dict(rep.flags)
    assert flagged[24] == "function vanishes inside the stencil"
    assert all(row >= 19 for row in flagged)
    assert not np.isnan(rep.raw[:19]).any()
    with pytest.raises(SingularityError, match="vanishes inside the stencil"):
        p.hr_error(grid[-1])


# ---------------------------------------------------------------------------
# batched mean residual life against the loop it replaced
# ---------------------------------------------------------------------------


def looped_mrl_report(p, grid):
    """(dependent mrl, independent mrl, flags) of the one-t-at-a-time loop: at
    each t the dependent system first, a SingularityError flags the row (both
    mrl NaN), any other error propagates."""
    mrl = np.full((2, grid.size), np.nan)
    flags = []
    for i, t in enumerate(grid):
        try:
            dep = p.dependent.mrl(float(t))
            ind = p.independent.mrl(float(t))
        except SingularityError as exc:
            flags.append((i, str(exc)))
            continue
        mrl[:, i] = dep, ind
    return mrl, tuple(flags)


def outcome(call):
    try:
        return call()
    except CopreliError as exc:
        return exc


def assert_mrl_report_matches_the_loop(p, grid):
    """The report's refusals and flags are the loop's exactly; each system's
    mrl is the loop's to within the quadrature's tolerance, and raw and
    relative are formed from those two values."""
    expected = outcome(lambda: looped_mrl_report(p, grid))
    report = outcome(lambda: p.error_report(grid, measure="mrl"))
    if isinstance(expected, CopreliError):
        assert type(report) is type(expected)
        assert str(report) == str(expected)
        return
    mrl, flags = expected
    assert report.flags == flags
    sf = p.dependent.sides(grid)[0]
    dep, ind = (np.where(np.isnan(mrl[0]), np.nan, system._mrl(grid)[0])
                for system in (p.dependent, p.independent))
    for got, want, side in zip((dep, ind), mrl, sf):
        assert_same_integrals(got, want, side)
    np.testing.assert_array_equal(report.raw, dep - ind)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.testing.assert_array_equal(report.relative, (dep - ind) / ind)


@given(case=st.sampled_from(FAMILY_CASES), seed=st.integers(0, 2**32 - 1),
       structure=st.sampled_from(("series", "parallel")))
@settings(max_examples=40, deadline=None)
def test_mrl_report_matches_the_loop(case, seed, structure):
    family, dim = case
    rng = np.random.default_rng(seed)
    marginals = random_marginals(rng, dim)
    p = SystemPair(copula=random_instance(family, rng, dim), marginals=marginals,
                   structure=structure)
    assert_mrl_report_matches_the_loop(p, wide_grid(marginals))


FISCHER_HINZMANN = parse_copula("fischer_hinzmann:m=2.0,alpha=0.5")


@pytest.mark.parametrize("copula,structure,grid", [
    # vanished rows, also before defined ones
    (Fgm(alpha=0.5), "series", [0.5, 45.0, 60.0]),
    (FISCHER_HINZMANN, "series", [60.0, 0.1, 0.5]),
    # the literal form's parallel survival levels off near 0.29: refused
    (FISCHER_HINZMANN, "parallel", [0.5, 1.0]),
    # at t = 60 the dependent refusal comes before the independent vanishing
    (FISCHER_HINZMANN, "parallel", [60.0]),
])
def test_mrl_report_matches_the_loop_on_refusals_and_vanished_rows(copula, structure, grid):
    assert_mrl_report_matches_the_loop(pair(copula, structure, (E1, E2)), np.array(grid))


@pytest.mark.parametrize("structure", ["series", "parallel"])
def test_error_rates_refuse_a_two_dimensional_time(structure):
    p = pair(Fgm(alpha=0.5), structure, (E1, E2))
    for error in (p.hr_error, p.rhr_error):
        with pytest.raises(DomainError, match="t must be a number or a one-dimensional array"):
            error(np.full((2, 2), 0.5))


def test_mrl_error_follows_the_scalar_rule_and_the_loop_order():
    p = pair(Fgm(alpha=0.5), "series", (E1, E2))
    raw, rel = p.mrl_error(0.5)
    assert type(raw) is float and type(rel) is float
    raws, rels = p.mrl_error(np.array([0.1, 0.5]))
    assert raws.shape == rels.shape == (2,)
    assert (raws[1], rels[1]) == (raw, rel)
    with pytest.raises(SingularityError, match="survival function vanished") as info:
        p.mrl_error(np.array([0.5, 45.0, 60.0]))
    assert info.value.t == 45.0
    fh = pair(FISCHER_HINZMANN, "parallel", (E1, E2))
    with pytest.raises(IntegrationError, match=r"not decaying on \(60.0, 110.0\)"):
        fh.mrl_error(np.array([60.0, 0.5]))


def test_mrl_report_on_a_far_tail_point_finishes():
    # at t = 2**53, t + s == t, so doubling s from there never reaches the cap
    with deadline(20):
        rep = pair(Fgm(alpha=0.5), "series", (E1, E2)).error_report(
            np.array([0.5, 2.0**53]), measure="mrl")
    assert rep.flags == ((1, "survival function vanished"),)
    assert not np.isnan(rep.raw[0])

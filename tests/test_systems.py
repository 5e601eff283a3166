import itertools
import json
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import copreli.systems
from conftest import (
    FAMILY_CASES,
    KINKED_FAMILIES,
    TAIL_KINK_CASES,
    assert_same_integrals,
    deadline,
    families_for_dim,
    random_instance,
    random_marginals,
    wide_grid,
)
from copreli import (
    Amh,
    DomainError,
    Exponential,
    Fgm,
    GumbelBarnet,
    Independence,
    IntegrationError,
    FischerHinzmann,
    LinearSpearman,
    MarshallOlkin,
    SingularityError,
    Clayton,
    CopreliError,
    System,
    Weibull,
    parse_copula,
    poincare_survival,
    ratio_function,
)
from copreli.numerics import central_derivative
from copreli.systems import CURVE_COLUMNS, _integrate

E1 = Exponential(1.0)
E2 = Exponential(2.0)
LN2 = math.log(2.0)


def make(structure, mode, copula=None, marginals=(E1, E1)):
    return System(marginals=marginals, structure=structure, mode=mode, copula=copula)


# ---------------------------------------------------------------------------
# survival / distribution functions
# ---------------------------------------------------------------------------


def test_series_independent_is_product_of_survivals():
    s = make("series", "independent")
    assert s.sf(0.5) == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert s.sf(0.0) == 1.0
    assert s.cdf(0.0) == 0.0


def test_series_dependent_fgm_matches_gumbel_ii_value():
    s = make("series", "dependent", Fgm(alpha=0.5))
    assert s.sf(LN2) == pytest.approx(0.28125, abs=1e-15)


def test_parallel_cdf_values():
    p = make("parallel", "independent")
    assert p.cdf(LN2) == pytest.approx(0.25, abs=1e-15)
    pd = make("parallel", "dependent", Fgm(alpha=0.5))
    assert pd.cdf(LN2) == pytest.approx(0.28125, abs=1e-15)
    assert pd.cdf(0.0) == 0.0


def test_amh_near_alpha_one_curve_cdf_is_one_minus_sf():
    # near alpha = 1 a kernel that cancels gives a point alone and inside the
    # curve's array values 1e-11 apart (the cleared-denominator form did)
    weibulls = (Weibull(0.7486754133157034, 2.1638458211713307),
                Weibull(1.6433183947744756, 2.4065407302832247),
                Weibull(1.4226388585599992, 2.640894665659966))
    system = System(marginals=weibulls, structure="series", mode="dependent",
                    copula=Amh(alpha=0.9999966939544733, dim=3))
    grid = np.geomspace(0.10702439419108153, 2.6555911581092886, 25)
    cdf = np.array([system.cdf(float(t)) for t in grid])
    np.testing.assert_allclose(cdf, 1.0 - system.curve(grid).sf, rtol=0, atol=1e-12)


def test_array_times_match_scalar_calls():
    # vectorised numpy powers may round differently from scalar ones in the
    # last bit; probabilities are at most 1, so a few ulps of 1 bound that
    atol = 4.0 * np.finfo(float).eps
    rng = np.random.default_rng(17)
    grid = np.geomspace(1e-3, 6.0, 23)
    for family in families_for_dim(2):
        cop = random_instance(family, rng, dim=2)
        for structure in ("series", "parallel"):
            for mode in ("dependent", "independent"):
                s = make(structure, mode, cop, (E1, Weibull(1.2, 1.7)))
                for name in ("sf", "cdf"):
                    f = getattr(s, name)
                    assert isinstance(f(0.5), float)
                    np.testing.assert_allclose(f(grid), [f(float(t)) for t in grid],
                                               rtol=0.0, atol=atol)


_CLAYTON3 = Clayton(alpha=2.0, dim=3)
_MARGINALS3 = (E1, Weibull(1.2, 1.7), Exponential(0.5))
_SCALAR_RULE_CASES = [
    ("Copula.value", _CLAYTON3.value, [0.3, 0.6, 0.8], [[0.3, 0.6, 0.8]]),
    ("poincare_survival", lambda u: poincare_survival(_CLAYTON3, u), [0.3, 0.6, 0.8],
     [[0.3, 0.6, 0.8]]),
    *[(f"{type(m).__name__}.{name}", getattr(m, name), 0.4, [0.4])
      for m in (E1, Weibull(1.2, 1.7))
      for name in ("cdf", "sf", "pdf", "hazard", "reversed_hazard", "quantile")],
    *[(f"System.{name}-{structure}",
       getattr(System(_MARGINALS3, structure, "dependent", _CLAYTON3), name), 0.4, [0.4])
      for structure in ("series", "parallel") for name in ("sf", "cdf", "hazard")],
    ("ratio_function", ratio_function(_CLAYTON3, _MARGINALS3, "C_over_Chat"), 0.4, [0.4]),
    ("central_derivative", lambda t: central_derivative(E1.sf, t), 0.4, [0.4]),
]


@pytest.mark.parametrize("call,number,one", [case[1:] for case in _SCALAR_RULE_CASES],
                         ids=[case[0] for case in _SCALAR_RULE_CASES])
def test_a_number_gives_a_float_and_an_array_an_array(call, number, one):
    assert type(call(number)) is float
    out = call(np.array(one))
    assert isinstance(out, np.ndarray) and out.shape == (1,)
    assert out[0] == pytest.approx(call(number), rel=1e-14)


def test_time_domain_checks():
    s = make("parallel", "dependent", Fgm(alpha=0.5))
    for bad in (-0.5, np.array([0.5, -0.5])):
        with pytest.raises(DomainError):
            s.sf(bad)
        with pytest.raises(DomainError):
            s.cdf(bad)
    with pytest.raises(DomainError):
        s.sf(np.ones((2, 2)))


def test_independence_copula_degenerates_to_independent_mode():
    dep = make("parallel", "dependent", Independence())
    ind = make("parallel", "independent")
    for t in np.linspace(0.0, 4.0, 17):
        assert dep.sf(t) == pytest.approx(ind.sf(t), abs=1e-14)


def test_single_component_system():
    one = System(marginals=(E1,), structure="series", mode="independent")
    assert one.sf(0.7) == pytest.approx(math.exp(-0.7))
    assert one.mrl(1.3) == pytest.approx(1.0, rel=1e-7)  # memoryless


# ---------------------------------------------------------------------------
# hazard / reversed hazard / mrl / ai
# ---------------------------------------------------------------------------


def test_series_independent_hazard_is_sum_of_rates():
    s = System(marginals=(E1, E2), structure="series", mode="independent")
    for t in (0.1, 0.7, 2.0):
        assert s.hazard(t) == pytest.approx(3.0, abs=1e-6)


def test_gumbel_barnet_series_hazard_closed_form():
    # the bivariate exponential with quadratic log-survival: rate 2 + 2 alpha t
    alpha = 0.7
    s = make("series", "dependent", GumbelBarnet(alpha=alpha))
    for t in (0.2, 0.9, 2.3):
        assert s.hazard(t) == pytest.approx(2.0 + 2.0 * alpha * t, abs=1e-8)


def test_parallel_independent_rhr_is_sum_of_marginal_rhrs():
    p = make("parallel", "independent")
    expected = 2.0 * E1.reversed_hazard(LN2)
    assert p.reversed_hazard(LN2) == pytest.approx(expected, rel=1e-6)


def test_mrl_values():
    assert make("series", "independent").mrl(1.0) == pytest.approx(0.5, rel=1e-7)
    # integral of the dependent series survival from 0: 1/2 + alpha/12
    s = make("series", "dependent", Fgm(alpha=0.5))
    assert s.mrl(0.0) == pytest.approx(0.5 + 0.5 / 12.0, rel=1e-7)


def test_mrl_closed_forms_of_independent_exponentials():
    rates = (0.5, 1.0, 2.5)
    series = System(marginals=tuple(Exponential(r) for r in rates), structure="series",
                    mode="independent")
    parallel = make("parallel", "independent", marginals=(E1, E2))
    for t in (0.0, 0.4, 3.0):
        assert series.mrl(t) == pytest.approx(1.0 / sum(rates), rel=1e-9)
        a, b = math.exp(-t), math.exp(-2.0 * t)
        tail = a + b / 2.0 - a * b / 3.0
        assert parallel.mrl(t) == pytest.approx(tail / (a + b - a * b), rel=1e-9)


def test_mrl_across_the_linear_spearman_kink():
    # theta < 0, series, Exp(1) and Exp(2): the survival function is
    # (1 + theta) e^{-3t} + theta (1 - e^{-t} - e^{-2t}) up to the crossing
    # e^{-t} + e^{-2t} = 1 at t* = ln golden ratio, and (1 + theta) e^{-3t}
    # beyond it, so its derivative jumps at t*
    theta = -0.49
    s = make("series", "dependent", LinearSpearman(theta=theta), (E1, E2))
    kink = math.log((1.0 + math.sqrt(5.0)) / 2.0)

    def sf(t):
        return (1.0 + theta) * math.exp(-3.0 * t) + theta * min(
            0.0, 1.0 - math.exp(-t) - math.exp(-2.0 * t))

    def tail(t):
        out = (1.0 + theta) * math.exp(-3.0 * t) / 3.0
        if t < kink:
            out += theta * ((kink - t) - (math.exp(-t) - math.exp(-kink))
                            - (math.exp(-2.0 * t) - math.exp(-2.0 * kink)) / 2.0)
        return out

    # from t = 0.2 and 0.45 a bisection edge lands 4e-5 short of t*, and from
    # t = 0.48 the kink sits before the first node of the first panel: without
    # the kink split the Gauss-Kronrod error estimate misses it by 4e-9 to 1e-5
    for t in (0.0, 0.2, 0.45, 0.48, 0.49, 1.5):
        assert s.sf(t) == pytest.approx(sf(t), rel=1e-12)
        assert s.mrl(t) == pytest.approx(tail(t) / sf(t), rel=1e-9)


def test_mrl_of_a_panel_nearly_singular_at_its_end():
    # sf of a Weibull shape of 0.992 is not smooth at t = 0, just left of the
    # first panel of the integral from t = 0.0015673: there a 10-point Gauss
    # estimate can agree with a Gauss-21 value by coincidence, and a panel
    # settled on that pair is 3.6e-8 off (3.6 tolerances)
    marginals = (Weibull(1.685464838777997, 0.992065619484427),
                 Weibull(1.0280783376462523, 1.7438697554940399))
    system = make("series", "dependent", Amh(alpha=-0.23681177266322262), marginals)
    t = 0.0015673092435731133
    with mpmath.workdps(17):
        x = mpmath.mpf(t)
        tail = mpmath.quad(lambda u: mp_sf(system, u), [x, x + 0.1, x + 1.0, x + 4.0, 40.0])
        assert system.mrl(t) == pytest.approx(float(tail / mp_sf(system, x)), rel=1e-9, abs=0.0)


def test_mrl_refuses_a_survival_function_that_does_not_decay():
    # the literal Fischer-Hinzmann form has C(1, 1) = sqrt(1/2), so the
    # parallel survival function 1 - C(u) levels off near 0.29
    cop = parse_copula("fischer_hinzmann:m=2.0,alpha=0.5")
    with pytest.raises(IntegrationError):
        make("parallel", "dependent", cop, (E1, E2)).mrl(0.5)


def test_mrl_truncation_matches_the_doubling_search(monkeypatch):
    # the truncation point is the first of t + s, t + 2s, ... (capped at
    # t + 50s) where sf <= 1e-12 sf(t), as a one-at-a-time search finds it
    def doubling_search(system, t):
        sft = system.sf(t)
        scale = max(m.mean() for m in system.marginals)
        cap = t + 50.0 * scale
        upper, candidates = t + scale, 1
        while upper < cap and upper > t and system.sf(upper) > 1e-12 * sft:
            upper, candidates = min(cap, t + 2.0 * (upper - t)), candidates + 1
        return upper, system.sf(upper) > 1e-6 * sft, candidates

    uppers = []
    real = copreli.systems._integrate
    monkeypatch.setattr(copreli.systems, "_integrate",
                        lambda f, a, b: uppers.append(b) or real(f, a, b))
    levels_off = parse_copula("fischer_hinzmann:m=2.0,alpha=0.5")
    cases = [(make("series", "independent"), (0.0, 0.7, 4.0)),
             (make("parallel", "dependent", Fgm(alpha=-0.7), (E1, Weibull(0.5, 0.8))),
              (0.0, 0.7, 4.0)),
             (make("parallel", "dependent", levels_off, (E1, E2)), (0.0, 0.7, 4.0)),
             # far out t + s rounds to t + 2 and the cap to t + 144: the search
             # takes all 8 candidates t + 2, t + 4, ..., t + 128, t + 144
             (make("parallel", "dependent", levels_off, (Exponential(1.0 / 2.9), E1)), (1e16,))]
    most = 0
    for system, times in cases:
        for t in times:
            upper, refused, candidates = doubling_search(system, t)
            most = max(most, candidates)
            if refused:
                with pytest.raises(IntegrationError) as info:
                    system.mrl(t)
                assert str(info.value) == (f"survival function is not decaying on ({t}, "
                                           f"{upper}); refusing to truncate")
            else:
                system.mrl(t)
                assert uppers.pop()[-1] == upper  # the tail ends the last piece
    assert most == copreli.systems._CANDIDATES == 8


def test_a_start_just_below_a_power_of_two_does_not_hang_the_truncation_search():
    # t + 2 (u - t) rounds back to u = 2**26 > t forever, short of the cap:
    # a search that doubles until it meets the cap would never end
    s = 4.6397147595773715e-09
    twins = (Exponential(1.0 / s), Exponential(1.0 / s))
    system = make("parallel", "dependent", parse_copula("fischer_hinzmann:m=2.0,alpha=0.5"), twins)
    t = 67108863.99999999
    with deadline(20), pytest.raises(IntegrationError) as info:
        system.mrl(t)
    assert str(info.value) == (f"survival function is not decaying on ({t}, 67108864.0); "
                               "refusing to truncate")


def test_quadrature_panel_budget():
    values, failed = _integrate(np.exp, np.zeros(1), np.ones(1))
    assert values[0] == pytest.approx(math.e - 1.0, rel=1e-14)
    assert not failed[0]
    # about 1600 periods need far more than the 200-panel budget
    values, failed = _integrate(lambda x: np.sin(1e4 * x), np.zeros(1), np.ones(1))
    assert failed[0]
    assert np.isnan(values[0])


def test_the_kronrod_rule_is_exact_to_degree_31_and_holds_gauss_10():
    nodes, weights = copreli.systems._NODES, copreli.systems._KRONROD21
    for d in range(32):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        assert abs((weights * nodes ** d).sum() - exact) <= 1e-15
    gauss = np.polynomial.legendre.leggauss(10)
    np.testing.assert_allclose(nodes[1::2], gauss[0], rtol=0, atol=1e-15)
    np.testing.assert_allclose(copreli.systems._GAUSS10, gauss[1], rtol=0, atol=1e-15)


def _piecewise(x):
    """Smooth below 10, about 1600 periods per unit above: an integral that
    reaches past 10 runs out of panels."""
    return np.where(x < 10.0, np.exp(-x) * np.cos(3.0 * x), np.sin(1e4 * x))


def assert_each_integral_as_alone(a, b, values, failed):
    """Each integral of a batch is bit for bit its lone call's."""
    for i in range(a.size):
        alone, alone_failed = _integrate(_piecewise, a[i:i + 1], b[i:i + 1])
        assert alone_failed[0] == failed[i]
        np.testing.assert_array_equal(alone, values[i:i + 1])


def test_batched_quadrature_fails_only_the_integral_that_runs_out_of_panels():
    a, b = np.array([0.0, 0.3, 10.0, 2.0]), np.array([1.0, 9.0, 11.0, 2.5])
    values, failed = _integrate(_piecewise, a, b)
    np.testing.assert_array_equal(failed, [False, False, True, False])
    assert np.isnan(values[2])
    exact = (1.0 - math.exp(-1.0) * (math.cos(3.0) - 3.0 * math.sin(3.0))) / 10.0
    assert values[0] == pytest.approx(exact, rel=1e-12)
    assert_each_integral_as_alone(a, b, values, failed)


@given(st.lists(st.tuples(st.floats(0.0, 12.0), st.floats(1e-3, 8.0)), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_batched_quadrature_matches_lone_calls_bit_for_bit(intervals):
    a = np.array([lo for lo, _ in intervals])
    b = a + np.array([width for _, width in intervals])
    assert_each_integral_as_alone(a, b, *_integrate(_piecewise, a, b))


def one_point_mrl(system, grid):
    """mrl at each t before the first that raises, and that error (or None)."""
    values = []
    for t in grid:
        try:
            values.append(system.mrl(float(t)))
        except CopreliError as exc:
            return np.array(values), exc
    return np.array(values), None


@given(case=st.sampled_from(FAMILY_CASES), seed=st.integers(0, 2**32 - 1),
       structure=st.sampled_from(("series", "parallel")),
       mode=st.sampled_from(("dependent", "independent")))
@settings(max_examples=60, deadline=None)
def test_array_mrl_matches_a_one_point_loop(case, seed, structure, mode):
    family, dim = case
    rng = np.random.default_rng(seed)
    marginals = random_marginals(rng, dim)
    system = System(marginals, structure, mode, random_instance(family, rng, dim))
    grid = wide_grid(marginals)
    values, first = one_point_mrl(system, grid)
    head = grid[:values.size]
    assert_same_integrals(system.mrl(head), values, system.sf(head))
    if first is None:
        assert_same_integrals(system.mrl(grid), values, system.sf(grid))
    else:
        with pytest.raises(CopreliError) as info:
            system.mrl(grid)
        assert type(info.value) is type(first)
        assert str(info.value) == str(first)
        assert getattr(info.value, "t", None) == getattr(first, "t", None)


def test_array_mrl_matches_a_one_point_loop_for_nelsen_ten_near_the_origin():
    # next to the t^k start a Gauss-21 value and a Lobatto-12 check agree by
    # coincidence: a lone mrl(1e-4) settled on that pair reads 1.1522256069
    # against a reference 1.1522256976
    test_array_mrl_matches_a_one_point_loop.hypothesis.inner_test(
        ("nelsen_ten", 2), 5159704, "parallel", "dependent")


@pytest.mark.parametrize("structure", ["series", "parallel"])
def test_mrl_refuses_a_component_mean_past_the_float_range(structure):
    system = System((Weibull(1.0, 0.005), E1), structure, "independent")
    with pytest.raises(IntegrationError, match="truncation scale inf is not finite"):
        system.mrl(np.array([0.5, 1.0]))
    curve = system.curve([0.5, 1.0])
    assert np.all(np.isnan(curve.mrl)) and [c for _, c, _ in curve.flags] == ["mrl", "mrl"]


def test_mrl_takes_a_number_or_an_array():
    s = make("series", "dependent", Fgm(alpha=0.5), (E1, E2))
    assert type(s.mrl(0.5)) is float
    out = s.mrl(np.array([0.5]))
    assert isinstance(out, np.ndarray) and out.shape == (1,)
    assert out[0] == s.mrl(0.5)
    assert s.mrl(np.array([])).shape == (0,)
    with pytest.raises(SingularityError, match="survival function vanished") as info:
        s.mrl(np.array([0.5, 60.0, 70.0]))
    assert info.value.t == 60.0


def test_mrl_of_unsorted_and_repeated_times():
    # the grid path sorts the distinct starts; a repeated t gets the same value
    s = make("parallel", "dependent", Clayton(alpha=2.0), (E1, Weibull(0.7, 1.8)))
    t = np.array([2.0, 0.5, 2.0, 0.0, 1.0])
    out = s.mrl(t)
    assert out[0] == out[2]
    assert_same_integrals(out, [s.mrl(float(x)) for x in t], s.sf(t))


def test_a_failed_piece_fails_every_mrl_that_contains_it(monkeypatch):
    # the pieces are [0.5, 1], [1, 2], [2, 3] and the tail; failing [1, 2]
    # fails t = 0.5 and 1 with their own intervals in the message, not t = 2, 3
    real = copreli.systems._integrate

    def fail_second(f, a, b):
        values, failed = real(f, a, b)
        failed[1] = True
        return np.where(failed, np.nan, values), failed

    s = make("series", "dependent", Fgm(alpha=0.5), (E1, E2))
    t = np.array([3.0, 1.0, 0.5, 2.0, 1.0])
    expected = s.mrl(t)
    monkeypatch.setattr(copreli.systems, "_integrate", fail_second)
    mrl, errors = s._mrl(t)
    np.testing.assert_array_equal(np.isnan(mrl), [False, True, True, False, True])
    np.testing.assert_array_equal(mrl[[0, 3]], expected[[0, 3]])
    assert [type(e) for e in errors] == [type(None), IntegrationError, IntegrationError,
                                         type(None), IntegrationError]
    assert str(errors[2]) == "quadrature on (0.5, 16.5) did not converge within 200 panels"


def mp_sf(system, t):
    """System sf at an mpmath time, from the marginals and the copula kernel
    at mpmath precision."""
    sf = [mpmath.exp(-(m.lam * t) ** m.k) for m in system.marginals]
    if system.structure == "series":
        return system.copula._raw(*(np.array([x], dtype=object) for x in sf))[0]
    return 1 - system.copula._raw(*(np.array([1 - x], dtype=object) for x in sf))[0]


def mp_kink_gaps(system, t) -> list:
    """Functions of t at mpmath precision, one per pair of coordinates, whose
    sign changes are where the copula kernel switches branch: a_i ln u_i =
    a_j ln u_j for Marshall-Olkin (a_i = 1 for Fischer-Hinzmann), u_1 = u_2 for
    linear Spearman with theta >= 0 and u_1 = 1 - u_2 with theta < 0; u holds
    the sf values of a series system and the cdf values of a parallel one.
    Each is compared on a scale that keeps its digits far out."""
    z = [(m.lam * t) ** m.k for m in system.marginals]  # -ln sf
    series = system.structure == "series"
    cop = system.copula
    if isinstance(cop, LinearSpearman):
        if cop.theta >= 0.0:
            return [z[0] - z[1]]
        u = [mpmath.exp(-x) if series else -mpmath.expm1(-x) for x in z]
        return [u[0] + u[1] - 1]
    weights = cop.alpha if isinstance(cop, MarshallOlkin) else (1.0,) * cop.dim
    # ln of a_i (-ln u_i)
    logs = [mpmath.log(a * (x if series else -mpmath.log(-mpmath.expm1(-x)) if x < 1
                            else -mpmath.log1p(-mpmath.exp(-x)))) for a, x in zip(weights, z)]
    return [logs[i] - logs[j] for i, j in itertools.combinations(range(cop.dim), 2)]


def mp_kinks(system, hi: float) -> list:
    """The kink times in (0, hi), bracketed on 400 log-spaced times from 1e-6
    and each settled by ``mpmath.findroot``."""
    times = np.geomspace(1e-6, hi, 400)
    gaps = np.array([[float(g) for g in mp_kink_gaps(system, mpmath.mpf(x))] for x in times]).T
    kinks = []
    for pair, k in zip(*np.nonzero(gaps[:, :-1] * gaps[:, 1:] < 0)):
        kinks.append(mpmath.findroot(lambda x: mp_kink_gaps(system, x)[pair],
                                     (times[k], times[k + 1]), solver="anderson"))
    return sorted(kinks)


def kink_gaps(system, t: np.ndarray) -> np.ndarray:
    """``mp_kink_gaps`` in floats, a row per pair at an array of times; NaN
    where a side underflows."""
    z = np.array([(m.lam * t) ** m.k for m in system.marginals])
    series = system.structure == "series"
    cop = system.copula
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if isinstance(cop, LinearSpearman):
            u = np.exp(-z) if series else -np.expm1(-z)
            gaps = [z[0] - z[1] if cop.theta >= 0.0 else u[0] + u[1] - 1.0]
        else:
            weights = cop.alpha if isinstance(cop, MarshallOlkin) else (1.0,) * cop.dim
            w = z if series else np.where(z < 1.0, -np.log(-np.expm1(-z)),
                                          -np.log1p(-np.exp(-z)))
            logs = np.log(np.array(weights)[:, None] * w)
            gaps = [logs[i] - logs[j] for i, j in itertools.combinations(range(cop.dim), 2)]
    gaps = np.array(gaps)
    return np.where(np.isfinite(gaps), gaps, np.nan)


def mrl_kinks(system, grid) -> tuple[np.ndarray, float]:
    """The times that ``system._mrl(grid)`` splits its quadrature at besides the
    grid, and the end of its tail (NaN if it integrates nothing)."""
    calls = []
    real = copreli.systems._integrate
    with mock.patch.object(copreli.systems, "_integrate",
                           lambda f, a, b: calls.append((a, b)) or real(f, a, b)):
        system._mrl(grid)
    left, right = calls[0]
    return np.setdiff1d(left, grid), (right[-1] if right.size else np.nan)


@st.composite
def kinked_systems(draw):
    """A dependent system over a kinked ``FAMILY_SAMPLERS`` family and random
    Exponential and Weibull margins, and a wide grid from t = 0."""
    family, dim = draw(st.sampled_from([c for c in FAMILY_CASES if c[0] in KINKED_FAMILIES]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    marginals = random_marginals(rng, dim)
    structure = draw(st.sampled_from(("series", "parallel")))
    copula = random_instance(family, rng, dim)
    return System(marginals, structure, "dependent", copula), wide_grid(marginals)


def tail_kink_system(case) -> tuple:
    copula, marginals, grid = case
    return System(marginals, "parallel", "dependent", copula), grid


@given(kinked_systems())
@example(tail_kink_system(TAIL_KINK_CASES[0]))
@example(tail_kink_system(TAIL_KINK_CASES[1]))
@example(tail_kink_system(TAIL_KINK_CASES[2]))
@settings(max_examples=20, deadline=None)
def test_mrl_splits_at_every_kink_a_dense_scan_finds(system_and_grid):
    # every sign change of a pair's gap between neighbours of 4,001 log-spaced
    # times over the span holds a split, and every split is a sign change
    system, grid = system_and_grid
    found, end = mrl_kinks(system, grid)
    if np.isnan(end):
        assert found.size == 0
        return
    dense = np.geomspace(grid[grid > 0][0], end, 4001)
    gaps = kink_gaps(system, dense)
    for k in np.nonzero(gaps[:, :-1] * gaps[:, 1:] < 0)[1]:
        assert np.any((dense[k] * (1 - 1e-9) <= found) & (found <= dense[k + 1] * (1 + 1e-9)))
    below, above = kink_gaps(system, found * (1 - 1e-9)), kink_gaps(system, found * (1 + 1e-9))
    assert np.all(np.any(below * above < 0, axis=0))


@given(case=st.sampled_from([c for c in FAMILY_CASES if c[0] not in KINKED_FAMILIES]),
       seed=st.integers(0, 2**32 - 1), structure=st.sampled_from(("series", "parallel")))
@settings(max_examples=20, deadline=None)
def test_smooth_families_report_no_kinks(case, seed, structure):
    family, dim = case
    rng = np.random.default_rng(seed)
    marginals = random_marginals(rng, dim)
    system = System(marginals, structure, "dependent", random_instance(family, rng, dim))
    assert system._kinks(0.0, 1e3).size == 0
    assert mrl_kinks(system, wide_grid(marginals))[0].size == 0


SMOOTH_REFERENCE_COPULAS = [Clayton(alpha=2.5), Fgm(alpha=-0.6), Amh(alpha=0.7),
                            Clayton(alpha=0.6, dim=3), Fgm(alpha=0.8, dim=3),
                            Amh(alpha=-0.5, dim=3)]
# the literal Fischer-Hinzmann form levels off in parallel: its corrected one decays
KINKED_REFERENCE_CASES = [
    *((cop, structure) for structure in ("series", "parallel") for cop in (
        MarshallOlkin(alpha=(0.6, 1.7)), MarshallOlkin(alpha=(1.3, 2.2, 0.4)),
        LinearSpearman(theta=0.6), LinearSpearman(theta=-0.7))),
    (FischerHinzmann(m=2.5, alpha=0.4), "series"),
    (FischerHinzmann(m=2.5, alpha=0.4, dim=3), "series"),
    (FischerHinzmann(m=2.5, alpha=0.4, corrected=True), "parallel"),
    (FischerHinzmann(m=2.5, alpha=0.4, dim=3, corrected=True), "parallel"),
]


@pytest.mark.parametrize("copula, structure", [
    *(pytest.param(cop, structure, id=f"{cop!r}-{structure}")
      for cop in SMOOTH_REFERENCE_COPULAS for structure in ("series", "parallel")),
    *(pytest.param(cop, structure, id=f"{cop!r}-{structure}")
      for cop, structure in KINKED_REFERENCE_CASES)])
def test_grid_mrl_matches_an_mpmath_reference(copula, structure):
    # a reference that shares only the copula kernel with the grid path:
    # tanh-sinh quadrature of sf over (t, inf) at 17 digits, one t at a time,
    # with breakpoints at the kink times it finds itself and the last grid
    # point.  It sums any level sf keeps far out: the corrected
    # Fischer-Hinzmann C(1, 1) must be 1, not 1 - 1e-16.
    marginals = (Exponential(1.3), Weibull(0.7, 1.8), Weibull(1.1, 0.8))[:copula.dim]
    system = System(marginals, structure, "dependent", copula)
    curve = system.curve(wide_grid(marginals, points=6))
    end = mpmath.mpf(curve.grid[-1])
    checked = 0
    with mpmath.workdps(17):
        kinks = []
        if copula._kink() is not None:
            kinks = mp_kinks(system, curve.grid[-1])
            assert kinks
        for t, sf, mrl in zip(curve.grid, curve.sf, curve.mrl):
            if sf < 1e-9:
                continue
            x = mpmath.mpf(float(t))
            points = [*sorted({x, min(x + 4.0, end), *(k for k in kinks if k > x), end}),
                      mpmath.inf]
            tail = mpmath.quad(lambda u: mp_sf(system, u), points)
            assert mrl == pytest.approx(float(tail / mp_sf(system, x)), rel=1e-9, abs=0.0)
            checked += 1
    assert checked >= 4


def test_a_far_tail_point_does_not_stall_the_truncation_search():
    # at t = 2**53, t + s == t, so doubling s from there never reaches the cap
    grid = np.array([0.5, 2.0**53])
    with deadline(20):
        curve = make("series", "dependent", Fgm(alpha=0.5), (E1, E2)).curve(grid)
        assert curve.flags == ((1, "hr", "survival function vanished"),
                               (1, "mrl", "survival function vanished"),
                               (1, "ai", "aging intensity undefined where sf is 0 or 1"))
        assert not np.isnan(curve.mrl[0])
        # a survival function that levels off (literal Fischer-Hinzmann) is
        # still alive there: its stalled search is refused, not looped on
        cop = parse_copula("fischer_hinzmann:m=2.0,alpha=0.5")
        curve = make("parallel", "dependent", cop, (E1, E2)).curve(grid)
    assert [(i, c) for i, c, _ in curve.flags if c == "mrl"] == [(0, "mrl"), (1, "mrl")]
    assert curve.flags[-1][2] == ("survival function is not decaying on (9007199254740992.0, "
                                  "9007199254740992.0); refusing to truncate")


def test_ai_values():
    assert make("series", "independent").ai(0.8) == pytest.approx(1.0, abs=1e-8)
    w = System(marginals=(Weibull(1.0, 2.0),), structure="series", mode="independent")
    for t in (0.3, 0.7, 1.5):
        assert w.ai(t) == pytest.approx(2.0, abs=1e-8)


@given(case=st.sampled_from(FAMILY_CASES), seed=st.integers(0, 2**32 - 1),
       structure=st.sampled_from(("series", "parallel")),
       mode=st.sampled_from(("dependent", "independent")))
@settings(max_examples=60, deadline=None)
def test_hazards_on_an_array_match_scalar_calls(case, seed, structure, mode):
    family, dim = case
    rng = np.random.default_rng(seed)
    marginals = random_marginals(rng, dim)
    system = System(marginals=marginals, structure=structure, mode=mode,
                    copula=random_instance(family, rng, dim))
    grid = wide_grid(marginals)
    for name in ("hazard", "reversed_hazard"):
        rate = getattr(system, name)
        expected, first = np.full(grid.shape, np.nan), None
        for i, t in enumerate(grid):
            try:
                expected[i] = rate(float(t))
            except SingularityError as exc:
                first = first or exc
        defined = ~np.isnan(expected)
        np.testing.assert_allclose(rate(grid[defined]), expected[defined], rtol=1e-9, atol=0.0)
        if first is not None:
            # the array call raises at the first undefined point, as a loop would
            with pytest.raises(SingularityError) as raised:
                rate(grid)
            assert (str(raised.value), raised.value.t) == (str(first), first.t)


def test_hazard_singularity_deep_in_tail():
    s = make("series", "independent")
    with pytest.raises(SingularityError):
        s.hazard(20.0)  # sf ~ e^-40 below the floor
    with pytest.raises(SingularityError):
        make("parallel", "independent").reversed_hazard(0.0)


@pytest.mark.parametrize("structure", ["series", "parallel"])
@pytest.mark.parametrize("t", [-0.5, np.array([0.5, -0.5, 1.0])])
def test_rates_refuse_a_negative_time(structure, t):
    system = make(structure, "dependent", Fgm(alpha=0.5), (E1, Weibull(1.2, 1.7)))
    for rate in (system.hazard, system.reversed_hazard):
        with pytest.raises(DomainError, match="lifetime argument t must be >= 0"):
            rate(t)
    with pytest.raises(DomainError):
        system.ai(t)


@pytest.mark.parametrize("marginals", [(E1,), (E1, E2)])
@pytest.mark.parametrize("structure", ["series", "parallel"])
def test_sf_and_cdf_refuse_a_two_dimensional_time(marginals, structure):
    system = make(structure, "independent", marginals=marginals)
    for side in (system.sf, system.cdf):
        with pytest.raises(DomainError, match="one-dimensional"):
            side(np.full((2, 3), 0.5))


@pytest.mark.parametrize("structure", ["series", "parallel"])
def test_rates_refuse_a_two_dimensional_time(structure):
    system = make(structure, "dependent", Fgm(alpha=0.5), (E1, E2))
    for rate in (system.hazard, system.reversed_hazard, system.ai):
        with pytest.raises(DomainError, match="t must be a number or a one-dimensional array"):
            rate(np.full((2, 2), 0.5))


def test_a_nan_time_is_refused():
    system = make("series", "dependent", Fgm(alpha=0.5), (E1, E2))
    for call, t in ((system.curve, [np.nan, 1.0]), (system.mrl, [1.0, np.nan]),
                    (system.hazard, np.nan)):
        with pytest.raises(DomainError, match="lifetime argument t must be >= 0"):
            call(t)


def test_spec_validation():
    with pytest.raises(DomainError):
        make("series", "dependent")  # no copula
    with pytest.raises(DomainError):
        make("diagonal", "independent")
    with pytest.raises(DomainError):
        System(marginals=(E1, E1, E1), structure="series", mode="dependent",
               copula=Fgm(alpha=0.5))  # dimension mismatch
    with pytest.raises(DomainError):
        make("series", "dependent", Fgm(alpha=1.5))  # invalid parameter


# ---------------------------------------------------------------------------
# parallel dominates series (the four survival inequalities)
# ---------------------------------------------------------------------------


def test_parallel_dominates_series_across_families():
    rng = np.random.default_rng(99)
    grid = np.geomspace(1e-3, 6.0, 64)
    for family in families_for_dim(2):
        for _ in range(4):
            cop = random_instance(family, rng, dim=2)
            marg = (Exponential(rng.uniform(0.3, 3.0)), Exponential(rng.uniform(0.3, 3.0)))
            systems = {
                "S_I": System(marginals=marg, structure="series", mode="independent"),
                "S_D": System(marginals=marg, structure="series", mode="dependent", copula=cop),
                "P_I": System(marginals=marg, structure="parallel", mode="independent"),
                "P_D": System(marginals=marg, structure="parallel", mode="dependent", copula=cop),
            }
            for t in grid:
                svals = {k: s.sf(float(t)) for k, s in systems.items()}
                for p in ("P_I", "P_D"):
                    for s in ("S_I", "S_D"):
                        assert svals[p] >= svals[s] - 1e-10, (family, cop, t, p, s)


def test_hazard_error_identity_pointwise():
    # direct subtraction of hazards vs the log-derivative of the sf ratio,
    # both with the same stencil
    from copreli.numerics import central_log_derivative

    rng = np.random.default_rng(123)
    for family in families_for_dim(2):
        cop = random_instance(family, rng, dim=2)
        dep = make("series", "dependent", cop)
        ind = make("series", "independent")
        for t in (0.3, 1.0, 2.2):
            direct = dep.hazard(t) - ind.hazard(t)
            identity = -central_log_derivative(lambda x: dep.sf(x) / ind.sf(x), t)
            assert direct == pytest.approx(identity, abs=1e-5)


# ---------------------------------------------------------------------------
# reliability curves
# ---------------------------------------------------------------------------


def test_curve_empty_grid():
    curve = make("series", "independent").curve([])
    assert curve.grid.size == 0
    assert curve.to_csv() == "t,sf,hr,rhr,mrl,ai\n"


def test_curve_values_and_flags():
    s = make("series", "independent")
    curve = s.curve([0.5, 1.0])
    np.testing.assert_allclose(curve.sf, [math.exp(-1.0), math.exp(-2.0)], rtol=1e-12)
    np.testing.assert_allclose(curve.hr, [2.0, 2.0], atol=1e-6)
    assert not curve.flags

    # t = 0 has undefined rhr/ai; they must be flagged NaN, not zeroed
    curve0 = s.curve([0.0, 0.5])
    assert math.isnan(curve0.rhr[0])
    assert math.isnan(curve0.ai[0])
    assert curve0.sf[0] == 1.0
    flagged = {(i, col) for i, col, _ in curve0.flags}
    assert (0, "rhr") in flagged and (0, "ai") in flagged


@pytest.mark.parametrize("structure", ["series", "parallel"])
def test_curve_evaluates_its_stencil_once(structure, monkeypatch):
    # sf, hr, rhr and mrl share one evaluation at the grid and its stencil points
    sizes = []
    sides = System.sides
    monkeypatch.setattr(System, "sides",
                        lambda self, t: sizes.append(np.size(t)) or sides(self, t))
    grid = np.linspace(0.1, 3.0, 25)
    make(structure, "dependent", Fgm(alpha=0.5), (E1, Weibull(1.2, 1.7))).curve(grid)
    assert sizes.count(3 * grid.size) == 1 and grid.size not in sizes


def test_curve_rejects_bad_grid():
    s = make("series", "independent")
    with pytest.raises(DomainError):
        s.curve([1.0, 0.5])
    with pytest.raises(DomainError):
        s.curve([-1.0, 0.5])


def test_curve_csv_roundtrip_shortest_repr():
    s = make("series", "dependent", Fgm(alpha=0.5))
    curve = s.curve([0.25, 0.5, 1.0])
    text = curve.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "t,sf,hr,rhr,mrl,ai"
    parsed = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    np.testing.assert_array_equal(parsed[:, 0], curve.grid)
    np.testing.assert_array_equal(parsed[:, 1], curve.sf)  # repr round-trips bit-exactly


def test_curve_json_roundtrip():
    s = make("series", "independent")
    record = json.loads(s.curve([0.0, 0.5]).to_json())
    assert record["t"] == [0.0, 0.5]
    assert record["rhr"][0] is None  # undefined cell
    assert record["sf"][1] == pytest.approx(math.exp(-1.0))
    assert any(f["column"] == "rhr" for f in record["flags"])


def test_curve_invariants_for_dependent_system():
    from conftest import families_for_dim, random_instance

    rng = np.random.default_rng(41)
    grid = np.geomspace(0.05, 3.0, 16)
    for family in families_for_dim(2):
        cop = random_instance(family, rng, dim=2)
        for structure in ("series", "parallel"):
            curve = System(marginals=(E1, Weibull(1.2, 1.7)), structure=structure,
                           mode="dependent", copula=cop).curve(grid)
            assert np.all((curve.sf >= -1e-12) & (curve.sf <= 1 + 1e-12))
            assert np.all(np.diff(curve.sf) <= 1e-10)  # nonincreasing
            defined = ~np.isnan(curve.hr)
            assert np.all(curve.hr[defined] >= -1e-8)
            defined = ~np.isnan(curve.mrl)
            assert np.all(curve.mrl[defined] >= 0.0)
            defined = ~np.isnan(curve.ai)
            assert np.all(curve.ai[defined] >= -1e-8)


def one_point_ai(system, t):
    """Aging intensity of one t, computed as before ``System.ai`` took arrays."""
    if t <= 0:
        raise DomainError("aging intensity needs t > 0")
    sft = system.sf(t)
    if not (1e-12 < sft < 1.0 - 1e-15):
        raise SingularityError("aging intensity undefined where sf is 0 or 1", t=t)
    return t * system.hazard(t) / (-math.log(sft))


def one_point_curve(system, grid):
    """Columns and flags of a loop over t, then over the columns, one call a cell."""
    calls = {"sf": system.sf, "hr": system.hazard, "rhr": system.reversed_hazard,
             "mrl": system.mrl, "ai": lambda t: one_point_ai(system, t)}
    cols = {name: np.full(grid.shape, np.nan) for name in CURVE_COLUMNS}
    flags = []
    for i, t in enumerate(grid):
        for name in CURVE_COLUMNS:
            try:
                cols[name][i] = calls[name](float(t))
            except CopreliError as exc:
                flags.append((i, name, str(exc)))
    return cols, flags


def curve_cases():
    """One system of every sampled family and dimension in each structure and
    mode, over a wide grid that starts at t = 0 and ends where sf underflowed."""
    rng = np.random.default_rng(2024)
    for family, dim in FAMILY_CASES:
        marginals = random_marginals(rng, dim)
        copula = random_instance(family, rng, dim)
        for structure in ("series", "parallel"):
            for mode in ("dependent", "independent"):
                yield (f"{family}-{dim}-{structure}-{mode}",
                       System(marginals, structure, mode, copula), wide_grid(marginals))


CURVE_CASES = list(curve_cases())


@pytest.mark.parametrize("system,grid", [case[1:] for case in CURVE_CASES],
                         ids=[case[0] for case in CURVE_CASES])
def test_curve_matches_a_one_point_loop(system, grid):
    curve = system.curve(grid)
    cols, flags = one_point_curve(system, grid)
    assert list(curve.flags) == flags  # same rows, columns, order and text
    for name in ("hr", "rhr"):
        np.testing.assert_array_equal(getattr(curve, name), cols[name], err_msg=name)
    # the grid's mrl integrates the gaps between grid points, a lone point its own tail
    assert_same_integrals(curve.mrl, cols["mrl"], curve.sf)
    # sf and ai are the array calls' values, which may differ from one-point
    # calls by a few ulps of 1 in sf (see test_array_times_match_scalar_calls);
    # ai inherits that through -ln sf
    defined = ~np.isnan(curve.ai)
    np.testing.assert_array_equal(curve.sf, system.sf(grid))
    np.testing.assert_array_equal(curve.ai[defined], system.ai(grid[defined]))
    np.testing.assert_array_equal(np.isnan(cols["ai"]), ~defined)
    ulps = 4.0 * np.finfo(float).eps
    np.testing.assert_allclose(curve.sf, cols["sf"], rtol=1e-13, atol=ulps)
    sf, ai = cols["sf"][defined], cols["ai"][defined]
    bound = np.abs(ai) * (1e-13 + ulps / (sf * -np.log(sf)))
    assert np.all(np.abs(curve.ai[defined] - ai) <= bound)
    cells = {(i, c) for i, c, _ in flags}
    assert {(0, "rhr"), (0, "ai")} <= cells  # t = 0
    if curve.sf[-1] <= 1e-12:  # the underflowed tail (a defective family's sf stays up)
        assert (grid.size - 1, "hr") in cells


@pytest.mark.parametrize("system,grid", [case[1:] for case in CURVE_CASES[::7]],
                         ids=[case[0] for case in CURVE_CASES[::7]])
def test_array_ai_matches_one_point_calls(system, grid):
    t = grid[1:]
    expected, first = np.full(t.shape, np.nan), None
    for i, x in enumerate(t):
        try:
            expected[i] = system.ai(float(x))
        except SingularityError as exc:
            first = first or exc
    defined = ~np.isnan(expected)
    np.testing.assert_array_equal(system.ai(t[defined]), expected[defined])
    assert type(system.ai(float(t[defined][0]))) is float
    if first is not None:
        # the array call raises at the first undefined point, as a loop would
        with pytest.raises(SingularityError) as raised:
            system.ai(t)
        assert (str(raised.value), raised.value.t) == (str(first), first.t)
    for bad in (0.0, grid):
        with pytest.raises(DomainError, match="aging intensity needs t > 0"):
            system.ai(bad)

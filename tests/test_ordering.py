import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FAMILY_CASES, random_instance, random_marginals, wide_grid
from copreli import (
    Amh,
    Clayton,
    DomainError,
    Exponential,
    Fgm,
    FischerKock,
    GumbelHougaard,
    Independence,
    LinearSpearman,
    MarshallOlkin,
    NelsenTen,
    RluExtended,
    System,
    Weibull,
    build_ordering_report,
    check_lr_linear_spearman,
    check_radial_duality,
    classify_monotonicity,
    default_grid,
    infer_ordering,
    ratio_function,
    verify_theorem1,
)
from copreli.numerics import central_derivative

E1 = Exponential(1.0)
MARGINALS = (E1, E1)


# ---------------------------------------------------------------------------
# ratio profiles
# ---------------------------------------------------------------------------


def test_independence_ratios_are_one():
    grid = default_grid(MARGINALS, points=32)
    for kind in ("C_over_C1", "Chat_over_Chat1"):
        vals = ratio_function(Independence(), MARGINALS, kind)(grid)
        np.testing.assert_allclose(vals, 1.0, atol=1e-12)


def test_fgm_ratio_values():
    # C/C1 = 1 + alpha (1-u1)(1-u2); at u = (0.5, 0.5) this is 1.125
    t = math.log(2.0)
    val = ratio_function(Fgm(alpha=0.5), MARGINALS, "C_over_C1")(t)
    assert val == pytest.approx(1.125, abs=1e-12)
    # equal margins make u = uhat at the median, so C/Chat = 1 there
    val = ratio_function(Fgm(alpha=0.5), MARGINALS, "C_over_Chat")(t)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_ratio_function_validation():
    with pytest.raises(DomainError):
        ratio_function(Fgm(alpha=0.5), MARGINALS, "C1_over_C")
    with pytest.raises(DomainError):
        ratio_function(Fgm(alpha=0.5, dim=3), MARGINALS, "C_over_C1")


def copula_ratio(copula, marginals, kind, t):
    """The ratio of ``kind`` straight from the copula at the marginals' values."""
    u = np.stack([m.cdf(t) for m in marginals], axis=-1)
    uhat = np.stack([m.sf(t) for m in marginals], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "C_over_C1":
            return copula.value(u) / np.prod(u, axis=-1)
        if kind == "Chat_over_Chat1":
            return copula.value(uhat) / np.prod(uhat, axis=-1)
        return np.divide(copula.value(u), copula.value(uhat))


@pytest.mark.parametrize("family,dim", FAMILY_CASES)
def test_ratio_function_equals_the_copula_formulas(family, dim):
    rng = np.random.default_rng(5)
    marginals = random_marginals(rng, dim)
    copula = random_instance(family, rng, dim)
    grid = wide_grid(marginals)  # t = 0 gives 0/0 and the tail 0/0 or x/0
    for kind in ("C_over_C1", "Chat_over_Chat1", "C_over_Chat"):
        fn = ratio_function(copula, marginals, kind)
        np.testing.assert_array_equal(fn(grid), copula_ratio(copula, marginals, kind, grid),
                                      err_msg=kind)
        t = float(grid[5])
        assert fn(t) == float(copula_ratio(copula, marginals, kind, np.asarray(t))), kind


# ---------------------------------------------------------------------------
# monotonicity classification
# ---------------------------------------------------------------------------


def test_classify_constant():
    grid = np.linspace(0.1, 2.0, 20)
    verdict = classify_monotonicity(lambda t: 1.0, grid)
    assert verdict.classification == "constant"
    assert verdict.increase_witness is None


def test_classify_needs_enough_points():
    with pytest.raises(DomainError):
        classify_monotonicity(lambda t: t, np.linspace(0.1, 1.0, 8))


def test_classify_leaves_out_values_that_are_not_finite():
    grid = np.linspace(0.1, 2.0, 20)
    # falling, with a 0/0 tail that a NaN step would have hidden
    verdict = classify_monotonicity(lambda t: np.where(t < 1.75, -t, np.nan), grid)
    assert verdict.classification == "decreasing"
    assert verdict.grid.size == 20 and np.isnan(verdict.values[-3:]).all()
    assert verdict.certified_range == (grid[0], grid[16])
    # the witnesses come from finite points, never from a NaN step
    fn = lambda t: np.where((t > 5.0) & (t < 6.0), np.nan, np.sin(t))  # noqa: E731
    verdict = classify_monotonicity(fn, np.linspace(0.0, 20.0, 40))
    assert verdict.classification == "non_monotone"
    for witness in (verdict.increase_witness, verdict.decrease_witness):
        assert np.isfinite(np.ravel(witness)).all()


def test_classify_refuses_fewer_than_16_finite_values():
    grid = np.linspace(0.1, 2.0, 20)
    with pytest.raises(DomainError, match="finite"):
        classify_monotonicity(lambda t: np.where(t < 1.5, -t, np.inf), grid)


def test_dim3_marshall_olkin_weibull_series_is_certified_on_its_finite_points():
    # the third component's survival underflows at the tail of the default
    # grid, so Chat/Chat1 is 0/0 from t = 11.3 on
    copula = MarshallOlkin(alpha=(0.714, 1.092, 2.503), dim=3)
    marginals = (Weibull(1.872, 1.698), Weibull(0.554, 0.899), Weibull(1.469, 2.336))
    verdict = infer_ordering(copula, marginals, "series")
    mono = verdict.monotonicity
    finite = np.isfinite(mono.values)
    assert np.flatnonzero(~finite).tolist() == [61, 62, 63]
    assert mono.grid[61] == pytest.approx(11.338, abs=1e-3)
    assert mono.certified_range == (mono.grid[0], mono.grid[60])
    assert (mono.classification, verdict.direction) == ("decreasing", "D_le_I")
    fn = ratio_function(copula, marginals, "Chat_over_Chat1")
    assert classify_monotonicity(fn, mono.grid[finite]).classification == "decreasing"


def move_rule(values):
    """The classification the 1e-9 neighbour-move rule gives the finite values."""
    v = values[np.isfinite(values)]
    diffs = np.diff(v)
    tols = 1e-9 * (1.0 + np.maximum(np.abs(v[:-1]), np.abs(v[1:])))
    up, down = (diffs > tols).any(), (diffs < -tols).any()
    if up and down:
        return "non_monotone"
    return "increasing" if up else "decreasing" if down else "constant"


def classify_counting_calls(fn, grid):
    calls = []

    def counted(t):
        calls.append(np.array(t))
        return fn(t)

    return classify_monotonicity(counted, grid), calls


def test_classify_calls_fn_once_and_witnesses_the_largest_grid_steps():
    grid = np.linspace(0.0, 20.0, 40)
    verdict, calls = classify_counting_calls(np.sin, grid)
    assert len(calls) == 1 and calls[0].tobytes() == grid.tobytes()
    assert verdict.classification == "non_monotone"
    steps = np.diff(np.sin(grid))
    for witness, i in ((verdict.increase_witness, np.argmax(steps)),
                       (verdict.decrease_witness, np.argmin(steps))):
        assert witness == ((grid[i], np.sin(grid[i])), (grid[i + 1], np.sin(grid[i + 1])))


@given(case=st.sampled_from(FAMILY_CASES), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(("C_over_C1", "Chat_over_Chat1")))
@settings(max_examples=20, deadline=None)
def test_classify_ratio_is_the_move_rule_on_one_call(case, seed, kind):
    family, dim = case
    rng = np.random.default_rng(seed)
    marginals = random_marginals(rng, dim)
    fn = ratio_function(random_instance(family, rng, dim), marginals, kind)
    grid = default_grid(marginals, points=24)
    verdict, calls = classify_counting_calls(fn, grid)
    assert len(calls) == 1 and calls[0].tobytes() == grid.tobytes()
    assert verdict.grid.tobytes() == grid.tobytes()
    assert verdict.values.tobytes() == fn(grid).tobytes()
    assert verdict.classification == move_rule(verdict.values)


def test_rlu_dim3_series_ratio_that_falls_after_its_peak_is_non_monotone():
    # an infer op of the orderings benchmark workload (seed 3): by 50-digit
    # mpmath the ratio peaks at t = 0.81658 and then falls by 7.0e-8 to the
    # end of the grid, a fall that a finer grid near the peak splits into
    # steps below the move tolerance
    mp = pytest.importorskip("mpmath")
    copula = RluExtended(a=(2.7473107962629086, 1.3855713717238398, 2.9981921325822047),
                         b=(3.1019493736485355, 1.281889919511952, 2.1996072811264),
                         alpha=0.001316637995440073, dim=3)
    marginals = (Weibull(0.562232788562897, 1.9414443428103156),
                 Weibull(1.6961229585016149, 2.4810742597160114),
                 Weibull(1.4735711673664538, 1.844643079860321))
    verdict = infer_ordering(copula, marginals, "series")
    mono = verdict.monotonicity
    assert (mono.classification, verdict.direction, verdict.implied) == ("non_monotone", "none", ())

    def exact_ratio(t):  # Chat(uhat)/prod uhat = 1 + alpha prod uhat^(a-1) (1-uhat)^b
        with mp.workdps(50):
            bump = mp.mpf(1)
            for m, a, b in zip(marginals, copula.a, copula.b):
                u = mp.exp(-(mp.mpf(m.lam) * t) ** m.k)
                bump *= u ** (a - 1) * (1 - u) ** b
            return 1 + copula.alpha * bump

    (tc, vc), (td, vd) = mono.decrease_witness
    assert 0.8166 < tc < td
    assert exact_ratio(td) < exact_ratio(tc)
    assert vd < vc


def test_classify_fgm_profile_decreasing():
    fn = ratio_function(Fgm(alpha=0.5), MARGINALS, "C_over_C1")
    verdict = classify_monotonicity(fn, default_grid(MARGINALS))
    assert verdict.classification == "decreasing"


def test_classify_rlu_non_monotone_with_witnesses_straddling_threshold():
    cop = RluExtended(a=(2.0, 2.0), b=(3.0, 3.0), alpha=1.0)
    assert cop.ratio_thresholds() == (0.25, 0.25)
    threshold_t = E1.quantile(0.25)  # F^{-1}(k) = ln(4/3)
    fn = ratio_function(cop, MARGINALS, "C_over_C1")
    verdict = classify_monotonicity(fn, default_grid(MARGINALS))
    assert verdict.classification == "non_monotone"
    (ta, va), (tb, vb) = verdict.increase_witness
    (tc, vc), (td, vd) = verdict.decrease_witness
    assert ta < tb <= threshold_t + 1e-9       # rising leg sits left of the peak
    assert threshold_t - 1e-9 <= tc < td       # falling leg sits right of it
    # witnesses must replay against the ratio function
    for (t, v) in ((ta, va), (tb, vb), (tc, vc), (td, vd)):
        assert fn(t) == pytest.approx(v, abs=1e-9)
    assert vb > va and vd < vc


def test_rlu_monotone_on_either_side_of_thresholds():
    cop = RluExtended(a=(2.0, 2.0), b=(3.0, 3.0), alpha=1.0)
    k = cop.ratio_thresholds()
    fn = ratio_function(cop, MARGINALS, "C_over_C1")
    lo_grid = np.geomspace(1e-3, E1.quantile(min(k)) * 0.999, 24)
    hi_grid = np.geomspace(E1.quantile(max(k)) * 1.001, E1.quantile(0.999), 24)
    assert classify_monotonicity(fn, lo_grid).classification == "increasing"
    assert classify_monotonicity(fn, hi_grid).classification == "decreasing"


# ---------------------------------------------------------------------------
# order inference
# ---------------------------------------------------------------------------


def test_gumbel_hougaard_series_ordering():
    verdict = infer_ordering(GumbelHougaard(alpha=2.0), MARGINALS, "series")
    assert verdict.relation == "hr"
    assert verdict.direction == "D_ge_I"
    assert verdict.implied == ("mrl", "st")
    assert ">=_hr" in verdict.describe()


def test_amh_negative_parallel_ordering():
    verdict = infer_ordering(Amh(alpha=-0.5), MARGINALS, "parallel")
    assert verdict.relation == "rhr"
    assert verdict.direction == "D_ge_I"
    assert verdict.implied == ("st",)


def test_nelsen_ten_series_ordering():
    verdict = infer_ordering(NelsenTen(alpha=1.0), MARGINALS, "series")
    assert verdict.direction == "D_le_I"


def test_independence_ordering_is_equal():
    verdict = infer_ordering(Independence(), MARGINALS, "series")
    assert verdict.direction == "equal"
    assert verdict.implied == ()


def test_rlu_ordering_is_none_with_witnesses():
    verdict = infer_ordering(RluExtended(a=(2.0, 2.0), b=(3.0, 3.0), alpha=1.0),
                             MARGINALS, "parallel")
    assert verdict.direction == "none"
    assert verdict.monotonicity.increase_witness is not None


def test_defective_corner_blocks_weaker_orders():
    # the literal Fischer-Hinzmann form has C(1,1) < 1 for m > 1: the ratio
    # arrow is still reported, but no mrl/st claims may be derived from it
    from copreli import FischerHinzmann

    literal = infer_ordering(FischerHinzmann(m=2.0, alpha=0.5), MARGINALS, "parallel")
    assert literal.direction == "D_le_I"
    assert literal.proper is False
    assert literal.implied == ()
    assert "defective" in literal.describe()

    corrected = infer_ordering(FischerHinzmann(m=2.0, alpha=0.5, corrected=True),
                               MARGINALS, "parallel")
    assert corrected.proper is True
    assert corrected.implied == ("st",)
    # Marshall-Olkin is margin-exempt but normalises, so it keeps the chain
    mo = infer_ordering(MarshallOlkin(alpha=(0.5, 0.5)), MARGINALS, "parallel")
    assert mo.proper is True
    assert mo.implied == ("st",)


def test_certified_st_verdicts_survive_finer_grid():
    # soundness: a >=_st certificate must hold as pointwise sf dominance
    cases = [
        (GumbelHougaard(alpha=2.0), "series"),
        (Fgm(alpha=0.5), "series"),
        (Fgm(alpha=-0.5), "parallel"),
        (Clayton(alpha=1.0), "series"),
        (NelsenTen(alpha=1.0), "parallel"),
    ]
    for cop, structure in cases:
        verdict = infer_ordering(cop, MARGINALS, structure)
        assert "st" in verdict.implied
        dep = System(marginals=MARGINALS, structure=structure, mode="dependent", copula=cop)
        ind = System(marginals=MARGINALS, structure=structure, mode="independent")
        fine = default_grid(MARGINALS, points=640)
        sign = 1.0 if verdict.direction == "D_ge_I" else -1.0
        for t in fine:
            assert sign * (dep.sf(float(t)) - ind.sf(float(t))) >= -1e-9


# ---------------------------------------------------------------------------
# the four survival inequalities and duality
# ---------------------------------------------------------------------------


def test_verify_theorem1_examples():
    assert verify_theorem1(Independence(), MARGINALS).passed
    assert verify_theorem1(Fgm(alpha=-1.0), MARGINALS).passed
    result = verify_theorem1(MarshallOlkin(alpha=(0.5, 0.5)), MARGINALS)
    assert result.passed
    assert result.worst_slack >= -1e-10


def one_point_theorem1(copula, marginals, grid):
    """(worst slack, t, inequality) of a loop over t, then over the four
    inequalities, keeping the first strict minimum."""
    worst, worst_t, worst_name = np.inf, float("nan"), ""
    for t in grid:
        u = np.array([m.cdf(float(t)) for m in marginals])
        uhat = np.array([m.sf(float(t)) for m in marginals])
        sf_pi, sf_si = 1.0 - np.prod(u), np.prod(uhat)
        sf_pd, sf_sd = 1.0 - copula.value(u), copula.value(uhat)
        for name, slack in (("P_I >= S_I", sf_pi - sf_si), ("P_I >= S_D", sf_pi - sf_sd),
                            ("P_D >= S_I", sf_pd - sf_si), ("P_D >= S_D", sf_pd - sf_sd)):
            if slack < worst:
                worst, worst_t, worst_name = slack, float(t), name
    return worst, worst_t, worst_name


@given(case=st.sampled_from(FAMILY_CASES), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_theorem1_worst_point_matches_a_loop(case, seed):
    family, dim = case
    rng = np.random.default_rng(seed)
    marginals = random_marginals(rng, dim)
    copula = random_instance(family, rng, dim)
    grid = default_grid(marginals, points=24)
    result = verify_theorem1(copula, marginals, grid)
    worst, worst_t, worst_name = one_point_theorem1(copula, marginals, grid)
    assert (result.worst_t, result.worst_inequality) == (worst_t, worst_name)
    assert result.worst_slack == pytest.approx(worst, rel=1e-12, abs=1e-15)


def copula_theorem1(copula, marginals, grid):
    """(worst slack, t, inequality) with the four survival functions written
    out from the copula and the marginals."""
    t = np.asarray(grid, dtype=float)
    u = np.stack([m.cdf(t) for m in marginals], axis=-1)
    uhat = np.stack([m.sf(t) for m in marginals], axis=-1)
    sf_pi, sf_si = 1.0 - np.prod(u, axis=-1), np.prod(uhat, axis=-1)
    sf_pd, sf_sd = 1.0 - copula.value(u), copula.value(uhat)
    slack = np.stack([sf_pi - sf_si, sf_pi - sf_sd, sf_pd - sf_si, sf_pd - sf_sd], axis=-1)
    slack = np.where(np.isnan(slack), np.inf, slack).ravel()
    at = int(np.argmin(slack))
    names = ("P_I >= S_I", "P_I >= S_D", "P_D >= S_I", "P_D >= S_D")
    return float(slack[at]), float(t[at // 4]), names[at % 4]


@pytest.mark.parametrize("family,dim", FAMILY_CASES)
def test_theorem1_equals_the_copula_formulas(family, dim):
    rng = np.random.default_rng(9)
    marginals = random_marginals(rng, dim)
    copula = random_instance(family, rng, dim)
    for grid in (default_grid(marginals), wide_grid(marginals)):
        result = verify_theorem1(copula, marginals, grid)
        assert (result.worst_slack, result.worst_t, result.worst_inequality) == \
            copula_theorem1(copula, marginals, grid)


def test_theorem1_rejects_a_copula_of_another_dimension():
    with pytest.raises(DomainError, match="copula dimension 3 != marginal count 2"):
        verify_theorem1(Fgm(alpha=0.5, dim=3), MARGINALS)


def test_theorem1_ties_go_to_the_first_inequality():
    # under independence the four slacks are equal at every t, 2 F (1 - F)
    # for two Exp(1) components, smallest here at t = 7
    result = verify_theorem1(Independence(), MARGINALS, [1e-3, 0.5, 7.0])
    assert (result.worst_t, result.worst_inequality) == (7.0, "P_I >= S_I")
    empty = verify_theorem1(Independence(), MARGINALS, [])
    assert empty.passed and empty.worst_inequality == ""


def test_radial_duality():
    assert check_radial_duality(Fgm(alpha=0.5), MARGINALS).passed
    assert check_radial_duality(FischerKock(r=2.0, alpha=-0.5), MARGINALS).passed
    zero = check_radial_duality(Fgm(alpha=0.0), MARGINALS)
    assert zero.passed
    assert zero.parallel.classification == "constant"
    with pytest.raises(DomainError):
        check_radial_duality(Clayton(alpha=1.0), MARGINALS)


def test_fgm_parallel_dominates_series_in_hazard():
    # C/Chat increasing across the whole parameter range certifies
    # T_P^D >=_hr T_S^D
    grid = default_grid(MARGINALS)
    for alpha in (-1.0, -0.5, 0.0, 0.5, 1.0):
        fn = ratio_function(Fgm(alpha=alpha), MARGINALS, "C_over_Chat")
        assert classify_monotonicity(fn, grid).classification == "increasing"


def test_marshall_olkin_ratios_are_powered_minima():
    # C8 / C1 collapses to min_i u_i^(alpha_i): increasing on the
    # distribution scale, decreasing on the survival scale
    alphas = (0.5, 1.5)
    cop = MarshallOlkin(alpha=alphas)
    grid = default_grid(MARGINALS, points=32)
    for kind, coords in (("C_over_C1", "cdf"), ("Chat_over_Chat1", "sf")):
        vals = ratio_function(cop, MARGINALS, kind)(grid)
        for t, v in zip(grid, vals):
            base = [getattr(m, coords)(float(t)) for m in MARGINALS]
            expected = min(b**a for b, a in zip(base, alphas))
            assert v == pytest.approx(expected, rel=1e-12)
    assert classify_monotonicity(
        ratio_function(cop, MARGINALS, "C_over_C1"), grid).classification == "increasing"
    assert classify_monotonicity(
        ratio_function(cop, MARGINALS, "Chat_over_Chat1"), grid).classification == "decreasing"


def test_amh_interaction_derivative_sign():
    # d/dt of A + B with A = prod(1 - alpha + alpha u_i), B = -alpha prod u_i
    # is positive for alpha in (0, 1] and negative for alpha in [-1, 0)
    rng = np.random.default_rng(88)
    h = 1e-6
    for _ in range(50):
        alpha = rng.choice([rng.uniform(0.05, 1.0), rng.uniform(-1.0, -0.05)])
        t = rng.uniform(0.1, 2.5)

        def a_plus_b(x):
            u = np.array([m.cdf(x) for m in MARGINALS])
            return float(np.prod(1 - alpha + alpha * u) - alpha * np.prod(u))

        slope = (a_plus_b(t + h) - a_plus_b(t - h)) / (2 * h)
        if alpha > 0:
            assert slope >= -1e-9
        else:
            assert slope <= 1e-9


# ---------------------------------------------------------------------------
# linear Spearman likelihood-ratio check
# ---------------------------------------------------------------------------


def test_lr_check_theta_zero_is_constant_one():
    res = check_lr_linear_spearman(0.0, MARGINALS)
    np.testing.assert_allclose(res.ratio, 1.0, atol=1e-6)
    assert res.passed


def test_lr_check_decreasing_for_positive_theta():
    for theta in (0.25, 0.5, 0.9):
        res = check_lr_linear_spearman(theta, MARGINALS)
        assert res.passed, f"theta={theta}, worst increase {res.worst_increase}"
        assert res.ratio[0] > res.ratio[-1]
        # no step increases, so the witness is where the ratio falls least
        at = int(np.flatnonzero(res.grid == res.worst_at)[0])
        assert res.worst_increase < 0
        assert res.ratio[at + 1] - res.ratio[at] == res.worst_increase


def test_lr_check_identical_marginals_closed_form():
    # equal margins: f_P^D / f_P^I = (1 - theta) + theta / (2 F(t))
    for m in (Exponential(2.0), Weibull(1.0, 2.0)):
        for theta in (0.25, 0.9):
            res = check_lr_linear_spearman(theta, (m, m))
            cdf = np.array([m.cdf(float(t)) for t in res.grid])
            np.testing.assert_allclose(res.ratio, (1.0 - theta) + theta / (2.0 * cdf),
                                       rtol=1e-6, err_msg=f"{m}, theta={theta}")


@pytest.mark.parametrize("marginals", [
    MARGINALS, (Exponential(1.0), Exponential(2.0)), (Weibull(1.0, 2.0), Weibull(1.0, 2.0)),
    (Exponential(0.7), Weibull(1.3, 0.9)),
], ids=["exp-exp", "exp-exp2", "weibull-weibull", "exp-weibull"])
def test_lr_ratio_equals_the_copula_formulas(marginals):
    grid = default_grid(marginals)
    for theta in (0.0, 0.3, 1.0):
        cop = LinearSpearman(theta=theta)

        def cdf_dep(t):
            return cop.value(np.stack([marginals[0].cdf(t), marginals[1].cdf(t)], axis=-1))

        def cdf_ind(t):
            return marginals[0].cdf(t) * marginals[1].cdf(t)

        ratio = central_derivative(cdf_dep, grid) / central_derivative(cdf_ind, grid)
        np.testing.assert_array_equal(check_lr_linear_spearman(theta, marginals).ratio, ratio)


def test_lr_check_preconditions():
    with pytest.raises(DomainError):
        check_lr_linear_spearman(-0.2, MARGINALS)
    with pytest.raises(DomainError):
        check_lr_linear_spearman(0.5, (E1,))

    class IncreasingRhr:
        # stand-in lifetime whose reversed hazard rises on the grid
        def cdf(self, t):
            return np.minimum(np.asarray(t) / 10.0, 1.0)

        def sf(self, t):
            return 1.0 - self.cdf(t)

        def quantile(self, p):
            return 10.0 * p

        def reversed_hazard(self, t):
            return 0.1 + 0.05 * np.asarray(t)

    with pytest.raises(DomainError):
        check_lr_linear_spearman(0.5, (IncreasingRhr(), IncreasingRhr()))


# ---------------------------------------------------------------------------
# published-table report
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def report():
    return build_ordering_report(MARGINALS)


EXPECTED_MACHINE = {
    "fgm (alpha>0)": ("decreasing", "increasing"),
    "fgm (alpha<0)": ("increasing", "decreasing"),
    "fischer_kock (alpha>0)": ("decreasing", "increasing"),
    "fischer_kock (alpha<0)": ("increasing", "decreasing"),
    "clayton": ("decreasing", "increasing"),
    "gumbel_hougaard": ("decreasing", "increasing"),
    "gumbel_barnet": ("increasing", "decreasing"),
    "nelsen_ten": ("increasing", "decreasing"),
    "marshall_olkin": ("increasing", "decreasing"),
    "amh (alpha>0)": ("decreasing", "increasing"),
    "amh (alpha<0)": ("increasing", "decreasing"),
    "fischer_hinzmann": ("decreasing", "increasing"),
    "rlu_extended": ("non_monotone", "non_monotone"),
    "linear_spearman (theta>0)": ("decreasing", "increasing"),
    "linear_spearman (theta<0)": ("increasing", "decreasing"),
}

EXPECTED_CONFLICTS = {
    ("fischer_kock (alpha>0)", "series"),
    ("fischer_kock (alpha<0)", "series"),
    ("clayton", "parallel"),
    ("clayton", "series"),
    ("gumbel_barnet", "parallel"),
    ("gumbel_barnet", "series"),
}


def test_report_machine_verdicts(report):
    got = {row.label: (row.parallel.machine, row.series.machine) for row in report.rows}
    assert got == EXPECTED_MACHINE


def test_report_flags_exactly_the_paper_internal_conflicts(report):
    assert set(report.conflicted_cells()) == EXPECTED_CONFLICTS
    for row in report.rows:
        for cell in (row.parallel, row.series):
            if cell.agrees is False:
                assert cell.note, f"conflicted cell in {row.label} must carry a note"


def test_report_sound_rows_match_published(report):
    sound = {"fgm (alpha>0)", "fgm (alpha<0)", "gumbel_hougaard", "nelsen_ten",
             "marshall_olkin", "amh (alpha>0)", "amh (alpha<0)", "fischer_hinzmann",
             "rlu_extended"}
    for row in report.rows:
        if row.label in sound:
            assert row.parallel.agrees is True
            assert row.series.agrees is True


def test_report_serialisations(report):
    md = report.to_markdown()
    assert md.startswith("| family |")
    assert "non-monotone" in md
    csv = report.to_csv()
    assert csv.splitlines()[0] == "family,cell,machine,published,agrees,ordering,note"
    import json

    record = json.loads(report.to_json())
    assert len(record["rows"]) == len(EXPECTED_MACHINE)


def test_report_arrows_stable_under_mixed_marginals(report):
    # the certified directions are properties of the families, not of the
    # equal-exponential diagonal; unequal rates and a Weibull margin must
    # reproduce them
    for marginals in ((Exponential(1.0), Exponential(3.0)),
                      (Exponential(0.7), Weibull(1.0, 2.0))):
        other = build_ordering_report(marginals)
        for a, b in zip(report.rows, other.rows):
            assert (a.parallel.machine, a.series.machine) == \
                   (b.parallel.machine, b.series.machine), a.label


def test_lr_check_with_unequal_rates():
    # unequal rates exercise the off-diagonal branch of the copula: with
    # u2 > u1, C = u1 u2 + theta u1 (1 - u2), so the density ratio is
    # 1 + theta (f1 S2 - F1 f2) / (f1 F2 + F1 f2).  It dips below 1 past
    # t = ln((lam1 + lam2) / lam2) / lam1 and climbs back towards 1, so the
    # likelihood-ratio ordering fails and the check must say so.
    theta, lam1, lam2 = 0.5, 1.0, 2.0
    results = []
    for marginals in ((Exponential(lam1), Exponential(lam2)),
                      (Exponential(lam2), Exponential(lam1))):
        res = check_lr_linear_spearman(theta, marginals)
        assert res.passed is False, res.worst_increase
        t = res.grid
        f1, f2 = lam1 * np.exp(-lam1 * t), lam2 * np.exp(-lam2 * t)
        cdf1, cdf2 = -np.expm1(-lam1 * t), -np.expm1(-lam2 * t)
        closed = 1.0 + theta * (f1 * np.exp(-lam2 * t) - cdf1 * f2) / (f1 * cdf2 + cdf1 * f2)
        np.testing.assert_allclose(res.ratio, closed, rtol=1e-6)
        assert res.ratio.min() < 1.0
        assert res.worst_at > t[np.argmin(res.ratio)]
        results.append(res)
    a, b = results
    np.testing.assert_allclose(a.ratio, b.ratio, rtol=1e-12)
    assert a.worst_increase == pytest.approx(b.worst_increase, rel=1e-12)

import math

import mpmath
import numpy as np
import pytest
from conftest import KINKED_FAMILIES, complex_step, families_for_dim, random_instance
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from copreli import (
    Clayton,
    DomainError,
    Exponential,
    Fgm,
    FischerHinzmann,
    GumbelBarnet,
    Independence,
    LinearSpearman,
    MarshallOlkin,
    SamplingError,
    SingularityError,
    System,
    empirical_system_sf,
    finite_difference_audit,
    sample_bivariate,
)
from copreli import montecarlo
from copreli.montecarlo import _conditional_inverse, conditional_cdf
from copreli.numerics import Dual, richardson_pair

E1 = Exponential(1.0)
MARGINALS = (E1, E1)
N = 50_000


def test_reproducibility_bit_for_bit():
    a = sample_bivariate(Fgm(alpha=0.5), MARGINALS, 40_000, seed=11)
    b = sample_bivariate(Fgm(alpha=0.5), MARGINALS, 40_000, seed=11)
    assert np.array_equal(a.t1, b.t1) and np.array_equal(a.t2, b.t2)
    c = sample_bivariate(Fgm(alpha=0.5), MARGINALS, 40_000, seed=12)
    assert not np.array_equal(a.t1, c.t1)


def test_chunking_is_transparent():
    # a prefix of a longer batch equals the shorter batch (chunk streams
    # depend only on (seed, chunk index))
    small = sample_bivariate(Fgm(alpha=0.5), MARGINALS, 1 << 14, seed=5)
    large = sample_bivariate(Fgm(alpha=0.5), MARGINALS, (1 << 14) + 1000, seed=5)
    assert np.array_equal(small.v1, large.v1[: 1 << 14])
    assert np.array_equal(small.v2, large.v2[: 1 << 14])


def test_empirical_series_sf_independent():
    batch = sample_bivariate(Independence(), MARGINALS, N, seed=24, role="survival")
    p, se = empirical_system_sf(batch, "series", 0.5)
    assert abs(p - math.exp(-1.0)) <= 3.0 * se


def test_empirical_series_sf_fgm():
    batch = sample_bivariate(Fgm(alpha=0.5), MARGINALS, N, seed=25, role="survival")
    p, se = empirical_system_sf(batch, "series", math.log(2.0))
    assert abs(p - 0.28125) <= 3.0 * se


def test_parallel_sf_at_zero_is_one():
    batch = sample_bivariate(Fgm(alpha=0.5), MARGINALS, 1000, seed=26)
    p, _ = empirical_system_sf(batch, "parallel", 0.0)
    assert p == 1.0


def test_roles_give_different_laws_for_asymmetric_families():
    # Clayton is not radially symmetric: the survival-role series SF and the
    # distribution-role series SF disagree beyond Monte Carlo noise
    cl = Clayton(alpha=2.0)
    t = 0.3
    surv = sample_bivariate(cl, MARGINALS, N, seed=27, role="survival")
    dist = sample_bivariate(cl, MARGINALS, N, seed=27, role="distribution")
    p_surv, se1 = empirical_system_sf(surv, "series", t)
    p_dist, se2 = empirical_system_sf(dist, "series", t)
    analytic = System(marginals=MARGINALS, structure="series", mode="dependent",
                      copula=cl).sf(t)
    assert abs(p_surv - analytic) <= 4.0 * se1
    assert abs(p_dist - analytic) > 6.0 * math.hypot(se1, se2)


def test_sampling_validation():
    with pytest.raises(DomainError):
        sample_bivariate(Fgm(alpha=0.5, dim=3), (E1, E1, E1), 100, seed=1)
    with pytest.raises(DomainError):
        sample_bivariate(Fgm(alpha=2.0), MARGINALS, 100, seed=1)
    with pytest.raises(DomainError):
        sample_bivariate(Fgm(alpha=0.5), MARGINALS, 0, seed=1)
    with pytest.raises(DomainError):
        sample_bivariate(Fgm(alpha=0.5), MARGINALS, 100, seed=1, role="both")


def test_audit_independence_is_noise_level():
    grid = np.geomspace(0.1, 2.0, 8)
    audit = finite_difference_audit(Independence(), MARGINALS, grid)
    assert audit.max_discrepancy <= 1e-9


def test_audit_gumbel_barnet_matches_closed_form():
    # identity route after Richardson must reproduce the 2 alpha t hazard error
    alpha = 0.5
    from copreli import SystemPair
    from copreli.numerics import richardson_pair

    pair = SystemPair(copula=GumbelBarnet(alpha=alpha), marginals=MARGINALS,
                      structure="series")
    for t in (0.3, 1.0, 2.0):
        h = max(1e-6, 1e-4 * t)
        est = richardson_pair(pair.hr_error(t, h=h), pair.hr_error(t, h=h / 2))
        assert est == pytest.approx(2.0 * alpha * t, abs=1e-5)


def test_audit_matches_a_point_by_point_audit():
    from conftest import families_for_dim, random_instance
    from copreli import SystemPair
    from copreli.numerics import richardson_pair

    rng = np.random.default_rng(5)
    grid = np.geomspace(0.05, 3.0, 7)
    for family in families_for_dim(2):
        cop = random_instance(family, rng, dim=2)
        audit = finite_difference_audit(cop, MARGINALS, grid)
        for structure in ("series", "parallel"):
            pair = SystemPair(copula=cop, marginals=MARGINALS, structure=structure)
            dep, ind = pair.dependent, pair.independent
            for measure, identity, dep_rate, ind_rate in (
                    ("hr", pair.hr_error, dep.hazard, ind.hazard),
                    ("rhr", pair.rhr_error, dep.reversed_hazard, ind.reversed_hazard)):
                worst = 0.0
                for t in grid:
                    h = max(1e-6, 1e-4 * t)
                    ident = richardson_pair(identity(t, h=h), identity(t, h=h / 2))
                    direct = richardson_pair(dep_rate(t, h=h) - ind_rate(t, h=h),
                                             dep_rate(t, h=h / 2) - ind_rate(t, h=h / 2))
                    worst = max(worst, abs(ident - direct))
                assert audit.per_check[f"{structure}_{measure}"] == pytest.approx(
                    worst, rel=1e-9, abs=1e-15), (family, structure, measure)


def test_audit_raises_at_the_first_undefined_point():
    # t = 0 has no interior stencil, and the parallel cdf vanishes there
    with pytest.raises(SingularityError) as raised:
        finite_difference_audit(Fgm(alpha=0.5), MARGINALS, [0.5, 0.0, 1.0])
    assert raised.value.t == 0.0
    assert str(raised.value) == "log-derivative needs an interior point t > 0"


def test_audit_reports_the_identity_route_first():
    # at t = 400 both series survival functions underflow: the sf ratio of
    # the identity route is 0/0, and both systems' hazards are undefined too
    with pytest.raises(SingularityError) as raised:
        finite_difference_audit(Fgm(alpha=0.5), MARGINALS, [0.5, 400.0])
    assert raised.value.t == 400.0
    assert str(raised.value) == "function vanishes inside the stencil"


def test_audit_self_consistency_across_stencils():
    grid = np.geomspace(0.2, 1.5, 6)
    audit = finite_difference_audit(Fgm(alpha=0.5), MARGINALS, grid)
    assert audit.max_discrepancy <= 1e-5
    assert set(audit.per_check) == {"series_hr", "series_rhr", "parallel_hr", "parallel_rhr"}


def test_sampler_covers_every_proper_family():
    # every family whose conditional distribution is a genuine cdf gets the
    # 4-sigma empirical-vs-analytic treatment; the literal Marshall-Olkin
    # form is excluded because its u1-partial exceeds 1 on a set of positive
    # measure (its cross-validation lives in the closed-form BVE tests)
    from conftest import families_for_dim, random_instance

    rng = np.random.default_rng(606)
    ts = [E1.quantile(p) for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
    for family in families_for_dim(2):
        if family == "marshall_olkin":
            continue
        cop = random_instance(family, rng, dim=2)
        for structure, role in (("series", "survival"), ("parallel", "distribution")):
            batch = sample_bivariate(cop, MARGINALS, 30_000, seed=909, role=role)
            system = System(marginals=MARGINALS, structure=structure,
                            mode="dependent", copula=cop)
            for t in ts:
                emp, se = empirical_system_sf(batch, structure, float(t))
                assert abs(emp - system.sf(float(t))) <= 4.0 * se, (family, structure, t)


# ---------------------------------------------------------------------------
# the conditional sampler: dual-number h-function and its inverse
# ---------------------------------------------------------------------------

SMOOTH_FAMILIES = [f for f in families_for_dim(2) if f not in KINKED_FAMILIES]


def kink_distance(cop, v1: float, v2: float) -> float:
    """How far (v1, v2) lies from a branch switch of the kernel (inf if none)."""
    if cop.family == "linear_spearman":
        return abs(v1 - v2) if cop.theta >= 0 else abs(v1 + v2 - 1.0)
    if cop.family == "marshall_olkin":
        return abs(v1 ** cop.alpha[0] - v2 ** cop.alpha[1])
    if cop.family == "fischer_hinzmann":
        return abs(v1 - v2)
    return math.inf


@given(family=st.sampled_from(families_for_dim(2)), seed=st.integers(0, 2**32 - 1),
       v1=st.floats(0.05, 0.95), v2=st.floats(0.05, 0.95))
@settings(max_examples=200, deadline=None)
def test_dual_h_matches_a_central_difference(family, seed, v1, v2):
    cop = random_instance(family, np.random.default_rng(seed))
    assume(kink_distance(cop, v1, v2) >= 1e-3)

    def central(step):
        hi, lo = cop._raw(np.array([v1 + step, v1 - step]), np.array([v2, v2]))
        return (hi - lo) / (2.0 * step)

    reference = richardson_pair(central(1e-4), central(5e-5))
    h = conditional_cdf(cop, np.array([v1]), np.array([v2]))[0]
    assert h == pytest.approx(reference, rel=1e-8, abs=1e-8)


@given(family=st.sampled_from(families_for_dim(2)), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_h_from_a_real_u2_row_matches_an_all_complex_one(family, seed):
    # the sampler keeps u2 real, so only u1's row carries a derivative
    rng = np.random.default_rng(seed)
    cop = random_instance(family, rng)
    v1 = rng.uniform(1e-9, 1.0 - 1e-9, size=32)
    v2 = np.concatenate([[0.0, 1.0], rng.random(30)])
    h = conditional_cdf(cop, v1, v2)
    complex_u2 = complex_step(lambda x: cop._raw(x, v2 + 0j), v1)
    np.testing.assert_array_equal(np.isnan(h), np.isnan(complex_u2))
    np.testing.assert_allclose(h, complex_u2, rtol=0.0, atol=2e-15)


def dual_and_oracle(cop, v1, v2):
    """h from a dual u1 row, and the complex step's h; where that underflows
    (|h| < 1e-280, the imaginary part of Im C(v1 + i 1e-30, v2) below the
    smallest float), the exact h instead, from the same step in long double."""
    h = conditional_cdf(cop, v1, v2)
    with np.errstate(all="ignore"):
        oracle = complex_step(lambda x: cop._raw(x, v2), v1)
        tiny = np.abs(oracle) < 1e-280
        if tiny.any():
            exact = complex_step(lambda x: cop._raw(x, v2[tiny]), v1[tiny], np.clongdouble)
            oracle[tiny] = exact.astype(float)
    return h, oracle


@pytest.mark.parametrize("family", families_for_dim(2))
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=4, deadline=None)
def test_dual_h_matches_the_complex_step(family, seed):
    # v1 uniform or log-uniform down to 1e-9; u2 at random, at 1e-300, 0.5,
    # 1 - 1e-16 and 1, and for a kinked family exactly where its kernel
    # switches branch: there the tie is broken by the derivative on both
    # sides, so both take the same branch
    rng = np.random.default_rng(seed)
    cop = random_instance(family, rng)
    v1 = np.where(rng.random(1280) < 0.5, rng.uniform(1e-9, 1.0 - 1e-9, 1280),
                  10.0 ** rng.uniform(-9.0, -1e-9, 1280))
    v2 = np.concatenate([rng.random(256), np.repeat([1e-300, 0.5, 1.0 - 1e-16, 1.0], 256)])
    switch = cop._switch_v2(v1[:256])
    if switch is not None:
        v2[:256] = switch
    h, oracle = dual_and_oracle(cop, v1, v2)
    np.testing.assert_array_equal(np.isnan(h), np.isnan(oracle))
    if family == "marshall_olkin":
        # the kernel compares v1^a1 with v2^a2, and a complex power can round
        # apart from the real one, putting the complex step on the other side
        # of the switch; compare the switch points where it rounds alike
        a1 = cop.alpha[0]
        alike = np.ones(v1.size, dtype=bool)
        alike[:256] = ((v1[:256] + 1e-30j) ** a1).real == v1[:256] ** a1
        h, oracle = h[alike], oracle[alike]
    tol = 1e-13 * np.maximum(np.abs(oracle), 1e-6)
    assert np.all((np.abs(h - oracle) <= tol) | np.isnan(oracle))


def test_a_ufunc_outside_the_rules_raises():
    # abs, a dual exponent or a ufunc without a rule would drop the derivative
    d = Dual(np.array([0.25, 0.5]), 1.0)
    for bad in (abs, np.sqrt, np.sin, lambda x: 2.0**x, lambda x: x**x, float,
                lambda x: np.add.reduce(x)):
        with pytest.raises(TypeError):
            bad(d)
    assert d.shape == (2,)


def test_a_tie_is_broken_by_the_derivative_as_complex_numbers_are():
    up, flat = Dual(np.array([0.5]), 1.0), np.array([0.5])
    for op in (np.minimum, np.maximum):
        assert op(up, flat).dx == op(0.5 + 1e-30j, 0.5 + 0j).imag / 1e-30
    for op in (np.less, np.less_equal, np.greater, np.greater_equal, np.equal, np.not_equal):
        assert op(up, flat)[0] == op(0.5 + 1e-30j, 0.5 + 0j)


def clayton_h(alpha, v1, v2):
    return v1 ** (-alpha - 1.0) * (v1**-alpha + v2**-alpha - 1.0) ** (-1.0 / alpha - 1.0)


@given(alpha=st.floats(0.2, 6.0), v1=st.floats(1e-6, 1.0 - 1e-6),
       v2=st.floats(1e-6, 1.0 - 1e-6))
@settings(max_examples=200, deadline=None)
def test_clayton_h_matches_its_closed_form(alpha, v1, v2):
    h = conditional_cdf(Clayton(alpha=alpha), np.array([v1]), np.array([v2]))[0]
    assert h == pytest.approx(clayton_h(alpha, v1, v2), rel=1e-12, abs=1e-300)


@given(alpha=st.floats(0.2, 6.0), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_v2_matches_claytons_closed_form_inverse(alpha, seed):
    # v1 and p as the sampler draws them; points where the conditional
    # density at the solution is below 1e-3 are ill-conditioned (one ulp of
    # p moves v2 by more than 1e-13) and are left out
    rng = np.random.default_rng(seed)
    v1 = rng.uniform(1e-9, 1.0 - 1e-9, 64)
    p = rng.uniform(0.0, 1.0, 64)
    v2 = _conditional_inverse(Clayton(alpha=alpha), v1, p)
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        for x, q, got in zip(v1, p, v2):
            x, q = mpmath.mpf(x), mpmath.mpf(q)
            exact = ((q ** (-a / (1 + a)) - 1) * x**-a + 1) ** (-1 / a)
            density = (1 + a) * (x * exact) ** (-a - 1) * (x**-a + exact**-a - 1) ** (-1 / a - 2)
            if density >= 1e-3:
                assert abs(got - exact) <= 1e-12, (float(x), float(q))


@given(alpha1=st.floats(0.1, 3.0), alpha2=st.floats(0.1, 3.0), v1=st.floats(1e-6, 0.999),
       frac=st.floats(0.0, 0.999))
@settings(max_examples=200, deadline=None)
def test_marshall_olkin_without_a_crossing_takes_the_upper_end(alpha1, alpha2, v1, frac):
    # the literal form's h(v1, 1) = (1 + alpha1) v1^alpha1 can stay below 1;
    # then no v2 solves h(v1, v2) = p for p above it
    top = (1.0 + alpha1) * v1**alpha1
    assume(top < 0.99)
    p = top * (1.0 + 1e-12) + frac * (1.0 - top * (1.0 + 1e-12))
    cop = MarshallOlkin(alpha=(alpha1, alpha2))
    assert _conditional_inverse(cop, np.array([v1]), np.array([p]))[0] == 1.0
    below = _conditional_inverse(cop, np.array([v1]), np.array([0.5 * top]))[0]
    assert below < 1.0


@given(family=st.sampled_from(families_for_dim(2)), seed=st.integers(0, 2**32 - 1),
       v1=st.floats(1e-6, 1.0 - 1e-6))
@settings(max_examples=200, deadline=None)
def test_the_switch_lies_on_the_kink(family, seed, v1):
    cop = random_instance(family, np.random.default_rng(seed))
    k = cop._switch_v2(np.array([v1]))
    if k is None:
        assert kink_distance(cop, v1, 0.5) == math.inf
    else:
        assert kink_distance(cop, v1, float(k[0])) <= 1e-15


@given(theta=st.floats(-1.0, 1.0).filter(lambda t: abs(t) >= 0.01),
       v1=st.floats(1e-3, 1.0 - 1e-3), frac=st.floats(0.01, 0.99))
@settings(max_examples=200, deadline=None)
def test_a_linear_spearman_atom_lands_on_the_diagonal(theta, v1, frac):
    # h(v1, .) jumps by |theta| where the kernel switches branch: at v2 = v1
    # for theta > 0, at v2 = 1 - v1 for theta < 0; every p inside the jump
    # belongs to the singular component there
    if theta > 0:
        atom, below = v1, (1.0 - theta) * v1
    else:
        atom, below = 1.0 - v1, (1.0 + theta) * (1.0 - v1)
    p = below + frac * abs(theta)
    v2 = _conditional_inverse(LinearSpearman(theta=theta), np.array([v1]), np.array([p]))[0]
    assert abs(v2 - atom) <= 4e-15


@given(m=st.floats(1.0, 4.0), alpha=st.floats(0.05, 1.0), corrected=st.booleans(),
       v1=st.floats(1e-3, 1.0 - 1e-3), frac=st.floats(0.01, 0.99))
@settings(max_examples=200, deadline=None)
def test_a_fischer_hinzmann_atom_lands_on_the_diagonal(m, alpha, corrected, v1, frac):
    # with weights a on min(u)^m and b on (u1 u2)^m, h(v1, .) jumps at v2 = v1
    # from b v1^m S^(1/m - 1) to S^(1/m), S = a + b v1^m
    a, b = (alpha, 1.0 - alpha) if corrected else (alpha**m, (1.0 - alpha) ** m)
    s = a + b * v1**m
    lo, hi = b * v1**m * s ** (1.0 / m - 1.0), s ** (1.0 / m)
    cop = FischerHinzmann(m=m, alpha=alpha, corrected=corrected)
    v2 = _conditional_inverse(cop, np.array([v1]), np.array([lo + frac * (hi - lo)]))[0]
    assert abs(v2 - v1) <= 4e-15


def test_a_nan_kernel_raises_sampling_error(monkeypatch):
    monkeypatch.setattr(Fgm, "_raw", lambda self, u1, u2: np.nan * u1)
    with pytest.raises(SamplingError):
        sample_bivariate(Fgm(alpha=0.5), MARGINALS, 100, seed=1)


def test_a_nan_met_only_while_bisecting_raises_sampling_error(monkeypatch):
    # p = 0.4 falls inside the jump of h at v2 = v1 = 0.3; the kernel is NaN
    # only within 1e-9 of it, where the bracket split reads h
    raw = LinearSpearman._raw
    monkeypatch.setattr(LinearSpearman, "_raw", lambda self, u1, u2: np.where(
        np.abs((u1 - u2).x) < 1e-9, np.nan * u1, raw(self, u1, u2)))
    with pytest.raises(SamplingError):
        _conditional_inverse(LinearSpearman(theta=0.5), np.array([0.3]), np.array([0.4]))


def test_a_nan_met_only_in_the_bisection_loop_raises_sampling_error(monkeypatch):
    # with no Illinois rounds every point goes to bisection, whose first
    # midpoint v2 = 0.5 is the only place the kernel is NaN
    raw = Fgm._raw
    monkeypatch.setattr(montecarlo, "_ILLINOIS_ROUNDS", 0)
    monkeypatch.setattr(Fgm, "_raw", lambda self, u1, u2: np.where(
        u2.real == 0.5, np.nan * u1, raw(self, u1, u2)))
    with pytest.raises(SamplingError):
        _conditional_inverse(Fgm(alpha=0.5), np.array([0.3]), np.array([0.4]))


def kernel_points_per_sample(family, monkeypatch, n=4096):
    """Points the sampler passes to the kernel per sample, for four instances;
    a dual u1 row counts by its value row."""
    rng = np.random.default_rng(8080)
    for k in range(4):
        cop = random_instance(family, rng)
        counted = []
        raw = type(cop)._raw
        monkeypatch.setattr(type(cop), "_raw",
                            lambda self, *u: counted.append(np.size(u[0].x)) or raw(self, *u))
        sample_bivariate(cop, MARGINALS, n, seed=k)
        monkeypatch.undo()
        yield str(cop), sum(counted) / n


@pytest.mark.parametrize("family", SMOOTH_FAMILIES)
def test_kernel_points_per_sample_on_smooth_families(family, monkeypatch):
    # counts every point the sampler passes to the kernel, so a fall-back to
    # fixed-step bisection (96 points per sample with a two-sided difference,
    # 48 with the complex step) fails here whatever the timings
    for cop, points in kernel_points_per_sample(family, monkeypatch):
        assert points <= 24, (cop, points)


@pytest.mark.parametrize("family", KINKED_FAMILIES)
def test_kernel_points_per_sample_on_kinked_families(family, monkeypatch):
    # the bracket split at the branch switch leaves Illinois a smooth piece
    # and settles a p inside a jump at once; a solve across the kink needs
    # 12-50 points per sample
    for cop, points in kernel_points_per_sample(family, monkeypatch):
        assert points <= 8, (cop, points)

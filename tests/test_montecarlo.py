import math

import numpy as np
import pytest

from copreli import (
    Clayton,
    DomainError,
    Exponential,
    Fgm,
    GumbelBarnet,
    Independence,
    SingularityError,
    System,
    empirical_copula,
    empirical_system_sf,
    finite_difference_audit,
    sample_bivariate,
)

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


def test_empirical_copula_independence():
    batch = sample_bivariate(Independence(), MARGINALS, N, seed=21)
    p, se = empirical_copula(batch, 0.5, 0.5)
    assert abs(p - 0.25) <= 3.0 * se


def test_empirical_copula_fgm():
    batch = sample_bivariate(Fgm(alpha=1.0), MARGINALS, N, seed=22)
    p, se = empirical_copula(batch, 0.5, 0.5)
    assert abs(p - 0.3125) <= 3.0 * se


def test_empirical_copula_clayton():
    batch = sample_bivariate(Clayton(alpha=1.0), MARGINALS, N, seed=23)
    p, se = empirical_copula(batch, 0.5, 0.5)
    assert abs(p - 1.0 / 3.0) <= 3.0 * se


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

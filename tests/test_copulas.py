import math
from dataclasses import fields, replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FAMILY_CASES, FAMILY_SAMPLERS, families_for_dim, random_instance
from copreli import (
    FAMILIES,
    Amh,
    CapacityError,
    Clayton,
    ConfigError,
    DomainError,
    Fgm,
    FischerHinzmann,
    FischerKock,
    GumbelBarnet,
    GumbelHougaard,
    Independence,
    LinearSpearman,
    MarshallOlkin,
    NelsenTen,
    RluExtended,
    System,
    Weibull,
    parse_copula,
    poincare_survival,
    sample_bivariate,
)

# Frozen by hand substitution into each family's formula (high-precision
# recomputation with mpmath where rounding matters).
VALUE_CASES = [
    (Independence(), (0.5, 0.5), 0.25),
    (Fgm(alpha=0.5), (0.5, 0.5), 0.28125),
    (Fgm(alpha=1.0), (0.5, 0.5), 0.3125),
    (FischerKock(r=2.0, alpha=1.0), (0.25, 0.25), 0.09765625),
    (Clayton(alpha=1.0), (0.5, 0.5), 1.0 / 3.0),
    (GumbelHougaard(alpha=2.0), (0.5, 0.5), 0.3752142272464818),
    (GumbelBarnet(alpha=0.5), (0.5, 0.5), 0.1966124261398513),
    (NelsenTen(alpha=1.0), (0.5, 0.5), 0.2),
    (MarshallOlkin(alpha=(0.5, 0.5)), (0.5, 0.5), 0.17677669529663687),
    (Amh(alpha=0.5), (0.5, 0.5), 0.2857142857142857),
    (FischerHinzmann(m=2.0, alpha=0.5), (0.5, 0.5), 0.2795084971874737),
    (RluExtended(a=(2.0, 2.0), b=(2.0, 2.0), alpha=1.0), (0.5, 0.5), 0.25390625),
    (LinearSpearman(theta=0.5), (0.6, 0.4), 0.32),
    (LinearSpearman(theta=0.5), (0.4, 0.6), 0.32),
    (LinearSpearman(theta=-0.5), (0.3, 0.3), 0.045),
    (LinearSpearman(theta=-0.5), (0.8, 0.7), 0.53),
]


@pytest.mark.parametrize("copula,point,expected", VALUE_CASES,
                         ids=[str(c[0]) for c in VALUE_CASES])
def test_copula_values(copula, point, expected):
    assert copula.value(point) == pytest.approx(expected, rel=1e-12)


def test_value_is_vectorised():
    cop = Fgm(alpha=0.5)
    pts = np.array([[0.5, 0.5], [0.25, 0.75], [0.0, 0.9]])
    vals = cop.value(pts)
    assert vals.shape == (3,)
    assert vals[0] == pytest.approx(0.28125)
    assert vals[2] == 0.0


@given(case=st.sampled_from(FAMILY_CASES), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_every_layout_of_points_gives_the_same_bits(case, seed):
    # a lone point, an (n, dim) and an (a, b, dim) array take the same
    # arithmetic, also where a coordinate is 0 or 1
    family, dim = case
    rng = np.random.default_rng(seed)
    cop = random_instance(family, rng, dim=dim)
    pts = rng.random((6, dim))
    pts[rng.random((6, dim)) < 0.2] = 0.0
    pts[rng.random((6, dim)) < 0.2] = 1.0
    for evaluate in (cop.value, cop.survival_value):
        bulk = evaluate(pts)
        assert np.array([evaluate(p) for p in pts]).tobytes() == bulk.tobytes()
        assert evaluate(pts.reshape(2, 3, dim)).tobytes() == bulk.tobytes()


SURVIVAL_CASES = [
    (Independence(), (0.5, 0.5), 0.25),
    (Fgm(alpha=0.5), (0.5, 0.5), 0.28125),  # radially symmetric: same formula
    (Clayton(alpha=1.0), (0.5, 0.5), 1.0 / 3.0),  # 1 - 0.5 - 0.5 + C(0.5, 0.5)
    # the families below are flagged radially symmetric, yet substituting
    # uhat into their formula is not their survival copula
    (Fgm(alpha=0.5, dim=3), (0.3, 0.6, 0.2), 0.036 * (1.0 - 0.5 * 0.224)),  # FGM(-0.5)
    (FischerKock(r=2.0, alpha=1.0), (0.7, 0.4),
     0.1 + 0.18 * (1.0 + (1.0 - 0.3**0.5) * (1.0 - 0.6**0.5)) ** 2),
    (FischerHinzmann(m=2.0, alpha=0.5, corrected=True), (0.7, 0.4),
     0.1 + (0.5 * 0.3**2 + 0.5 * 0.18**2) ** 0.5),
    # margins C(u1, 1) = u1^1.5 and C(1, u2) = u2^2.5 are not uniform
    (MarshallOlkin(alpha=(0.5, 1.5)), (0.4, 0.7), 1.0 - 0.6**1.5 - 0.3**2.5 + 0.18 * 0.3**1.5),
]


@pytest.mark.parametrize("copula,uhat,expected", SURVIVAL_CASES,
                         ids=[str(c[0]) for c in SURVIVAL_CASES])
def test_survival_values(copula, uhat, expected):
    assert copula.survival_value(uhat) == pytest.approx(expected, rel=1e-12)


@given(family=st.sampled_from(sorted(FAMILY_SAMPLERS)), seed=st.integers(0, 2**32 - 1),
       data=st.data())
@settings(max_examples=100, deadline=None)
def test_survival_value_is_inclusion_exclusion_property(family, seed, data):
    rng = np.random.default_rng(seed)
    dim = data.draw(st.sampled_from(FAMILY_SAMPLERS[family][1]))
    cop = random_instance(family, rng, dim=dim)
    uhat = rng.uniform(0.0, 1.0, size=dim)
    assert cop.survival_value(uhat) == poincare_survival(cop, 1.0 - uhat)


def test_poincare_examples():
    assert poincare_survival(Independence(), [0.5, 0.5]) == pytest.approx(0.25, abs=1e-15)
    assert poincare_survival(Independence(dim=3), [0.5, 0.5, 0.5]) == pytest.approx(0.125)
    # FGM at alpha=1: both routes by hand give 0.3125 at the symmetric point
    assert poincare_survival(Fgm(alpha=1.0), [0.5, 0.5]) == pytest.approx(0.3125, rel=1e-12)
    assert Fgm(alpha=1.0).survival_value([0.5, 0.5]) == pytest.approx(0.3125, rel=1e-12)


def test_poincare_capacity_limit():
    with pytest.raises(CapacityError):
        poincare_survival(Independence(dim=25), np.full(25, 0.5))


def test_poincare_matches_product_for_independence():
    rng = np.random.default_rng(5)
    for dim in (2, 3, 4):
        cop = Independence(dim=dim)
        for _ in range(20):
            u = rng.uniform(0, 1, size=dim)
            assert poincare_survival(cop, u) == pytest.approx(float(np.prod(1 - u)), abs=1e-12)


def test_poincare_consistency_bivariate():
    # exact for FGM, and for Fischer-Kock only in its r=1 (FGM) regime
    rng = np.random.default_rng(11)
    for _ in range(100):
        alpha = rng.uniform(-1, 1)
        uhat = rng.uniform(0.01, 0.99, size=2)
        for cop in (Fgm(alpha=alpha), FischerKock(r=1.0, alpha=alpha)):
            direct = cop.value(uhat)
            via_ie = poincare_survival(cop, 1.0 - uhat)
            assert direct == pytest.approx(via_ie, abs=1e-10)


def test_poincare_trivariate_fgm_flips_the_parameter_sign():
    # In odd dimensions the survival copula of FGM(alpha) is the
    # FGM(-alpha) formula: lower-order margins are independent, so
    # inclusion-exclusion gives prod(uhat) (1 - alpha prod u).  The
    # substitution with the same alpha misses by exactly 2 alpha
    # prod(u) prod(uhat).
    rng = np.random.default_rng(11)
    for _ in range(100):
        alpha = rng.uniform(-1, 1)
        uhat = rng.uniform(0.01, 0.99, size=3)
        u = 1.0 - uhat
        for cop in (Fgm(alpha=alpha, dim=3), FischerKock(r=1.0, alpha=alpha, dim=3)):
            via_ie = poincare_survival(cop, u)
            exact = float(np.prod(uhat) * (1.0 - alpha * np.prod(u)))
            assert via_ie == pytest.approx(exact, abs=1e-10)
            flipped = Fgm(alpha=-alpha, dim=3).value(uhat)
            assert via_ie == pytest.approx(flipped, abs=1e-10)
            gap = cop.value(uhat) - via_ie
            assert gap == pytest.approx(2.0 * alpha * np.prod(u) * np.prod(uhat), abs=1e-12)


def test_fischer_kock_substitution_breaks_above_r1():
    # the survival-coordinate substitution is NOT the inclusion-exclusion
    # survival copula once r > 1; pin the measured gap so the flag stays honest
    cop = FischerKock(r=2.0, alpha=1.0)
    uhat = np.array([0.7, 0.4])
    gap = abs(cop.value(uhat) - poincare_survival(cop, 1.0 - uhat))
    assert gap > 1e-4
    assert gap == pytest.approx(3.9422378598e-3, rel=1e-5)


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------


def _axiom_sweep(dim):
    rng = np.random.default_rng(2024 + dim)
    for family in families_for_dim(dim):
        for _ in range(40):
            yield random_instance(family, rng, dim=dim), rng


@pytest.mark.parametrize("dim", [2, 3])
def test_grounded_boundary(dim):
    rng = np.random.default_rng(71)
    for family in families_for_dim(dim):
        for _ in range(25):
            cop = random_instance(family, rng, dim=dim)
            u = rng.uniform(0, 1, size=dim)
            u[rng.integers(dim)] = 0.0
            assert abs(cop.value(u)) <= 1e-12, f"{cop} not grounded at {u}"


@pytest.mark.parametrize("dim", [2, 3])
def test_uniform_margins_non_exempt(dim):
    rng = np.random.default_rng(72)
    for family in families_for_dim(dim):
        for _ in range(25):
            cop = random_instance(family, rng, dim=dim)
            if cop.margin_axiom_exempt:
                continue
            u = np.ones(dim)
            k = rng.integers(dim)
            u[k] = rng.uniform(0, 1)
            assert cop.value(u) == pytest.approx(u[k], abs=1e-12), f"{cop} margin at {u}"


def test_corrected_fischer_hinzmann_restores_margins():
    rng = np.random.default_rng(73)
    for _ in range(50):
        cop = FischerHinzmann(m=rng.uniform(1, 4), alpha=rng.uniform(0, 1), corrected=True)
        assert not cop.margin_axiom_exempt
        uk = rng.uniform(0, 1)
        assert cop.value([1.0, uk]) == pytest.approx(uk, abs=1e-12)
        assert cop.value([uk, 1.0]) == pytest.approx(uk, abs=1e-12)


@given(m=st.floats(1.0, 4.0), alpha=st.floats(0.0, 1.0), dim=st.integers(2, 3),
       rates=st.lists(st.floats(0.1, 10.0), min_size=3, max_size=3))
@settings(max_examples=200, deadline=None)
def test_corrected_fischer_hinzmann_is_one_where_every_coordinate_is(m, alpha, dim, rates):
    cop = FischerHinzmann(m=m, alpha=alpha, dim=dim, corrected=True)
    assert cop.value(np.ones(dim)) == 1.0
    # so a parallel sf vanishes once every marginal cdf rounds to 1, not at 1e-16
    marginals = tuple(Weibull(r, 1.0) for r in rates[:dim])
    t = 40.0 / min(rates)
    assert all(x.cdf(t) == 1.0 for x in marginals)
    system = System(marginals=marginals, structure="parallel", mode="dependent", copula=cop)
    assert system.sf(t) == 0.0


@given(m=st.floats(1.0, 4.0), alpha=st.sampled_from([0.0, 1e-12, 1e-8, 0.5]),
       exponents=st.lists(st.floats(0.0, 100.0), min_size=3, max_size=3), dim=st.integers(2, 3))
@settings(max_examples=300, deadline=None)
def test_corrected_fischer_hinzmann_keeps_its_digits_near_the_origin(m, alpha, exponents, dim):
    # small alpha and u down to 1e-100, where r^m leaves the float range for m > 3
    u = [10.0 ** -e for e in exponents[:dim]]
    with mpmath.workdps(40):
        v = [mpmath.mpf(x) for x in u]
        least = min(v)
        exact = least * (alpha + (1 - mpmath.mpf(alpha)) * (mpmath.fprod(v) / least) ** m) ** (1 / mpmath.mpf(m))
        value = FischerHinzmann(m=m, alpha=alpha, dim=dim, corrected=True).value(np.array(u))
        assert abs(value - exact) <= 1e-14 * exact


@pytest.mark.parametrize("dim", [2, 3])
def test_coordinatewise_monotone(dim):
    rng = np.random.default_rng(74)
    for family in families_for_dim(dim):
        for _ in range(25):
            cop = random_instance(family, rng, dim=dim)
            u = rng.uniform(0, 1, size=dim)
            k = rng.integers(dim)
            a, b = np.sort(rng.uniform(0, 1, size=2))
            ua, ub = u.copy(), u.copy()
            ua[k], ub[k] = a, b
            assert cop.value(ub) >= cop.value(ua) - 1e-10, f"{cop} not monotone in coord {k}"


def test_frechet_upper_bound():
    rng = np.random.default_rng(75)
    for dim in (2, 3):
        for family in families_for_dim(dim):
            if family == "gumbel_barnet" and dim > 2:
                continue  # the log-product form exceeds min(u) off the bivariate case
            for _ in range(25):
                cop = random_instance(family, rng, dim=dim)
                u = rng.uniform(0, 1, size=dim)
                assert cop.value(u) <= np.min(u) + 1e-12, f"{cop} above Frechet bound at {u}"


def test_gumbel_barnet_trivariate_exceeds_frechet_bound():
    # documents why the sweep above skips it: with three coordinates the
    # log product is negative and inflates the value above min(u)
    cop = GumbelBarnet(alpha=1.0, dim=3)
    u = np.array([0.05, 0.05, 0.05])
    assert cop.value(u) > np.min(u)


def test_independence_is_product_everywhere():
    rng = np.random.default_rng(76)
    for dim in (2, 3, 5):
        cop = Independence(dim=dim)
        for _ in range(20):
            u = rng.uniform(0, 1, size=dim)
            assert cop.value(u) == pytest.approx(float(np.prod(u)), rel=1e-14)


def test_clayton_agrees_with_bivariate_minus_one_form():
    rng = np.random.default_rng(77)
    for _ in range(50):
        a = rng.uniform(0.2, 6)
        u = rng.uniform(0.01, 0.99, size=2)
        direct = (u[0] ** -a + u[1] ** -a - 1.0) ** (-1.0 / a)
        assert Clayton(alpha=a).value(u) == pytest.approx(direct, rel=1e-12)


def test_amh_alpha_one_limit_matches_nearby():
    u = np.array([0.3, 0.7])
    v1 = Amh(alpha=1.0).value(u)
    v2 = Amh(alpha=1.0 - 1e-9).value(u)
    assert v1 == pytest.approx(u[0] * u[1] / (u[0] + u[1] - u[0] * u[1]), rel=1e-12)
    assert v1 == pytest.approx(v2, rel=1e-6)


def amh_reference(alpha, u):
    """AMH at 50 mpmath digits from its defining formula (the limit at alpha = 1)."""
    with mpmath.workdps(50):
        a, u = mpmath.mpf(alpha), [mpmath.mpf(x) for x in u]
        if a == 1:
            return 1 / (sum(1 / x for x in u) - (len(u) - 1))
        return (1 - a) / (mpmath.fprod((1 - a) / x + a for x in u) - a)


@given(alpha=st.one_of(st.floats(-1.0, 1.0), st.sampled_from(
           [1.0, 1.0 - 1e-9, 0.9999966939544733, 1.0 - 1e-15, -1.0, 0.0])),
       dim=st.sampled_from([2, 3]), data=st.data())
@settings(max_examples=300, deadline=None)
def test_amh_matches_mpmath_up_to_alpha_one(alpha, dim, data):
    # as alpha -> 1 the cleared-denominator form cancels (5e-11 relative at
    # alpha = 0.9999966939544733, 1.5e-7 at 1 - 1e-9)
    u = data.draw(st.lists(st.floats(1e-6, 1.0), min_size=dim, max_size=dim))
    got = Amh(alpha=alpha, dim=dim).value(u)
    assert abs(got - amh_reference(alpha, u)) <= 1e-14 * amh_reference(alpha, u)


@given(
    alpha=st.floats(-1, 1),
    u1=st.floats(0.0, 1.0),
    u2=st.floats(0.0, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_fgm_between_frechet_bounds_property(alpha, u1, u2):
    val = Fgm(alpha=alpha).value([u1, u2])
    assert max(u1 + u2 - 1.0, 0.0) - 1e-12 <= val <= min(u1, u2) + 1e-12


# ---------------------------------------------------------------------------
# validation and spec strings
# ---------------------------------------------------------------------------


def test_param_violations_name_parameter_and_interval():
    # an invalid copula cannot be built: the constructor names the violation
    for build, message in (
        (lambda: Fgm(alpha=1.5), "invalid fgm parameters: alpha=1.5 outside [-1.0, 1.0]"),
        (lambda: GumbelHougaard(alpha=0.5),
         "invalid gumbel_hougaard parameters: alpha=0.5 outside [1.0, inf]"),
        (lambda: Clayton(alpha=0.0),  # open endpoint
         "invalid clayton parameters: alpha=0.0 outside (0.0, inf]"),
        (lambda: LinearSpearman(theta=0.5, dim=3),
         "invalid linear_spearman parameters: dim=3 must be 2 for linear_spearman"),
    ):
        with pytest.raises(DomainError) as err:
            build()
        assert str(err.value) == message
    assert Clayton(alpha=1.0).param_violations() == []


# one parameter outside its family's domain, and how the constructor names it
INVALID_CASES = [
    (lambda: Independence(dim=1), "independence", "dim=1 must be an integer >= 2"),
    (lambda: Fgm(alpha=-1.5), "fgm", "alpha=-1.5 outside [-1.0, 1.0]"),
    (lambda: FischerKock(r=0.5, alpha=0.2), "fischer_kock", "r=0.5 outside [1.0, inf]"),
    (lambda: Clayton(alpha=-2.0), "clayton", "alpha=-2.0 outside (0.0, inf]"),
    (lambda: GumbelHougaard(alpha=0.9), "gumbel_hougaard", "alpha=0.9 outside [1.0, inf]"),
    (lambda: GumbelBarnet(alpha=1.5), "gumbel_barnet", "alpha=1.5 outside [0.0, 1.0]"),
    (lambda: NelsenTen(alpha=0.0), "nelsen_ten", "alpha=0.0 outside (0.0, 1.0]"),
    (lambda: MarshallOlkin(alpha=(0.5, -1.0)), "marshall_olkin",
     "alpha2=-1.0 outside (0.0, inf]"),
    (lambda: Amh(alpha=1.5), "amh", "alpha=1.5 outside [-1.0, 1.0]"),
    (lambda: FischerHinzmann(m=0.5, alpha=0.5), "fischer_hinzmann", "m=0.5 outside [1.0, inf]"),
    (lambda: RluExtended(a=(2.0, 0.5), b=(2.0, 2.0), alpha=0.5), "rlu_extended",
     "a2=0.5 outside [1.0, inf]"),
    (lambda: LinearSpearman(theta=1.5), "linear_spearman", "theta=1.5 outside [-1.0, 1.0]"),
]

# a parameter that is not a real number (a bool is not one) is refused the same way
NOT_REAL_CASES = {
    "fgm-str": (lambda: Fgm(alpha="0.5"), "fgm", "alpha='0.5' outside [-1.0, 1.0]"),
    "fgm-complex": (lambda: Fgm(alpha=0.5 + 0j), "fgm", "alpha=(0.5+0j) outside [-1.0, 1.0]"),
    "clayton-bool": (lambda: Clayton(alpha=True), "clayton", "alpha=True outside (0.0, inf]"),
    "marshall_olkin-str": (lambda: MarshallOlkin(alpha=("0.5", "1")), "marshall_olkin",
                           "alpha1='0.5' outside (0.0, inf]; alpha2='1' outside (0.0, inf]"),
    "rlu_extended-none": (lambda: RluExtended(a=(2.0, None), b=np.array([2.0, 1.0]), alpha=0.5),
                          "rlu_extended", "a2=None outside [1.0, inf]"),
}


def test_invalid_cases_cover_every_family():
    assert {family for _, family, _ in INVALID_CASES} == set(FAMILIES)


@pytest.mark.parametrize("build,family,violation", INVALID_CASES + list(NOT_REAL_CASES.values()),
                         ids=[case[1] for case in INVALID_CASES] + list(NOT_REAL_CASES))
def test_invalid_parameters_raise_when_built(build, family, violation):
    with pytest.raises(DomainError) as err:
        build()
    assert str(err.value) == f"invalid {family} parameters: {violation}"


# several violations in one message, as the hand-written per-family checks
# printed them: scalar entries in domain order (dim where the family checks
# it), then each vector of the wrong length, then each vector entry
MULTI_VIOLATIONS = [
    (lambda: parse_copula("independence:dim=1"), "independence",
     "dim=1 must be an integer >= 2"),
    (lambda: Independence(dim=None), "independence", "dim=None must be an integer >= 2"),
    (lambda: parse_copula("fgm:alpha=2,dim=1"), "fgm",
     "alpha=2.0 outside [-1.0, 1.0]; dim=1 must be an integer >= 2"),
    (lambda: Fgm(alpha=math.nan, dim=2.5), "fgm",
     "alpha=nan outside [-1.0, 1.0]; dim=2.5 must be an integer >= 2"),
    (lambda: parse_copula("fischer_kock:r=0.5,alpha=-2,dim=1"), "fischer_kock",
     "r=0.5 outside [1.0, inf]; alpha=-2.0 outside [-1.0, 1.0]; dim=1 must be an integer >= 2"),
    (lambda: parse_copula("clayton:alpha=0,dim=0"), "clayton",
     "alpha=0.0 outside (0.0, inf]; dim=0 must be an integer >= 2"),
    (lambda: Clayton(alpha=math.inf, dim=True), "clayton",
     "alpha=inf outside (0.0, inf]; dim=True must be an integer >= 2"),
    (lambda: parse_copula("gumbel_hougaard:alpha=0.5,dim=1"), "gumbel_hougaard",
     "alpha=0.5 outside [1.0, inf]; dim=1 must be an integer >= 2"),
    (lambda: parse_copula("gumbel_barnet:alpha=-0.5,dim=1"), "gumbel_barnet",
     "alpha=-0.5 outside [0.0, 1.0]; dim=1 must be an integer >= 2"),
    (lambda: parse_copula("nelsen_ten:alpha=0,dim=1"), "nelsen_ten",
     "alpha=0.0 outside (0.0, 1.0]; dim=1 must be an integer >= 2"),
    (lambda: parse_copula("marshall_olkin:alpha1=0,alpha2=-1,alpha3=2,dim=2"), "marshall_olkin",
     "alpha has 3 entries for dimension 2; alpha1=0.0 outside (0.0, inf]; "
     "alpha2=-1.0 outside (0.0, inf]"),
    (lambda: MarshallOlkin(alpha=(0.5, -1.0), dim=1), "marshall_olkin",
     "dim=1 must be an integer >= 2; alpha has 2 entries for dimension 1; "
     "alpha2=-1.0 outside (0.0, inf]"),
    (lambda: parse_copula("amh:alpha=1.5,dim=1"), "amh",
     "alpha=1.5 outside [-1.0, 1.0]; dim=1 must be an integer >= 2"),
    (lambda: parse_copula("fischer_hinzmann:m=0.5,alpha=2,dim=1,corrected=true"),
     "fischer_hinzmann",
     "m=0.5 outside [1.0, inf]; alpha=2.0 outside [0.0, 1.0]; dim=1 must be an integer >= 2"),
    (lambda: parse_copula("rlu_extended:a1=2,a2=0.5,b1=3,alpha=2"), "rlu_extended",
     "alpha=2.0 outside [0.0, 1.0]; b has 1 entries for dimension 2; a2=0.5 outside [1.0, inf]"),
    (lambda: parse_copula("rlu_extended:a1=0.5,a2=2,b1=0.5,b2=3,b3=0,alpha=-1,dim=1"),
     "rlu_extended",
     "dim=1 must be an integer >= 2; alpha=-1.0 outside [0.0, 1.0]; "
     "a has 2 entries for dimension 1; b has 3 entries for dimension 1; "
     "a1=0.5 outside [1.0, inf]; b1=0.5 outside [1.0, inf]; b3=0.0 outside [1.0, inf]"),
    (lambda: RluExtended(a=(2.0,), b=(0.0, 1.0, 1.0), alpha=math.nan), "rlu_extended",
     "dim=1 must be an integer >= 2; alpha=nan outside [0.0, 1.0]; "
     "b has 3 entries for dimension 1; b1=0.0 outside [1.0, inf]"),
    (lambda: parse_copula("linear_spearman:theta=2,dim=3"), "linear_spearman",
     "theta=2.0 outside [-1.0, 1.0]; dim=3 must be 2 for linear_spearman"),
    (lambda: LinearSpearman(theta=-math.inf, dim=1), "linear_spearman",
     "theta=-inf outside [-1.0, 1.0]; dim=1 must be 2 for linear_spearman"),
]


def test_multi_violations_cover_every_family():
    assert {family for _, family, _ in MULTI_VIOLATIONS} == set(FAMILIES)


@pytest.mark.parametrize("build,family,message", MULTI_VIOLATIONS,
                         ids=[f"{case[1]}-{i}" for i, case in enumerate(MULTI_VIOLATIONS)])
def test_multi_violation_messages_keep_their_order(build, family, message):
    with pytest.raises(DomainError) as err:
        build()
    assert str(err.value) == f"invalid {family} parameters: {message}"


# every (family, dim, parameter) with an interval, for the domain-edge property
DOMAIN_PARAMS = [(family, dim, name) for family, dim in FAMILY_CASES
                 for name in FAMILIES[family].domain if name != "dim"]
EDGES = ["inside", "low", "high", "below", "above", "nan", "inf", "-inf"]


@given(case=st.sampled_from(DOMAIN_PARAMS), edge=st.sampled_from(EDGES),
       seed=st.integers(0, 2**32 - 1), entry=st.integers(0, 2))
@settings(max_examples=400, deadline=None)
def test_domain_edges_property(case, edge, seed, entry):
    # one parameter (or one vector entry) moved to an edge of its interval
    family, dim, name = case
    cop = random_instance(family, np.random.default_rng(seed), dim=dim)
    low, high, brackets = cop.domain[name]
    value = {"inside": 0.5 * (low + high) if math.isfinite(high) else low + 1.0,
             "low": low, "high": high, "below": np.nextafter(low, -math.inf),
             "above": np.nextafter(high, math.inf), "nan": math.nan, "inf": math.inf,
             "-inf": -math.inf}[edge]
    value = float(value)
    allowed = {"inside": True, "low": brackets[0] == "[",
               "high": brackets[1] == "]" and math.isfinite(high)}.get(edge, False)
    label, new = name, value
    if name in cop.vectors:
        i, old = entry % dim, getattr(cop, name)
        label, new = f"{name}{i + 1}", old[:i] + (value,) + old[i + 1:]
    if allowed:
        moved = replace(cop, **{name: new})
        assert getattr(moved, name) == new and moved.param_violations() == []
    else:
        with pytest.raises(DomainError) as err:
            replace(cop, **{name: new})
        assert str(err.value) == (f"invalid {family} parameters: {label}={value!r} outside "
                                  f"{brackets[0]}{low!r}, {high!r}{brackets[1]}")


@pytest.mark.parametrize("cls", list(FAMILIES.values()), ids=list(FAMILIES))
def test_domain_table_names_every_parameter(cls):
    # a field added without a domain entry fails here; boolean flags need none
    params = {f.name for f in fields(cls) if f.type != "bool"}
    assert set(cls.domain) == params
    assert set(cls.vectors) <= params


def test_numpy_float_parameters_round_trip():
    cop = Fgm(alpha=np.float64(0.5))
    assert cop.spec_string() == "fgm:alpha=0.5"
    assert type(cop.alpha) is float
    assert parse_copula(cop.spec_string()) == cop


def test_numpy_integer_dim_is_accepted_as_int():
    cop = Clayton(alpha=2.0, dim=np.int64(3))
    assert cop.dim == 3 and type(cop.dim) is int
    assert cop.spec_string() == "clayton:alpha=2.0,dim=3"
    assert MarshallOlkin(alpha=(1.0, 2.0), dim=np.int64(2)).dim == 2


@pytest.mark.parametrize("dim", [True, np.True_, 2.0])
def test_dim_must_be_a_true_integer(dim):
    with pytest.raises(DomainError) as err:
        Clayton(alpha=2.0, dim=dim)
    assert str(err.value) == f"invalid clayton parameters: dim={dim!r} must be an integer >= 2"


@pytest.mark.parametrize("family,dim", FAMILY_CASES)
def test_built_copulas_have_no_violations(family, dim):
    assert random_instance(family, np.random.default_rng(3), dim=dim).param_violations() == []


def test_parameters_are_checked_only_when_built(monkeypatch):
    calls = []

    def counting(check):
        def wrapper(self):
            calls.append(self)
            return check(self)
        return wrapper

    for cls in FAMILIES.values():
        monkeypatch.setattr(cls, "param_violations", counting(cls.__dict__["param_violations"]))
    cop = Clayton(alpha=2.0)
    assert len(calls) == 1
    calls.clear()
    cop.value([0.3, 0.6])
    cop.value(np.full((4, 2), 0.5))
    cop.survival_value([0.3, 0.6])
    marginals = (Weibull(1.0, 2.0), Weibull(2.0, 1.5))
    system = System(marginals=marginals, structure="parallel", mode="dependent", copula=cop)
    system.sf(np.array([0.5, 1.0]))
    sample_bivariate(cop, marginals, 64, seed=1)
    assert calls == []


def test_point_validation():
    with pytest.raises(DomainError):
        Fgm(alpha=0.5).value([0.5, 1.5])
    with pytest.raises(DomainError):
        Fgm(alpha=0.5).value([0.5, 0.5, 0.5])


ROUNDTRIP_SPECS = [
    "independence",
    "independence:dim=3",
    "fgm:alpha=0.5",
    "fgm:alpha=-0.3333333333333333,dim=3",
    "fischer_kock:r=2.0,alpha=0.7",
    "clayton:alpha=1.25",
    "gumbel_hougaard:alpha=2.0",
    "gumbel_barnet:alpha=0.1",
    "nelsen_ten:alpha=0.9",
    "marshall_olkin:alpha1=0.5,alpha2=1.5",
    "marshall_olkin:alpha1=0.5,alpha2=1.5,alpha3=0.1",
    "amh:alpha=-0.5",
    "fischer_hinzmann:m=2.0,alpha=0.5",
    "fischer_hinzmann:m=2.0,alpha=0.5,corrected=true",
    "rlu_extended:a1=2.0,a2=2.0,b1=3.0,b2=3.0,alpha=1.0",
    "linear_spearman:theta=0.5",
]


@pytest.mark.parametrize("spec", ROUNDTRIP_SPECS)
def test_spec_string_roundtrip_bit_exact(spec):
    cop = parse_copula(spec)
    printed = cop.spec_string()
    again = parse_copula(printed)
    assert again == cop
    assert again.spec_string() == printed


def test_roundtrip_preserves_awkward_floats():
    cop = Fgm(alpha=0.1 + 0.2)  # 0.30000000000000004
    again = parse_copula(cop.spec_string())
    assert again.alpha == cop.alpha  # bit-exact


@given(case=st.sampled_from(FAMILY_CASES), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_parse_inverts_spec_string_property(case, seed):
    family, dim = case
    cop = random_instance(family, np.random.default_rng(seed), dim=dim)
    assert parse_copula(cop.spec_string()) == cop


@pytest.mark.parametrize("bad,token", [
    ("frank:alpha=0.5", "frank"),
    ("fgm:alpha", "alpha"),
    ("fgm:alpha=x", "x"),
    ("fgm:beta=0.5", "beta"),
    ("fgm:", "fgm:"),
    ("marshall_olkin:alpha=0.5", "alpha"),
])
def test_parse_copula_errors(bad, token):
    with pytest.raises(ConfigError) as err:
        parse_copula(bad)
    assert token in str(err.value)


@pytest.mark.parametrize("bad,message,token", [
    ("fgm:alpha=0.5,alpha=0.2", "duplicate key 'alpha'", "alpha"),
    ("fgm:alpha=x,dim=y", "dim='y' is not an integer", "y"),  # dim is read first
    ("rlu_extended:a1=2,a2=2,alpha=1", "missing vector parameter b1, b2, ...", "b"),
    ("fischer_kock:alpha=0.5", "missing parameter 'r'", "r"),
    # an unknown key is reported before the out-of-domain alpha
    ("fgm:alpha=2,beta=1", "unknown parameter(s) beta", "beta"),
    ("marshall_olkin:alpha1=1,alpha3=2", "unknown parameter(s) alpha3", "alpha3"),
    ("marshall_olkin:alpha1=1,alpha2=y", "alpha2='y' is not a number", "y"),
])
def test_parse_copula_error_messages(bad, message, token):
    with pytest.raises(ConfigError) as err:
        parse_copula(bad)
    assert str(err.value) == f"copula spec {bad!r}: {message}"
    assert err.value.token == token


@pytest.mark.parametrize("word,corrected", [("true", True), ("YES", True), ("1", True),
                                            ("False", False), ("no", False), ("0", False)])
def test_parse_copula_reads_a_boolean_in_any_case(word, corrected):
    cop = parse_copula(f"fischer_hinzmann:m=2,alpha=0.5,corrected={word}")
    assert cop.corrected is corrected
    assert parse_copula(cop.spec_string()) == cop


@pytest.mark.parametrize("word", ["maybe", "2", "on"])
def test_parse_copula_refuses_a_bad_boolean(word):
    spec = f"fischer_hinzmann:m=2,alpha=0.5,corrected={word}"
    with pytest.raises(ConfigError) as err:
        parse_copula(spec)
    assert err.value.token == word


def test_vector_families_infer_dim_only_when_it_is_not_given():
    assert MarshallOlkin(alpha=(1.0, 2.0, 3.0)).dim == 3
    assert MarshallOlkin(alpha=(1.0, 2.0, 3.0)).spec_string() == \
        "marshall_olkin:alpha1=1.0,alpha2=2.0,alpha3=3.0,dim=3"
    assert RluExtended(a=(2.0,) * 3, b=(3.0,) * 3, alpha=0.5).dim == 3
    assert MarshallOlkin(alpha=(1.0, 2.0), dim=2).dim == 2
    for build, message in [
        (lambda: MarshallOlkin(alpha=(1.0, 2.0), dim=3), "alpha has 2 entries for dimension 3"),
        (lambda: parse_copula("marshall_olkin:alpha1=1,alpha2=2,dim=3"),
         "alpha has 2 entries for dimension 3"),
        (lambda: MarshallOlkin(alpha=(1.0, 2.0, 3.0), dim=2),
         "alpha has 3 entries for dimension 2"),
        (lambda: RluExtended(a=(2.0, 2.0), b=(3.0, 3.0), alpha=0.5, dim=3),
         "a has 2 entries for dimension 3; b has 2 entries for dimension 3"),
        (lambda: parse_copula("rlu_extended:a1=2,a2=2,b1=3,b2=3,alpha=0.5,dim=3"),
         "a has 2 entries for dimension 3; b has 2 entries for dimension 3"),
    ]:
        with pytest.raises(DomainError) as err:
            build()
        assert str(err.value).endswith(f" parameters: {message}")


def test_all_families_have_samplers():
    from copreli import FAMILIES

    assert set(FAMILIES) == set(FAMILY_SAMPLERS)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copreli import (
    ConfigError,
    DomainError,
    Exponential,
    SingularityError,
    Weibull,
    parse_marginal,
)

MODELS = [Exponential(1.0), Exponential(2.0), Weibull(1.0, 2.0), Weibull(0.5, 0.8)]


def test_exponential_values():
    m = Exponential(1.0)
    assert m.cdf(0.0) == 0.0
    assert m.sf(0.0) == 1.0
    assert m.cdf(math.log(2)) == pytest.approx(0.5, abs=1e-15)
    assert m.sf(math.log(2)) == pytest.approx(0.5, abs=1e-15)
    assert m.quantile(0.0) == 0.0
    assert m.quantile(0.5) == pytest.approx(math.log(2), rel=1e-14)
    # memoryless: constant hazard
    assert Exponential(2.0).hazard(0.123) == 2.0
    assert Exponential(2.0).hazard(17.0) == 2.0
    # reversed hazard f/F at ln 2 is 0.5/0.5 = 1
    assert m.reversed_hazard(math.log(2)) == pytest.approx(1.0, rel=1e-12)


def test_weibull_values():
    w = Weibull(1.0, 2.0)
    assert w.cdf(1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
    assert w.sf(1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert w.hazard(1.0) == pytest.approx(2.0, rel=1e-14)
    assert w.quantile(1.0 - math.exp(-1.0)) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("m", MODELS, ids=lambda m: m.spec_string())
def test_quantile_inverts_cdf(m):
    for p in np.linspace(0.001, 0.999, 40):
        t = m.quantile(p)
        assert m.cdf(t) == pytest.approx(p, rel=1e-10, abs=1e-12)
    # and the other way around, on the central support
    for t in np.geomspace(m.quantile(1e-4) + 1e-12, m.quantile(0.999), 40):
        assert m.quantile(m.cdf(t)) == pytest.approx(t, rel=1e-10)


@pytest.mark.parametrize("m", MODELS, ids=lambda m: m.spec_string())
def test_density_and_rate_identities(m):
    grid = np.geomspace(1e-6, m.quantile(0.9999), 60)
    cdf = m.cdf(grid)
    sf = m.sf(grid)
    pdf = m.pdf(grid)
    assert np.all((cdf >= 0) & (cdf <= 1))
    assert np.all(np.diff(m.cdf(np.sort(grid))) >= 0)
    np.testing.assert_allclose(sf, 1.0 - cdf, atol=1e-15)
    assert np.all(pdf >= 0)
    # pdf against a central difference of the cdf (step scaled to the
    # log-spaced grid so the check resolves singular densities near 0)
    h = 1e-6 * grid
    fd = (m.cdf(grid + h) - m.cdf(grid - h)) / (2.0 * h)
    assert np.all(np.abs(pdf - fd) <= 1e-6 * (1.0 + pdf))
    # hazard * sf = pdf, reversed hazard * cdf = pdf
    ok = sf > 1e-12
    np.testing.assert_allclose(m.hazard(grid)[ok] * sf[ok], pdf[ok], rtol=1e-10)
    ok = cdf > 1e-12
    np.testing.assert_allclose(m.reversed_hazard(grid[ok]) * cdf[ok], pdf[ok], rtol=1e-10)


@given(lam=st.floats(0.1, 10), p=st.floats(0.0, 0.999))
@settings(max_examples=100, deadline=None)
def test_exponential_quantile_roundtrip_property(lam, p):
    m = Exponential(lam)
    assert m.cdf(m.quantile(p)) == pytest.approx(p, rel=1e-10, abs=1e-12)


EDGE_TIMES = [0.0, 5e-324, 1e-300, 700.0, 1e6, math.inf]


def assert_bitwise(got, expected):
    """Equal bit for bit, with the same type, dtype and shape."""
    assert type(got) is type(expected)
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@given(lam=st.floats(1e-3, 1e3), ts=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=6),
       p=st.floats(0.0, 1.0, exclude_max=True))
@settings(max_examples=100, deadline=None)
def test_exponential_is_the_shape_one_weibull_bit_for_bit(lam, ts, p):
    # the exponential closed forms, written out
    forms = {"cdf": lambda t: -np.expm1(-lam * t), "sf": lambda t: np.exp(-lam * t),
             "pdf": lambda t: lam * np.exp(-lam * t), "hazard": lambda t: np.full_like(t, lam)}
    m, w = Exponential(lam), Weibull(lam, 1.0)
    for t in [*EDGE_TIMES, EDGE_TIMES, ts]:
        x = np.asarray(t, dtype=float)
        for name, form in forms.items():
            expected = form(x)
            expected = float(expected) if np.ndim(t) == 0 else expected
            assert_bitwise(getattr(m, name)(t), expected)
            assert_bitwise(getattr(w, name)(t), expected)
        live = x[-np.expm1(-lam * x) > 0]
        with np.errstate(over="ignore"):  # pdf / cdf overflows at a subnormal t
            expected = lam * np.exp(-lam * live) / -np.expm1(-lam * live)
            assert_bitwise(m.reversed_hazard(live), expected)
            assert_bitwise(w.reversed_hazard(live), expected)
    for q in [p, [0.0, p, 0.5]]:
        expected = -np.log1p(-np.asarray(q)) / lam
        expected = float(expected) if np.ndim(q) == 0 else expected
        assert_bitwise(m.quantile(q), expected)
        assert_bitwise(w.quantile(q), expected)
    assert_bitwise(m.mean(), 1.0 / lam)
    assert_bitwise(w.mean(), 1.0 / lam)
    assert repr(m) == f"Exponential(lam={lam!r})" and m.spec_string() == f"exp:{lam!r}"
    assert m == Exponential(lam) and hash(m) == hash((lam,))
    assert m != w and w == Weibull(lam, 1.0)
    with pytest.raises(SingularityError):
        m.reversed_hazard(0.0)
    with pytest.raises(DomainError) as err:
        Exponential(-lam)
    assert str(err.value) == f"exponential rate must be positive, got {-lam!r}"
    with pytest.raises(TypeError):
        Exponential(lam, 1.0)  # the shape is not a parameter


def test_domain_errors():
    with pytest.raises(DomainError):
        Exponential(0.0)
    with pytest.raises(DomainError):
        Weibull(1.0, -1.0)
    with pytest.raises(DomainError):
        Exponential(1.0).cdf(-0.5)
    with pytest.raises(DomainError):
        Exponential(1.0).quantile(1.0)
    with pytest.raises(SingularityError):
        Exponential(1.0).reversed_hazard(0.0)


def test_a_mean_past_the_float_range_is_inf():
    # gamma(1 + 1/k) overflows a float below k of about 0.0058
    assert Weibull(2.0, 0.5).mean() == 1.0
    assert Weibull(1.0, 0.006).mean() < math.inf
    assert Weibull(1.0, 0.005).mean() == math.inf
    assert Weibull(1e-300, 1e-3).mean() == math.inf


@pytest.mark.parametrize("build,message", [
    (lambda: Exponential("1"), "exponential rate must be positive, got '1'"),
    (lambda: Exponential(1 + 0j), "exponential rate must be positive, got (1+0j)"),
    (lambda: Weibull(True, 2.0), "weibull rate must be positive, got True"),
    (lambda: Weibull(1.0, "2"), "weibull shape must be positive, got '2'"),
])
def test_a_parameter_that_is_not_a_real_number_is_a_domain_error(build, message):
    with pytest.raises(DomainError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("t", [1e-100, [0.5, 1e-100, 0.0]])
def test_reversed_hazard_where_the_cdf_underflows_raises(t):
    # (2 * 1e-100)^3.5 underflows, so the cdf is 0 at a t > 0
    with pytest.raises(SingularityError) as raised:
        Weibull(2.0, 3.5).reversed_hazard(t)
    assert raised.value.t == 1e-100
    assert str(raised.value) == "reversed hazard undefined where the cdf vanishes"


def test_parse_and_format_roundtrip():
    for spec in ["exp:1.0", "weibull:0.5,2.0", "exp:0.3333333333333333"]:
        m = parse_marginal(spec)
        assert parse_marginal(m.spec_string()) == m


def test_numpy_scalar_rates_print_as_plain_floats():
    assert Exponential(np.float64(1.0)).spec_string() == "exp:1.0"
    assert Weibull(np.float64(0.5), np.int64(2)).spec_string() == "weibull:0.5,2.0"
    assert parse_marginal(Exponential(np.float64(1.0)).spec_string()) == Exponential(1.0)


@pytest.mark.parametrize("bad,token", [
    ("exp", "exp"),
    ("exp:abc", "abc"),
    ("weibull:1.0", "1.0"),
    ("gamma:1.0", "gamma"),
])
def test_parse_errors_carry_token(bad, token):
    with pytest.raises(ConfigError) as err:
        parse_marginal(bad)
    assert token in str(err.value)

"""Shared helpers: random family instances with valid parameters."""

from __future__ import annotations

import signal
from contextlib import contextmanager

import numpy as np

from copreli import (
    Amh,
    Clayton,
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
    Weibull,
)

# family name -> (constructor from rng, valid dims)
FAMILY_SAMPLERS = {
    "independence": (lambda rng, dim: Independence(dim=dim), (2, 3)),
    "fgm": (lambda rng, dim: Fgm(alpha=rng.uniform(-1, 1), dim=dim), (2, 3)),
    "fischer_kock": (
        lambda rng, dim: FischerKock(r=rng.uniform(1, 4), alpha=rng.uniform(-1, 1), dim=dim),
        (2, 3),
    ),
    "clayton": (lambda rng, dim: Clayton(alpha=rng.uniform(0.2, 6), dim=dim), (2, 3)),
    "gumbel_hougaard": (
        lambda rng, dim: GumbelHougaard(alpha=rng.uniform(1, 6), dim=dim), (2, 3)),
    # the log-product form is a proper copula only bivariately
    "gumbel_barnet": (lambda rng, dim: GumbelBarnet(alpha=rng.uniform(0, 1), dim=dim), (2,)),
    "nelsen_ten": (lambda rng, dim: NelsenTen(alpha=rng.uniform(0.05, 1), dim=dim), (2, 3)),
    "marshall_olkin": (
        lambda rng, dim: MarshallOlkin(alpha=tuple(rng.uniform(0.1, 3, size=dim)), dim=dim),
        (2, 3),
    ),
    "amh": (lambda rng, dim: Amh(alpha=rng.uniform(-1, 1), dim=dim), (2, 3)),
    "fischer_hinzmann": (
        lambda rng, dim: FischerHinzmann(m=rng.uniform(1, 4), alpha=rng.uniform(0, 1), dim=dim),
        (2, 3),
    ),
    "rlu_extended": (
        lambda rng, dim: RluExtended(
            a=tuple(rng.uniform(1, 4, size=dim)),
            b=tuple(rng.uniform(1, 4, size=dim)),
            alpha=rng.uniform(0, 1),
            dim=dim,
        ),
        (2, 3),
    ),
    "linear_spearman": (lambda rng, dim: LinearSpearman(theta=rng.uniform(-1, 1)), (2,)),
}


# Parallel systems over Weibull margins, from the benchmark's curves workload
# (seed 3 ops 465 and 321, seed 1 op 221), each with its 25-point grid: their
# kinks include one in the tail, where cdf is near 1 and ln cdf keeps its
# digits only as log1p(-sf).  The first one's is at t = 4.967.
TAIL_KINK_CASES = [
    (MarshallOlkin(alpha=(1.659284360805533, 0.5970673735000042, 0.20875211379498929)),
     (Weibull(0.8331443062953705, 2.7624843361717994),
      Weibull(0.6581707444820795, 2.3787852678720016),
      Weibull(1.405839613071054, 1.4165278988798478)),
     np.geomspace(0.04052643690224189, 2.5371762027119, 25)),
    (MarshallOlkin(alpha=(1.6269212968453515, 0.5621783759785556, 0.14991088680229417)),
     (Weibull(0.6028581879106173, 2.925994997473085),
      Weibull(0.7230262508975946, 2.1864673271120165),
      Weibull(1.2848410364525455, 1.7050668469772878)),
     np.geomspace(0.057675336131048596, 2.60552308515351, 25)),
    (LinearSpearman(theta=0.5261538580514071),
     (Weibull(1.573655305210107, 0.8120587896250466),
      Weibull(0.8468082537985209, 1.4331706661889712)),
     np.geomspace(0.0027505024879786945, 2.545712518863124, 25)),
]


def random_instance(family: str, rng: np.random.Generator, dim: int = 2):
    maker, dims = FAMILY_SAMPLERS[family]
    if dim not in dims:
        raise ValueError(f"{family} not sampled at dim {dim}")
    return maker(rng, dim)


def families_for_dim(dim: int):
    return [name for name, (_, dims) in FAMILY_SAMPLERS.items() if dim in dims]


# the families whose kernel switches branch (a min, max or case split)
KINKED_FAMILIES = ("marshall_olkin", "fischer_hinzmann", "linear_spearman")

# every (family, dim) pair that FAMILY_SAMPLERS covers, for property tests
FAMILY_CASES = [(name, dim) for name, (_, dims) in FAMILY_SAMPLERS.items() for dim in dims]


def random_marginals(rng: np.random.Generator, dim: int):
    """``dim`` exponential or Weibull marginals with rates in [0.5, 2]."""
    from copreli import Exponential, Weibull

    return tuple(Exponential(rng.uniform(0.5, 2.0)) if rng.random() < 0.5
                 else Weibull(rng.uniform(0.5, 2.0), rng.uniform(0.8, 3.0))
                 for _ in range(dim))


def complex_step(f, x, dtype=complex):
    """df/dx at real ``x`` as Im f(x + i eps) / eps, eps = 1e-30, with x and the
    step in ``dtype``: the test oracle for the sampler's dual-number h.

    No difference of two values is taken, so nothing cancels and the result is
    exact to rounding wherever f is analytic (Squire & Trapp 1998).  At a kink,
    numpy orders complex numbers by real part and then by imaginary part, so f
    takes one branch and the result is that branch's one-sided derivative.
    Below about 1e-280 the imaginary part underflows in ``complex``; with
    ``np.clongdouble`` (an 80-bit long double on x86) it does not.
    """
    eps = np.real(dtype(1e-30))
    return f(np.asarray(x).astype(dtype) + dtype(1e-30j)).imag / eps


def wide_grid(marginals, points: int = 15) -> np.ndarray:
    """t = 0, then log-spaced out past every marginal's 1 - 1e-9 quantile, so
    support-edge singularities show at both ends."""
    hi = 3.0 * max(m.quantile(1.0 - 1e-9) for m in marginals)
    return np.concatenate([[0.0], np.geomspace(1e-4, hi, points)])


def assert_same_integrals(mrl, expected, sf):
    """The integrals mrl * sf and expected * sf agree to within the quadrature's
    own tolerance, max(_ATOL, _RTOL |integral|), and are NaN in the same cells.

    Every piece of an mrl integral is settled to that tolerance relative to
    itself and every piece is >= 0, so a sum of pieces meets it too; values
    computed over different pieces (a grid against lone points) agree to it
    but not bit for bit.
    """
    from copreli.systems import _ATOL, _RTOL

    mrl, expected, sf = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (mrl, expected, sf))
    np.testing.assert_array_equal(np.isnan(mrl), np.isnan(expected))
    defined = ~np.isnan(expected)
    got, want = mrl[defined] * sf[defined], expected[defined] * sf[defined]
    excess = np.abs(got - want) / np.maximum(_ATOL, _RTOL * np.abs(want))
    assert np.all(excess <= 1.0), f"integrals differ by {excess.max()} of the tolerance"


@contextmanager
def deadline(seconds: int):
    """Fail with TimeoutError instead of hanging when the block runs too long."""
    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

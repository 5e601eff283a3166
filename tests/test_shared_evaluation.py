"""One evaluation per system pair: the shared path against System-by-System.

``System.sides`` gives a system and its independent twin from one
evaluation of each marginal and at most one copula call; ``System.sf`` and
``cdf``, the rates, the error tables, the audit and the ordering checks take
every value from it.  The reference here computes each system on its own,
from the formulas, and every number, flag, reason and raised error must
agree bit for bit.  The counting tests pin how many kernel, marginal and
log-derivative calls each analysis makes, without timing anything.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import copreli.systems
from conftest import (FAMILY_CASES, TAIL_KINK_CASES, random_instance, random_marginals,
                      wide_grid)
from copreli import (
    FAMILIES,
    Exponential,
    Fgm,
    LinearSpearman,
    System,
    SystemPair,
    Weibull,
    check_lr_linear_spearman,
    default_grid,
    finite_difference_audit,
    ratio_function,
    verify_theorem1,
)
from copreli.numerics import Stencil
from copreli.ordering import RATIO_KINDS


def system_by_system_sides(self, t):
    """``System.sides`` from the formulas, one system at a time: the copula, or
    the product, at the marginals' cdf values for a parallel system of two or
    more components and at their sf values otherwise."""
    parallel = self.structure == "parallel" and self.n > 1

    def value(dependent):
        pts = np.array([(m.cdf if parallel else m.sf)(t) for m in self.marginals]).T
        return self.copula.value(pts) if dependent else pts.prod(axis=-1)

    joint = np.array([value(self.mode == "dependent" and self.n > 1), value(False)])
    return (1.0 - joint, joint) if parallel else (joint, 1.0 - joint)


def outcome(fn, *args, **kwargs):
    """("ok", result) or ("raised", type, message, t) of one call."""
    try:
        return ("ok", fn(*args, **kwargs))
    except Exception as exc:  # the reference must raise the same error
        return ("raised", type(exc), str(exc), getattr(exc, "t", None))


def shared_and_reference(fn, *args, **kwargs):
    """The outcome of ``fn`` on the shared path, then on the System-by-System one."""
    shared = outcome(fn, *args, **kwargs)
    with mock.patch.object(System, "sides", system_by_system_sides):
        return shared, outcome(fn, *args, **kwargs)


def bits(x) -> list:
    """Each float's bit pattern, with every NaN alike."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return [None if np.isnan(v) else int(b) for v, b in zip(x, x.view(np.uint64))]


def assert_same_outcome(shared, reference, fields):
    """Both raised the same error, or both returned results whose ``fields``
    (names, or callables of the result) agree bit for bit."""
    assert shared[0] == reference[0]
    if shared[0] == "raised":
        assert shared[1:] == reference[1:]
        return
    for field in fields:
        get = field if callable(field) else (lambda r, name=field: getattr(r, name))
        a, b = get(shared[1]), get(reference[1])
        if isinstance(a, (str, bool, tuple)) and not isinstance(a, np.ndarray):
            assert a == b
        else:
            assert bits(a) == bits(b)


def random_case(case, seed):
    family, dim = case
    rng = np.random.default_rng(seed)
    marginals = random_marginals(rng, dim)
    return random_instance(family, rng, dim), marginals


CASES = dict(case=st.sampled_from(FAMILY_CASES), seed=st.integers(0, 2**32 - 1),
             structure=st.sampled_from(("series", "parallel")))


# ---------------------------------------------------------------------------
# bit identity
# ---------------------------------------------------------------------------


@given(**CASES)
@settings(max_examples=60, deadline=None)
def test_ratio_functions_match_system_by_system(case, seed, structure):
    copula, marginals = random_case(case, seed)
    for grid in (default_grid(marginals), wide_grid(marginals)):
        for kind in RATIO_KINDS:
            fn = ratio_function(copula, marginals, kind)
            assert_same_outcome(*shared_and_reference(fn, grid), [lambda r: r])
            assert_same_outcome(*shared_and_reference(fn, float(grid[3])), [lambda r: r])


@given(**CASES)
@settings(max_examples=40, deadline=None)
def test_theorem1_matches_system_by_system(case, seed, structure):
    copula, marginals = random_case(case, seed)
    for grid in (default_grid(marginals), wide_grid(marginals)):
        assert_same_outcome(*shared_and_reference(verify_theorem1, copula, marginals, grid),
                            ["passed", "worst_slack", "worst_t", "worst_inequality"])


def report_fields():
    return ["raw", "relative", "flags", lambda r: tuple(r.verdict_per_t)]


@given(**CASES, one_component=st.booleans())
@settings(max_examples=80, deadline=None)
def test_error_reports_match_system_by_system(case, seed, structure, one_component):
    copula, marginals = random_case(case, seed)
    if one_component:
        marginals = marginals[:1]
    pair = SystemPair(copula=copula, marginals=marginals, structure=structure)
    for grid in (default_grid(marginals, points=24), wide_grid(marginals)):
        for measure in ("sf", "hr", "rhr"):
            assert_same_outcome(*shared_and_reference(pair.error_report, grid, measure),
                                report_fields())


@given(**CASES, one_component=st.booleans())
@settings(max_examples=60, deadline=None)
def test_audits_match_system_by_system(case, seed, structure, one_component):
    copula, marginals = random_case(case, seed)
    if one_component:
        marginals = marginals[:1]
    # past the support the survival functions vanish, so the wide grid raises
    for grid in (default_grid(marginals, points=12), wide_grid(marginals, points=8)[1:]):
        shared, reference = shared_and_reference(finite_difference_audit, copula, marginals,
                                                 grid)
        assert_same_outcome(shared, reference,
                            [lambda r: tuple(r.per_check), lambda r: list(r.per_check.values())])


@given(theta=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_lr_check_matches_system_by_system(theta, seed):
    rng = np.random.default_rng(seed)
    # equal Weibull shapes >= 1 or exponentials, so the reversed hazards decrease
    k = rng.uniform(1.0, 2.0)
    marginals = tuple(Weibull(rng.uniform(0.5, 2.0), k) for _ in range(2))
    for ms in (marginals, (Exponential(1.0), Exponential(rng.uniform(0.5, 2.0)))):
        assert_same_outcome(*shared_and_reference(check_lr_linear_spearman, theta, ms),
                            ["passed", "ratio", "worst_increase", "worst_at"])


@given(**CASES)
@settings(max_examples=60, deadline=None)
def test_sides_calls_the_kernel_as_copula_value_does(case, seed, structure):
    # the kernel takes the marginal rows unchecked, and a number t as
    # 1-element rows: Copula.value's own path, bit for bit (about one point
    # in twenty of a family with ``**`` rounds otherwise at a number)
    copula, marginals = random_case(case, seed)
    system = System(marginals, structure, "dependent", copula)
    grid = default_grid(marginals, points=25)
    for t in (*grid.tolist(), grid[7:8], grid):
        shared, reference = system.sides(t), system_by_system_sides(system, t)
        for side, expected in zip(shared, reference):
            assert side.shape == expected.shape == (2, *np.shape(t))
            assert bits(side.ravel()) == bits(expected.ravel())


def test_a_copula_of_another_dimension_is_refused_as_before():
    pair = SystemPair(copula=Fgm(alpha=0.5, dim=3), marginals=(Exponential(1.0),) * 2,
                      structure="series")
    for measure in ("sf", "hr", "rhr"):
        with pytest.raises(Exception, match="copula dimension 3 != component count 2"):
            pair.error_report([0.5, 1.0], measure)
    with pytest.raises(Exception, match="copula dimension 3 != marginal count 2"):
        ratio_function(Fgm(alpha=0.5, dim=3), (Exponential(1.0),) * 2, "C_over_C1")


# ---------------------------------------------------------------------------
# evaluation counts
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def counting():
    """Count kernel calls (``_raw`` of every family in ``copulas.FAMILIES``),
    marginal sf/cdf calls and ``Stencil.log_derivative`` calls inside the block."""
    counts = {"raw": 0, "marginal": 0, "log_derivative": 0}

    def counted(key, original):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return wrapper

    with contextlib.ExitStack() as stack:
        for cls in FAMILIES.values():
            stack.enter_context(mock.patch.object(cls, "_raw", counted("raw", cls._raw)))
        stack.enter_context(mock.patch.object(
            Stencil, "log_derivative", counted("log_derivative", Stencil.log_derivative)))
        for cls in (Exponential, Weibull):
            for name in ("sf", "cdf"):
                stack.enter_context(mock.patch.object(
                    cls, name, counted("marginal", getattr(cls, name))))
        yield counts


COUNT_CASES = [(Fgm(alpha=0.5), (Exponential(1.0), Weibull(1.2, 1.7))),
               (Fgm(alpha=-0.3, dim=3), (Exponential(1.0), Weibull(1.2, 1.7), Exponential(2.0)))]
GRID = np.geomspace(0.05, 2.0, 12)


@pytest.mark.parametrize("copula,marginals", COUNT_CASES)
@pytest.mark.parametrize("structure", ["series", "parallel"])
@pytest.mark.parametrize("measure", ["hr", "rhr"])
def test_a_hazard_type_error_table_evaluates_the_pair_once(copula, marginals, structure,
                                                            measure):
    pair = SystemPair(copula=copula, marginals=marginals, structure=structure)
    with counting() as counts:
        pair.error_report(GRID, measure)
    assert counts == {"raw": 1, "marginal": len(marginals), "log_derivative": 1}


@pytest.mark.parametrize("copula,marginals", COUNT_CASES)
def test_an_audit_evaluates_each_pair_once_per_step(copula, marginals):
    with counting() as counts:
        finite_difference_audit(copula, marginals, GRID)
    assert counts["raw"] <= 4
    assert counts["marginal"] <= 4 * len(marginals)
    assert counts["log_derivative"] == 4  # two structures, two steps


@pytest.mark.parametrize("copula,marginals", COUNT_CASES)
@pytest.mark.parametrize("kind,calls", [("C_over_C1", 1), ("Chat_over_Chat1", 1),
                                        ("C_over_Chat", 2)])
def test_a_ratio_call_evaluates_each_structure_once(copula, marginals, kind, calls):
    fn = ratio_function(copula, marginals, kind)
    with counting() as counts:
        fn(GRID)
    assert counts == {"raw": calls, "marginal": calls * len(marginals), "log_derivative": 0}


@pytest.mark.parametrize("copula,marginals", COUNT_CASES)
def test_theorem1_evaluates_each_structure_once(copula, marginals):
    with counting() as counts:
        verify_theorem1(copula, marginals, GRID)
    assert counts == {"raw": 2, "marginal": 2 * len(marginals), "log_derivative": 0}


def test_a_curve_takes_one_log_derivative():
    system = System(COUNT_CASES[0][1], "parallel", "dependent", COUNT_CASES[0][0])
    with counting() as counts:
        system.hazard(GRID)
    assert counts == {"raw": 1, "marginal": 2, "log_derivative": 1}
    with counting() as counts:
        system.curve(GRID)
    assert counts["log_derivative"] == 1


def test_the_lr_check_evaluates_the_pair_once_per_side_of_the_stencil():
    marginals = (Exponential(1.0), Exponential(1.0))
    with counting() as counts:
        check_lr_linear_spearman(0.5, marginals, GRID)
    # two cdf calls check the marginals' reversed hazards, four give both cdfs at t -+ h
    assert counts == {"raw": 2, "marginal": 2 + 4, "log_derivative": 0}


def integrate_rounds(fn) -> list[int]:
    """The rounds (integrand calls) of each ``_integrate`` call that ``fn()`` makes."""
    rounds = []
    real = copreli.systems._integrate

    def counted(f, a, b):
        rounds.append(0)

        def integrand(x):
            rounds[-1] += 1
            return f(x)
        return real(integrand, a, b)

    with mock.patch.object(copreli.systems, "_integrate", counted):
        fn()
    return rounds


@pytest.mark.parametrize("copula,marginals,structure,grid,one_at_a_time", [
    # test_systems.py's test_mrl_across_the_linear_spearman_kink, which calls
    # mrl one t at a time
    (LinearSpearman(theta=-0.49), (Exponential(1.0), Exponential(2.0)), "series",
     np.array([0.0, 0.2, 0.45, 0.48, 0.49, 1.5]), True),
    *((copula, marginals, "parallel", grid, False)
      for copula, marginals, grid in TAIL_KINK_CASES)])
def test_a_kinked_mrl_settles_in_at_most_two_rounds(copula, marginals, structure, grid,
                                                    one_at_a_time):
    # split at its kink times, every piece is smooth: an error check on a
    # panel that straddled a kink would keep halving the panels next to it
    system = System(marginals, structure, "dependent", copula)
    calls = [grid[i:i + 1] for i in range(grid.size)] if one_at_a_time else [grid]
    rounds = integrate_rounds(lambda: [system.mrl(t) for t in calls])
    assert len(rounds) == len(calls)
    assert max(rounds) <= 2

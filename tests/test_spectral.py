"""Spherical spectrum and heat trace against independent oracles."""

import collections
import hashlib
import math
import random
import re
from math import comb

import mpmath
import pytest

from volgap.spectral import TraceResult, heat_trace, sphere_level, trace_bound
from volgap.specials import cly_constant, cly_constant_log

# frozen: deterministic output of the truncated sum at (n, t) = (2, 1)
TRACE_2_1 = 1.4184426386310551

# sha256 of the newline-joined repr of heat_trace(n, t).value over the
# trace-bound grid, n in 2..10 and t = 1, 1.25, ..., 10 (333 values),
# recorded before the ratio certificate replaced the halving test
LEM3_GRID_SHA256 = "714d66a89b6e43321070ac600509a416420d24dbd1e7ba4e3ed7f175d018b53a"


def classical_multiplicity(n: int, k: int) -> int:
    # dimension of degree-k spherical harmonics on S^n, product form
    if k == 0:
        return 1
    return (2 * k + n - 1) * math.factorial(k + n - 2) // (
        math.factorial(k) * math.factorial(n - 1)
    )


def mp_trace(n: int, t: float, dps: int = 40, start: int = 0) -> mpmath.mpf:
    # sum over the levels k >= start; start > 0 gives an omitted tail
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        k = start
        cutoff = mpmath.mpf(10) ** (-dps)
        while True:
            lam = k * (k + n - 1)
            mult = comb(n + k, n) - (comb(n + k - 2, n) if k >= 2 else 0)
            term = mult * mpmath.e ** (-lam * mpmath.mpf(t))
            total += term
            if k >= start + 2 and term < cutoff * total:
                return total
            k += 1


class TestSphereLevel:
    def test_eigenvalues(self):
        for n in (2, 3, 7):
            for k in range(6):
                assert sphere_level(n, k).eigenvalue == k * (k + n - 1)

    def test_multiplicity_closed_form_vs_classical(self):
        # binomial difference == classical product formula, exactly
        for n in range(2, 9):
            for k in range(60):
                assert sphere_level(n, k).multiplicity == classical_multiplicity(n, k)

    def test_first_levels(self):
        lvl0 = sphere_level(5, 0)
        assert (lvl0.eigenvalue, lvl0.multiplicity) == (0, 1)
        lvl1 = sphere_level(5, 1)
        assert (lvl1.eigenvalue, lvl1.multiplicity) == (5, 6)

    def test_validation(self):
        with pytest.raises(ValueError):
            sphere_level(1, 0)
        with pytest.raises(ValueError):
            sphere_level(3, -1)
        with pytest.raises(TypeError):
            sphere_level(3.0, 0)
        with pytest.raises(TypeError):
            sphere_level(3, 0.5)


class TestHeatTrace:
    def test_frozen_regression_value(self):
        assert heat_trace(2, 1.0).value == TRACE_2_1

    def test_against_mpmath_oracle(self):
        for n in (2, 3, 5, 8):
            for t in (0.5, 1.0, 2.0, 5.0):
                got = heat_trace(n, t)
                oracle = float(mp_trace(n, t))
                assert got.value == pytest.approx(oracle, rel=1e-13)

    def test_tail_certificate(self):
        # the reported tail bound covers the omitted levels; allow a
        # small extra for rounding of the partial sum itself
        for n in (2, 4, 7):
            for t in (0.7, 1.0, 3.0):
                got = heat_trace(n, t)
                oracle = mp_trace(n, t)
                deficit = abs(float(oracle) - got.value)
                assert deficit <= got.tail_bound + 1e-14 * got.value

    def test_tail_bound_small_relative_to_value(self):
        for n in range(2, 11):
            for t in (1.0, 2.5, 10.0):
                got = heat_trace(n, t)
                assert 0.0 <= got.tail_bound <= 1e-14 * got.value

    def test_decreasing_in_time(self):
        for n in (2, 5):
            values = [heat_trace(n, t).value for t in (0.5, 1.0, 2.0, 4.0, 8.0)]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_long_time_limit_is_one(self):
        got = heat_trace(3, 60.0)
        assert got.value == 1.0  # e^{-180} is far below one ulp of 1

    @pytest.mark.parametrize("n", [2, 165, 100000])
    def test_time_so_long_that_every_exponent_overflows(self, n):
        # n t is inf, so log T_1 and log T_2 are both -inf; their
        # difference would be NaN, so the loop takes log r_1 = -inf
        # there, and the zero term T_1 stops the sum at level 1
        assert heat_trace(n, 1e308) == TraceResult(value=1.0, levels_used=1, tail_bound=0.0)

    def test_result_shape(self):
        got = heat_trace(2, 1.0)
        assert isinstance(got, TraceResult)
        assert got.levels_used >= 3
        assert got.tail_bound >= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            heat_trace(2, 0.0)
        with pytest.raises(ValueError):
            heat_trace(2, -1.0)
        with pytest.raises(ValueError):
            heat_trace(2, math.inf)
        with pytest.raises(ValueError):
            heat_trace(1, 1.0)

    def test_tiny_time_hits_level_cap(self):
        with pytest.raises(RuntimeError, match=re.escape(
                "heat trace did not converge within 200000 levels at n=2, t=1e-10")):
            heat_trace(2, 1e-10)

    @pytest.mark.parametrize("n, t", [
        (300, 3.98e-5),  # every term fits, their sum does not
        (250, 1.6e-5),  # a single term overflows
    ])
    def test_overflow_raises_naming_n_and_t(self, n, t):
        with pytest.raises(OverflowError, match=re.escape(f"at n={n}, t={t!r}")):
            heat_trace(n, t)

    def test_lem3_grid_values_pinned(self):
        # the acceptance gate checks the trace bound on this grid, and
        # LEM3_TRACE_BOUND did until it was decided at t = 1: the worst
        # margin is exactly 0.0 at (4, 9.75), where trace and bound both
        # round to 1.0, so any changed bit on this grid could flip it
        values = [repr(heat_trace(n, 1.0 + 0.25 * j).value)
                  for n in range(2, 11) for j in range(37)]
        digest = hashlib.sha256("\n".join(values).encode()).hexdigest()
        assert digest == LEM3_GRID_SHA256


def _reference_heat_trace(n, t):
    # the plain level loop: the tail ratio formed at every level,
    # lambda_(j+1) as the product (j+1)(j+n) and the -745 guard on
    # every term
    max_levels, tail_eps = 200_000, 5e-15
    if not (t > 0.0) or math.isinf(t) or math.isnan(t):
        raise ValueError(f"time must be positive and finite, got {t!r}")
    total = 0.0
    term = 1.0
    mult = n + 1
    term_log = math.log(mult) - n * t
    try:
        for j in range(1, max_levels + 2):
            total += term
            mult = mult * (2 * j + n + 1) * (j + n - 1) // ((2 * j + n - 1) * (j + 1))
            next_log = math.log(mult) - (j + 1) * (j + n) * t
            term = math.exp(term_log) if term_log > -745.0 else 0.0
            log_ratio = next_log - term_log if term_log > -math.inf else -math.inf
            if log_ratio < 0.0:
                tail = term / -math.expm1(log_ratio)
                if tail <= tail_eps * total:
                    break
            term_log = next_log
        else:
            raise RuntimeError(
                f"heat trace did not converge within {max_levels} levels at n={n}, t={t!r}"
            )
    except OverflowError:
        total = math.inf
    if total == math.inf:
        raise OverflowError(f"heat trace exceeds the double range at n={n}, t={t!r}")
    return TraceResult(value=total, levels_used=j, tail_bound=tail)


def _bench_trace_points():
    # the benchmark's 30 trace points, bare and as its default seed 1
    # jitters each t by a factor in [1, 1.04)
    points = [(n, 10.0 ** e) for n in (2, 3, 5, 8) for e in range(1, -6, -1)]
    points += [(2, 1e-6), (2, 1e-7)]
    rng = random.Random("jitter-1")
    return points + [(n, t * (1.0 + 0.04 * rng.random())) for n, t in points]


REFERENCE_POINTS = (
    [(n, 10.0 ** e) for n in (2, 3, 4, 5, 8, 13, 30, 100, 164, 165, 250, 300, 1000)
     for e in range(3, -8, -1)]
    + _bench_trace_points()
    + [
        (2, 373.0),  # tail_bound is the least subnormal, 5e-324
        (2, 373.05),  # the -745 guard zeroes a term whose exp is 5e-324
        (2, 1e-10),  # the level cap
        (300, 3.98e-5),  # the sum overflows
        (250, 1.6e-5),  # a single term overflows
        (2, 1e308), (165, 1e308), (100000, 1e308),  # every exponent overflows
    ]
)


def _outcome(fn, n, t):
    try:
        got = fn(n, t)
    except (RuntimeError, OverflowError) as exc:
        return type(exc), str(exc)
    return got.value.hex(), got.levels_used, got.tail_bound.hex()


class TestAgainstTheReferenceLoop:
    """heat_trace forms the tail ratio only where a term can stop the
    sum; every result and every error must be the reference loop's."""

    def test_every_bit_and_every_error_match(self):
        for n, t in REFERENCE_POINTS:
            assert _outcome(heat_trace, n, t) == _outcome(_reference_heat_trace, n, t), (n, t)

    def test_the_underflow_guard_still_acts(self):
        # log T_1 = log 3 - 746.1 is just below -745: exp gives 5e-324,
        # which the guard replaces by 0.0 before it becomes the tail
        assert math.exp(math.log(3) - 2 * 373.05) == 5e-324
        assert heat_trace(2, 373.05) == TraceResult(value=1.0, levels_used=1, tail_bound=0.0)
        assert heat_trace(2, 373.0).tail_bound == 5e-324


SMALL_TIMES = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)


class TestSmallTime:
    """Small-t oracles from Poisson summation and Minakshisundaram-Pleijel."""

    @pytest.mark.parametrize("t", SMALL_TIMES)
    def test_s3_closed_form(self, t):
        # on S^3, lambda_k + 1 = (k+1)^2 = m_k, so Poisson summation gives
        # Z(t) = e^t sqrt(pi) / (4 t^(3/2)) up to O(e^(-pi^2/t))
        closed = math.exp(t) * math.sqrt(math.pi) / (4.0 * t ** 1.5)
        assert heat_trace(3, t).value == pytest.approx(closed, rel=1e-13)

    @pytest.mark.parametrize("t", SMALL_TIMES[1:])
    def test_s2_expansion(self, t):
        # Mulholland (1928): Z(t) = 1/t + 1/3 + t/15 + 4t^2/315 + O(t^3)
        expansion = 1.0 / t + 1.0 / 3.0 + t / 15.0 + 4.0 * t * t / 315.0
        assert heat_trace(2, t).value == pytest.approx(expansion, rel=1e-13)

    @pytest.mark.parametrize("n", (2, 3, 5, 8))
    def test_levels_scale_like_inverse_sqrt_t(self, n):
        got = heat_trace(n, 1e-5)
        assert got.levels_used <= 2500
        assert 0.0 <= got.tail_bound <= 1e-14 * got.value

    @pytest.mark.parametrize("n", (2, 4, 7))
    @pytest.mark.parametrize("t", (1e-2, 1e-3))
    def test_certificate_against_mpmath(self, n, t):
        got = heat_trace(n, t)
        # the bound covers the exact omitted tail ...
        omitted = mp_trace(n, t, start=got.levels_used)
        assert omitted <= got.tail_bound
        # ... and, with a few ulps for rounding the partial sum, the
        # distance to the full trace
        deficit = abs(float(mp_trace(n, t)) - got.value)
        assert deficit <= got.tail_bound + 1e-14 * got.value


class TestTraceBound:
    def test_plain_arithmetic_small_n(self):
        for n in (2, 3, 4):
            for t in (1.0, 1.5, 4.0):
                direct = 1.0 + (n + 1) * math.exp(-n * t) + cly_constant(n) / t * math.exp(-n * t)
                assert trace_bound(n, t) == pytest.approx(direct, rel=1e-12)

    def test_dominates_trace_spot_grid(self):
        for n in (2, 5, 9):
            for t in (1.0, 1.25, 3.75, 10.0):
                assert trace_bound(n, t) >= heat_trace(n, t).value

    def test_requires_t_at_least_one(self):
        with pytest.raises(ValueError):
            trace_bound(2, 0.99)

    def test_huge_n_no_overflow_when_decay_wins(self):
        # C_n is far past float range at n = 400, but the e^{-nt} decay
        # keeps the combined correction representable once t > log(n)-ish
        value = trace_bound(400, 6.0)
        assert math.isfinite(value) and value >= 1.0
        assert value == pytest.approx(1.0, abs=1e-100)

    def test_n_past_the_double_range_raises_naming_it(self):
        n = 10**400
        message = f"^dimension leaves the double range at n={n}$"
        with pytest.raises(OverflowError, match=message):
            trace_bound(n, 1.0)
        with pytest.raises(OverflowError, match=message):
            heat_trace(n, 1.0)
        # sphere_level works in exact ints, at any n
        assert sphere_level(n, 1).multiplicity == n + 1

    def test_unrepresentable_bound_raises(self):
        # at small t the correction C_n e^{-nt}/t genuinely exceeds float
        # range for huge n; that must surface, not round to inf
        with pytest.raises(OverflowError, match=r"at n=400, t=2\.0$"):
            trace_bound(400, 2.0)


def _guarded_trace_bound(n, t):
    # trace_bound as it was with an underflow guard on each exp: a term
    # whose log is at most -745 was replaced by 0.0
    if not (t >= 1.0) or math.isinf(t) or math.isnan(t):
        raise ValueError(f"the closed bound needs t >= 1, got {t!r}")
    decay = -n * t
    linear = (n + 1) * math.exp(decay) if decay > -745.0 else 0.0
    corr_log = cly_constant_log(n) + decay - math.log(t)
    try:
        correction = math.exp(corr_log) if corr_log > -745.0 else 0.0
    except OverflowError:
        raise OverflowError(
            f"closed trace bound exceeds the double range at n={n}, t={t!r}"
        ) from None
    return 1.0 + linear + correction


def _edge_times(n):
    """t near 745/n, where -n t crosses -745, and near the t where the correction's log does."""
    times = [745.0 / n]
    t = 745.0 / n  # log C_n - n t - log t = -745, solved by fixed-point steps
    for _ in range(60):
        t = (cly_constant_log(n) + 745.0 - math.log(t)) / n
    times.append(t)
    out = []
    for t in times:
        for scale in (1.0 - 1e-3, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.0 + 1e-3):
            out += [t * scale, math.nextafter(t * scale, 0.0), math.nextafter(t * scale, math.inf)]
    return [t for t in out if t >= 1.0]


TRACE_BOUND_NS = [*range(2, 400), 744, 745, 746, 1000, 10**5]
TRACE_BOUND_TIMES = [1.0, 1.5, 2.0, 4.0, 10.0, 100.0, 372.5, 373.0, 373.05, 1e3, 1e10, 1e100, 1e300]


def _bound_outcome(fn, n, t):
    try:
        return fn(n, t).hex()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


class TestTraceBoundWithoutGuards:
    """exp underflows to at most 5e-324 without raising, and both terms
    are added to 1.0, so trace_bound needs no underflow guard: every bit
    and every error must be the guarded bound's."""

    def test_every_bit_and_every_error_match(self):
        points = [(n, t) for n in TRACE_BOUND_NS for t in TRACE_BOUND_TIMES + _edge_times(n)]
        points += [(2, 0.5), (400, 2.0)]  # a usage error and an overflow
        assert len(points) > 8000
        sides = collections.Counter()
        for n, t in points:
            assert _bound_outcome(trace_bound, n, t) == _bound_outcome(_guarded_trace_bound, n, t), (n, t)
            if t >= 1.0:
                corr_log = cly_constant_log(n) - n * t - math.log(t)
                for term, log in (("linear", -n * t), ("correction", corr_log)):
                    # which side of the edge, and whether the guard zeroed a nonzero exp there
                    sides[term, log > -745.0, log <= -745.0 and math.exp(min(log, 0.0)) > 0.0] += 1
        # the grid straddles both edges, and on each reaches exps the guard zeroed
        assert {key: count > 0 for key, count in sides.items()} == {
            (term, above, zeroed): True for term in ("linear", "correction")
            for above, zeroed in ((True, False), (False, False), (False, True))
        }

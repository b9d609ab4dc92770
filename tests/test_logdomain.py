"""LogScalar semantics and the precision envelope of its arithmetic.

Tolerances here are measured behaviour of the implementation on
adversarial samples, frozen as regression bounds: exact round trips
near magnitude 1, and relative error growing like eps * |log x| when
the stored logarithm itself is large (inherent in any log-domain
representation, not a defect of this one).
"""

import functools
import math
import random

import mpmath
import pytest

from volgap.logdomain import (
    ZERO,
    LogScalar,
    _log_sum,
    log_add,
    log_div,
    log_mul,
)

EPS = 2.0 ** -52


def random_scalar(rng: random.Random) -> LogScalar:
    # magnitude before sign: the draw order the seeded samples were frozen with
    log_mag = rng.uniform(-700, 700)
    return LogScalar(rng.choice((-1, 1)), log_mag)


def ulps_apart(a: float, b: float) -> float:
    if a == b:
        return 0.0
    m = max(abs(a), abs(b))
    return abs(a - b) / (m * EPS)


class TestConstruction:
    def test_zero_is_canonical(self):
        z = LogScalar(0, -math.inf)
        assert z.sign == 0 and z.log_mag == -math.inf and z.is_zero
        assert LogScalar(0, 5.0) == z  # sign 0 forces the magnitude down
        assert LogScalar(1, -math.inf) == z  # -inf magnitude forces sign 0

    def test_from_float(self):
        x = LogScalar.from_float(2.5)
        assert x.sign == 1 and x.log_mag == math.log(2.5)
        y = LogScalar.from_float(-0.25)
        assert y.sign == -1 and y.log_mag == math.log(0.25)
        assert LogScalar.from_float(0.0) == ZERO
        assert LogScalar.from_float(-0.0) == ZERO

    def test_from_sign_and_log(self):
        x = LogScalar(1, 700.0)
        assert x.sign == 1 and x.log_mag == 700.0
        y = LogScalar(-1, 700.0)
        assert y.sign == -1 and y.log_mag == 700.0

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            LogScalar(2, 0.0)

    def test_rejects_nan_and_positive_inf(self):
        with pytest.raises(ValueError):
            LogScalar(1, math.nan)
        with pytest.raises(ValueError):
            LogScalar(1, math.inf)
        with pytest.raises(ValueError):
            LogScalar.from_float(math.nan)
        with pytest.raises(ValueError):
            LogScalar.from_float(math.inf)


class TestConversion:
    def test_round_trip_exact_near_one(self):
        rng = random.Random(20260815)
        for _ in range(500):
            x = math.exp(rng.uniform(-1.0, 1.0))
            assert LogScalar.from_float(x).to_float() == x

    def test_round_trip_measured_envelope(self):
        # relative error of exp(log(x)) grows ~ eps |log x|; the frozen
        # envelope is 2 eps max(1, |log x|), observed worst ~510 ulps
        # near |log x| = 700
        rng = random.Random(20260815)
        for _ in range(2000):
            exponent = rng.randint(-1000, 1000)
            x = math.ldexp(rng.uniform(1.0, 2.0), exponent)
            back = LogScalar.from_float(x).to_float()
            tol = 2.0 * EPS * max(1.0, abs(math.log(x)))
            assert abs(back - x) <= tol * x

    def test_overflow_saturates(self):
        assert LogScalar(1, 800.0).to_float() == math.inf
        assert LogScalar(-1, 800.0).to_float() == -math.inf

    def test_underflow_to_zero(self):
        assert LogScalar(1, -1e9).to_float() == 0.0
        assert ZERO.to_float() == 0.0

    def test_log10_mag(self):
        x = LogScalar.from_float(-1000.0)
        assert x.sign == -1 and x.log10_mag == pytest.approx(3.0, rel=1e-15)
        assert LogScalar.from_float(100.0).log10_mag == pytest.approx(2.0, rel=1e-15)
        assert ZERO.log10_mag == -math.inf


class TestAddSub:
    def test_matches_float_in_range(self):
        rng = random.Random(7)
        for _ in range(500):
            a, b = rng.uniform(-50, 50), rng.uniform(-50, 50)
            got = log_add(LogScalar.from_float(a), LogScalar.from_float(b)).to_float()
            assert got == pytest.approx(a + b, rel=2e-14, abs=5e-14)

    def test_exact_cancellation_gives_zero(self):
        assert log_add(LogScalar.from_float(3.7), LogScalar.from_float(-3.7)) == ZERO

    def test_near_cancellation_two_branch(self):
        # differences spanning both expm1/log1p branches, against mpmath
        with mpmath.workdps(60):
            rng = random.Random(11)
            for _ in range(300):
                base = rng.uniform(-600.0, 600.0)
                delta = 10.0 ** rng.uniform(-14.0, 2.0)
                upper = base + delta
                if upper == base:  # delta below the ulp of base: exact tie
                    continue
                a = LogScalar(1, upper)
                b = LogScalar(-1, base)
                got = log_add(a, b)
                oracle = mpmath.exp(mpmath.mpf(upper)) - mpmath.exp(mpmath.mpf(base))
                assert got.sign == 1
                want_log = float(mpmath.log(oracle))
                assert ulps_apart(got.log_mag, want_log) <= 4.0 or (
                    abs(got.log_mag - want_log) < 1e-13
                )

    def test_add_zero_identity(self):
        x = LogScalar(-1, 1234.5)
        assert log_add(x, ZERO) == x
        assert log_add(ZERO, x) == x

    def test_add_commutative_exact(self):
        rng = random.Random(13)
        for _ in range(200):
            a = random_scalar(rng)
            b = random_scalar(rng)
            assert log_add(a, b) == log_add(b, a)

    def test_add_associative_measured(self):
        # frozen envelope: <= 2 ulps of the largest log magnitude involved
        rng = random.Random(20260815)
        for _ in range(400):
            base = rng.uniform(-600, 600)
            xs = [LogScalar(1, base + rng.uniform(-40, 40)) for _ in range(3)]
            left = log_add(log_add(xs[0], xs[1]), xs[2])
            right = log_add(xs[0], log_add(xs[1], xs[2]))
            assert left.sign == right.sign
            assert ulps_apart(left.log_mag, right.log_mag) <= 2.0

    def test_underflow_guard_keeps_big_operand(self):
        big = LogScalar(1, 0.0)
        tiny = LogScalar(1, -800.0)
        assert log_add(big, tiny) == big


class TestMulDiv:
    def test_mul_adds_logs(self):
        a = LogScalar(-1, 300.0)
        b = LogScalar(1, 450.0)
        c = log_mul(a, b)
        assert c.sign == -1 and c.log_mag == 750.0

    def test_mul_by_zero(self):
        assert log_mul(LogScalar.from_float(5.0), ZERO) == ZERO

    def test_div(self):
        a = LogScalar.from_float(10.0)
        b = LogScalar.from_float(-4.0)
        assert log_div(a, b).to_float() == pytest.approx(-2.5, rel=1e-15)

    def test_div_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            log_div(LogScalar(1, 0.0), ZERO)

    def test_mul_inverse_round_trip(self):
        rng = random.Random(17)
        one = LogScalar(1, 0.0)
        for _ in range(200):
            x = random_scalar(rng)
            assert log_div(x, x) == one
            assert log_mul(x, one) == x

    def test_operator_sugar(self):
        a = LogScalar.from_float(6.0)
        b = LogScalar.from_float(2.0)
        assert (a * b).to_float() == pytest.approx(12.0, rel=1e-15)
        assert (a / b).to_float() == pytest.approx(3.0, rel=1e-15)


class TestExpSum:
    # logs of sums of exponentials: many-term sums fold log_add, and
    # _log_sum is the two-term float helper under it

    def test_log_sum_matches_fsum(self):
        rng = random.Random(19)
        vals = [rng.uniform(-30, 30) for _ in range(50)]
        terms = [LogScalar.from_float(v) for v in vals]
        got = functools.reduce(log_add, terms, ZERO).to_float()
        assert got == pytest.approx(math.fsum(vals), rel=1e-13, abs=1e-12)

    def test_log_sum_empty_is_zero(self):
        # a fold from ZERO over no terms, or over zeros only, stays ZERO
        assert functools.reduce(log_add, [ZERO, ZERO], ZERO) == ZERO

    def test_log_sum_wide_span(self):
        logs = [-600.0 + 100.0 * k for k in range(13)]
        got = functools.reduce(_log_sum, logs)
        # dominated by the largest term plus a tiny correction
        assert got == pytest.approx(600.0 + math.log1p(math.exp(-100.0)), abs=1e-12)
        terms = [LogScalar(1, v) for v in logs]
        assert functools.reduce(log_add, terms, ZERO) == LogScalar(1, got)

    def test_log_sum_is_symmetric_and_underflow_safe(self):
        rng = random.Random(23)
        for _ in range(200):
            a, b = rng.uniform(-700, 700), rng.uniform(-700, 700)
            assert _log_sum(a, b) == _log_sum(b, a)
            want = max(a, b) + math.log1p(math.exp(-abs(a - b)))
            assert _log_sum(a, b) == pytest.approx(want, rel=1e-15)
        assert _log_sum(0.0, -800.0) == 0.0 == _log_sum(-800.0, 0.0)

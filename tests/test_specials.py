"""Special functions against independent oracles.

The quadrature oracle (scipy) and the arbitrary-precision oracle
(mpmath) are computed fresh here; the frozen decimal values were
produced by those oracles and are pinned so a regression cannot hide
behind a change in the oracle call.
"""

import math

import mpmath
import pytest
from scipy.integrate import quad

from volgap import specials
from volgap.logdomain import LogScalar, _log_sum
from volgap.specials import (
    HalfInteger,
    _GAMMA_AT_ONE,
    _GammaAtOne,
    cly_constant,
    cly_constant_log,
    erf_series,
    nc_product,
    upper_incomplete_gamma_at_one,
)

# oracle-produced, frozen
GAMMA_HALF_AT_ONE = 0.2788055852806619  # sqrt(pi) (1 - erf(1))
GAMMA_3_2_AT_ONE = 0.5072822338117733
CN_FROZEN = {
    2: 1.0,
    3: 3.58258102141221,
    4: 16.0,
    5: 85.76450235361506,
    6: 540.0,
    7: 3934.439269832872,
    8: 32768.0,
    10: 3250000.0,
}


def quad_gamma_upper(s: float) -> float:
    value, err = quad(
        lambda t: math.exp(-t) * t ** (s - 1.0), 1.0, math.inf,
        epsabs=1e-13, epsrel=1e-13,
    )
    # quad reports a conservative estimate; gate it relative to the value
    assert err < 1e-10 * max(1.0, value)
    return value


class TestErfSeries:
    def test_matches_stdlib_on_grid(self):
        # cancellation costs ~eps e^(x^2): at the |x| <= 3 domain edge
        # that is a few 1e-14
        for k in range(-30, 31):
            x = 0.1 * k
            assert erf_series(x) == pytest.approx(math.erf(x), rel=0, abs=5e-14)

    def test_tight_below_two(self):
        for k in range(-20, 21):
            x = 0.1 * k
            assert erf_series(x) == pytest.approx(math.erf(x), rel=0, abs=5e-16)

    def test_at_one_equals_stdlib_exactly(self):
        # the Maclaurin series with 1e-17 term cutoff lands on the same float
        assert erf_series(1.0) == math.erf(1.0)

    def test_odd_function(self):
        for x in (0.3, 1.7, 2.8):
            assert erf_series(-x) == -erf_series(x)

    def test_large_argument_rejected(self):
        with pytest.raises(ValueError):
            erf_series(3.5)


def mpmath_log_cn(n: int) -> float:
    # log C_n = (n/2) log n + 1 + log Gamma(n/2, 1) - log 2, at 50 digits
    with mpmath.workdps(50):
        half = mpmath.mpf(n) / 2
        log_gamma = mpmath.log(mpmath.gammainc(half, 1, mpmath.inf))
        return float(half * mpmath.log(n) + 1 + log_gamma - mpmath.log(2))


class TestHalfInteger:
    def test_integer_detection(self):
        # twice = 6 is the integer s = 3: (m-1)! e^-1 sum_{j<m} 1/j! = 5/e
        got = upper_incomplete_gamma_at_one(HalfInteger(6))
        assert got == pytest.approx(5.0 / math.e, rel=1e-15)

    def test_half_odd(self):
        # twice = 5 is s = 5/2, reached from the seed by the half-odd recurrence
        s = HalfInteger(twice=5)
        assert s.twice == 5
        want = 1.5 * GAMMA_3_2_AT_ONE + math.exp(-1.0)
        assert upper_incomplete_gamma_at_one(s) == pytest.approx(want, rel=1e-15)

    def test_half_of_dimension(self):
        # C_n reads Gamma(n/2, 1), which is HalfInteger(n)
        for n in (3, 4, 7):
            gamma = upper_incomplete_gamma_at_one(HalfInteger(n))
            want = n ** (n / 2.0) * math.e * gamma / 2.0
            assert cly_constant(n) == pytest.approx(want, rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            HalfInteger(twice=0)


class TestUpperGammaAtOne:
    def test_quadrature_oracle_integers(self):
        for m in range(1, 20):
            got = upper_incomplete_gamma_at_one(HalfInteger(2 * m))
            assert got == pytest.approx(quad_gamma_upper(float(m)), rel=1e-12)

    def test_quadrature_oracle_half_odd(self):
        for twice in range(1, 39, 2):
            s = HalfInteger(twice=twice)
            got = upper_incomplete_gamma_at_one(s)
            assert got == pytest.approx(quad_gamma_upper(twice / 2.0), rel=1e-11)

    def test_frozen_seed_values(self):
        assert upper_incomplete_gamma_at_one(HalfInteger(twice=1)) == pytest.approx(
            GAMMA_HALF_AT_ONE, rel=1e-15
        )
        assert upper_incomplete_gamma_at_one(HalfInteger(twice=3)) == pytest.approx(
            GAMMA_3_2_AT_ONE, rel=1e-15
        )

    def test_gamma_at_one_integer_closed_form(self):
        # Gamma(m, 1) = (m-1)! e^{-1} sum_{j<m} 1/j!
        for m in (1, 2, 5, 10):
            expected = (
                math.factorial(m - 1)
                * math.exp(-1.0)
                * math.fsum(1.0 / math.factorial(j) for j in range(m))
            )
            got = upper_incomplete_gamma_at_one(HalfInteger(2 * m))
            assert got == pytest.approx(expected, rel=1e-15)

    def test_recurrence_property(self):
        # Gamma(s+1, 1) = s Gamma(s, 1) + e^{-1}, all s on the half grid
        for twice in range(1, 41):
            s = HalfInteger(twice=twice)
            s_next = HalfInteger(twice=twice + 2)
            lhs = upper_incomplete_gamma_at_one(s_next)
            rhs = twice / 2.0 * upper_incomplete_gamma_at_one(s) + math.exp(-1.0)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_log_path_matches_float_path(self):
        for twice in range(1, 60):
            s = HalfInteger(twice=twice)
            log_got = _GAMMA_AT_ONE.at(twice)[1]
            assert log_got == pytest.approx(
                math.log(upper_incomplete_gamma_at_one(s)), rel=0, abs=1e-12
            )

    @pytest.mark.parametrize("twice", [344, 345, 346, 401, 1001])
    def test_overflow_raises_not_inf(self, twice):
        # Gamma(343/2, 1) is the last value below the double ceiling
        assert math.isfinite(upper_incomplete_gamma_at_one(HalfInteger(343)))
        with pytest.raises(OverflowError):
            upper_incomplete_gamma_at_one(HalfInteger(twice))

    def test_log_path_beyond_float_range(self):
        # Gamma(s, 1) ~ Gamma(s) overflows floats past s ~ 171; C_800
        # needs Gamma(400, 1) in logs
        assert cly_constant_log(800).log_mag == pytest.approx(mpmath_log_cn(800), rel=1e-13)

    def test_log_path_beyond_float_range_half_odd(self):
        # C_801 needs Gamma(801/2, 1), the half-odd recurrence run in logs
        assert cly_constant_log(801).log_mag == pytest.approx(mpmath_log_cn(801), rel=1e-13)


class TestClyConstant:
    def test_frozen_values(self):
        for n, ref in CN_FROZEN.items():
            assert cly_constant(n) == pytest.approx(ref, rel=1e-13)

    def test_even_cases_exact(self):
        # even n collapse: C_n = n^{n/2} e Gamma(n/2,1)/2 with the e^{-1}
        # inside Gamma cancelling, giving a rational times a power
        assert cly_constant(2) == 1.0
        assert cly_constant(4) == 16.0
        assert cly_constant(6) == 540.0
        assert cly_constant(8) == 32768.0

    def test_mpmath_oracle(self):
        mpmath.mp.dps = 40
        for n in range(2, 40):
            oracle = (
                mpmath.mpf(n) ** (mpmath.mpf(n) / 2)
                * mpmath.e
                * mpmath.gammainc(mpmath.mpf(n) / 2, 1, mpmath.inf)
                / 2
            )
            assert cly_constant(n) == pytest.approx(float(oracle), rel=1e-13)

    def test_log_form_against_mpmath(self):
        mpmath.mp.dps = 50
        for n in (2, 3, 10, 50, 200, 400):
            oracle = (
                mpmath.mpf(n) / 2 * mpmath.log(n)
                + 1
                + mpmath.log(mpmath.gammainc(mpmath.mpf(n) / 2, 1, mpmath.inf))
                - mpmath.log(2)
            )
            got = cly_constant_log(n)
            assert isinstance(got, LogScalar) and got.sign == 1
            assert got.log_mag == pytest.approx(float(oracle), rel=1e-14)

    def test_monotone_increasing(self):
        logs = [cly_constant_log(n).log_mag for n in range(2, 120)]
        assert all(b > a for a, b in zip(logs, logs[1:]))

    def test_overflow_raises_not_inf(self):
        with pytest.raises(OverflowError):
            cly_constant(200)

    def test_validation(self):
        with pytest.raises(ValueError):
            cly_constant(1)
        with pytest.raises(TypeError):
            cly_constant(2.0)


class TestNcProduct:
    def test_matches_plain_product_small_n(self):
        for n in range(2, 30):
            assert nc_product(n) == pytest.approx(n * cly_constant(n), rel=1e-15)

    def test_representability_ceiling(self):
        assert math.isfinite(nc_product(165))
        with pytest.raises(OverflowError):
            nc_product(166)


# The per-n formulas that the incremental evaluation replaced: each call
# starts from scratch, so they are independent of where its cursors
# stand and serve as its bit-for-bit reference.
def ref_recip_factorial_sum(m: int) -> float:
    terms = []
    t = 1.0
    for j in range(m):
        terms.append(t)
        t /= j + 1
    return math.fsum(terms)


def ref_gamma_float(twice_s: int) -> float:
    if twice_s % 2 == 0:
        m = twice_s // 2
        return math.factorial(m - 1) * math.exp(-1.0) * ref_recip_factorial_sum(m)
    g = math.sqrt(math.pi) * (1.0 - erf_series(1.0))
    s = 0.5
    while 2.0 * s < twice_s:
        g = s * g + math.exp(-1.0)
        s += 1.0
    return g


def ref_gamma_log(twice_s: int) -> float:
    if twice_s % 2 == 0:
        m = twice_s // 2
        return math.log(math.factorial(m - 1)) + math.log(ref_recip_factorial_sum(m)) - 1.0
    if twice_s <= 340:
        return math.log(ref_gamma_float(twice_s))
    log_g = math.log(math.sqrt(math.pi) * (1.0 - erf_series(1.0)))
    s = 0.5
    while 2.0 * s < twice_s:
        log_g = _log_sum(math.log(s) + log_g, -1.0)
        s += 1.0
    return log_g


def ref_cly_log(n: int) -> float:
    return (n / 2.0) * math.log(n) + 1.0 + ref_gamma_log(n) - math.log(2.0)


def ref_cly(n: int) -> float:
    if ref_cly_log(n) > 709.0:
        raise OverflowError
    half_power = float(n ** (n // 2)) if n % 2 == 0 else math.pow(n, n / 2.0)
    return half_power * math.e * ref_gamma_float(n) / 2.0


def ref_nc(n: int) -> float:
    if math.log(n) + ref_cly_log(n) > 709.0:
        raise OverflowError
    return n * ref_cly(n)


def outcome(fn, *args):
    try:
        return fn(*args)
    except OverflowError:
        return OverflowError


class TestIncrementalGamma:
    def test_log_constant_matches_per_n_formula_bit_for_bit(self):
        for n in range(2, 4001):
            assert cly_constant_log(n).log_mag == ref_cly_log(n), n

    def test_float_constants_match_per_n_formula_bit_for_bit(self):
        # 171 is past both ceilings, so the overflows are compared too
        for n in range(2, 172):
            assert outcome(cly_constant, n) == outcome(ref_cly, n), n
            assert outcome(nc_product, n) == outcome(ref_nc, n), n
        assert outcome(cly_constant, 171) is OverflowError

    def test_gamma_matches_per_n_formula_bit_for_bit(self):
        # downwards too: a k behind the cursor restarts it from the seed
        for twice in [*range(1, 344), *range(343, 0, -1)]:
            assert upper_incomplete_gamma_at_one(HalfInteger(twice)) == ref_gamma_float(twice)

    def test_a_new_range_costs_one_step_per_n(self, monkeypatch):
        # the half-odd log recurrence takes one step per odd k up to the
        # largest n asked for, wherever its cursor was; per-n evaluation
        # takes about n/2 steps for each odd n, some 920,000 here
        calls = []
        monkeypatch.setattr(specials, "_log_sum", lambda a, b: calls.append(1) or _log_sum(a, b))
        for n in range(9001, 9401):
            cly_constant_log(n)
        assert 0 < len(calls) <= 9400 // 2

    def test_the_full_reciprocal_factorial_sum_is_taken_once(self, monkeypatch):
        # every 1/j! with j >= 178 is 0.0, so sum_{j<m} 1/j! stops changing
        # at m = 178; an even k past 355 reads the sum taken at set-up
        table = _GammaAtOne()
        sums = []
        fsum = math.fsum
        monkeypatch.setattr(math, "fsum", lambda terms: sums.append(1) or fsum(terms))
        for m in range(178, 401):
            table.at(2 * m)
        assert sums == []

    @pytest.mark.parametrize("failure", [KeyboardInterrupt, OverflowError])
    def test_interrupted_move_leaves_the_cursor_where_it_was(self, monkeypatch, failure):
        calls = []

        def flaky(a, b):
            calls.append(1)
            if len(calls) == 50:
                raise failure
            return _log_sum(a, b)

        table = _GammaAtOne()
        table.at(601)
        before = table._odd
        monkeypatch.setattr(specials, "_log_sum", flaky)
        with pytest.raises(failure):
            table.at(1001)
        assert table._odd == before
        monkeypatch.undo()
        fresh = _GammaAtOne()
        assert [table.at(k) for k in range(1, 1201)] == [fresh.at(k) for k in range(1, 1201)]

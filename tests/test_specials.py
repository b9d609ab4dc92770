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

from volgap.logdomain import LogScalar
from volgap.specials import (
    HalfInteger,
    _gamma_upper_log,
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
            log_got = _gamma_upper_log(twice)
            assert log_got == pytest.approx(
                math.log(upper_incomplete_gamma_at_one(s)), rel=0, abs=1e-12
            )

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

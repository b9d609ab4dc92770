"""Special functions against independent oracles.

The quadrature oracle (scipy) is computed fresh here, the
arbitrary-precision one (mpmath) is oracle.py; the frozen decimal values were
produced by those oracles and are pinned so a regression cannot hide
behind a change in the oracle call.
"""

import math

import mpmath
import pytest
from scipy.integrate import quad

from volgap.claims import SuiteConfig, run_claim
from volgap.specials import (
    HalfInteger,
    _gamma_at_one,
    cly_constant,
    cly_constant_log,
    nc_product,
    upper_incomplete_gamma_at_one,
)

import oracle

# oracle-produced, frozen
GAMMA_HALF_AT_ONE = 0.2788055852806619  # sqrt(pi) erfc(1)
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


class TestHalfOddSeed:
    # Gamma(1/2, 1) = sqrt(pi) erfc(1) seeds every half-odd value; the
    # cancelling sqrt(pi) (1 - erf(1)) lands one ulp low, on ...ec8p-2
    def test_is_the_correctly_rounded_value(self):
        assert upper_incomplete_gamma_at_one(HalfInteger(1)) == float.fromhex("0x1.1d7f361ae3ec9p-2")

    def test_matches_mpmath(self):
        assert upper_incomplete_gamma_at_one(HalfInteger(1)) == float(oracle.gamma_at_one(1))


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

    def test_rejects_a_non_int(self):
        with pytest.raises(TypeError, match="^twice must be an int, got float$"):
            HalfInteger(2.0)
        with pytest.raises(TypeError, match="^s must be a HalfInteger$"):
            upper_incomplete_gamma_at_one(3)


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
            log_got = _gamma_at_one(twice)[1]
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
        assert cly_constant_log(800) == pytest.approx(float(oracle.log_c(800)), rel=1e-13)

    def test_log_path_beyond_float_range_half_odd(self):
        # C_801 needs Gamma(801/2, 1), past the half-odd recurrence's
        # double range, so its log is lgamma(801/2)
        assert cly_constant_log(801) == pytest.approx(float(oracle.log_c(801)), rel=1e-13)


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
        for n in range(2, 40):
            assert cly_constant(n) == pytest.approx(float(oracle.c(n)), rel=1e-13)

    def test_log_form_against_mpmath(self):
        for n in (2, 3, 10, 50, 200, 400):
            got = cly_constant_log(n)
            assert type(got) is float
            assert got == pytest.approx(float(oracle.log_c(n)), rel=1e-14)

    def test_monotone_increasing(self):
        logs = [cly_constant_log(n) for n in range(2, 120)]
        assert all(b > a for a, b in zip(logs, logs[1:]))

    def test_overflow_raises_not_inf(self):
        with pytest.raises(OverflowError):
            cly_constant(200)
        with pytest.raises(OverflowError, match="^C_n leaves the double range at n=167$"):
            cly_constant(167)

    @pytest.mark.parametrize("n", [2**1024, 10**400, 10**400 + 1])
    def test_n_past_the_double_range_raises_naming_it(self, n):
        # n becomes a float before Gamma(n/2, 1) is read
        for fn in (cly_constant_log, cly_constant, nc_product):
            with pytest.raises(OverflowError, match=f"^dimension leaves the double range at n={n}$"):
                fn(n)

    @pytest.mark.parametrize("n", [3 * 10**305, 10**306, 10**306 + 1], ids=["3e305", "1e306", "1e306+1"])
    def test_log_past_the_double_range_raises_naming_it(self, n):
        # from about n = 2.6e305 log C_n is inf, and from about 5.1e305
        # (n/2) log n is too and lgamma(n/2) raises
        assert math.isfinite(cly_constant_log(2 * 10**305))
        for fn in (cly_constant_log, cly_constant, nc_product):
            with pytest.raises(OverflowError, match=f"^log C_n leaves the double range at n={n}$"):
                fn(n)

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
        # an overflow is not memoised: a second call raises it again
        messages = []
        for _ in range(2):
            with pytest.raises(OverflowError) as info:
                nc_product(166)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert "n=166" in messages[0]

    def test_a_memoised_int_does_not_answer_a_float(self):
        assert nc_product(4) == 64.0
        with pytest.raises(TypeError, match="n must be an int, got float"):
            nc_product(4.0)
        with pytest.raises(TypeError, match="got bool"):
            nc_product(True)

    def test_the_memo_holds_one_value_per_representable_n(self):
        for n in range(2, 401):
            outcome(nc_product, n)
        assert nc_product.cache_info().currsize == 164

    @pytest.mark.parametrize("n, error, message", [
        (0, ValueError, "n must be at least 2, got 0"),
        (-3, ValueError, "n must be at least 2, got -3"),
        ("x", TypeError, "n must be an int, got str"),
    ])
    def test_a_bad_dimension_is_named_before_any_log_of_it(self, n, error, message):
        # cly_constant_log checks n for both; nc_product reads it before math.log(n)
        for fn in (nc_product, cly_constant):
            with pytest.raises(error, match=f"^{message}$"):
                fn(n)


# Per-k formulas: each call starts from scratch, so they serve as the
# bit-for-bit reference for the tables and lookups of specials.
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
    g = math.sqrt(math.pi) * math.erfc(1.0)
    s = 0.5
    while 2.0 * s < twice_s:
        g = s * g + math.exp(-1.0)
        s += 1.0
    return g


def ref_gamma_log(twice_s: int) -> float:
    if twice_s > 343:
        return math.lgamma(twice_s / 2)
    if twice_s % 2 == 0:
        m = twice_s // 2
        return math.log(math.factorial(m - 1)) + math.log(ref_recip_factorial_sum(m)) - 1.0
    return math.log(ref_gamma_float(twice_s))


def ref_cly_log(n: int) -> float:
    return ((n / 2.0) * math.log(n) - math.log(2.0)) + (1.0 + ref_gamma_log(n))


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


class TestPerKReference:
    def test_float_constants_match_per_n_formula_bit_for_bit(self):
        # 171 is past both ceilings, so the overflows are compared too
        for n in range(2, 172):
            assert outcome(cly_constant, n) == outcome(ref_cly, n), n
            assert outcome(nc_product, n) == outcome(ref_nc, n), n
        assert outcome(cly_constant, 171) is OverflowError

    def test_gamma_and_its_log_match_per_k_formula_bit_for_bit(self):
        # each k is read on its own, so the order it is asked in cannot matter
        for twice in [*range(1, 344), *range(343, 0, -1)]:
            assert upper_incomplete_gamma_at_one(HalfInteger(twice)) == ref_gamma_float(twice), twice
            assert _gamma_at_one(twice)[1] == ref_gamma_log(twice), twice
        # where the closed forms stop, the same logs come from lgamma
        for twice in (341, 342, 343):
            assert _gamma_at_one(twice)[1] == math.lgamma(twice / 2), twice

    def test_log_constant_against_40_digit_mpmath(self):
        # past k = 343 the log is lgamma(k/2), whose neglected factor
        # 1 - P(k/2, 1) is within 1e-18 of 1 there
        assert cly_constant_log(2) == 0.0
        with mpmath.workdps(oracle.DPS):
            for n in [*range(3, 2001), 10**4, 10**4 + 1, 10**6, 10**6 + 1]:
                assert abs(cly_constant_log(n) / oracle.log_c(n) - 1) <= 4e-16, n


class TestLogConstantCache:
    def test_a_long_sweep_stays_within_the_bound(self):
        # CN_MONOTONE reads log C_n at every n of its grid, and n = 2 once
        # more after the sweep has evicted it; the re-read has the same bits
        verdict = run_claim("CN_MONOTONE", SuiteConfig(n_min=2, n_max=5000))
        info = cly_constant_log.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
        assert verdict.witnesses["log_c_first"] == 0.0

    def test_the_2_to_400_grid_fits(self):
        cly_constant_log.cache_clear()
        for _ in range(2):
            for n in range(2, 401):
                cly_constant_log(n)
        info = cly_constant_log.cache_info()
        assert (info.hits, info.misses) == (399, 399)

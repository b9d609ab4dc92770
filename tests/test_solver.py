"""Root solving against independent high-precision oracles.

The tuning roots were frozen from mpmath.findroot runs; those runs are
repeated here at 50 digits so the pinned decimals stay tied to an
oracle and not to the implementation under test.  The defining
equation is verified in its rearranged excess form

  u (1 + ell u) n C_n = 1 + (n + 1 + ell) e^(-alpha n C_n)

because the textbook form multiplies rounding by e^(alpha n C_n) and
is unverifiable in floats already at n = 4.
"""

import math
import random

import mpmath
import pytest

from volgap import solver
from volgap.bounds import Tuning, b_alpha
from volgap.solver import (
    BracketError,
    EvaluationError,
    RootResult,
    _g_prime_numerator,
    bisect,
    f1,
    f1_prime,
    g_prime_sign_scan,
    gamma_n,
    h,
    optimal_alpha,
)
from volgap.specials import cly_constant, nc_product

# frozen values, mpmath-oracle verified below
GAMMA_2 = 1.4298264769460376
GAMMA_3 = 1.0857019467399787
GAMMA_4 = 1.0153882032022015
GAMMA_30_EXCESS = 1.9605913678369044e-35
ALPHA_STAR_2_2 = 0.9553232317284198
H_ROOT = 1.4298264769460682  # plain bisection root of h on [1.42, 1.44]
H_AT_142 = 0.7000804044382738
H_AT_144 = -0.7599737935923772


def mp_ncn(n: int) -> mpmath.mpf:
    return n * (
        mpmath.mpf(n) ** (mpmath.mpf(n) / 2)
        * mpmath.e
        * mpmath.gammainc(mpmath.mpf(n) / 2, 1, mpmath.inf)
        / 2
    )


def g_value(beta: float, n: int) -> float:
    """g(beta) = (n + 1 + (1+B) e^B) / (beta^2 n C_n e^B - 1), B = beta n C_n, in plain floats."""
    ncn = nc_product(n)
    big_b = beta * ncn
    return (n + 1.0 + (1.0 + big_b) * math.exp(big_b)) / (beta * beta * ncn * math.exp(big_b) - 1.0)


def mp_g_prime_log_mag(beta: float, n: int) -> mpmath.mpf:
    """log |g' numerator| = log n C_n + 2B + log(2 beta + beta^2 n C_n)
    + log(1 + e^-B (B (1 + beta (n+1)) + 2 (beta n + beta + 1)) / (2 beta + beta^2 n C_n))."""
    with mpmath.workdps(60):
        ncn = mp_ncn(n)
        b = mpmath.mpf(beta)
        big_b = b * ncn
        poly = 2 * b + b * b * ncn
        inner = big_b * (1 + b * (n + 1)) + 2 * (b * n + b + 1)
        return (
            mpmath.log(ncn) + 2 * big_b + mpmath.log(poly)
            + mpmath.log1p(mpmath.exp(-big_b) * inner / poly)
        )


def mp_excess_root(n: int, ell: int) -> mpmath.mpf:
    """Independent root of the rearranged critical equation."""
    ncn = mp_ncn(n)

    def eq(u):
        alpha = mpmath.mpf(1) / ell + u
        return u * (1 + ell * u) * ncn - 1 - (n + 1 + ell) * mpmath.e ** (-alpha * ncn)

    guess = min(mpmath.mpf("0.4"), 1 / ncn)
    return mpmath.findroot(eq, guess)


class TestBisect:
    def test_sqrt_two(self):
        r = bisect(lambda x: x * x - 2.0, 1.0, 2.0, tol=1e-13)
        assert r.value == pytest.approx(math.sqrt(2.0), abs=1e-13)
        assert r.bracket_lo <= r.root <= r.bracket_hi
        assert r.iterations <= math.ceil(math.log2(1.0 / 1e-13))

    def test_cosine_root(self):
        r = bisect(math.cos, 1.0, 2.0, tol=1e-12)
        assert r.value == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_exact_zero_midpoint_short_circuits(self):
        r = bisect(lambda x: x - 1.0, 0.5, 1.5, tol=1e-12)
        assert r.root == 1.0 and r.residual == 0.0 and r.iterations == 1

    def test_no_sign_change_raises(self):
        with pytest.raises(BracketError):
            bisect(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_zero_at_endpoint_raises(self):
        with pytest.raises(BracketError):
            bisect(lambda x: x, 0.0, 1.0)

    def test_nan_raises(self):
        with pytest.raises(EvaluationError):
            bisect(lambda x: math.nan, 0.0, 1.0)

    def test_bad_bracket_or_tol(self):
        with pytest.raises(ValueError):
            bisect(math.sin, 2.0, 1.0)
        with pytest.raises(ValueError):
            bisect(math.sin, 1.0, 2.0, tol=0.0)

    def test_deterministic(self):
        a = bisect(math.cos, 1.0, 2.0)
        b = bisect(math.cos, 1.0, 2.0)
        assert a == b

    def test_value_property_uses_base(self):
        r = RootResult(bracket_lo=0.0, bracket_hi=1.0, root=0.25,
                       residual=0.0, iterations=1, base=2.0)
        assert r.value == 2.25


class TestH:
    def test_frozen_signs(self):
        assert h(1.42) == pytest.approx(H_AT_142, rel=1e-14)
        assert h(1.44) == pytest.approx(H_AT_144, rel=1e-14)
        assert h(1.42) > 0.0 > h(1.44)

    def test_independent_direct_evaluation(self):
        for a in (1.0, 1.42, 1.43, 1.44, 2.0):
            direct = 4.0 + (1.0 + 2.0 * a - 2.0 * a * a) * math.exp(2.0 * a)
            assert h(a) == pytest.approx(direct, rel=1e-15)

    def test_bisection_root_matches_gamma_2(self):
        r = bisect(h, 1.42, 1.44, tol=1e-13)
        assert r.value == pytest.approx(H_ROOT, abs=1e-12)
        assert 1.42 < r.value < 1.44
        assert abs(r.residual) <= 1e-9
        assert r.value == pytest.approx(gamma_n(2).value, abs=1e-12)


class TestGammaN:
    def test_frozen_small_n(self):
        assert gamma_n(2).value == pytest.approx(GAMMA_2, rel=1e-12)
        assert gamma_n(3).value == pytest.approx(GAMMA_3, rel=1e-12)
        assert gamma_n(4).value == pytest.approx(GAMMA_4, rel=1e-12)

    def test_frozen_excess_at_30(self):
        # gamma_30 - 1 sits 19 decades below the ulp of 1: only the
        # excess coordinate can carry it
        r = gamma_n(30)
        assert r.root == pytest.approx(GAMMA_30_EXCESS, rel=1e-10)
        assert r.value == 1.0  # collapsing is the expected float behaviour

    def test_mpmath_root_oracle(self):
        with mpmath.workdps(50):
            for n in (2, 3, 4, 6, 10):
                want = float(mp_excess_root(n, 1))
                assert gamma_n(n).root == pytest.approx(want, rel=1e-11)

    def test_residuals_small_across_dimensions(self):
        for n in range(2, 41):
            r = gamma_n(n)
            assert abs(r.residual) <= 1e-9
            assert r.bracket_lo <= r.root <= r.bracket_hi

    def test_residual_is_rearranged_log_form(self):
        r = gamma_n(3)
        u = r.root
        ncn = nc_product(3)
        q = (
            math.log(u)
            + math.log1p(u)
            + math.log(ncn)
            - math.log1p(5.0 * math.exp(-(1.0 + u) * ncn))
        )
        assert r.residual == q

    def test_monotone_decreasing_in_n(self):
        roots = [gamma_n(n).root for n in range(2, 25)]
        assert all(b < a for a, b in zip(roots, roots[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            gamma_n(1)
        with pytest.raises(ValueError):
            gamma_n(3, tol=2.0)


class TestOptimalAlpha:
    def test_ell_one_equals_gamma(self):
        assert optimal_alpha(3, 1) == gamma_n(3)

    def test_frozen_two_two(self):
        r = optimal_alpha(2, 2)
        assert r.value == pytest.approx(ALPHA_STAR_2_2, rel=1e-12)
        assert r.value * 2 > 1.0  # still a positive numerator

    def test_mpmath_oracle_higher_codimension(self):
        with mpmath.workdps(50):
            for n, ell in ((2, 2), (3, 5), (5, 2)):
                want = float(mp_excess_root(n, ell))
                assert optimal_alpha(n, ell).root == pytest.approx(want, rel=1e-11)

    def test_defining_equation_mp_residual(self):
        # plug the float root into the rearranged equation at 50 digits;
        # the residual should reflect only the root's own precision
        with mpmath.workdps(50):
            for n, ell in ((2, 1), (4, 1), (8, 3), (30, 1)):
                u = mpmath.mpf(optimal_alpha(n, ell).root)
                ncn = mp_ncn(n)
                alpha = mpmath.mpf(1) / ell + u
                lhs = u * (1 + ell * u) * ncn
                rhs = 1 + (n + 1 + ell) * mpmath.e ** (-alpha * ncn)
                assert abs(lhs - rhs) / rhs < 1e-11

    def test_iteration_budget(self):
        # Newton steps: ten objective evaluations less the root's own
        # and the two at the bracket ends
        for n, ell in ((2, 1), (30, 1), (100, 7)):
            assert optimal_alpha(n, ell).iterations <= 7

    def test_validation(self):
        with pytest.raises(ValueError):
            optimal_alpha(1, 1)
        with pytest.raises(ValueError):
            optimal_alpha(2, 0)
        with pytest.raises(ValueError):
            optimal_alpha(2, 1, tol=0.0)


def count_evaluations(monkeypatch):
    """Wrap the critical objective; the returned list holds its call count."""
    calls = [0]
    inner = solver._critical_objective

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(solver, "_critical_objective", counted)
    return calls


def residual(u: float, n: int, ell: int) -> float:
    return solver._critical_objective(u, n, ell, nc_product(n))[0]


class TestNewtonBudget:
    def test_every_grid_root_is_certified_in_ten_evaluations(self, monkeypatch):
        calls = count_evaluations(monkeypatch)
        tol = 1e-12
        for n in range(2, 166):
            for ell in range(1, 31):
                calls[0] = 0
                r = optimal_alpha(n, ell, tol)
                assert calls[0] <= 10, (n, ell, calls[0])
                lo, hi = r.bracket_lo, r.bracket_hi
                assert residual(lo, n, ell) < 0.0 < residual(hi, n, ell), (n, ell)
                assert lo < r.root < hi and (hi - lo) / r.root <= tol, (n, ell)

    @pytest.mark.parametrize("ell", [10**9, 10**11, 10**13, 10**16, 10**20])
    @pytest.mark.parametrize("n", [2, 30, 165])
    def test_large_ell_certified_in_ten_evaluations(self, monkeypatch, n, ell):
        calls = count_evaluations(monkeypatch)
        r = optimal_alpha(n, ell)
        assert calls[0] <= 10
        assert residual(r.bracket_lo, n, ell) < 0.0 < residual(r.bracket_hi, n, ell)
        assert (r.bracket_hi - r.bracket_lo) / r.root <= 1e-12

    @pytest.mark.parametrize("n, ell", [(5, 10**12), (30, 10**50), (165, 10**307), (2, 10**308)])
    def test_ell_far_above_n_c_n_still_certifies(self, n, ell):
        # there the residual climbs by log ell across a narrow band in
        # log u, and plain Newton steps jump back and forth over it
        r = optimal_alpha(n, ell)
        assert residual(r.bracket_lo, n, ell) < 0.0 < residual(r.bracket_hi, n, ell)
        assert (r.bracket_hi - r.bracket_lo) / r.root <= 1e-12

    @pytest.mark.parametrize("n, ell", [(2, 1), (5, 3), (30, 7), (165, 1)])
    def test_tol_below_resolution_widens_until_certified(self, n, ell):
        for tol in (1e-16, 1e-300):
            r = optimal_alpha(n, ell, tol)
            assert r.bracket_lo < r.root < r.bracket_hi
            assert residual(r.bracket_lo, n, ell) < 0.0 < residual(r.bracket_hi, n, ell)
            assert (r.bracket_hi - r.bracket_lo) / r.root < 1e-12

    def test_root_is_closer_than_tol_to_the_oracle(self):
        with mpmath.workdps(50):
            for n, ell in ((2, 1), (3, 2), (5, 10**12)):
                want = mp_excess_root(n, ell)
                r = optimal_alpha(n, ell)
                assert abs(r.root - want) / want <= 0.25e-12


class TestObjective:
    def test_f1_plain_float(self):
        direct = 0.43 / (1.43 * 3.0 + 1.0 + 1.43 * math.exp(1.43 * 2.0 * cly_constant(2)))
        assert f1(1.43, 2, 1).to_float() == pytest.approx(direct, rel=1e-13)

    def test_f1_zero_at_base(self):
        assert f1(0.5, 2, 2).is_zero
        assert f1(1.0, 3, 1).is_zero

    def test_f1_negative_below_base(self):
        assert f1(0.9, 2, 1).sign == -1

    def test_excess_form_agrees_with_direct_form(self):
        for n in (2, 3):
            for ell in (1, 2):
                for u in (0.05, 0.2, 0.4):
                    a = f1(1.0 / ell + u, n, ell)
                    b = f1(Tuning.excess(ell, u), n, ell)
                    assert a.sign == b.sign == 1
                    assert a.log_mag == pytest.approx(b.log_mag, rel=0, abs=1e-12)

    def test_value_collapse_at_large_n(self):
        # at n = 30 halving u moves log f1 by log 2 out of ~5e34, far
        # below one ulp of the log magnitude: the values collapse and
        # only the scaled residual can still order the neighbours
        r = gamma_n(30)
        lo = f1(Tuning.excess(1, r.root * 0.5), 30, 1)
        hi = f1(Tuning.excess(1, r.root), 30, 1)
        assert lo.log_mag == hi.log_mag
        ncn = nc_product(30)
        q_half = (
            math.log(r.root * 0.5)
            + math.log1p(r.root * 0.5)
            + math.log(ncn)
            - math.log1p(32.0 * math.exp(-(1.0 + r.root * 0.5) * ncn))
        )
        q_double = (
            math.log(r.root * 2.0)
            + math.log1p(r.root * 2.0)
            + math.log(ncn)
            - math.log1p(32.0 * math.exp(-(1.0 + r.root * 2.0) * ncn))
        )
        assert q_half < 0.0 < q_double

    def test_f1_prime_finite_difference_oracle(self):
        rng = random.Random(20260815)
        step = 1e-7
        checked = 0
        while checked < 20:
            n = rng.randint(2, 6)
            ell = rng.randint(1, 5)
            alpha = rng.uniform(1.05, 2.5)
            if alpha * ell <= 1.0 + 1e-6:
                continue
            fd = (
                f1(alpha + step, n, ell).to_float() - f1(alpha - step, n, ell).to_float()
            ) / (2.0 * step)
            got = f1_prime(alpha, n, ell).to_float()
            assert got == pytest.approx(fd, rel=1e-6)
            checked += 1

    def test_f1_prime_zero_crossing_brackets_root(self):
        r = gamma_n(3)
        assert f1_prime(r.value - 0.01, 3, 1).sign == 1
        assert f1_prime(r.value + 0.01, 3, 1).sign == -1

    def test_scaled_residual_sign_matches_derivative(self):
        # the orientation certificate: the solver's scaled objective is
        # negative exactly where f1 still rises
        for n in (2, 3, 4):
            for ell in (1, 2):
                ncn = nc_product(n)
                root_u = optimal_alpha(n, ell).root
                for factor in (0.2, 0.6, 1.7, 3.0):
                    u = root_u * factor
                    alpha = 1.0 / ell + u
                    q = (
                        math.log(u)
                        + math.log1p(ell * u)
                        + math.log(ncn)
                        - math.log1p((n + 1 + ell) * math.exp(-alpha * ncn))
                    )
                    deriv_sign = f1_prime(alpha, n, ell).sign
                    assert (q < 0.0) == (deriv_sign == 1)

    def test_profile_rises_then_falls(self):
        # f1 is positive here, so its log magnitudes order its values
        up = [f1(a, 2, 1) for a in (1.05, 1.15, 1.25, 1.35, 1.42)]
        down = [f1(a, 2, 1) for a in (1.44, 1.6, 1.8, 2.0)]
        assert all(v.sign == 1 for v in up + down)
        assert all(b.log_mag > a.log_mag for a, b in zip(up, up[1:]))
        assert all(b.log_mag < a.log_mag for a, b in zip(down, down[1:]))


class TestGFunction:
    def test_g_plain_float(self):
        # the test-side g against its hand-reduced value at n = 2, where n C_n = 2
        e2 = math.exp(2.0)
        direct = (3.0 + 3.0 * e2) / (2.0 * e2 - 1.0)
        assert g_value(1.0, 2) == pytest.approx(direct, rel=1e-13)

    def test_g_prime_numerator_vs_finite_difference(self):
        step = 1e-6
        for n in (2, 3):
            for beta in (0.8, 1.0, 1.5, 2.2):
                fd = (g_value(beta + step, n) - g_value(beta - step, n)) / (2.0 * step)
                ncn = nc_product(n)
                den = beta * beta * ncn * math.exp(beta * ncn) - 1.0
                got = _g_prime_numerator(beta, n, ncn).to_float() / (den * den)
                assert got == pytest.approx(fd, rel=1e-5)
                assert got < 0.0

    def test_g_prime_numerator_mpmath(self):
        # finite differences cannot reach n >= 30; the claim suite proves
        # the factored form itself, by exact expansion
        for n in (2, 5, 30, 100, 164):
            for beta in (0.5, 1.0, 3.0):
                got = _g_prime_numerator(beta, n, nc_product(n))
                assert got.sign == -1
                want = mp_g_prime_log_mag(beta, n)
                assert got.log_mag == pytest.approx(float(want), rel=1e-13)

    def test_sign_scan(self):
        samples = g_prime_sign_scan(2, [0.1, 0.3, 1.0, 2.0])
        assert [s.in_domain for s in samples] == [False, False, True, True]
        assert all(s.sign == -1 for s in samples if s.in_domain)
        assert all(s.sign is None for s in samples if not s.in_domain)

    def test_sign_scan_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            g_prime_sign_scan(2, [1.0, 0.0])


class TestDenominatorHook:
    def test_f1_uses_same_denominator_as_bounds(self):
        got = f1(1.43, 2, 1)
        rebuilt = got * b_alpha(2, 1.43)
        assert rebuilt.to_float() == pytest.approx(0.43, rel=1e-13)

"""Root solving against independent high-precision oracles.

The tuning roots were frozen from mpmath root solves; oracle.root repeats
them, tying the pinned decimals to an oracle, not to the code under
test.  The defining equation is verified in its rearranged excess form

  u (1 + ell u) n C_n = 1 + (n + 1 + ell) e^(-alpha n C_n)

because the textbook form multiplies rounding by e^(alpha n C_n) and
is unverifiable in floats already at n = 4.
"""

import hashlib
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
    bisect,
    f1,
    f1_prime,
    g_prime_sign_scan,
    gamma_n,
    h,
    optimal_alpha,
)
from volgap.specials import cly_constant, nc_product

import oracle

# frozen values, mpmath-oracle verified below
GAMMA_2 = 1.4298264769460376
GAMMA_3 = 1.0857019467399787
GAMMA_4 = 1.0153882032022015
GAMMA_30_EXCESS = 1.9605913678369044e-35
ALPHA_STAR_2_2 = 0.9553232317284198
H_ROOT = 1.4298264769460682  # plain bisection root of h on [1.42, 1.44]
H_AT_142 = 0.7000804044382738
H_AT_144 = -0.7599737935923772


def g_denominator(beta: float, n: int) -> float:
    """beta^2 n C_n e^(beta n C_n) - 1 in plain floats: the denominator of g, positive on its domain."""
    ncn = nc_product(n)
    return beta * beta * ncn * math.exp(beta * ncn) - 1.0


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

    def test_adjacent_doubles_stop_below_tol(self):
        # no double lies between lo and hi, so a tol below their gap ends the loop at once
        lo, hi = 1.0, math.nextafter(1.0, 2.0)
        r = bisect(lambda x: x - 1.0 - 1e-17, lo, hi, tol=1e-20)
        assert (r.bracket_lo, r.bracket_hi, r.iterations) == (lo, hi, 0)

    def test_bad_bracket_or_tol(self):
        with pytest.raises(ValueError):
            bisect(math.sin, 2.0, 1.0)
        for tol in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match=f"^tol must be positive and finite, got {tol!r}$"):
                bisect(h, 1.42, 1.44, tol=tol)

    def test_deterministic(self):
        a = bisect(math.cos, 1.0, 2.0)
        b = bisect(math.cos, 1.0, 2.0)
        assert a == b

    def test_value_property_uses_base(self):
        r = RootResult(bracket_lo=0.0, bracket_hi=1.0, root=0.25,
                       residual=0.0, iterations=1, base=2.0)
        assert r.value == 2.25


class TestRootResult:
    def test_fields_cannot_be_assigned(self):
        r = optimal_alpha(3, 2)
        for name in RootResult._fields:
            with pytest.raises(AttributeError):
                setattr(r, name, 0.0)
        with pytest.raises(AttributeError):
            r.extra = 0.0

    def test_keyword_construction_replace_and_value(self):
        r = RootResult(bracket_lo=0.5, bracket_hi=1.5, root=1.0, residual=-0.0, iterations=3)
        assert r == RootResult(0.5, 1.5, 1.0, -0.0, 3, 0.0)
        assert r.base == 0.0 and r.value == 1.0
        moved = r._replace(root=0.75, base=2.0)
        assert moved == RootResult(0.5, 1.5, 0.75, -0.0, 3, 2.0)
        assert type(moved) is RootResult and moved.value == 2.75
        assert r.root == 1.0  # the original is untouched

    def test_both_solvers_return_it(self):
        assert type(bisect(math.cos, 1.0, 2.0)) is RootResult
        assert type(optimal_alpha(2, 1)) is RootResult


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
        for n in (2, 3, 4, 6, 10):
            assert gamma_n(n).root == pytest.approx(float(oracle.root(n, 1)), rel=1e-11)

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


class TestOptimalAlpha:
    def test_ell_one_equals_gamma(self):
        assert optimal_alpha(3, 1) == gamma_n(3)

    def test_frozen_two_two(self):
        r = optimal_alpha(2, 2)
        assert r.value == pytest.approx(ALPHA_STAR_2_2, rel=1e-12)
        assert r.value * 2 > 1.0  # still a positive numerator

    def test_mpmath_oracle_higher_codimension(self):
        for n, ell in ((2, 2), (3, 5), (5, 2)):
            assert optimal_alpha(n, ell).root == pytest.approx(float(oracle.root(n, ell)), rel=1e-11)

    def test_defining_equation_mp_residual(self):
        # plug the float root into the rearranged equation at 40 digits;
        # the residual should reflect only the root's own precision
        with mpmath.workdps(oracle.DPS):
            for n, ell in ((2, 1), (4, 1), (8, 3), (30, 1)):
                u = mpmath.mpf(optimal_alpha(n, ell).root)
                ncn = oracle.nc(n)
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

    def test_tolerance_is_not_a_parameter(self):
        # every root is solved at solver._TOL, so each caller reads the same bits
        with pytest.raises(TypeError):
            optimal_alpha(2, 1, 1e-12)

    def test_steps_that_do_not_settle_raise(self, monkeypatch):
        monkeypatch.setattr(solver, "_NEWTON_STEPS", 0)
        with pytest.raises(EvaluationError, match=r"^Newton steps did not settle for \(n=2, ell=1\)$"):
            optimal_alpha(2, 1)

    @pytest.mark.parametrize("u_star", [0.1, 0.3, 2.0])
    def test_a_step_residual_bisects_down_to_a_few_ulps(self, monkeypatch, u_star):
        # Newton steps of 1 in log u never fall below the tolerance, so
        # only the bracket's rounding onto its ends stops them
        monkeypatch.setattr(solver, "_critical_objective",
                            lambda u, n, ell, ncn, log_ncn: (-1.0 if u < u_star else 1.0, 1.0))
        r = optimal_alpha(2, 1)
        assert r.iterations < solver._NEWTON_STEPS
        assert abs(r.root - u_star) <= 3 * math.ulp(u_star)
        assert r.bracket_lo < u_star <= r.bracket_hi
        assert (r.bracket_hi - r.bracket_lo) / r.root <= 1e-12

    def test_a_residual_that_never_changes_sign_is_not_certified(self, monkeypatch):
        # a zero residual ends the steps at once; neither bracket end then certifies
        monkeypatch.setattr(solver, "_critical_objective", lambda u, n, ell, ncn, log_ncn: (0.0, 1.0))
        message = r"^critical residual does not change sign around u=.* for \(n=2, ell=1\)$"
        with pytest.raises(EvaluationError, match=message):
            optimal_alpha(2, 1)


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
    ncn = nc_product(n)
    return solver._critical_objective(u, n, ell, ncn, math.log(ncn))[0]


class TestNewtonBudget:
    def test_every_grid_root_is_certified_in_ten_evaluations(self, monkeypatch):
        calls = count_evaluations(monkeypatch)
        for n in range(2, 166):
            for ell in range(1, 31):
                calls[0] = 0
                r = optimal_alpha(n, ell)
                assert calls[0] <= 10, (n, ell, calls[0])
                lo, hi = r.bracket_lo, r.bracket_hi
                assert residual(lo, n, ell) < 0.0 < residual(hi, n, ell), (n, ell)
                assert lo < r.root < hi and (hi - lo) / r.root <= 1e-12, (n, ell)

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

    def test_root_is_closer_than_tol_to_the_oracle(self):
        with mpmath.workdps(oracle.DPS):
            for n, ell in ((2, 1), (3, 2), (5, 10**12)):
                want = oracle.root(n, ell)
                assert abs(optimal_alpha(n, ell).root - want) / want <= 0.25e-12


def root_line(r: RootResult) -> bytes:
    fields = (r.bracket_lo, r.bracket_hi, r.root, r.residual, r.iterations, r.base)
    return " ".join(float.hex(float(x)) for x in fields).encode() + b"\n"


# sha256 over n 2:165 x ell 1:30 of one line per root, its six fields as
# float.hex: a rework of the solve must keep every bit
GRID_ROOTS_SHA256 = "06a0ecc9b08c804961cc4a30c06cce29aa55e25091564e87d662196bac0b9dd6"


def test_grid_roots_are_pinned_bit_for_bit():
    digest = hashlib.sha256()
    for n in range(2, 166):
        for ell in range(1, 31):
            digest.update(root_line(optimal_alpha(n, ell)))
    assert digest.hexdigest() == GRID_ROOTS_SHA256


# the same lines over ell = 10^k, where the steps bisect their bracket
# (2,808 bisections for these 927 roots; none on the grid above)
LARGE_ELL_ROOTS_SHA256 = "26494ab132031d947fa99599bd24d79e37eee09794c11f04ffb3fa8d9fbff2ac"


def test_large_ell_roots_are_pinned_bit_for_bit(monkeypatch):
    # 20 evaluations is the most any n 2:165 x ell 10^2..10^308 takes, at (138, 10^245) say
    calls = count_evaluations(monkeypatch)
    digest = hashlib.sha256()
    for n in (2, 3, 5, 8, 13, 30, 90, 138, 165):
        for k in range(2, 309, 3):
            calls[0] = 0
            digest.update(root_line(optimal_alpha(n, 10**k)))
            assert calls[0] <= 20, (n, k, calls[0])
    assert digest.hexdigest() == LARGE_ELL_ROOTS_SHA256


class TestObjective:
    def test_f1_plain_float(self):
        direct = 0.43 / (1.43 * 3.0 + 1.0 + 1.43 * math.exp(1.43 * 2.0 * cly_constant(2)))
        assert f1(1.43, 2, 1).to_float() == pytest.approx(direct, rel=1e-13)

    def test_f1_zero_at_base(self):
        assert f1(0.5, 2, 2).is_zero
        assert f1(1.0, 3, 1).is_zero

    def test_f1_negative_below_base(self):
        assert f1(0.9, 2, 1).sign == -1

    @pytest.mark.parametrize("fn", [f1, f1_prime])
    def test_rejects_ell_below_one(self, fn):
        with pytest.raises(ValueError, match="^ell must be at least 1, got 0$"):
            fn(1.43, 2, 0)

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
    def test_sign_scan(self):
        samples = g_prime_sign_scan(2, [0.1, 0.3, 1.0, 2.0])
        assert [s.in_domain for s in samples] == [False, False, True, True]
        assert all(s.sign == -1 for s in samples if s.in_domain)
        assert all(s.sign is None for s in samples if not s.in_domain)
        # the scan's log-form domain is g's positive denominator, at the acceptance gate's betas
        betas = [0.05 * k for k in range(1, 61)]
        domains = [[s.in_domain for s in g_prime_sign_scan(n, betas)] for n in (2, 3, 4)]
        assert domains == [[g_denominator(beta, n) > 0.0 for beta in betas] for n in (2, 3, 4)]
        assert sum(map(sum, domains)) == 169

    def test_sign_scan_rejects_nonpositive_beta(self):
        for beta in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match=f"^beta must be positive and finite, got {beta!r}$"):
                g_prime_sign_scan(2, [1.0, beta])


class TestDenominatorHook:
    def test_f1_uses_same_denominator_as_bounds(self):
        got = f1(1.43, 2, 1)
        rebuilt = got * b_alpha(2, 1.43)
        assert rebuilt.to_float() == pytest.approx(0.43, rel=1e-13)

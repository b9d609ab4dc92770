"""Gap-bound formulas against independent plain-float evaluation.

For n <= 4 every quantity here fits comfortably in doubles, so the
log-domain pipeline can be checked against direct arithmetic written
out from scratch.  Large-n behaviour is covered by identities that
stay exact in the log domain.
"""

import math
import re
from fractions import Fraction

import mpmath
import pytest

from volgap import bounds, tables
from volgap.bounds import (
    DEFAULT_ALPHA,
    BoundKernel,
    GapParams,
    GapVariant,
    Tuning,
    b_alpha,
    case1_correction_numerator,
    case2_vs_doubled_thm1_log_margin,
    final_inequality_log_margin,
    gap_excess,
    log_improvement_vs_cly,
)
from volgap.bounds import (
    _bound_columns,
    _case1_bumps,
    _check_numerators,
    _EllColumns,
    _final_inequality_log_margins,
    _log_case1_corrections,
    _log_multiplicity_excesses,
)
from volgap.logdomain import _UNDERFLOW_LOG, LogScalar, log_add, log_div
from volgap.solver import f1, f1_prime, optimal_alpha
from volgap.specials import cly_constant, nc_product

import per_point_bounds as per_point

RATIO_2_1_143 = 1.6511710588547066  # frozen; also reproduced by criterion 3


def case1_term(params: GapParams) -> LogScalar:
    """excess(THM2_CASE1) - excess(THM1) = alpha (n+ell+2) e^E / B_(n,alpha)."""
    return log_div(case1_correction_numerator(params), b_alpha(params.n, params.alpha))


def correction_exponent(n: int, ell: int, alpha: float) -> float:
    """E, read back from the log of the CASE1 bump alpha (n+ell+2) e^E."""
    log_bump = case1_correction_numerator(GapParams(n=n, ell=ell, alpha=alpha)).log_mag
    return log_bump - math.log(alpha * (n + ell + 2))


def plain_b_alpha(n: int, alpha: float) -> float:
    return alpha * n + alpha + 1.0 + alpha * math.exp(alpha * n * cly_constant(n))


def cheng_yang(n: int, k: int) -> float:
    """Cheng-Yang bound (n+4) k^(2/n) lambda_1 on the k-th eigenvalue, at lambda_1 = n."""
    return (n + 4) * k ** (2.0 / n) * n


class TestDenominators:
    def test_b_alpha_matches_plain_float(self):
        for n in (2, 3, 4):
            for alpha in (1.2, 1.43, 2.0, 2.7):
                assert b_alpha(n, alpha).to_float() == pytest.approx(
                    plain_b_alpha(n, alpha), rel=1e-13
                )

    def test_b_cly_is_alpha_two(self):
        # the classical denominator B_n every kernel carries, whatever its alpha
        for n in (2, 3, 4, 5):
            assert BoundKernel(n, 1.43).log_b_cly == b_alpha(n, 2.0).log_mag

    def test_b_cly_2_closed_form(self):
        log_b_cly = BoundKernel(2, 1.43).log_b_cly
        assert math.exp(log_b_cly) == pytest.approx(7.0 + 2.0 * math.exp(4.0), rel=1e-14)

    def test_huge_n_stays_in_log_domain(self):
        d = b_alpha(100, 1.43)
        assert d.sign == 1 and d.log_mag == pytest.approx(
            math.log(1.43) + 1.43 * nc_product(100), rel=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            b_alpha(2, 0.0)
        with pytest.raises(ValueError):
            b_alpha(2, -1.0)


class TestGapParams:
    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            GapParams(n=1, ell=1, alpha=2.0)
        with pytest.raises(TypeError):
            GapParams(n=2.0, ell=1, alpha=2.0)

    def test_rejects_bad_codimension(self):
        with pytest.raises(ValueError):
            GapParams(n=2, ell=0, alpha=2.0)
        with pytest.raises(TypeError, match="^ell must be an int, got float$"):
            GapParams(n=2, ell=1.0)

    def test_rejects_nonpositive_numerator(self):
        with pytest.raises(ValueError):
            GapParams(n=2, ell=1, alpha=1.0)  # alpha*ell == 1
        with pytest.raises(ValueError):
            GapParams(n=2, ell=2, alpha=0.5)

    def test_rejects_silly_alpha(self):
        with pytest.raises(ValueError):
            GapParams(n=2, ell=1, alpha=math.inf)
        with pytest.raises(ValueError):
            GapParams(n=2, ell=1, alpha=math.nan)

    def test_default_alpha(self):
        assert GapParams(n=2, ell=1).alpha == DEFAULT_ALPHA == 1.43


class TestExcesses:
    def test_cly_excess_plain_float(self):
        for n in (2, 3):
            for ell in (1, 2, 5):
                bound = gap_excess(GapParams(n=n, ell=ell, alpha=2.0), GapVariant.CLY)
                plain = (2.0 * ell - 1.0) / plain_b_alpha(n, 2.0)
                assert bound.excess.to_float() == pytest.approx(plain, rel=1e-13)
                assert bound.ratio_vs_cly == LogScalar(1, 0.0)

    def test_cly_ignores_requested_alpha(self):
        a = gap_excess(GapParams(n=2, ell=1, alpha=1.43), GapVariant.CLY)
        b = gap_excess(GapParams(n=2, ell=1, alpha=2.0), GapVariant.CLY)
        assert a.excess == b.excess
        assert a.denominator == b_alpha(2, 2.0)

    def test_thm1_excess_plain_float(self):
        for n in (2, 3):
            for ell in (1, 3):
                bound = gap_excess(GapParams(n=n, ell=ell, alpha=1.43), GapVariant.THM1)
                plain = (1.43 * ell - 1.0) / plain_b_alpha(n, 1.43)
                assert bound.excess.to_float() == pytest.approx(plain, rel=1e-13)

    def test_case2_excess_plain_float(self):
        bound = gap_excess(GapParams(n=2, ell=1, alpha=1.43), GapVariant.THM2_CASE2)
        plain = (2.0 * 1.43 - 1.0) / plain_b_alpha(2, 1.43)
        assert bound.excess.to_float() == pytest.approx(plain, rel=1e-13)

    def test_case1_equals_thm1_plus_correction(self):
        # the refinement adds exactly the closed-form bump to the numerator
        for n in (2, 3, 6, 17):
            for ell in (1, 4):
                params = GapParams(n=n, ell=ell, alpha=1.43)
                thm1 = gap_excess(params, GapVariant.THM1).excess
                case1 = gap_excess(params, GapVariant.THM2_CASE1).excess
                rebuilt = log_add(thm1, case1_term(params))
                assert case1.sign == rebuilt.sign == 1
                assert case1.log_mag == pytest.approx(
                    rebuilt.log_mag, rel=0, abs=1e-13 * max(1.0, abs(case1.log_mag))
                )

    def test_correction_term_positive_everywhere(self):
        for n in (2, 5, 30, 100):
            for ell in (1, 7, 30):
                params = GapParams(n=n, ell=ell, alpha=1.43)
                assert case1_correction_numerator(params).sign == 1
                assert case1_term(params).sign == 1

    def test_ratio_frozen_value(self):
        ratio = math.exp(log_improvement_vs_cly(2, 1, 1.43))
        assert ratio == pytest.approx(RATIO_2_1_143, rel=1e-13)

    def test_ratio_plain_float(self):
        plain = (0.43 * plain_b_alpha(2, 2.0)) / plain_b_alpha(2, 1.43)
        assert math.exp(log_improvement_vs_cly(2, 1, 1.43)) == pytest.approx(plain, rel=1e-12)
        assert log_improvement_vs_cly(2, 1, Tuning(1.43)) == log_improvement_vs_cly(2, 1, 1.43)

    def test_ratio_grows_with_n(self):
        logs = [log_improvement_vs_cly(n, 1, 1.43) for n in range(2, 40)]
        assert all(b > a for a, b in zip(logs, logs[1:]))

    def test_gap_excess_ratio_field(self):
        bound = gap_excess(GapParams(n=2, ell=1, alpha=1.43), GapVariant.THM1)
        assert bound.ratio_vs_cly.to_float() == pytest.approx(RATIO_2_1_143, rel=1e-13)


class TestBoundKernel:
    def test_logs_follow_the_variant_order(self):
        n, ell, alpha = 3, 2, 1.43
        got = BoundKernel(n, alpha).logs(ell, (GapVariant.THM2_CASE2, GapVariant.CLY))
        b, b_n = plain_b_alpha(n, alpha), plain_b_alpha(n, 2.0)
        case2, cly = (2 * alpha * ell - 1) / b, (2 * ell - 1) / b_n
        assert [math.exp(x) for x in got[0]] == pytest.approx([b, case2, case2 / cly], rel=1e-12)
        assert [math.exp(x) for x in got[1]] == pytest.approx([b_n, cly, 1.0], rel=1e-12)
        assert got[1][2] == 0.0

    def test_a_point_checks_its_numerators_once(self, monkeypatch):
        # the one-point views check their point in logs; the column pass checks nothing
        calls, real = [], bounds._check_numerators
        monkeypatch.setattr(bounds, "_check_numerators", lambda *args: calls.append(args) or real(*args))
        for variant in GapVariant:
            gap_excess(GapParams(n=5, ell=3), variant)
        assert [(n, tuple(cols.ells), variants) for n, cols, variants in calls] == [
            (5, (3,), (variant,)) for variant in GapVariant
        ]
        with pytest.raises(OverflowError, match="^alpha ell - 1 leaves the double range at n=2$"):
            BoundKernel(2, 1e300).logs(10**9, (GapVariant.THM1,))

    def test_each_variant_names_its_numerator(self):
        names = [bounds._NUMERATORS[bounds._NUMERATOR[v]] for v in GapVariant]
        assert names == ["2 ell - 1", "alpha ell - 1", "alpha ell - 1", "2 alpha ell - 1"]

    def test_overflow_is_reported_before_a_bad_alpha(self):
        with pytest.raises(OverflowError):
            BoundKernel(166, -1.0)
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            BoundKernel(2, -1.0)

    @pytest.mark.parametrize("n, alpha, ell", [(2, 5e307, 2), (3, 1e9, 10**300)], ids=["E=-inf", "E-finite"])
    def test_case1_correction_where_alpha_times_n_ell_overflows(self, n, alpha, ell):
        # alpha (n+ell+2) leaves the double range; its log is then the sum of
        # the two logs, so a bump whose E is -inf vanishes (-inf, not
        # inf - inf = NaN) and one with a finite E keeps a finite log
        anc = alpha * nc_product(n)
        (got,) = _log_case1_corrections(n, [alpha], [anc], [ell])
        assert math.isinf(alpha * (n + ell + 2))
        assert got == per_point.log_case1_correction(n, ell, alpha, anc)
        e_corr = per_point.correction_exponent(n, ell, anc)
        assert got == e_corr + float(mpmath.log(mpmath.mpf(alpha) * (n + ell + 2)))
        assert (got == -math.inf) == (e_corr == -math.inf)

    def test_case1_correction_column_matches_the_view(self):
        for n in (2, 7, 60):
            anc = BoundKernel(n, 1.43).anc
            column = _log_case1_corrections(n, [1.43] * 30, [anc] * 30, range(1, 31))
            assert column == [
                case1_correction_numerator(GapParams(n=n, ell=ell, alpha=1.43)).log_mag
                for ell in range(1, 31)
            ]


class TestTuning:
    def test_excess_pair_forms_numerators_and_exponent_from_u(self):
        # bit for bit: ell u, log1p(2 ell u) and nc/ell + u nc, however far
        # u is below the resolution of 1/ell
        for n in (2, 16, 17, 30, 165):
            nc = nc_product(n)
            for ell in (1, 3, 30):
                u = optimal_alpha(n, ell).root
                tuning = Tuning.excess(ell, u)
                assert tuning.alpha == 1.0 / ell + u
                assert tuning.numerator(ell) == ell * u
                assert tuning.exponent(nc) == nc / ell + u * nc
                kernel = BoundKernel(n, tuning)
                assert kernel.anc == nc / ell + u * nc
                log_b, log_excess, _ = kernel.logs(ell, (GapVariant.THM1,))[0]
                assert log_excess == math.log(ell * u) - log_b
                assert kernel.logs(ell, (GapVariant.THM2_CASE2,))[0][1] == (
                    math.log1p(2.0 * ell * u) - log_b
                )

    def test_fixed_alpha_rounds_each_numerator_once(self):
        # exact over the double alpha, then rounded: at (0.6, 7) and (1.43, 23)
        # the float expression alpha * ell - 1.0 is one ulp off
        nc = nc_product(9)
        for alpha in (0.6, 1.43, 3.0):
            for ell in (2, 7, 23):
                tuning = Tuning(alpha)
                exact = Fraction(alpha) * ell
                assert tuning.numerator(ell) == float(exact - 1)
                assert tuning.exponent(nc) == alpha * nc
                assert BoundKernel(9, tuning).logs(ell, tuple(GapVariant)) == (
                    BoundKernel(9, alpha).logs(ell, tuple(GapVariant))
                )

    def test_pair_stays_valid_where_alpha_collapses(self):
        u = optimal_alpha(17, 1).root
        assert 1.0 + u == 1.0
        with pytest.raises(ValueError, match="alpha\\*ell must exceed 1"):
            GapParams(n=17, ell=1, alpha=1.0 + u)
        GapParams(n=17, ell=1, alpha=Tuning.excess(1, u))

    def test_validation(self):
        with pytest.raises(ValueError, match="alpha\\*ell must exceed 1"):
            GapParams(n=2, ell=1, alpha=Tuning.excess(1, 0.0))
        with pytest.raises(ValueError, match="solved at ell=1, not ell=2"):
            GapParams(n=2, ell=2, alpha=Tuning.excess(1, 0.1))
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            Tuning.excess(2, -0.6)
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            Tuning(math.nan)


class TestCorrectionExponent:
    def test_frozen_values(self):
        assert correction_exponent(2, 1, 1.43) == pytest.approx(-134.42, rel=1e-12)
        assert correction_exponent(2, 2, 1.43) == pytest.approx(-203.06, rel=1e-12)

    def test_plain_float(self):
        for n in (2, 3, 5):
            for ell in (1, 2):
                plain = (
                    1.43
                    * n
                    * cly_constant(n)
                    * (1.0 - (n + 4.0) * (n + 2.0 * ell) ** (2.0 / n) * 4.0 ** (1.0 / n))
                )
                assert correction_exponent(n, ell, 1.43) == pytest.approx(plain, rel=1e-12)

    def test_wired_through_eigenvalue_count_bound(self):
        # the exponent is alpha n C_n (1 - CY(n, n+2l) 4^(1/n) / n) with
        # CY the eigenvalue-count bound at lambda_1 = n
        for n in (2, 4, 7):
            for ell in (1, 3):
                via_cy = (
                    1.43
                    * nc_product(n)
                    * (1.0 - cheng_yang(n, n + 2 * ell) * 4.0 ** (1.0 / n) / n)
                )
                assert correction_exponent(n, ell, 1.43) == pytest.approx(via_cy, rel=1e-12)

    def test_always_negative(self):
        for n in range(2, 60):
            for ell in (1, 10, 30):
                assert correction_exponent(n, ell, 1.43) < 0.0


class TestOrderings:
    def test_case2_beats_doubled_thm1(self):
        for n in (2, 10, 30):
            for ell in (1, 2, 30):
                assert case2_vs_doubled_thm1_log_margin(n, ell, 1.43) > 0.0

    def test_case2_margin_plain(self):
        plain = math.log(2.0 * 1.43 - 1.0) - math.log(2.0 * (1.43 - 1.0))
        assert case2_vs_doubled_thm1_log_margin(2, 1, 1.43) == pytest.approx(plain, rel=1e-14)

    def test_case2_margin_needs_alpha_ell_above_one(self):
        with pytest.raises(ValueError, match=r"^alpha\*ell must exceed 1 for a positive gap, got 0\.5\*1$"):
            case2_vs_doubled_thm1_log_margin(2, 1, 0.5)
        # the margin reads no n, but the view checks its point as GapParams does
        with pytest.raises(ValueError, match="^n must be at least 2, got 1$"):
            case2_vs_doubled_thm1_log_margin(1, 1, 1.43)
        with pytest.raises(TypeError, match="^n must be an int, got float$"):
            case2_vs_doubled_thm1_log_margin(2.5, 1, 1.43)

    @pytest.mark.parametrize(
        "ell", [1, 30, 10**16, 10**300, 10**308], ids=["1", "30", "1e16", "1e300", "1e308"],
    )
    def test_case2_margin_mpmath(self, ell):
        # log[(2 a ell - 1) / (2 (a ell - 1))] at the double a = 1.43, with digits
        # to spare past the 3.5e-309 the ratio exceeds 1 by at ell = 10^308; at
        # ell = 10^16 both logs of a difference round to the same double
        with mpmath.workdps(700):
            thm1 = mpmath.mpf(1.43) * ell - 1
            want = mpmath.log((2 * thm1 + 1) / (2 * thm1))
        got = case2_vs_doubled_thm1_log_margin(2, ell, 1.43)
        assert got > 0.0
        assert got == pytest.approx(float(want), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("ell, u", [(1, 0.43), (30, 1e-20)])
    def test_case2_margin_mpmath_excess_tuning(self, ell, u):
        # alpha = 1/ell + u keeps thm1 = ell u exact however far u is below 1/ell
        with mpmath.workdps(60):
            thm1 = ell * mpmath.mpf(u)
            want = mpmath.log((2 * thm1 + 1) / (2 * thm1))
        got = case2_vs_doubled_thm1_log_margin(2, ell, Tuning.excess(ell, u))
        assert got == pytest.approx(float(want), rel=1e-15, abs=0.0)

    def test_final_inequality_plain(self):
        plain = 1.43 * 2.0 * 5.0 * cly_constant(2) + math.log(1.0) - math.log(6.0)
        assert final_inequality_log_margin(2, 1, 1.43) == pytest.approx(plain, rel=1e-13)
        assert final_inequality_log_margin(2, 1, 1.43) == pytest.approx(12.508, rel=1e-3)
        # a Tuning, as the neighbouring views take; a fixed one gives the float's bits
        assert final_inequality_log_margin(2, 1, Tuning(1.43)) == final_inequality_log_margin(2, 1, 1.43)
        pair = 2.0 * cly_constant(2) * (1.0 + 0.43) * 5.0 - math.log(6.0)  # alpha n C_n = nc/ell + u nc
        assert final_inequality_log_margin(2, 1, Tuning.excess(1, 0.43)) == pytest.approx(pair, rel=1e-13)
        # the inequality holds at any alpha ell, so only ell >= 1 is checked
        assert final_inequality_log_margin(2, 1, 0.5) == pytest.approx(0.5 * 10.0 - math.log(6.0), rel=1e-13)
        with pytest.raises(ValueError, match="^ell must be at least 1, got 0$"):
            final_inequality_log_margin(2, 0, 1.43)

    def test_correction_stays_below_codimension(self):
        # (n+ell+2) e^E < ell, which puts the CASE1 excess below CASE2
        for n in (2, 5, 20):
            for ell in (1, 3, 30):
                margin = math.log(ell) - math.log(n + ell + 2.0) - correction_exponent(n, ell, 1.43)
                assert margin > 0.0


def route(n: int, k: int, t: float) -> float:
    """The log-excess of the multiplicity route at one k, reading n C_n as a kernel does."""
    return _log_multiplicity_excesses(n, nc_product(n), t, (k,))[0]


class TestMultiplicityRoute:
    # the route returns log of a positive excess and -inf otherwise, so a
    # closed form is compared in value where it is positive and by sign
    # where it is not
    def test_ratio_plain_float(self):
        for n, k, t in ((2, 5, 3.0), (3, 9, 2.0), (4, 4, 6.0)):
            num = 1.0 + k * math.exp(-t)
            den = 1.0 + (n + 1.0) * math.exp(-t) + nc_product(n) / t * math.exp(-t)
            if num / den > 1.0:
                assert 1.0 + math.exp(route(n, k, t)) == pytest.approx(num / den, rel=1e-12)
            else:
                assert route(n, k, t) == -math.inf

    def test_excess_is_ratio_minus_one(self):
        # ratio minus one in closed form: (k - s) / (e^t + s), s = n + 1 + n C_n / t
        for n, k, t in ((2, 5, 3.0), (3, 9, 2.0)):
            shift = n + 1.0 + nc_product(n) / t
            plain = (k - shift) / (math.exp(t) + shift)
            if plain > 0.0:
                assert math.exp(route(n, k, t)) == pytest.approx(plain, rel=1e-12)
            else:
                assert route(n, k, t) == -math.inf

    def test_small_k_gives_negative_excess(self):
        # at or below the shift the route reports no positive excess
        assert route(2, 0, 1.0) == -math.inf
        shift = 2 + 1.0 + nc_product(2) / 2.0
        assert shift == 4.0 and route(2, 4, 2.0) == -math.inf
        assert route(2, 5, 2.0) > -math.inf

    def test_tuned_identity_value_space(self):
        # evaluating the route at k = n+ell+1, t = alpha n C_n reproduces
        # the tuned excess; exact comparison is in value space while the
        # numbers are representable
        for n in (2, 3, 4, 5):
            for ell in (1, 2, 7):
                params = GapParams(n=n, ell=ell, alpha=1.43)
                direct = gap_excess(params, GapVariant.THM1).excess.to_float()
                routed = math.exp(route(n, n + ell + 1, 1.43 * nc_product(n)))
                assert routed == pytest.approx(direct, rel=1e-12)

    def test_tuned_identity_log_space_large_n(self):
        # beyond float range the identity is held to a relative-log
        # tolerance; one ulp of a log magnitude ~1e16 is absolute 2.0
        for n in (10, 17, 40, 100):
            for ell in (1, 5):
                params = GapParams(n=n, ell=ell, alpha=1.43)
                direct = gap_excess(params, GapVariant.THM1).excess
                routed = route(n, n + ell + 1, 1.43 * nc_product(n))
                assert direct.sign == 1 and routed > -math.inf
                tol = 1e-12 * max(1.0, abs(direct.log_mag))
                assert abs(direct.log_mag - routed) <= tol

    def test_kernel_carries_the_route_inputs(self):
        # the claim reads n C_n and alpha n C_n from one kernel per n
        kernel = BoundKernel(7, 1.43)
        assert kernel.nc == nc_product(7) and kernel.anc == 1.43 * kernel.nc


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:  # the parity is on the error too
        return type(exc), str(exc)


class TestColumnsMatchThePerPointFormulas:
    """Every column equals the per-point reference bit for bit, and fails where it fails."""

    VARIANTS = tuple(GapVariant)

    def check(self, kernels, cols):
        """The columns of kernels (one per ell of cols, all at one n) against the reference."""
        n, ells = kernels[0].n, cols.ells
        points = outcome(lambda: [per_point.logs(k, ell, self.VARIANTS) for k, ell in zip(kernels, ells)])
        if isinstance(points, list):
            # per variant: (alpha, log B, log excess, log ratio) columns, read back per
            # point; classical rows at alpha = 2 whatever the kernels' tuning
            points = [
                ([2.0 if v is GapVariant.CLY else k.tuning.alpha for k in kernels], *map(list, zip(*column)))
                for v, column in zip(self.VARIANTS, zip(*points))
            ]

        def columns():
            _check_numerators(n, cols, self.VARIANTS)  # a request's check; the column pass makes none
            return _bound_columns(kernels, cols, self.VARIANTS)

        assert outcome(columns) == points
        alphas, ancs = [k.tuning.alpha for k in kernels], [k.anc for k in kernels]
        assert outcome(_log_case1_corrections, n, alphas, ancs, ells) == outcome(lambda: [
            per_point.log_case1_correction(n, ell, alpha, anc) for ell, alpha, anc in zip(ells, alphas, ancs)
        ])
        assert cols.case2_margin == [per_point.case2_margin(k.tuning, ell) for k, ell in zip(kernels, ells)]
        if outcome(_case1_bumps, n, kernels, ells, cols.log_numerators[1]) is None:
            # the screen skipped the pass: each bump must be one _log_sum drops unread
            bumps = [per_point.log_case1_correction(n, ell, a, anc) for ell, a, anc in zip(ells, alphas, ancs)]
            assert all(b - num < _UNDERFLOW_LOG for b, num in zip(bumps, cols.log_numerators[1])), n

    def check_kernel_scalars(self, kernel, cols):
        """The claims' columns, which read one fixed-alpha kernel's scalars."""
        n, anc, ells = kernel.n, kernel.anc, cols.ells
        assert _final_inequality_log_margins(n, anc, ells) == [
            per_point.final_margin(n, ell, anc) for ell in ells
        ]
        ks = [n + ell + 1 for ell in ells]
        assert _log_multiplicity_excesses(n, kernel.nc, anc, ks) == [
            per_point.multiplicity_excess(n, kernel.nc, k, anc) for k in ks
        ]

    @pytest.mark.parametrize("alpha, ells", [
        (1.43, range(1, 101)), (3.0, range(1, 101)), (0.6, range(2, 101)),
    ])
    def test_fixed_alpha_over_the_representable_grid(self, alpha, ells):
        tuning = Tuning(alpha)
        cols = _EllColumns(ells, [tuning] * len(ells))
        checked = 0
        for n in range(2, 165):
            try:
                kernel = BoundKernel(n, tuning)
            except OverflowError:  # the per-n scalars, which both sides share
                continue
            self.check([kernel] * len(ells), cols)
            self.check_kernel_scalars(kernel, cols)
            checked += 1
        assert checked >= 150

    def test_excess_pair_per_ell(self):
        # alpha = auto: each ell has its own pair tuning and kernel; every n,
        # so both sides of the case (i) screen are checked
        ells = range(1, 31)
        for n in range(2, 166):
            kernels = [BoundKernel(n, Tuning.excess(ell, optimal_alpha(n, ell).root)) for ell in ells]
            self.check(kernels, _EllColumns(ells, [k.tuning for k in kernels]))

    def test_classical_columns_are_thm1_at_alpha_two(self):
        # the paper's B_n = B_(n,2), with 2 ell - 1 its alpha ell - 1: the
        # classical columns, from kernels at any alpha, are THM1's at alpha 2
        ells = range(1, 101)
        cols, two = (_EllColumns(ells, [Tuning(alpha)] * len(ells)) for alpha in (1.43, 2.0))
        for n in range(2, 166):
            (cly,) = _bound_columns([BoundKernel(n, 1.43)] * len(ells), cols, (GapVariant.CLY,))
            (thm1,) = _bound_columns([BoundKernel(n, Tuning(2.0))] * len(ells), two, (GapVariant.THM1,))
            assert [list(map(float.hex, col)) for col in cly] == [list(map(float.hex, col)) for col in thm1], n

    def test_a_screen_that_lets_a_bump_through_is_caught(self, monkeypatch):
        # a mutant screen that skips the bump pass wherever no bump exceeds
        # its numerator.  At n = 2 and 3 the largest bump it drops is
        # e^-132 and e^-481 times its numerator: too small to move a
        # printed bit, but not below the threshold the screen argues from.
        # At n = 4 every bump is below e^-2441 times its numerator already
        monkeypatch.setattr(bounds, "_UNDERFLOW_LOG", 0.0)
        ells = range(1, 101)
        cols = _EllColumns(ells, [Tuning(1.43)] * len(ells))
        caught = []
        for n in range(2, 165):
            try:
                self.check([BoundKernel(n, 1.43)] * len(ells), cols)
            except AssertionError:
                caught.append(n)
        assert caught == [2, 3]


class TestRepeatedKernel:
    """At a fixed alpha the column pass gets one kernel repeated, and reads each of its values once."""

    @staticmethod
    def hexes(columns) -> list:
        return [[list(map(float.hex, column)) for column in variant] for variant in columns]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 30, 164, 165])
    def test_one_kernel_repeated_gives_the_columns_of_equal_kernels(self, n):
        ells = range(1, 101)
        cols = _EllColumns(ells, [Tuning(1.43)] * len(ells))
        repeated, separate = [BoundKernel(n, 1.43)] * len(ells), [BoundKernel(n, 1.43) for _ in ells]
        variants = tuple(GapVariant)
        assert self.hexes(_bound_columns(repeated, cols, variants)) == \
            self.hexes(_bound_columns(separate, cols, variants))
        bumps = [_case1_bumps(n, kernels, ells, cols.log_numerators[1]) for kernels in (repeated, separate)]
        repeated_bumps, separate_bumps = (b if b is None else list(map(float.hex, b)) for b in bumps)
        assert repeated_bumps == separate_bumps

    def test_a_kernel_at_both_ends_is_not_taken_for_one_repeated(self):
        # every item is compared, not the ends
        kernel = BoundKernel(30, 1.43)
        kernels = [kernel] * 7
        kernels[3] = BoundKernel(30, 1.5)
        read = bounds._kernel_columns(kernels, bounds._ALPHA, bounds._ANC, bounds._LOG_B)
        assert read == [[k.tuning.alpha for k in kernels], [k.anc for k in kernels], [k.log_b for k in kernels]]


class TestCase1Screen:
    """_case1_bumps runs the THM2_CASE1 bump pass only at the n where a bump could reach a bit."""

    @staticmethod
    def bump_passes(monkeypatch, *request) -> list[int]:
        """The n at which build_gap_table(*request) ran _log_case1_corrections."""
        seen, bump_pass = [], bounds._log_case1_corrections
        monkeypatch.setattr(bounds, "_log_case1_corrections", lambda n, *rest: seen.append(n) or bump_pass(n, *rest))
        tables.build_gap_table(*request)
        return seen

    def test_alpha_143_runs_the_pass_at_n_2_to_4(self, monkeypatch):
        assert self.bump_passes(monkeypatch, range(2, 166), range(1, 101), 1.43) == [2, 3, 4]

    def test_auto_runs_the_pass_at_n_2_to_5(self, monkeypatch):
        assert self.bump_passes(monkeypatch, range(2, 166), range(1, 31), "auto") == [2, 3, 4, 5]

    def test_case1_shares_thm1_columns_where_screened(self):
        cols = _EllColumns(range(1, 31), [Tuning(1.43)] * 30)
        for n, shared in [(4, False), (5, True), (120, True)]:
            thm1, case1 = _bound_columns([BoundKernel(n, 1.43)] * 30, cols, (GapVariant.THM1, GapVariant.THM2_CASE1))
            assert (case1 is thm1) is shared
            assert case1 == thm1  # the bumps at n = 4 reach no bit either


def least_alpha_above(ell: int) -> float:
    """The least double alpha with alpha ell > 1 exactly, as GapParams decides it."""
    alpha = 1.0 / ell
    while Fraction(alpha) * ell <= 1:
        alpha = math.nextafter(alpha, math.inf)
    return alpha


def views(n: int, ell: int, alpha: float):
    """(name, call, kind) of each public one-point view at a valid (n, ell, alpha).

    kind is "positive" for a LogScalar of a positive quantity, "signed"
    for a LogScalar that may be negative, and a float view's own check.
    """
    params = GapParams(n=n, ell=ell, alpha=alpha)
    yield "b_alpha", lambda: b_alpha(n, alpha), "positive"
    for variant in GapVariant:
        yield variant.value, lambda variant=variant: gap_excess(params, variant)[2:], "positive"
    yield "log_improvement_vs_cly", lambda: log_improvement_vs_cly(n, ell, alpha), math.isfinite
    yield "case2_margin", lambda: case2_vs_doubled_thm1_log_margin(n, ell, alpha), lambda m: 0.0 < m < math.inf
    yield "final_margin", lambda: final_inequality_log_margin(n, ell, alpha), math.isfinite
    yield "case1_bump", lambda: case1_correction_numerator(params), "positive"
    yield "f1", lambda: f1(alpha, n, ell), "positive"
    yield "f1_prime", lambda: f1_prime(alpha, n, ell), "signed"


class TestEveryViewIsFiniteOrNamesItsOverflow:
    """No public one-point view returns an inf, a NaN or a vanished LogScalar at a valid point.

    Where its quantity leaves the double range it raises OverflowError,
    whose message ends by naming n.
    """

    ELLS = (1, 2, 30, 10**6, 10**20, 10**150, 10**300)

    @pytest.mark.parametrize("n", [2, 164, 165])
    def test_extreme_points(self, n):
        seen = set()
        for ell in self.ELLS:
            least = least_alpha_above(ell)
            for alpha in (least, *(a for a in (1.0, 1.43, 1e10, 1e300) if a > least)):
                for name, view, kind in views(n, ell, alpha):
                    where = (name, n, ell, alpha)
                    try:
                        value = view()
                    except OverflowError as exc:
                        assert str(exc).endswith(f" at n={n}"), (where, exc)
                        seen.add((name, "raised"))
                        continue
                    seen.add((name, "returned"))
                    for x in value if isinstance(value, tuple) else (value,):
                        if kind == "positive":
                            assert x.sign == 1 and math.isfinite(x.log_mag), (where, x)
                        elif kind == "signed":
                            assert x.sign != 0 and math.isfinite(x.log_mag), (where, x)
                        else:
                            assert kind(x), (where, x)
        # every view returns somewhere on the sweep, and all but CLY overflow
        # somewhere; at n = 2, B and the final head fit at every alpha up to 1e300
        names = {name for name, _ in seen}
        assert {name for name in names if (name, "returned") in seen} == names
        assert {name for name in names if (name, "raised") not in seen} == {"CLY"} | (
            {"b_alpha", "final_margin"} if n == 2 else set()
        )

    @pytest.mark.parametrize("call, message", [
        (lambda: final_inequality_log_margin(165, 1), "alpha n (n+3) C_n leaves the double range at n=165"),
        (lambda: final_inequality_log_margin(2, 1, 1e308), "alpha n (n+3) C_n leaves the double range at n=2"),
        (lambda: case1_correction_numerator(GapParams(165, 1)),
         "the case-correction exponent leaves the double range at n=165"),
        (lambda: case2_vs_doubled_thm1_log_margin(2, 10**300, 1e10), "alpha ell - 1 leaves the double range at n=2"),
        (lambda: f1(1e300, 2, 10**10), "alpha ell - 1 leaves the double range at n=2"),
        (lambda: f1_prime(1e300, 2, 10**10), "alpha ell - 1 leaves the double range at n=2"),
        (lambda: f1_prime(1.43, 150, 10**300), "alpha n C_n (alpha ell - 1) leaves the double range at n=150"),
        (lambda: f1_prime(1e-100, 2, 10**400), "ell leaves the double range at n=2"),
    ], ids=["final-165", "final-huge-alpha", "case1-bump-165", "case2-margin", "f1", "f1-prime-numerator",
            "f1-prime-product", "f1-prime-ell"])
    def test_named_overflows(self, call, message):
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
            call()

    def test_the_summed_column_keeps_a_vanished_bump(self):
        # E = -inf at (2, 89 10^306, 0.075): alone the bump raises, in THM2_CASE1's sum it changes no bit
        params = GapParams(n=2, ell=89 * 10**306, alpha=0.075)
        with pytest.raises(OverflowError, match="^the case-correction exponent leaves the double range at n=2$"):
            case1_correction_numerator(params)
        case1 = gap_excess(params, GapVariant.THM2_CASE1)
        assert case1.excess == gap_excess(params, GapVariant.THM1).excess
        assert math.isfinite(case1.excess.log_mag)

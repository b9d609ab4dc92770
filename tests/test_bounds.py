"""Gap-bound formulas against independent plain-float evaluation.

For n <= 4 every quantity here fits comfortably in doubles, so the
log-domain pipeline can be checked against direct arithmetic written
out from scratch.  Large-n behaviour is covered by identities that
stay exact in the log domain.
"""

import math

import pytest

from volgap.bounds import (
    DEFAULT_ALPHA,
    BoundKernel,
    GapParams,
    GapVariant,
    b_alpha,
    b_cly,
    case1_correction_numerator,
    case1_correction_term,
    case2_vs_doubled_thm1_log_margin,
    cheng_yang_bound,
    correction_below_ell_log_margin,
    correction_exponent,
    final_inequality_log_margin,
    gap_excess,
    improvement_ratio_thm2,
    log_improvement_vs_cly,
    min_volume_excess_from_multiplicity,
    min_volume_ratio_from_multiplicity,
)
from volgap.logdomain import ONE, LogScalar, log_add
from volgap.specials import cly_constant, nc_product

RATIO_2_1_143 = 1.6511710588547066  # frozen; also reproduced by criterion 3
IMPROVEMENT_CASE2_2_1 = 4.325581395348837  # (2a-1)/(a-1) at a = 1.43


def plain_b_alpha(n: int, alpha: float) -> float:
    return alpha * n + alpha + 1.0 + alpha * math.exp(alpha * n * cly_constant(n))


class TestDenominators:
    def test_b_alpha_matches_plain_float(self):
        for n in (2, 3, 4):
            for alpha in (1.2, 1.43, 2.0, 2.7):
                assert b_alpha(n, alpha).to_float() == pytest.approx(
                    plain_b_alpha(n, alpha), rel=1e-13
                )

    def test_b_cly_is_alpha_two(self):
        for n in (2, 3, 4, 5):
            assert b_cly(n) == b_alpha(n, 2.0)

    def test_b_cly_2_closed_form(self):
        assert b_cly(2).to_float() == pytest.approx(7.0 + 2.0 * math.exp(4.0), rel=1e-14)

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
                assert bound.ratio_vs_cly == ONE

    def test_cly_ignores_requested_alpha(self):
        a = gap_excess(GapParams(n=2, ell=1, alpha=1.43), GapVariant.CLY)
        b = gap_excess(GapParams(n=2, ell=1, alpha=2.0), GapVariant.CLY)
        assert a.excess == b.excess
        assert a.denominator == b_cly(2)

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
                rebuilt = log_add(thm1, case1_correction_term(params))
                assert case1.sign == rebuilt.sign == 1
                assert case1.log_mag == pytest.approx(
                    rebuilt.log_mag, rel=0, abs=1e-13 * max(1.0, abs(case1.log_mag))
                )

    def test_correction_term_positive_everywhere(self):
        for n in (2, 5, 30, 100):
            for ell in (1, 7, 30):
                params = GapParams(n=n, ell=ell, alpha=1.43)
                assert case1_correction_numerator(params).sign == 1
                assert case1_correction_term(params).sign == 1

    def test_ratio_frozen_value(self):
        ratio = math.exp(log_improvement_vs_cly(2, 1, 1.43))
        assert ratio == pytest.approx(RATIO_2_1_143, rel=1e-13)

    def test_ratio_plain_float(self):
        plain = (0.43 * plain_b_alpha(2, 2.0)) / plain_b_alpha(2, 1.43)
        assert math.exp(log_improvement_vs_cly(2, 1, 1.43)) == pytest.approx(plain, rel=1e-12)

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

    def test_overflow_is_reported_before_a_bad_alpha(self):
        with pytest.raises(OverflowError):
            BoundKernel(166, -1.0)
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            BoundKernel(2, -1.0)


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
                    * (1.0 - cheng_yang_bound(n, n + 2 * ell) * 4.0 ** (1.0 / n) / n)
                )
                assert correction_exponent(n, ell, 1.43) == pytest.approx(via_cy, rel=1e-12)

    def test_always_negative(self):
        for n in range(2, 60):
            for ell in (1, 10, 30):
                assert correction_exponent(n, ell, 1.43) < 0.0


class TestChengYang:
    def test_plain_values(self):
        assert cheng_yang_bound(2, 4) == pytest.approx(6.0 * 4.0 * 2.0, rel=1e-14)
        assert cheng_yang_bound(3, 8) == pytest.approx(7.0 * 4.0 * 3.0, rel=1e-14)

    def test_explicit_lambda(self):
        assert cheng_yang_bound(2, 4, lambda1=1.0) == pytest.approx(24.0, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            cheng_yang_bound(2, 0)
        with pytest.raises(ValueError):
            cheng_yang_bound(2, 4, lambda1=0.0)
        with pytest.raises(ValueError):
            cheng_yang_bound(2, 4, lambda1=3.0)  # above the sphere value n


class TestOrderings:
    def test_case2_beats_doubled_thm1(self):
        for n in (2, 10, 30):
            for ell in (1, 2, 30):
                assert case2_vs_doubled_thm1_log_margin(n, ell, 1.43) > 0.0

    def test_case2_margin_plain(self):
        plain = math.log(2.0 * 1.43 - 1.0) - math.log(2.0 * (1.43 - 1.0))
        assert case2_vs_doubled_thm1_log_margin(2, 1, 1.43) == pytest.approx(plain, rel=1e-14)

    def test_final_inequality_plain(self):
        plain = 1.43 * 2.0 * 5.0 * cly_constant(2) + math.log(1.0) - math.log(6.0)
        assert final_inequality_log_margin(2, 1, 1.43) == pytest.approx(plain, rel=1e-13)
        assert final_inequality_log_margin(2, 1, 1.43) == pytest.approx(12.508, rel=1e-3)

    def test_correction_stays_below_codimension(self):
        for n in (2, 5, 20):
            for ell in (1, 3, 30):
                assert correction_below_ell_log_margin(n, ell, 1.43) > 0.0

    def test_improvement_summary(self):
        imp = improvement_ratio_thm2(2, 1, 1.43)
        assert imp.case2_ratio == pytest.approx(IMPROVEMENT_CASE2_2_1, rel=1e-12)
        # the case (i) refinement is ~e^{-131} relatively: strictly positive
        # as a LogScalar, invisible after collapsing to float
        assert imp.case1_excess_over_one.sign == 1
        assert imp.case1_ratio == 1.0


class TestMultiplicityRoute:
    def test_ratio_plain_float(self):
        for n, k, t in ((2, 5, 3.0), (3, 9, 2.0), (4, 4, 6.0)):
            num = 1.0 + k * math.exp(-t)
            den = 1.0 + (n + 1.0) * math.exp(-t) + nc_product(n) / t * math.exp(-t)
            assert min_volume_ratio_from_multiplicity(n, k, t).to_float() == pytest.approx(
                num / den, rel=1e-12
            )

    def test_excess_is_ratio_minus_one(self):
        for n, k, t in ((2, 5, 3.0), (3, 9, 2.0)):
            ratio = min_volume_ratio_from_multiplicity(n, k, t).to_float()
            excess = min_volume_excess_from_multiplicity(n, k, t).to_float()
            assert excess == pytest.approx(ratio - 1.0, rel=1e-10)

    def test_small_k_gives_negative_excess(self):
        # degenerate sanity: below the shift the route reports a deficit
        excess = min_volume_excess_from_multiplicity(2, 0, 1.0)
        assert excess.sign == -1

    def test_tuned_identity_value_space(self):
        # evaluating the route at k = n+ell+1, t = alpha n C_n reproduces
        # the tuned excess; exact comparison is in value space while the
        # numbers are representable
        for n in (2, 3, 4, 5):
            for ell in (1, 2, 7):
                params = GapParams(n=n, ell=ell, alpha=1.43)
                direct = gap_excess(params, GapVariant.THM1).excess.to_float()
                routed = min_volume_excess_from_multiplicity(
                    n, n + ell + 1, 1.43 * nc_product(n)
                ).to_float()
                assert routed == pytest.approx(direct, rel=1e-12)

    def test_tuned_identity_log_space_large_n(self):
        # beyond float range the identity is held to a relative-log
        # tolerance; one ulp of a log magnitude ~1e16 is absolute 2.0
        for n in (10, 17, 40, 100):
            for ell in (1, 5):
                params = GapParams(n=n, ell=ell, alpha=1.43)
                direct = gap_excess(params, GapVariant.THM1).excess
                routed = min_volume_excess_from_multiplicity(
                    n, n + ell + 1, 1.43 * nc_product(n)
                )
                assert direct.sign == routed.sign == 1
                tol = 1e-12 * max(1.0, abs(direct.log_mag))
                assert abs(direct.log_mag - routed.log_mag) <= tol

"""Volume-gap lower bounds for closed minimal submanifolds of S^(n+p).

Each bound says vol(M) >= (1 + excess) vol(S^n) for an n-dimensional
closed minimal submanifold that is not totally geodesic, where the
excess depends on the dimension n, an integer level ell >= 1, and a
tuning parameter alpha.  Four variants are computed:

  CLY         excess (2 ell - 1) / B_n,
              B_n = 2n + 3 + 2 e^(2 n C_n)  (the classical estimate)
  THM1        excess (alpha ell - 1) / B_(n,alpha),
              B_(n,alpha) = alpha n + alpha + 1 + alpha e^(alpha n C_n)
  THM2_CASE1  excess (alpha ell - 1 + alpha (n+ell+2) e^E) / B_(n,alpha)
  THM2_CASE2  excess (2 alpha ell - 1) / B_(n,alpha)

with the eigenvalue correction exponent

  E = alpha n C_n (1 - (n+4) (n+2 ell)^(2/n) 4^(1/n)).

The denominators contain e^(alpha n C_n) and are therefore LogScalars
throughout; so are excesses and ratios between variants, since the
improvement factor over CLY grows like e^(0.57 n C_n) and leaves the
double range already at n = 6.

A caution on orderings: the CASE1 excess exceeds the THM1 excess by
alpha (n+ell+2) e^E / B, a quantity around e^-137 at n = 2 and far
smaller beyond.  At double precision the two excesses are equal, so
the strict ordering must be checked on the closed-form difference,
which case1_correction_term provides exactly.

One kernel derives every formula above.  It works on floats (natural
logs of positive quantities), and BoundKernel hoists its per-n scalars:
n C_n, log B_n and log B_(n,alpha) are computed once per (n, alpha), so
each (ell, variant) costs a few float operations.  b_alpha, b_cly,
correction_exponent, case1_correction_numerator, gap_excess and
log_improvement_vs_cly are LogScalar views over it; tables read
BoundKernel directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .logdomain import LogScalar, _sum_mags, log_add, log_div, log_exp
from .specials import nc_product

DEFAULT_ALPHA = 1.43


class GapVariant(str, Enum):
    CLY = "CLY"
    THM1 = "THM1"
    THM2_CASE1 = "THM2_CASE1"
    THM2_CASE2 = "THM2_CASE2"


def _check_alpha(alpha: float) -> None:
    if not (alpha > 0.0) or math.isinf(alpha) or math.isnan(alpha):
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")


@dataclass(frozen=True)
class GapParams:
    n: int
    ell: int
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise TypeError("n must be an int")
        if not isinstance(self.ell, int) or isinstance(self.ell, bool):
            raise TypeError("ell must be an int")
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")
        if self.ell < 1:
            raise ValueError(f"ell must be at least 1, got {self.ell}")
        _check_alpha(self.alpha)
        # every tuned variant needs a positive numerator
        if self.alpha * self.ell <= 1.0:
            raise ValueError(
                f"alpha*ell must exceed 1 for a positive gap, got {self.alpha}*{self.ell}"
            )


@dataclass(frozen=True)
class GapBound:
    params: GapParams
    variant: GapVariant
    denominator: LogScalar
    excess: LogScalar
    ratio_vs_cly: LogScalar


# ------------------------------------------------------------- the kernel
#
# The only derivation of the bound formulas.  Everything is a natural log
# of a positive quantity, held as a float.  The float operations are the
# ones LogScalar's from_float, log_add and log_div apply to the same
# quantities, so results agree with them bit for bit, and a value that
# LogScalar rejects still raises from LogScalar itself.


def _ln(x: float) -> float:
    """log x for x > 0; inf and NaN raise as LogScalar.from_float does."""
    return math.log(x) if x < math.inf else LogScalar.from_float(x).log_mag


def _log_mag(v: float) -> float:
    """v as a log magnitude; +inf and NaN raise as LogScalar does."""
    return v if v < math.inf else LogScalar(1, v).log_mag


def _log_sum(a: float, b: float) -> float:
    """log(e^a + e^b), with the terms ordered as log_add orders them."""
    return _sum_mags(a, b) if a >= b else _sum_mags(b, a)


def _log_denominator(n: int, alpha: float, exponent: float) -> float:
    """log(alpha n + alpha + 1 + alpha e^exponent); B_(n,alpha) at exponent alpha n C_n."""
    return _log_sum(_ln(alpha * n + alpha + 1.0), _log_mag(math.log(alpha) + exponent))


def _correction_exponent(n: int, ell: int, anc: float) -> float:
    """E = anc (1 - (n+4) (n+2 ell)^(2/n) 4^(1/n)) with anc = alpha n C_n."""
    growth = (n + 4) * math.pow(n + 2 * ell, 2.0 / n) * math.pow(4.0, 1.0 / n)
    return anc * (1.0 - growth)


def _log_case1_correction(n: int, ell: int, alpha: float, anc: float) -> float:
    """log of alpha (n+ell+2) e^E; -inf once e^E leaves the double range."""
    e_corr = _correction_exponent(n, ell, anc)
    return _log_mag(math.log(alpha * (n + ell + 2)) + e_corr)


def _log_numerator(variant: GapVariant, n: int, ell: int, alpha: float, anc: float) -> float:
    if variant is GapVariant.CLY:
        return _ln(2.0 * ell - 1.0)
    if variant is GapVariant.THM1:
        return _ln(alpha * ell - 1.0)
    if variant is GapVariant.THM2_CASE1:
        return _log_sum(_ln(alpha * ell - 1.0), _log_case1_correction(n, ell, alpha, anc))
    if variant is GapVariant.THM2_CASE2:
        return _ln(2.0 * alpha * ell - 1.0)
    raise ValueError(f"unknown variant {variant!r}")


class BoundKernel:
    """Every bound at one dimension n and tuning alpha, as natural logs.

    n C_n, log B_n and log B_(n,alpha) are computed once, so logs()
    costs a few float operations per ell and variant.  Classical rows use
    B_n whatever alpha is.  ell must satisfy the GapParams checks.
    """

    __slots__ = ("n", "alpha", "anc", "log_b", "log_b_cly")

    def __init__(self, n: int, alpha: float) -> None:
        # n C_n first: in a table, a classical row overflows before the
        # tuned alpha is checked
        nc = nc_product(n)
        _check_alpha(alpha)
        self.n = n
        self.alpha = alpha
        self.anc = alpha * nc
        self.log_b_cly = _log_denominator(n, 2.0, 2.0 * nc)
        self.log_b = _log_denominator(n, alpha, self.anc)

    def logs(self, ell: int, variants) -> list[tuple[float, float, float]]:
        """(log B, log excess, log of excess / CLY excess) per variant, in order."""
        log_cly = _ln(2.0 * ell - 1.0) - self.log_b_cly
        out = []
        for variant in variants:
            log_b = self.log_b_cly if variant is GapVariant.CLY else self.log_b
            log_excess = _log_numerator(variant, self.n, ell, self.alpha, self.anc) - log_b
            out.append((log_b, log_excess, log_excess - log_cly))
        return out


# -------------------------------------------------- LogScalar views of it


def b_alpha(n: int, alpha: float) -> LogScalar:
    """B_(n,alpha) = alpha n + alpha + 1 + alpha e^(alpha n C_n)."""
    _check_alpha(alpha)
    return LogScalar(1, _log_denominator(n, alpha, alpha * nc_product(n)))


def b_cly(n: int) -> LogScalar:
    """B_n = 2n + 3 + 2 e^(2 n C_n); literally b_alpha at alpha = 2."""
    return b_alpha(n, 2.0)


def correction_exponent(n: int, ell: int, alpha: float = DEFAULT_ALPHA) -> float:
    """E = alpha n C_n (1 - (n+4) (n+2 ell)^(2/n) 4^(1/n)).

    Always hugely negative on admissible inputs: the growth factor in
    the parenthesis exceeds 1 by a wide margin, so e^E decays much
    faster than any other quantity in the bounds.
    """
    if ell < 1:
        raise ValueError(f"ell must be at least 1, got {ell}")
    return _correction_exponent(n, ell, alpha * nc_product(n))


def case1_correction_numerator(params: GapParams) -> LogScalar:
    """alpha (n+ell+2) e^E, the exact numerator bump of THM2_CASE1."""
    n, ell, alpha = params.n, params.ell, params.alpha
    return LogScalar(1, _log_case1_correction(n, ell, alpha, alpha * nc_product(n)))


def gap_excess(params: GapParams, variant: GapVariant) -> GapBound:
    """Excess of the requested variant, plus its ratio to the CLY excess.

    The CLY variant ignores params.alpha and uses alpha = 2, which is
    the classical tuning; its ratio_vs_cly is exactly one.
    """
    variant = GapVariant(variant)
    kernel = BoundKernel(params.n, 2.0 if variant is GapVariant.CLY else params.alpha)
    ((log_b, log_excess, log_ratio),) = kernel.logs(params.ell, (variant,))
    return GapBound(
        params=params,
        variant=variant,
        denominator=LogScalar(1, log_b),
        excess=LogScalar(1, log_excess),
        ratio_vs_cly=LogScalar(1, log_ratio),
    )


def case1_correction_term(params: GapParams) -> LogScalar:
    """Exact positive difference excess(THM2_CASE1) - excess(THM1).

    The difference is alpha (n+ell+2) e^E / B_(n,alpha).  It is far
    below the resolution of the excess values themselves, so strict
    dominance of CASE1 over THM1 is only visible through this closed
    form, never through subtracting the two excesses.
    """
    return log_div(case1_correction_numerator(params), b_alpha(params.n, params.alpha))


def log_improvement_vs_cly(n: int, ell: int, alpha: float = DEFAULT_ALPHA) -> float:
    """log of excess(THM1)/excess(CLY); positive means improvement."""
    GapParams(n=n, ell=ell, alpha=alpha)  # validates the point
    return BoundKernel(n, alpha).logs(ell, (GapVariant.THM1,))[0][2]


def case2_vs_doubled_thm1_log_margin(n: int, ell: int, alpha: float = DEFAULT_ALPHA) -> float:
    """log[(2 alpha ell - 1) / (2 (alpha ell - 1))], sharing one denominator.

    Positive iff excess(THM2_CASE2) > 2 excess(THM1).
    """
    if alpha * ell <= 1.0:
        raise ValueError("alpha*ell must exceed 1")
    return math.log(2.0 * alpha * ell - 1.0) - math.log(2.0 * (alpha * ell - 1.0))


def final_inequality_log_margin(n: int, ell: int, alpha: float = DEFAULT_ALPHA) -> float:
    """Margin of e^(-alpha n (n+3) C_n) < ell / (n+ell+3), in log form.

    Returns log(rhs) - log(lhs) = alpha n (n+3) C_n + log ell - log(n+ell+3);
    the inequality holds iff this is positive.
    """
    anc = alpha * nc_product(n)
    return anc * (n + 3) + math.log(ell) - math.log(n + ell + 3.0)


def correction_below_ell_log_margin(n: int, ell: int, alpha: float = DEFAULT_ALPHA) -> float:
    """Margin of (n+ell+2) e^E < ell in log form; positive iff it holds.

    This is the consequence that makes the CASE1 excess at most the
    CASE2 excess.
    """
    e_corr = correction_exponent(n, ell, alpha)
    return math.log(ell) - math.log(n + ell + 2.0) - e_corr


def min_volume_ratio_from_multiplicity(n: int, k: int, t: float) -> LogScalar:
    """(k + e^t) / (e^t + n + 1 + n C_n / t).

    Lower bound for vol(M)/vol(S^n) when the first k Laplace
    eigenvalues of M do not exceed n.  k = 0 is allowed as a degenerate
    sanity case and gives a value below one.
    """
    excess = min_volume_excess_from_multiplicity(n, k, t)
    return log_add(LogScalar.from_float(1.0), excess)


def min_volume_excess_from_multiplicity(n: int, k: int, t: float) -> LogScalar:
    """The same ratio minus one, kept exact in log form.

    Algebraically (k - n - 1 - n C_n / t) / (e^t + n + 1 + n C_n / t);
    at t = alpha n C_n and k = n + ell + 1 this collapses to the THM1
    excess (alpha ell - 1) / B_(n,alpha).  Returning the excess rather
    than the ratio keeps that identity checkable at dimensions where
    1 + excess rounds to 1.
    """
    if not isinstance(k, int) or isinstance(k, bool):
        raise TypeError("k must be an int")
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if not (t > 0.0) or math.isinf(t) or math.isnan(t):
        raise ValueError(f"t must be positive and finite, got {t!r}")
    shift = n + 1.0 + nc_product(n) / t
    numerator = LogScalar.from_float(k - shift)
    denominator = log_add(log_exp(t), LogScalar.from_float(shift))
    return log_div(numerator, denominator)


def cheng_yang_bound(n: int, k: int, lambda1: float | None = None) -> float:
    """Upper bound (n+4) k^(2/n) lambda_1 for the k-th Laplace eigenvalue.

    The simple polynomial form of the eigenvalue growth estimate, with
    the dimension factor fixed at n + 4.  lambda1 defaults to n, the
    largest value admissible here, giving the worst-case bound.
    """
    if not isinstance(k, int) or isinstance(k, bool):
        raise TypeError("k must be an int")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if lambda1 is None:
        lambda1 = float(n)
    if not (0.0 < lambda1 <= n):
        raise ValueError(f"lambda1 must lie in (0, n], got {lambda1!r}")
    return (n + 4) * math.pow(k, 2.0 / n) * lambda1


@dataclass(frozen=True)
class Thm2Improvement:
    """Ratios of the two eigenvalue-corrected excesses to the THM1 excess.

    The CASE1 ratio is 1 + alpha (n+ell+2) e^E / (alpha ell - 1); the
    tiny part is stored on its own because adding it to one is a no-op
    at double precision.
    """

    case1_excess_over_one: LogScalar
    case2_ratio: float

    @property
    def case1_ratio(self) -> float:
        return 1.0 + self.case1_excess_over_one.to_float()


def improvement_ratio_thm2(n: int, ell: int, alpha: float = DEFAULT_ALPHA) -> Thm2Improvement:
    params = GapParams(n=n, ell=ell, alpha=alpha)
    bump = log_div(
        case1_correction_numerator(params),
        LogScalar.from_float(alpha * ell - 1.0),
    )
    case2 = (2.0 * alpha * ell - 1.0) / (alpha * ell - 1.0)
    return Thm2Improvement(case1_excess_over_one=bump, case2_ratio=case2)

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

The denominators contain e^(alpha n C_n), so every quantity is
computed as its natural log; so are excesses and ratios between
variants, since the improvement factor over CLY grows like
e^(0.57 n C_n) and leaves the double range already at n = 6.

A caution on orderings: the CASE1 excess exceeds the THM1 excess by
alpha (n+ell+2) e^E / B, a quantity around e^-137 at n = 2 and far
smaller beyond.  At double precision the two excesses are equal, so
the strict ordering must be checked on the closed-form numerator bump
alpha (n+ell+2) e^E, which case1_correction_numerator provides exactly.

One kernel derives every formula above.  It works on floats (natural
logs of positive quantities), and BoundKernel hoists its per-n scalars:
n C_n, log B_n and log B_(n,alpha) are computed once per (n, alpha), so
each (ell, variant) costs a few float operations.  b_alpha,
case1_correction_numerator, gap_excess and log_improvement_vs_cly are
views over it, the first three as LogScalars, the public view type;
tables and the grid claims read BoundKernel directly.

The tuning lives here too, in one form, Tuning: a fixed alpha or the
solver's excess pair (ell, u), alpha = 1/ell + u, kept exact where
1/ell + u rounds to 1/ell (from n = 17 on at the maximiser).  The
overflow cap is decided here as well: capped_kernels yields one kernel
per dimension up to the last n at which every exponent the bounds form
at a given ell_max still fits in a double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .logdomain import LogScalar, _log_sum
from .specials import nc_product

DEFAULT_ALPHA = 1.43


class GapVariant(str, Enum):
    CLY = "CLY"
    THM1 = "THM1"
    THM2_CASE1 = "THM2_CASE1"
    THM2_CASE2 = "THM2_CASE2"


# member lookups on the class are slow; BoundKernel.logs compares these per row
_CLY, _THM1, _CASE1, _CASE2 = GapVariant


class Tuning:
    """Tuning(alpha) is a fixed alpha; Tuning.excess(ell, u) is alpha = 1/ell + u.

    The pair forms the numerators and alpha n C_n from u itself, so they
    stay exact however far u is below the resolution of 1/ell.
    """

    __slots__ = ("alpha", "ell", "u")

    def __init__(self, alpha: float, ell: int = 0, u: float = 0.0) -> None:
        if not (alpha > 0.0) or math.isinf(alpha) or math.isnan(alpha):
            raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
        self.alpha, self.ell, self.u = alpha, ell, u

    @classmethod
    def excess(cls, ell: int, u: float) -> "Tuning":
        return cls(1.0 / ell + u, ell, u)

    def exponent(self, nc: float) -> float:
        """alpha n C_n, given nc = n C_n."""
        return _excess_exponent(self.ell, self.u, nc) if self.ell else self.alpha * nc

    def numerators(self, ell: int) -> tuple[float, float]:
        """(alpha ell - 1, 2 alpha ell - 1); the pair's are ell u and 1 + 2 ell u."""
        if not self.ell:
            return self.alpha * ell - 1.0, 2.0 * self.alpha * ell - 1.0
        if ell != self.ell:
            raise ValueError(f"this tuning was solved at ell={self.ell}, not ell={ell}")
        return ell * self.u, 1.0 + 2.0 * ell * self.u


def _excess_exponent(ell: int, u: float, nc: float) -> float:
    """alpha n C_n at alpha = 1/ell + u; the solver's loop calls it without a Tuning."""
    return nc / ell + u * nc


def _tuning(alpha) -> Tuning:
    return alpha if isinstance(alpha, Tuning) else Tuning(alpha)


@dataclass(frozen=True)
class GapParams:
    n: int
    ell: int
    alpha: float | Tuning = DEFAULT_ALPHA

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise TypeError("n must be an int")
        if not isinstance(self.ell, int) or isinstance(self.ell, bool):
            raise TypeError("ell must be an int")
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")
        if self.ell < 1:
            raise ValueError(f"ell must be at least 1, got {self.ell}")
        tuning = _tuning(self.alpha)
        # every tuned variant needs a positive numerator: u > 0 for the pair
        if not tuning.numerators(self.ell)[0] > 0.0:
            got = f"1/{tuning.ell} + {tuning.u!r}" if tuning.ell else f"{tuning.alpha}*{self.ell}"
            raise ValueError(f"alpha*ell must exceed 1 for a positive gap, got {got}")


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
# quantities, so results agree with them bit for bit.  A quantity or log
# that leaves the double range raises OverflowError, naming it and n:
# alpha is valid at any positive finite value, so that is no usage error.


def _ln(x: float, what: str, n: int) -> float:
    """log x for x > 0; an infinite or NaN x raises OverflowError naming what and n."""
    if x < math.inf:
        return math.log(x)
    raise OverflowError(f"{what} leaves the double range at n={n}")


def _log_mag(v: float, what: str, n: int) -> float:
    """v as a log magnitude; +inf or NaN raises OverflowError naming what and n."""
    if v < math.inf:
        return v
    raise OverflowError(f"the log of {what} leaves the double range at n={n}")


def _log_denominator(n: int, alpha: float, exponent: float) -> float:
    """log(alpha n + alpha + 1 + alpha e^exponent); B_(n,alpha) at exponent alpha n C_n."""
    return _log_sum(
        _ln(alpha * n + alpha + 1.0, "alpha n + alpha + 1", n),
        _log_mag(math.log(alpha) + exponent, "alpha e^(alpha n C_n)", n),
    )


def _correction_exponent(n: int, ell: int, anc: float) -> float:
    """E = anc (1 - (n+4) (n+2 ell)^(2/n) 4^(1/n)) with anc = alpha n C_n."""
    growth = (n + 4) * math.pow(n + 2 * ell, 2.0 / n) * math.pow(4.0, 1.0 / n)
    return anc * (1.0 - growth)


def _log_case1_correction(n: int, ell: int, alpha: float, anc: float) -> float:
    """log of alpha (n+ell+2) e^E; -inf once e^E leaves the double range."""
    e_corr = _correction_exponent(n, ell, anc)
    return _log_mag(math.log(alpha * (n + ell + 2)) + e_corr, "alpha (n+ell+2) e^E", n)


class BoundKernel:
    """Every bound at one dimension n and tuning alpha, as natural logs.

    alpha is a float or a Tuning.  n C_n, log B_n and log B_(n,alpha)
    are computed once, so logs() costs a few float operations per ell
    and variant.  Classical rows use B_n whatever alpha is.  ell must
    satisfy the GapParams checks.
    """

    __slots__ = ("n", "tuning", "nc", "anc", "log_b", "log_b_cly")

    def __init__(self, n: int, alpha) -> None:
        nc = nc_product(n)
        tuning = _tuning(alpha)
        self.n = n
        self.tuning = tuning
        self.nc = nc
        self.anc = tuning.exponent(nc)
        self.log_b_cly = _log_denominator(n, 2.0, 2.0 * nc)
        self.log_b = _log_denominator(n, tuning.alpha, self.anc)

    def logs(self, ell: int, variants) -> list[tuple[float, float, float]]:
        """(log B, log excess, log of excess / CLY excess) per variant, in order."""
        log_cly = _ln(2.0 * ell - 1.0, "2 ell - 1", self.n) - self.log_b_cly
        thm1, case2 = self.tuning.numerators(ell)
        out = []
        for variant in variants:
            if variant is _CLY:
                out.append((self.log_b_cly, log_cly, 0.0))
                continue
            if variant is _THM1:
                log_num = _ln(thm1, "alpha ell - 1", self.n)
            elif variant is _CASE1:
                log_num = _log_sum(
                    _ln(thm1, "alpha ell - 1", self.n), self.log_case1_correction(ell)
                )
            elif variant is _CASE2:
                log_num = _ln(case2, "2 alpha ell - 1", self.n)
            else:
                raise ValueError(f"unknown variant {variant!r}")
            log_excess = log_num - self.log_b
            out.append((self.log_b, log_excess, log_excess - log_cly))
        return out

    def log_case1_correction(self, ell: int) -> float:
        """log of alpha (n+ell+2) e^E, the numerator bump of THM2_CASE1."""
        return _log_case1_correction(self.n, ell, self.tuning.alpha, self.anc)


def capped_kernels(n_values, alpha: float, ell_max: int):
    """One BoundKernel per n of n_values, stopping at the overflow cap.

    The cap is the first n at which n C_n, or the case-correction
    exponent E at ell_max, leaves the double range.  E is the deepest
    exponent any bound forms, roughly -alpha (n+4) n C_n, so it
    overflows a few dimensions before n C_n does; below the cap every
    formula here is finite for ell <= ell_max.  Returns (kernels, note),
    where note says where and why the sequence stopped, or is None.
    """
    kernels = []
    for n in n_values:
        try:
            nc = nc_product(n)
        except OverflowError:
            return kernels, f"n capped at {n - 1}: n C_n exceeds float range beyond"
        if math.isinf(_correction_exponent(n, ell_max, alpha * nc)):
            return kernels, (
                f"n capped at {n - 1}: the case-correction exponent"
                " exceeds float range beyond"
            )
        kernels.append(BoundKernel(n, alpha))
    return kernels, None


# -------------------------------------------------- LogScalar views of it


def b_alpha(n: int, alpha) -> LogScalar:
    """B_(n,alpha) = alpha n + alpha + 1 + alpha e^(alpha n C_n); alpha may be a Tuning."""
    tuning = _tuning(alpha)
    return LogScalar(1, _log_denominator(n, tuning.alpha, tuning.exponent(nc_product(n))))


def case1_correction_numerator(params: GapParams) -> LogScalar:
    """alpha (n+ell+2) e^E, the exact numerator bump of THM2_CASE1."""
    tuning = _tuning(params.alpha)
    anc = tuning.exponent(nc_product(params.n))
    return LogScalar(1, _log_case1_correction(params.n, params.ell, tuning.alpha, anc))


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


def log_improvement_vs_cly(n: int, ell: int, alpha: float = DEFAULT_ALPHA) -> float:
    """log of excess(THM1)/excess(CLY); positive means improvement."""
    GapParams(n=n, ell=ell, alpha=alpha)  # validates the point
    return BoundKernel(n, alpha).logs(ell, (GapVariant.THM1,))[0][2]


def case2_vs_doubled_thm1_log_margin(n: int, ell: int, alpha=DEFAULT_ALPHA) -> float:
    """log[(2 alpha ell - 1) / (2 (alpha ell - 1))], sharing one denominator.

    Positive iff excess(THM2_CASE2) > 2 excess(THM1).  alpha may be a Tuning.
    """
    thm1, case2 = _tuning(alpha).numerators(ell)
    if not thm1 > 0.0:
        raise ValueError("alpha*ell must exceed 1")
    return math.log(case2) - math.log(2.0 * thm1)


def final_inequality_log_margin(n: int, ell: int, alpha: float = DEFAULT_ALPHA) -> float:
    """Margin of e^(-alpha n (n+3) C_n) < ell / (n+ell+3), in log form.

    Returns log(rhs) - log(lhs) = alpha n (n+3) C_n + log ell - log(n+ell+3);
    the inequality holds iff this is positive.
    """
    return _final_inequality_log_margin(n, ell, alpha * nc_product(n))


def _final_inequality_log_margin(n: int, ell: int, anc: float) -> float:
    """final_inequality_log_margin given anc = alpha n C_n."""
    return anc * (n + 3) + math.log(ell) - math.log(n + ell + 3.0)


def _log_multiplicity_excess(n: int, nc: float, k: int, t: float) -> float:
    """log of (k + e^t) / (e^t + n + 1 + n C_n / t) - 1 given nc = n C_n; -inf unless positive.

    The ratio bounds vol(M)/vol(S^n) from below when the first k Laplace
    eigenvalues of M do not exceed n.  Algebraically the excess is
    (k - shift) / (e^t + shift) with shift = n + 1 + n C_n / t; at
    t = alpha n C_n and k = n + ell + 1 it collapses to the THM1 excess
    (alpha ell - 1) / B_(n,alpha).  The log of the excess rather than
    of the ratio keeps that identity checkable at dimensions where
    1 + excess rounds to 1.
    """
    shift = n + 1.0 + nc / t
    if not k - shift > 0.0:
        return -math.inf
    return math.log(k - shift) - _log_sum(t, math.log(shift))

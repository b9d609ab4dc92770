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

One kernel derives every formula above, over a whole range of ell.  It
works on floats (natural logs of positive quantities).  The terms that
depend on ell alone (the logs of 2 ell - 1, alpha ell - 1 and
2 alpha ell - 1, and the case (ii) margin) are columns of an
_EllColumns, computed once per request: per verify run and per
fixed-alpha table; at alpha = auto, where each ell has its own tuning,
once per n.  A BoundKernel(n, alpha) holds the per-n scalars n C_n
(memoised in specials, so computed once per n however many kernels
share it) and log B_(n,alpha), and gives log B_n on read;
_bound_columns turns those columns into each variant's printed columns,
alpha, log B, log excess and log ratio to CLY, with per-n float
operations only; the multiplicity route hoists its per-n terms likewise.

The case (i) bump is added to alpha ell - 1 by _log_sum, which returns
the larger log unchanged once the smaller is further below it than
logdomain._UNDERFLOW_LOG.  _case1_bumps decides that once per n, for
every ell at once: (n+2 ell)^(2/n) >= 1 and 4^(1/n) >= 1, and float
rounding is monotone, so the float E is at most the float
-min(anc) (n+3), and log(alpha (n+ell+2)) at most its value at
max(alpha) and the largest ell.  If that bound, less the smallest
log(alpha ell - 1), is below the threshold, every sum is its
numerator, bit for bit, and THM2_CASE1 shares THM1's columns: over
ell 1:100 at alpha 1.43 from n = 5 on, over ell 1:30 at alpha = auto
from n = 6 on.  Elsewhere the per-ell pass runs.  BoundKernel.logs, b_alpha,
case1_correction_numerator, gap_excess, log_improvement_vs_cly and the
two margin functions are one-point views of that code, the LogScalar
ones in the public view type; tables read the columns directly.  Every
log excess and log ratio column is one _log_quotients call; the grid
claims read one kernel's THM1 columns alone through _thm1_log_excesses
and _thm1_log_ratios, which make the same calls.  No column function
checks the numerators: each request does, once, where it enters
(_check_numerators in build_gap_table, the claims' grid, BoundKernel.logs).

The tuning lives here too, in one form, Tuning: a fixed alpha, such as
the classical _CLASSICAL, whose numerators alpha ell - 1 and
2 alpha ell - 1 are formed exactly and rounded once, or the solver's
excess pair (ell, u), alpha = 1/ell + u, kept exact where 1/ell + u
rounds to 1/ell (from n = 17 on at the maximiser).  No overflow is
predicted here: each quantity raises OverflowError, naming itself and
n, where it leaves the double range, and a caller stops there.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import repeat
from operator import attrgetter, sub

from .logdomain import _UNDERFLOW_LOG, LogScalar, _as_float, _check_int, _check_positive, _log_sum, _overflow
from .specials import nc_product

DEFAULT_ALPHA = 1.43


class GapVariant(str, Enum):
    CLY = "CLY"
    THM1 = "THM1"
    THM2_CASE1 = "THM2_CASE1"
    THM2_CASE2 = "THM2_CASE2"


# member lookups on the class are slow; the kernel compares these per variant
_CLY, _THM1, _CASE1, _CASE2 = GapVariant


class Tuning:
    """Tuning(alpha) is a fixed alpha; Tuning.excess(ell, u) is alpha = 1/ell + u.

    The pair forms the numerators and alpha n C_n from u itself, so they
    stay exact however far u is below the resolution of 1/ell.
    """

    __slots__ = ("alpha", "ell", "u")

    def __init__(self, alpha: float, ell: int = 0, u: float = 0.0) -> None:
        _check_positive(alpha, "alpha")
        self.alpha, self.ell, self.u = alpha, ell, u

    @classmethod
    def excess(cls, ell: int, u: float) -> "Tuning":
        return cls(1.0 / ell + u, ell, u)

    def exponent(self, nc: float) -> float:
        """alpha n C_n, given nc = n C_n."""
        return _excess_exponent(self.ell, self.u, nc) if self.ell else self.alpha * nc

    def numerators(self, ell: int) -> tuple[float, float]:
        """(alpha ell - 1, 2 alpha ell - 1), each rounded once; the pair's are ell u and 1 + 2 ell u.

        At a fixed alpha = p / q each is an exact int over q, and the int
        division rounds it once; +inf past the double range.
        """
        if not self.ell:
            p, q = self.alpha.as_integer_ratio()
            return _rounded(p * ell - q, q), _rounded(2 * p * ell - q, q)
        if ell != self.ell:
            raise ValueError(f"this tuning was solved at ell={self.ell}, not ell={ell}")
        return ell * self.u, 1.0 + 2.0 * ell * self.u


def _rounded(top: int, bottom: int) -> float:
    """top / bottom, correctly rounded as int division is; +inf past the double range."""
    try:
        return top / bottom
    except OverflowError:
        return math.inf


def _excess_exponent(ell: int, u: float, nc: float) -> float:
    """alpha n C_n at alpha = 1/ell + u; the solver's loop calls it without a Tuning."""
    return nc / ell + u * nc


def _tuning(alpha) -> Tuning:
    return alpha if isinstance(alpha, Tuning) else Tuning(alpha)


# Cheng-Li-Yau's tuning: B_(n,2) = B_n and 2 ell - 1 is its alpha ell - 1
_CLASSICAL = Tuning(2.0)


@dataclass(frozen=True)
class GapParams:
    n: int
    ell: int
    alpha: float | Tuning = DEFAULT_ALPHA

    def __post_init__(self) -> None:
        _check_int(self.n, "n", 2)
        _check_int(self.ell, "ell", 1)
        tuning = _tuning(self.alpha)
        _as_float(self.ell, "ell", self.n)  # overflows name ell and n, before alpha ell does
        # every tuned variant needs a positive numerator: u > 0 for the pair
        if not tuning.numerators(self.ell)[0] > 0.0:
            got = f"1/{tuning.ell} + {tuning.u!r}" if tuning.ell else f"{tuning.alpha}*{self.ell}"
            raise ValueError(f"alpha*ell must exceed 1 for a positive gap, got {got}")


class GapBound(namedtuple("GapBound", "params variant denominator excess ratio_vs_cly")):
    __slots__ = ()


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
    raise _overflow(what, n)


def _log_mag(v: float, what: str, n: int) -> float:
    """v as a log magnitude; +inf or NaN raises OverflowError naming what and n."""
    if v < math.inf:
        return v
    raise _overflow(f"the log of {what}", n)


def _log_denominator(n: int, alpha: float, exponent: float) -> float:
    """log(alpha n + alpha + 1 + alpha e^exponent); B_(n,alpha) at exponent alpha n C_n."""
    return _log_sum(
        _ln(alpha * n + alpha + 1.0, "alpha n + alpha + 1", n),
        _log_mag(math.log(alpha) + exponent, "alpha e^(alpha n C_n)", n),
    )


class _EllColumns:
    """The terms of the bounds that depend on ell and its tuning alone, over one sequence of ells.

    tunings gives each ell's Tuning, in the order of ells: one tuning
    repeated at a fixed alpha, the solver's pair per ell at alpha = auto.
    Each column is computed on first read and holds one value per ell:
    the logs of the numerators 2 ell - 1, alpha ell - 1 and
    2 alpha ell - 1 (the last two from the tuning's numerators), and the
    case (ii) margin.  A numerator log whose argument leaves the double
    range is +inf here; _check_numerators raises on the ones a caller
    reads.  Callers build one per request (a verify run, a fixed-alpha
    table) or per n (an auto table), so the kernels add only per-n float
    operations.
    """

    def __init__(self, ells, tunings) -> None:
        self.ells = ells
        self.tunings = tunings

    @cached_property
    def log_numerators(self) -> tuple[list[float], list[float], list[float]]:
        """The logs of 2 ell - 1, alpha ell - 1 and 2 alpha ell - 1."""
        cly, thm1, case2 = [], [], []
        for ell, tuning in zip(self.ells, self.tunings):
            tuned, doubled = tuning.numerators(ell)
            cly.append(math.log(2.0 * ell - 1.0))
            thm1.append(math.log(tuned))
            case2.append(math.log(doubled))
        return cly, thm1, case2

    @cached_property
    def case2_margin(self) -> list[float]:
        """log[(2 alpha ell - 1) / (2 (alpha ell - 1))], sharing one denominator.

        Positive iff excess(THM2_CASE2) > 2 excess(THM1).  The case (ii)
        numerator is exactly 1 + 2 (alpha ell - 1), so the margin is
        log1p(1 / (2 (alpha ell - 1))): it stays positive where the two
        logs of a difference would round to the same double (ell = 10^16),
        and 0.5 / (alpha ell - 1) cannot overflow as 2 (alpha ell - 1) can.
        Callers pass ells that GapParams accepts at their tuning, where
        alpha ell - 1 is positive.
        """
        return [math.log1p(0.5 / tuning.numerators(ell)[0]) for ell, tuning in zip(self.ells, self.tunings)]


_NUMERATORS = ("2 ell - 1", "alpha ell - 1", "2 alpha ell - 1")
# each variant's numerator, as an index into _EllColumns.log_numerators and _NUMERATORS
_NUMERATOR = {_CLY: 0, _THM1: 1, _CASE1: 1, _CASE2: 2}


def _correction_exponents(n: int, ancs, ells):
    """E = anc (1 - (n+4) (n+2 ell)^(2/n) 4^(1/n)) at each ell, with its anc = alpha n C_n."""
    n4, power, root4 = n + 4, 2.0 / n, math.pow(4.0, 1.0 / n)
    for anc, ell in zip(ancs, ells):
        yield anc * (1.0 - n4 * math.pow(_as_float(n + 2 * ell, "ell", n), power) * root4)


def _log_case1_corrections(n: int, alphas, ancs, ells) -> list[float]:
    """log of alpha (n+ell+2) e^E at each ell, with its alpha and anc; -inf where e^E vanishes."""
    out = []
    # E first: its check on n + 2 ell comes before alpha (n+ell+2) is formed
    for e_corr, alpha, ell in zip(_correction_exponents(n, ancs, ells), alphas, ells):
        scale = alpha * (n + ell + 2)  # a sum of logs where it overflows, so that E = -inf gives -inf
        log_scale = math.log(scale) if scale < math.inf else math.log(alpha) + math.log(n + ell + 2)
        out.append(_log_mag(e_corr + log_scale, "alpha (n+ell+2) e^E", n))
    return out


def _check_numerators(n: int, cols: _EllColumns, variants) -> None:
    """Raise OverflowError for the first of 2 ell - 1 and variants' numerators that overflows.

    A numerator overflows if it leaves the double range at any ell of
    cols; the message names it and n.  At a fixed alpha each numerator
    rises with ell, so the ends of a range decide it.
    """
    logs = cols.log_numerators
    for k in (0, *map(_NUMERATOR.__getitem__, variants)):
        if math.inf in logs[k]:
            raise _overflow(_NUMERATORS[k], n)


def _case1_bumps(n: int, kernels, ells, log_nums):
    """_log_case1_corrections at kernels and ells, or None where no bump can change a bit of its sum.

    log_nums are the logs of alpha ell - 1 at ells, which the bumps are
    added to (_log_sum).  None means the bound in the module docstring
    puts every bump below the underflow threshold of its numerator, so
    the pass is skipped; the overflow of n + 2 ell that the pass would
    raise is raised either way.
    """
    ell_max = max(ells)
    _as_float(n + 2 * ell_max, "ell", n)  # the pass raises this first, at any ell it reaches
    alphas, ancs = _kernel_columns(kernels, _ALPHA, _ANC)
    bound = min(ancs) * -(n + 3) + math.log(max(alphas) * (n + ell_max + 2)) - min(log_nums)
    if bound < _UNDERFLOW_LOG:
        return None
    return _log_case1_corrections(n, alphas, ancs, ells)


_ALPHA, _ANC, _LOG_B = attrgetter("tuning.alpha"), attrgetter("anc"), attrgetter("log_b")


def _kernel_columns(kernels, *reads) -> list[list]:
    """Per read, the list of its value at each of kernels.

    At a fixed alpha every item is one kernel (an identity count says
    so, whatever the ends hold), so each value is read once and repeated.
    """
    first, m = kernels[0], len(kernels)
    if kernels.count(first) == m:
        return [[read(first)] * m for read in reads]
    return [list(map(read, kernels)) for read in reads]


def _bound_columns(kernels, cols: _EllColumns, variants) -> list[tuple[list, list, list, list]]:
    """(alpha, log B, log excess, log ratio to CLY) columns per variant, in order, over cols.ells.

    kernels[i] is the BoundKernel at cols.ells[i], at the tuning
    cols.tunings[i]; all share one n.  At a fixed alpha that is one
    kernel repeated, whose alpha and log B are read once
    (_kernel_columns).  Classical columns hold _CLASSICAL's alpha and B_n.
    The caller checks the numerators (_check_numerators); a THM2_CASE1
    bump past the double range raises, at its first ell.  Where no bump
    can change a bit (_case1_bumps), THM2_CASE1's columns are THM1's,
    the same tuple.
    """
    first, ells, m = kernels[0], cols.ells, len(kernels)
    n, log_b_cly, logs = first.n, first.log_b_cly, cols.log_numerators
    bumps = _case1_bumps(n, kernels, ells, logs[1]) if _CASE1 in variants else None
    alphas, log_bs = _kernel_columns(kernels, _ALPHA, _LOG_B)
    log_cly = _log_quotients(logs[0], repeat(log_b_cly))
    out, thm1 = [], None
    for variant in variants:
        if variant is _CLY:
            out.append(([_CLASSICAL.alpha] * m, [log_b_cly] * m, log_cly, [0.0] * m))
        elif variant is _CASE2:
            out.append(_tuned_columns(alphas, logs[2], log_bs, log_cly))
        elif variant is _CASE1 and bumps is not None:
            out.append(_tuned_columns(alphas, list(map(_log_sum, logs[1], bumps)), log_bs, log_cly))
        else:  # THM1, or THM2_CASE1 where its bumps are invisible
            thm1 = thm1 or _tuned_columns(alphas, logs[1], log_bs, log_cly)
            out.append(thm1)
    return out


def _tuned_columns(alphas, log_nums, log_bs, log_cly) -> tuple[list, list, list, list]:
    excesses = _log_quotients(log_nums, log_bs)
    return alphas, log_bs, excesses, _log_quotients(excesses, log_cly)


def _log_quotients(log_tops, log_bottoms) -> list[float]:
    """log(top / bottom) at each ell, from the two logs; every log excess and log ratio column."""
    return list(map(sub, log_tops, log_bottoms))


def _thm1_log_excesses(kernel, cols: _EllColumns) -> list[float]:
    """kernel's THM1 log excesses at cols.ells, as _bound_columns forms them, and nothing else."""
    return _log_quotients(cols.log_numerators[1], repeat(kernel.log_b))


def _thm1_log_ratios(kernel, cols: _EllColumns) -> list[float]:
    """kernel's THM1 log ratios to CLY at cols.ells, as _bound_columns forms them."""
    log_cly = _log_quotients(cols.log_numerators[0], repeat(kernel.log_b_cly))
    return _log_quotients(_thm1_log_excesses(kernel, cols), log_cly)


class BoundKernel:
    """Every bound at one dimension n and tuning alpha, as natural logs.

    alpha is a float or a Tuning.  n C_n (memoised in specials) and
    log B_(n,alpha) are held, so each ell and variant costs a few float
    operations (_bound_columns).  Classical rows use _CLASSICAL, and so
    B_n, whatever alpha is; log_b_cly computes log B_n on read, which
    the column pass does once per n, from its first kernel.  ell must
    satisfy the GapParams checks.
    """

    __slots__ = ("n", "tuning", "nc", "anc", "log_b")

    def __init__(self, n: int, alpha) -> None:
        self.n = n
        self.nc = nc_product(n)
        self.tuning = tuning = _tuning(alpha)
        self.anc = tuning.exponent(self.nc)
        self.log_b = _log_denominator(n, tuning.alpha, self.anc)

    @property
    def log_b_cly(self) -> float:
        """log B_n, the classical denominator; it depends on n alone."""
        return _log_denominator(self.n, _CLASSICAL.alpha, _CLASSICAL.exponent(self.nc))

    def logs(self, ell: int, variants) -> list[tuple[float, float, float]]:
        """(log B, log excess, log of excess / CLY excess) per variant, in order, numerators checked."""
        cols = _EllColumns((ell,), (self.tuning,))
        _check_numerators(self.n, cols, variants)
        columns = _bound_columns((self,), cols, variants)
        return [(log_bs[0], excesses[0], ratios[0]) for _, log_bs, excesses, ratios in columns]


# -------------------------------------------------- LogScalar views of it


def b_alpha(n: int, alpha) -> LogScalar:
    """B_(n,alpha) = alpha n + alpha + 1 + alpha e^(alpha n C_n); alpha may be a Tuning."""
    tuning = _tuning(alpha)
    return LogScalar(1, _log_denominator(n, tuning.alpha, tuning.exponent(nc_product(n))))


def case1_correction_numerator(params: GapParams) -> LogScalar:
    """alpha (n+ell+2) e^E, the exact numerator bump of THM2_CASE1."""
    tuning = _tuning(params.alpha)
    anc = tuning.exponent(nc_product(params.n))
    return LogScalar(1, _log_case1_corrections(params.n, (tuning.alpha,), (anc,), (params.ell,))[0])


def gap_excess(params: GapParams, variant: GapVariant) -> GapBound:
    """Excess of the requested variant, plus its ratio to the CLY excess.

    The CLY variant ignores params.alpha and uses _CLASSICAL, alpha = 2;
    its ratio_vs_cly is exactly one.
    """
    variant = GapVariant(variant)
    kernel = BoundKernel(params.n, _CLASSICAL if variant is _CLY else params.alpha)
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
    return BoundKernel(n, alpha).logs(ell, (_THM1,))[0][2]


def case2_vs_doubled_thm1_log_margin(n: int, ell: int, alpha=DEFAULT_ALPHA) -> float:
    """log[(2 alpha ell - 1) / (2 (alpha ell - 1))]; _EllColumns.case2_margin at one ell.

    Positive iff excess(THM2_CASE2) > 2 excess(THM1).  alpha may be a Tuning.
    """
    GapParams(n=n, ell=ell, alpha=alpha)  # validates the point
    return _EllColumns((ell,), (_tuning(alpha),)).case2_margin[0]


def final_inequality_log_margin(n: int, ell: int, alpha: float = DEFAULT_ALPHA) -> float:
    """Margin of e^(-alpha n (n+3) C_n) < ell / (n+ell+3), in log form.

    Returns log(rhs) - log(lhs) = alpha n (n+3) C_n - log1p((n+3)/ell),
    which keeps a small first term that log ell - log(n+ell+3) would
    absorb at a large ell; the inequality holds iff this is positive, at
    any alpha ell; alpha may be a Tuning.
    """
    _check_int(ell, "ell", 1)
    return _final_inequality_log_margins(n, _tuning(alpha).exponent(nc_product(n)), (ell,))[0]


def _final_inequality_log_margins(n: int, anc: float, ells) -> list[float]:
    """final_inequality_log_margin at each of ells, given anc = alpha n C_n."""
    head = anc * (n + 3)
    return [head - math.log1p((n + 3.0) / ell) for ell in ells]


def _log_multiplicity_excesses(n: int, nc: float, t: float, ks) -> list[float]:
    """log of (k + e^t) / (e^t + n + 1 + n C_n / t) - 1 at each k; -inf where not positive.

    nc = n C_n and t > 0.  The ratio bounds vol(M)/vol(S^n) from below
    when the first k Laplace eigenvalues of M do not exceed n.
    Algebraically the excess is (k - shift) / (e^t + shift) with
    shift = n + 1 + n C_n / t; at t = alpha n C_n and k = n + ell + 1 it
    collapses to the THM1 excess (alpha ell - 1) / B_(n,alpha).  The log
    of the excess rather than of the ratio keeps that identity checkable
    at dimensions where 1 + excess rounds to 1.
    """
    shift = n + 1.0 + nc / t
    log_den = _log_sum(t, math.log(shift))
    return [math.log(d) - log_den if (d := k - shift) > 0.0 else -math.inf for k in ks]

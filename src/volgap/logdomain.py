"""Natural logs of quantities beyond the double range, and LogScalar.

The bound denominators handled by this package contain factors like
e^(2 n C_n), which is about e^128 already at n = 4 and far beyond any
IEEE double soon after.  The package therefore computes on natural
logs held as plain floats; _log_sum adds two of them, so no
intermediate leaves the representable range as long as the log itself
fits in a double.

LogScalar, a sign in {-1, 0, +1} together with log|x|, is the type the
public views return: b_alpha, case1_correction_numerator and gap_excess
in bounds, f1 and f1_prime in solver.  Below them
logs stay floats; cly_constant_log returns log C_n itself.  A LogScalar
multiplies, divides and adds (log_add); it has no order, so compare log
magnitudes instead.

Base-10 logs appear only when results are rendered for people; all
internal arithmetic is natural-log.

The package's input rules live here too, one helper each: _check_int
(an int, not a bool, and at least a given bound: n >= 2, ell >= 1) and
_check_positive (positive and finite: alpha, t, cn_scale, and the
solver's beta and tol).  The rule alpha ell > 1 is bounds.GapParams,
which calls both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_LN10 = math.log(10.0)
_LN_HALF = math.log(0.5)
# The double range, in logs, and the error that names a quantity and n
# (_overflow); this module is the only place that spells either.  The
# heat-trace, closed trace bound and Gamma(s, 1) errors name t or s as
# well, so spectral and specials spell those three.
# Below _UNDERFLOW_LOG e^d underflows, so the smaller term of a sum or
# difference cannot change a bit of the larger.  Above _OVERFLOW_LOG the
# package treats e^x as past the double range (the largest double is
# about e^709.78).
_UNDERFLOW_LOG = -745.0
_OVERFLOW_LOG = 709.0


def _overflow(what: str, n: int) -> OverflowError:
    return OverflowError(f"{what} leaves the double range at n={n}")


def _as_float(x: int, what: str, n: int) -> float:
    """The int x as a float; past the double range, OverflowError naming what and n.

    The bounds and the solver form 2 ell and ell u as floats;
    GapParams (which SuiteConfig builds) and optimal_alpha convert ell
    here before they do, and the case-correction exponent converts
    n + 2 ell here.  specials and spectral convert the dimension n here,
    where it first becomes a float.  _check_int has checked n and ell
    before they get here; this adds only the double-range error.
    """
    try:
        return float(x)
    except OverflowError:
        raise _overflow(what, n) from None


def _check_int(x: int, name: str, least: int) -> None:
    """The one check of an int input: TypeError unless x is an int (not a bool), ValueError below least."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise TypeError(f"{name} must be an int, got {type(x).__name__}")
    if x < least:
        raise ValueError(f"{name} must be at least {least}, got {x}")


def _check_positive(x: float, name: str) -> None:
    """The one check of a real input: ValueError unless 0 < x < inf (a NaN fails too)."""
    if not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {x!r}")


@dataclass(frozen=True)
class LogScalar:
    """A real number x represented as (sign, log|x|).

    sign is -1, 0 or +1.  For sign 0 the magnitude slot is fixed at
    -inf so that zero has a single representation.  log_mag may be any
    finite float otherwise; +inf and NaN are rejected.
    """

    sign: int
    log_mag: float

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign!r}")
        if math.isnan(self.log_mag) or self.log_mag == math.inf:
            raise ValueError(f"log magnitude must be finite or -inf, got {self.log_mag!r}")
        if self.log_mag == -math.inf and self.sign != 0:
            object.__setattr__(self, "sign", 0)
        if self.sign == 0:
            object.__setattr__(self, "log_mag", -math.inf)

    @classmethod
    def from_float(cls, x: float) -> "LogScalar":
        if math.isnan(x) or math.isinf(x):
            raise ValueError(f"cannot represent {x!r} as a LogScalar")
        if x == 0.0:
            return ZERO
        return cls(1 if x > 0 else -1, math.log(abs(x)))

    def to_float(self) -> float:
        """Collapse back to a double.

        Saturates to +-inf above the float range and flushes to 0.0
        underneath it; information loss at the ends is inherent.
        """
        if self.sign == 0:
            return 0.0
        try:
            mag = math.exp(self.log_mag)
        except OverflowError:
            mag = math.inf
        return mag if self.sign > 0 else -mag

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    @property
    def log10_mag(self) -> float:
        return self.log_mag / _LN10

    def __mul__(self, other: "LogScalar") -> "LogScalar":
        return log_mul(self, other)

    def __truediv__(self, other: "LogScalar") -> "LogScalar":
        return log_div(self, other)


ZERO = LogScalar(0, -math.inf)


def _sum_mags(big: float, small: float) -> float:
    # log(e^big + e^small) with big >= small
    d = small - big
    if d < _UNDERFLOW_LOG:  # e^d underflows; the small term is invisible
        return big
    return big + math.log1p(math.exp(d))


def _log_sum(a: float, b: float) -> float:
    """log(e^a + e^b): the one place that orders the terms of a two-term sum."""
    return _sum_mags(a, b) if a >= b else _sum_mags(b, a)


def _diff_mags(big: float, small: float) -> float:
    # log(e^big - e^small) with big > small; returns -inf on total
    # cancellation at the float level
    d = small - big
    if d < _UNDERFLOW_LOG:
        return big
    if d > _LN_HALF:
        # e^d close to 1: log(-expm1(d)) keeps the cancellation sharp
        return big + math.log(-math.expm1(d))
    return big + math.log1p(-math.exp(d))


def log_add(a: LogScalar, b: LogScalar) -> LogScalar:
    """a + b."""
    if a.sign == 0:
        return b
    if b.sign == 0:
        return a
    if a.sign == b.sign:
        return LogScalar(a.sign, _log_sum(a.log_mag, b.log_mag))
    if a.log_mag == b.log_mag:
        return ZERO
    if a.log_mag > b.log_mag:
        return LogScalar(a.sign, _diff_mags(a.log_mag, b.log_mag))
    return LogScalar(b.sign, _diff_mags(b.log_mag, a.log_mag))


def log_mul(a: LogScalar, b: LogScalar) -> LogScalar:
    """a * b."""
    sign = a.sign * b.sign
    if sign == 0:
        return ZERO
    return LogScalar(sign, a.log_mag + b.log_mag)


def log_div(a: LogScalar, b: LogScalar) -> LogScalar:
    """a / b.  Division by zero raises ZeroDivisionError."""
    if b.sign == 0:
        raise ZeroDivisionError("LogScalar division by zero")
    if a.sign == 0:
        return ZERO
    return LogScalar(a.sign * b.sign, a.log_mag - b.log_mag)

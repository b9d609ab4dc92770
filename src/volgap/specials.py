"""Upper incomplete gamma values at 1 and the heat-kernel constant C_n.

Everything here reduces to Gamma(s, 1) = integral_1^inf e^-t t^(s-1) dt
for s = k/2, k >= 1.  Each k is read on its own, with no quadrature and
no state carried from one call to the next.  Up to k = 343, where the
value still fits a double, two exact routes give it and its log:

  integer s = m:      Gamma(m, 1) = (m-1)! e^-1 sum_{j<m} 1/j!
  half-odd s:         Gamma(s+1, 1) = s Gamma(s, 1) + e^-1, seeded at
                      Gamma(1/2, 1) = sqrt(pi) erfc(1)

The half-odd values are taken once, as a table.  Past k = 343 there is
only the log, math.lgamma(k/2), which costs the same at any k:
Gamma(s, 1) = Gamma(s) (1 - P(s, 1)) with 0 < P(s, 1) <= 1/Gamma(s+1)
(DLMF section 8.2), below 1e-18 from s = 20 on, far under half an ulp
of log Gamma(s).  On 341 <= k <= 343 the two routes give the same logs.

The constant attached to dimension n is

  C_n = n^(n/2) e Gamma(n/2, 1) / 2

so C_2 = 1 and C_4 = 16 exactly, and C_3 = 3.5825810...  C_n grows
roughly like (n/2)! n^(n/2) and leaves the double range at n = 167;
callers that only need log C_n should use cly_constant_log, which is
good for any n the grid tools accept.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from .logdomain import _OVERFLOW_LOG, _as_float, _check_int, _overflow


@dataclass(frozen=True)
class HalfInteger:
    """s = twice / 2 for an integer twice >= 1."""

    twice: int

    def __post_init__(self) -> None:
        _check_int(self.twice, "twice", 1)


_E_INV = math.exp(-1.0)
# 1/j! for j <= 170, each one division from the last: the sums an even k <= 343 reads
_RECIP = tuple(accumulate(range(1, 171), operator.truediv, initial=1.0))
# Gamma(k/2, 1) at odd k <= 343, at index k // 2: Gamma(j/2 + 1, 1) = (j/2) Gamma(j/2, 1) + e^-1
_HALF_ODD = tuple(accumulate(
    range(1, 343, 2), lambda g, j: j / 2.0 * g + _E_INV, initial=math.sqrt(math.pi) * math.erfc(1.0)
))


def _gamma_at_one(k: int) -> tuple[float | None, float]:
    """(Gamma(k/2, 1), or None past the double range; log Gamma(k/2, 1))."""
    if k > 343:
        return None, math.lgamma(k / 2)
    if k % 2:
        value = _HALF_ODD[k // 2]
        return value, math.log(value)
    m = k // 2
    # (m-1)! is exact; its float conversion rounds once
    factorial, recip = math.factorial(m - 1), math.fsum(_RECIP[:m])
    return factorial * _E_INV * recip, math.log(factorial) + math.log(recip) - 1.0


def upper_incomplete_gamma_at_one(s: HalfInteger) -> float:
    """Gamma(s, 1) for integer or half-integer s >= 1/2.

    Exact in the sense that the only errors are float rounding of the
    closed forms above; relative error stays near machine epsilon.
    Raises OverflowError once the value itself exceeds the double
    range, from HalfInteger(344) (s = 172) on; cly_constant_log works
    in logs beyond it.
    """
    if not isinstance(s, HalfInteger):
        raise TypeError("s must be a HalfInteger")
    value, _ = _gamma_at_one(s.twice)
    if value is None:
        raise OverflowError(f"Gamma(s, 1) exceeds the double range at s={s.twice}/2")
    return value


@lru_cache(maxsize=None)
def cly_constant(n: int) -> float:
    """C_n = n^(n/2) e Gamma(n/2, 1) / 2 as a double.

    Raises OverflowError once C_n leaves the double range (from
    n = 167 on); cly_constant_log has no such ceiling.
    """
    if cly_constant_log(n) > _OVERFLOW_LOG:
        raise _overflow("C_n", n)
    if n % 2 == 0:
        half_power = float(n ** (n // 2))  # exact integer power
    else:
        half_power = math.pow(n, n / 2.0)
    return half_power * math.e * _gamma_at_one(n)[0] / 2.0


# Bounded, unlike cly_constant (which raises past n = 166): a sweep over
# hundreds of thousands of n would otherwise keep one log C_n per n for
# the life of the process.  1024 holds every n of a 2:400 grid.
@lru_cache(maxsize=1024)
def cly_constant_log(n: int) -> float:
    """log C_n as a float, usable at any dimension that fits in a double (logdomain._as_float).

    The one check of n for cly_constant and nc_product, which read it
    first.  Raises OverflowError naming n where log C_n itself leaves
    the double range, from about n = 2.6e305 on.
    """
    _check_int(n, "n", 2)
    half = _as_float(n, "dimension", n) / 2.0
    try:
        # grouped so that exact cases stay exact: log C_2 is 0.0
        log_c = (half * math.log(n) - math.log(2.0)) + (1.0 + _gamma_at_one(n)[1])
    except OverflowError:  # from math.lgamma, once (n/2) log n is already inf
        log_c = math.inf
    if log_c == math.inf:
        raise _overflow("log C_n", n)
    return log_c


@lru_cache(maxsize=None)
def nc_product(n: int) -> float:
    """n * C_n as a double; this is the exponent scale in the bounds.

    Raises OverflowError when n C_n itself no longer fits in a double
    (n = 166 and up), which is the hard ceiling for every formula that
    needs e^(alpha n C_n) even in log form.  Memoised like cly_constant,
    so every caller computes it once per n: a raise is not cached, so
    the memo holds at most the 164 values of n = 2..165, and an n past
    the ceiling raises on every call.
    """
    log_nc = cly_constant_log(n) + math.log(n)  # in this order: n is checked before math.log reads it
    if log_nc > _OVERFLOW_LOG:
        raise _overflow("n C_n", n)
    return n * cly_constant(n)

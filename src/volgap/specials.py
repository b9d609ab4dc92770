"""Upper incomplete gamma values at 1 and the heat-kernel constant C_n.

Everything here reduces to Gamma(s, 1) = integral_1^inf e^-t t^(s-1) dt
for s a positive integer or half-integer.  Two exact routes avoid any
quadrature at runtime:

  integer s = m:      Gamma(m, 1) = (m-1)! e^-1 sum_{j<m} 1/j!
  half-odd s:         Gamma(s+1, 1) = s Gamma(s, 1) + e^-1, seeded at
                      Gamma(1/2, 1) = sqrt(pi) (1 - erf(1))

erf(1) comes from the alternating Maclaurin series, truncated once a
term drops below 1e-17, which is past double precision.

Both routes run incrementally (_GammaAtOne): Gamma(n/2, 1) for the next
n of an increasing range takes one step from the last n reached, so a
range of N dimensions costs O(N) steps, not O(N^2).  An even n's step
multiplies the exact int (m-1)!, which keeps growing, so the even n of
the range cost O(N^2) bit operations; the odd n's steps are floats.

The constant attached to dimension n is

  C_n = n^(n/2) e Gamma(n/2, 1) / 2

so C_2 = 1 and C_4 = 16 exactly, and C_3 = 3.5825810...  C_n grows
roughly like (n/2)! n^(n/2) and leaves the double range at n = 167;
callers that only need log C_n should use cly_constant_log, which is
good for any n the grid tools accept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .logdomain import _OVERFLOW_LOG, LogScalar, _log_sum

_ERF_TERM_CUTOFF = 1e-17


@dataclass(frozen=True)
class HalfInteger:
    """s = twice / 2 for an integer twice >= 1."""

    twice: int

    def __post_init__(self) -> None:
        if not isinstance(self.twice, int) or isinstance(self.twice, bool):
            raise TypeError(f"twice must be an int, got {type(self.twice).__name__}")
        if self.twice < 1:
            raise ValueError(f"argument must be at least 1/2, got {self.twice}/2")


def erf_series(x: float) -> float:
    """erf by Maclaurin series; used to seed Gamma(1/2, 1) at x = 1.

    erf(x) = 2/sqrt(pi) sum_k (-1)^k x^(2k+1) / (k! (2k+1))

    The terms alternate and grow to roughly e^(x^2) before decaying, so
    cancellation costs about eps * e^(x^2) of absolute accuracy; the
    domain stops at |x| <= 3 where that loss is still ~1e-14.
    """
    if abs(x) > 3.0:
        raise ValueError("series evaluation is only supported for |x| <= 3")
    terms = []
    power = x  # (-1)^k x^(2k+1) / k!
    k = 0
    while True:
        terms.append(power / (2 * k + 1))
        k += 1
        power *= -x * x / k
        if abs(power) < _ERF_TERM_CUTOFF:
            break
    return 2.0 / math.sqrt(math.pi) * math.fsum(terms)


_E_INV = math.exp(-1.0)


class _GammaAtOne:
    """Gamma(k/2, 1) and its log, read off one cursor per parity of k.

    A cursor moves to the k asked for from the last k it reached, or
    from the first one when k lies behind it.  So an increasing sweep
    over k costs one step per new k, and a single k costs no more than
    its closed form from scratch.  The even cursor carries (m-1)! for
    k = 2m as an exact int; the odd one carries the half-odd recurrence
    in floats, None once past the double range, and in logs.  A cursor
    moves by one assignment of a complete row, so a move that raises or
    is interrupted leaves it where it was.
    """

    def __init__(self) -> None:
        seed = math.sqrt(math.pi) * (1.0 - erf_series(1.0))  # Gamma(1/2, 1) = sqrt(pi) erfc(1)
        self._odd_start = (1, seed, math.log(seed))
        self._odd = self._odd_start
        self._even = (1, 1)  # (m, (m-1)!)
        self._recip = [1.0]  # 1/j! for j < 178; every later term is 0.0 in doubles
        for j in range(1, 178):
            self._recip.append(self._recip[-1] / j)
        self._recip_total = math.fsum(self._recip)

    def at(self, k: int) -> tuple[float | None, float]:
        """(Gamma(k/2, 1), or None past the double range; log Gamma(k/2, 1))."""
        if k % 2 == 0:
            m = k // 2
            last, factorial = self._even if self._even[0] <= m else (1, 1)
            factorial *= math.perm(m - 1, m - last)  # (m-1)! / (last-1)!
            self._even = (m, factorial)
            # sum_{j<m} 1/j!, whose terms from j = 178 on are all 0.0
            recip = math.fsum(self._recip[:m]) if m < 178 else self._recip_total
            try:
                # (m-1)! is exact; its float conversion rounds once and
                # raises OverflowError past 170!
                value = factorial * _E_INV * recip
            except OverflowError:
                value = None
            return value, math.log(factorial) + math.log(recip) - 1.0
        j, value, log_g = self._odd if self._odd[0] <= k else self._odd_start
        while j < k:  # Gamma(j/2 + 1, 1) = (j/2) Gamma(j/2, 1) + e^-1
            s = j / 2.0
            if value is not None:
                value = s * value + _E_INV
                if math.isinf(value):
                    value = None
            log_g = _log_sum(math.log(s) + log_g, -1.0)
            j += 2
        self._odd = (k, value, log_g)
        # the float recurrence is still far from overflow up to k = 340
        return value, (math.log(value) if k <= 340 else log_g)


_GAMMA_AT_ONE = _GammaAtOne()


def upper_incomplete_gamma_at_one(s: HalfInteger) -> float:
    """Gamma(s, 1) for integer or half-integer s >= 1/2.

    Exact in the sense that the only errors are float rounding of the
    closed forms above; relative error stays near machine epsilon.
    Raises OverflowError once the value itself exceeds the double
    range (s around 171); cly_constant_log works in logs beyond it.
    """
    if not isinstance(s, HalfInteger):
        raise TypeError("s must be a HalfInteger")
    value, _ = _GAMMA_AT_ONE.at(s.twice)
    if value is None:
        raise OverflowError(f"Gamma(s, 1) exceeds the double range at s={s.twice}/2")
    return value


def _check_dimension(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"dimension must be an int, got {type(n).__name__}")
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")


def _float_dimension(n: int) -> float:
    """n as a float, where it first becomes one; past the double range, OverflowError naming n."""
    try:
        return float(n)
    except OverflowError:
        raise OverflowError(f"dimension leaves the double range at n={n}") from None


@lru_cache(maxsize=None)
def cly_constant(n: int) -> float:
    """C_n = n^(n/2) e Gamma(n/2, 1) / 2 as a double.

    Raises OverflowError once C_n leaves the double range (from
    n = 167 on); cly_constant_log has no such ceiling.
    """
    _check_dimension(n)
    if cly_constant_log(n).log_mag > _OVERFLOW_LOG:
        raise OverflowError(f"C_n exceeds the double range at n={n}; use cly_constant_log")
    if n % 2 == 0:
        half_power = float(n ** (n // 2))  # exact integer power
    else:
        half_power = math.pow(n, n / 2.0)
    return half_power * math.e * _GAMMA_AT_ONE.at(n)[0] / 2.0


# Bounded, unlike cly_constant (which raises past n = 166): a sweep over
# hundreds of thousands of n would otherwise keep one LogScalar per n for
# the life of the process.  1024 holds every n of a 2:400 grid.
@lru_cache(maxsize=1024)
def cly_constant_log(n: int) -> LogScalar:
    """C_n in log form, usable at any dimension that fits in a double (_float_dimension)."""
    _check_dimension(n)
    log_mag = (_float_dimension(n) / 2.0) * math.log(n) + 1.0 + _GAMMA_AT_ONE.at(n)[1] - math.log(2.0)
    return LogScalar(1, log_mag)


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
    _check_dimension(n)
    log_nc = math.log(n) + cly_constant_log(n).log_mag
    if log_nc > _OVERFLOW_LOG:
        raise OverflowError(
            f"n*C_n exceeds the double range at n={n}; exponent-scale formulas stop here"
        )
    return n * cly_constant(n)

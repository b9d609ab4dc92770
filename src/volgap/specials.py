"""Upper incomplete gamma values at 1 and the heat-kernel constant C_n.

Everything here reduces to Gamma(s, 1) = integral_1^inf e^-t t^(s-1) dt
for s a positive integer or half-integer.  Two exact routes avoid any
quadrature at runtime:

  integer s = m:      Gamma(m, 1) = (m-1)! e^-1 sum_{j<m} 1/j!
  half-odd s:         Gamma(s+1, 1) = s Gamma(s, 1) + e^-1, seeded at
                      Gamma(1/2, 1) = sqrt(pi) (1 - erf(1))

erf(1) comes from the alternating Maclaurin series, truncated once a
term drops below 1e-17, which is past double precision.

The constant attached to dimension n is

  C_n = n^(n/2) e Gamma(n/2, 1) / 2

so C_2 = 1 and C_4 = 16 exactly, and C_3 = 3.5825810...  C_n grows
roughly like (n/2)! n^(n/2) and leaves the double range near n = 170;
callers that only need log C_n should use cly_constant_log, which is
good for any n the grid tools accept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .logdomain import LogScalar, _log_sum

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


@lru_cache(maxsize=None)
def _gamma_upper_seed_half() -> float:
    # Gamma(1/2, 1) = sqrt(pi) erfc(1)
    return math.sqrt(math.pi) * (1.0 - erf_series(1.0))


@lru_cache(maxsize=None)
def _recip_factorial_sum(m: int) -> float:
    # sum_{j=0}^{m-1} 1/j!, between 1 and e
    terms = []
    t = 1.0
    for j in range(m):
        terms.append(t)
        t /= j + 1
    return math.fsum(terms)


@lru_cache(maxsize=None)
def _gamma_upper_float(twice_s: int) -> float:
    if twice_s % 2 == 0:
        m = twice_s // 2
        # (m-1)! is exact as a Python int; the float conversion is the
        # only rounding and it raises OverflowError past 170!
        return math.factorial(m - 1) * math.exp(-1.0) * _recip_factorial_sum(m)
    g = _gamma_upper_seed_half()
    s = 0.5
    e_inv = math.exp(-1.0)
    while 2.0 * s < twice_s:
        g = s * g + e_inv
        s += 1.0
    return g


@lru_cache(maxsize=None)
def _gamma_upper_log(twice_s: int) -> float:
    if twice_s % 2 == 0:
        m = twice_s // 2
        return math.log(math.factorial(m - 1)) + math.log(_recip_factorial_sum(m)) - 1.0
    if twice_s <= 340:  # float recurrence still far from overflow
        return math.log(_gamma_upper_float(twice_s))
    log_g = math.log(_gamma_upper_seed_half())
    s = 0.5
    while 2.0 * s < twice_s:
        log_g = _log_sum(math.log(s) + log_g, -1.0)
        s += 1.0
    return log_g


def upper_incomplete_gamma_at_one(s: HalfInteger) -> float:
    """Gamma(s, 1) for integer or half-integer s >= 1/2.

    Exact in the sense that the only errors are float rounding of the
    closed forms above; relative error stays near machine epsilon.
    Raises OverflowError once the value itself exceeds the double
    range (s around 171); cly_constant_log works in logs beyond it.
    """
    if not isinstance(s, HalfInteger):
        raise TypeError("s must be a HalfInteger")
    return _gamma_upper_float(s.twice)


def _check_dimension(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"dimension must be an int, got {type(n).__name__}")
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")


@lru_cache(maxsize=None)
def cly_constant(n: int) -> float:
    """C_n = n^(n/2) e Gamma(n/2, 1) / 2 as a double.

    Raises OverflowError once C_n leaves the double range (near
    n = 170); cly_constant_log has no such ceiling.
    """
    _check_dimension(n)
    if cly_constant_log(n).log_mag > 709.0:
        raise OverflowError(f"C_n exceeds the double range at n={n}; use cly_constant_log")
    if n % 2 == 0:
        half_power = float(n ** (n // 2))  # exact integer power
    else:
        half_power = math.pow(n, n / 2.0)
    return half_power * math.e * _gamma_upper_float(n) / 2.0


@lru_cache(maxsize=None)
def cly_constant_log(n: int) -> LogScalar:
    """C_n in log form, usable at any dimension the tools accept."""
    _check_dimension(n)
    log_mag = (n / 2.0) * math.log(n) + 1.0 + _gamma_upper_log(n) - math.log(2.0)
    return LogScalar(1, log_mag)


def nc_product(n: int) -> float:
    """n * C_n as a double; this is the exponent scale in the bounds.

    Raises OverflowError when n C_n itself no longer fits in a double
    (n = 166 and up), which is the hard ceiling for every formula that
    needs e^(alpha n C_n) even in log form.
    """
    _check_dimension(n)
    log_nc = math.log(n) + cly_constant_log(n).log_mag
    if log_nc > 709.0:
        raise OverflowError(
            f"n*C_n exceeds the double range at n={n}; exponent-scale formulas stop here"
        )
    return n * cly_constant(n)

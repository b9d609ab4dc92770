"""Laplace spectrum of the round n-sphere and its heat trace.

Level k of S^n carries eigenvalue lambda_k = k(k + n - 1) with
multiplicity m_k = binom(n+k, n) - binom(n+k-2, n), both exact
integers here.  The heat trace Z(t) = sum_k m_k e^(-lambda_k t) is
summed level by level; consecutive multiplicities follow the exact
integer recurrence

  m_(k+1) = m_k (2k+n+1)(k+n-1) / ((2k+n-1)(k+1)),    m_0 = 1,

so each level costs one integer update, one log and one exp.

Truncation is certified by the term ratio

  r_k = T_(k+1) / T_k = (m_(k+1) / m_k) e^(-(2k+n) t),

which strictly decreases in k for n >= 2: the multiplicity factor is
non-increasing and the exponential strictly decreasing.  Once
r_(K+1) < 1, every later ratio is smaller still, so the levels beyond
K sum to at most T_(K+1) / (1 - r_(K+1)).  The sum stops at the first K
where that bound is negligible against the partial sum.  At small t
this needs about sqrt(33 / t) levels on S^2 and a few percent more in
higher dimension, where waiting for consecutive terms to halve would
need ln 2 / (2t).

trace_bound gives the closed comparison estimate

  1 + (n+1) e^(-nt) + C_n t^-1 e^(-nt)   for t >= 1,

which the summed trace must never exceed.  Confirming that dominance
over a grid is one of the headline checks in the claim suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .specials import _check_dimension, cly_constant_log

# Stop once the omitted tail would change nothing at double precision,
# so that tail_bound <= 1e-14 * value always holds on return.  The levels
# this needs beyond a looser target cost almost nothing because the
# terms decay like e^(-(2k+n)t) per step.
_TAIL_EPS = 5e-15

_MAX_LEVELS = 200_000


@dataclass(frozen=True)
class SpectralLevel:
    k: int
    eigenvalue: int
    multiplicity: int


@dataclass(frozen=True)
class TraceResult:
    value: float
    levels_used: int
    tail_bound: float


def sphere_level(n: int, k: int) -> SpectralLevel:
    """Exact eigenvalue and multiplicity of level k on S^n."""
    _check_dimension(n)
    if not isinstance(k, int) or isinstance(k, bool):
        raise TypeError(f"level index must be an int, got {type(k).__name__}")
    if k < 0:
        raise ValueError(f"level index must be non-negative, got {k}")
    eigenvalue = k * (k + n - 1)
    multiplicity = math.comb(n + k, n) - (math.comb(n + k - 2, n) if k >= 2 else 0)
    return SpectralLevel(k=k, eigenvalue=eigenvalue, multiplicity=multiplicity)


def heat_trace(n: int, t: float) -> TraceResult:
    """Partial heat trace sum_{k<=K} m_k e^(-lambda_k t) with tail certificate.

    Summation stops at the first K where the term ratio r_(K+1) is below
    1 and T_(K+1) / (1 - r_(K+1)), which bounds every omitted level, is
    at most 5e-15 times the partial sum; that bound is
    returned as tail_bound.  It covers truncation only: the rounding of
    the partial sum itself, a few ulps per summed level at worst, is
    not included.  Each term is exp(log m_k - lambda_k t), so a huge
    multiplicity never overflows while the product is an ordinary
    double.  Raises RuntimeError when t is too small for the tail to be
    certified within the level cap, and OverflowError when the trace,
    or a single term of it, exceeds the double range.
    """
    _check_dimension(n)
    if not (t > 0.0) or math.isinf(t) or math.isnan(t):
        raise ValueError(f"time must be positive and finite, got {t!r}")

    # Level j is known once the sum holds levels 0..j-1: T_j and
    # r_j = T_(j+1) / T_j decide whether the sum may stop before it.
    total = 0.0
    term = 1.0  # T_0
    mult = n + 1  # m_1
    term_log = math.log(mult) - n * t  # log T_1
    try:
        for j in range(1, _MAX_LEVELS + 2):
            total += term
            mult = mult * (2 * j + n + 1) * (j + n - 1) // ((2 * j + n - 1) * (j + 1))
            next_log = math.log(mult) - (j + 1) * (j + n) * t  # log T_(j+1)
            term = math.exp(term_log) if term_log > -745.0 else 0.0  # T_j
            # log r_j; once lambda_j t overflows both logs are -inf, and so is log r_j
            log_ratio = next_log - term_log if term_log > -math.inf else -math.inf
            if log_ratio < 0.0:
                tail = term / -math.expm1(log_ratio)
                if tail <= _TAIL_EPS * total:
                    break
            term_log = next_log
        else:
            raise RuntimeError(f"heat trace did not converge within {_MAX_LEVELS} levels (t={t})")
    except OverflowError:  # a single term already leaves the double range
        total = math.inf
    if total == math.inf:  # an infinite sum also passes the stop test
        raise OverflowError(f"heat trace exceeds the double range at n={n}, t={t!r}")
    return TraceResult(value=total, levels_used=j, tail_bound=tail)


def trace_bound(n: int, t: float) -> float:
    """Closed upper bound 1 + (n+1) e^(-nt) + C_n t^-1 e^(-nt), t >= 1.

    Raises OverflowError, naming n and t, when the bound exceeds the
    double range.
    """
    _check_dimension(n)
    if not (t >= 1.0) or math.isinf(t) or math.isnan(t):
        raise ValueError(f"the closed bound needs t >= 1, got {t!r}")
    decay = -n * t
    linear = (n + 1) * math.exp(decay) if decay > -745.0 else 0.0
    corr_log = cly_constant_log(n).log_mag + decay - math.log(t)
    try:
        correction = math.exp(corr_log) if corr_log > -745.0 else 0.0
    except OverflowError:
        raise OverflowError(
            f"closed trace bound exceeds the double range at n={n}, t={t!r}"
        ) from None
    return 1.0 + linear + correction

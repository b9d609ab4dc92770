"""Laplace spectrum of the round n-sphere and its heat trace.

Level k of S^n carries eigenvalue lambda_k = k(k + n - 1) with
multiplicity m_k = binom(n+k, n) - binom(n+k-2, n), both exact
integers here.  The heat trace Z(t) = sum_k m_k e^(-lambda_k t) is
summed level by level; consecutive multiplicities follow the exact
integer recurrence

  m_(k+1) = m_k (2k+n+1)(k+n-1) / ((2k+n-1)(k+1)),    m_0 = 1,

so each level costs one integer update, one log and one exp.  The
eigenvalue is kept as a running integer too, lambda_(k+1) = lambda_k +
2k + n.

Truncation is certified by the term ratio

  r_k = T_(k+1) / T_k = (m_(k+1) / m_k) e^(-(2k+n) t),

which strictly decreases in k for n >= 2: the multiplicity factor is
non-increasing and the exponential strictly decreasing.  Once
r_(K+1) < 1, every later ratio is smaller still, so the levels beyond
K sum to at most T_(K+1) / (1 - r_(K+1)).  The sum stops at the first K
where that bound is negligible against the partial sum.  Since the
bound is never below T_(K+1) itself (the rounded quotient of a term by
a divisor in (0, 1] is at least the term), the ratio is only formed at
levels whose term is already at most the stop target; every other level
costs the update, the log and the exp alone.  The underflow guard,
which zeroes a term whose log is at most logdomain._UNDERFLOW_LOG, sits
in that branch too: such a term is at most 5e-324, below the target of
any sum (which is at least 1), so it always lands there.  The stop
level, the sum and the bound are therefore the same doubles as with
the ratio formed at every level.  At small t this needs about
sqrt(33 / t) levels on S^2 and a few percent more in higher dimension,
where waiting for consecutive terms to halve would need ln 2 / (2t).

sphere_level returns a SpectralLevel and heat_trace a TraceResult (the
value, the levels summed and the tail bound), both named tuples.

trace_bound gives the closed comparison estimate

  1 + (n+1) e^(-nt) + C_n t^-1 e^(-nt)   for t >= 1,

which the summed trace must never exceed.  It needs no underflow
guard: an exp that underflows gives at most 5e-324 without raising,
and both terms are added to 1.0, which such a term cannot change.  The
claim suite checks that dominance at t = 1, which decides every t >= 1
(LEM3_TRACE_BOUND).
"""

from __future__ import annotations

import math
from collections import namedtuple

from .logdomain import _UNDERFLOW_LOG, _as_float, _check_int, _check_positive
from .specials import cly_constant_log

# Stop once the omitted tail would change nothing at double precision,
# so that tail_bound <= 1e-14 * value always holds on return.  The levels
# this needs beyond a looser target cost almost nothing because the
# terms decay like e^(-(2k+n)t) per step.
_TAIL_EPS = 5e-15

_MAX_LEVELS = 200_000


class SpectralLevel(namedtuple("SpectralLevel", "k eigenvalue multiplicity")):
    __slots__ = ()


class TraceResult(namedtuple("TraceResult", "value levels_used tail_bound")):
    __slots__ = ()


def sphere_level(n: int, k: int) -> SpectralLevel:
    """Exact eigenvalue and multiplicity of level k on S^n."""
    _check_int(n, "n", 2)
    _check_int(k, "k", 0)
    eigenvalue = k * (k + n - 1)
    multiplicity = math.comb(n + k, n) - (math.comb(n + k - 2, n) if k >= 2 else 0)
    return SpectralLevel(k=k, eigenvalue=eigenvalue, multiplicity=multiplicity)


def heat_trace(n: int, t: float) -> TraceResult:
    """Partial heat trace sum_{k<=K} m_k e^(-lambda_k t) with tail certificate.

    Summation stops at the first K where the term ratio r_(K+1) is below
    1 and T_(K+1) / (1 - r_(K+1)), which bounds every omitted level, is
    at most 5e-15 times the partial sum; that bound is
    returned as tail_bound.  As the bound is at least T_(K+1), the ratio
    is only formed once T_(K+1) itself is at most that target, and a
    term that underflows (log at most logdomain._UNDERFLOW_LOG) is
    zeroed there, where it always lands; the result is the one a ratio
    test at every level gives, bit for bit.  It covers truncation only:
    the rounding of the partial sum itself, a few ulps per summed level
    at worst, is not included.  Each term is exp(log m_k - lambda_k t),
    so a huge multiplicity never overflows while the product is an
    ordinary double.  Raises RuntimeError when t is too small for the
    tail to be certified within the level cap, and OverflowError when
    n, the trace, or a single term of it, exceeds the double range.
    """
    _check_int(n, "n", 2)
    _check_positive(t, "time")

    log, exp, expm1 = math.log, math.exp, math.expm1
    eps, underflow = _TAIL_EPS, _UNDERFLOW_LOG
    # Level j is known once the sum holds levels 0..j-1: T_j and
    # r_j = T_(j+1) / T_j decide whether the sum may stop before it.
    total = 0.0
    term = 1.0  # T_0
    mult = n + 1  # m_1
    lam = n  # lambda_1
    term_log = log(mult) - _as_float(n, "dimension", n) * t  # log T_1
    try:
        for j in range(1, _MAX_LEVELS + 2):
            total += term
            step = 2 * j + n  # lambda_(j+1) - lambda_j
            mult = mult * (step + 1) * (j + n - 1) // ((step - 1) * (j + 1))
            lam += step  # lambda_(j+1) = (j+1)(j+n), the same int
            next_log = log(mult) - lam * t  # log T_(j+1)
            term = exp(term_log)  # T_j
            # The tail bound T_j / (1 - r_j) is at least T_j, so only a
            # term at most the stop target can stop the sum.  A term_log
            # at most the underflow log always lands here: its exp is at
            # most 5e-324 and the sum is at least 1.
            if term <= eps * total:
                if term_log <= underflow:
                    term = 0.0
                # log r_j; once lambda_j t overflows both logs are -inf, and so is log r_j
                log_ratio = next_log - term_log if term_log > -math.inf else -math.inf
                if log_ratio < 0.0:
                    tail = term / -expm1(log_ratio)
                    if tail <= eps * total:
                        break
            term_log = next_log
        else:
            raise RuntimeError(
                f"heat trace did not converge within {_MAX_LEVELS} levels at n={n}, t={t!r}"
            )
    except OverflowError:  # a single term already leaves the double range
        total = math.inf
    if total == math.inf:  # an infinite sum also passes the stop test
        raise OverflowError(f"heat trace exceeds the double range at n={n}, t={t!r}")
    return TraceResult(value=total, levels_used=j, tail_bound=tail)


def trace_bound(n: int, t: float) -> float:
    """Closed upper bound 1 + (n+1) e^(-nt) + C_n t^-1 e^(-nt), t >= 1.

    Raises OverflowError, naming n and t, when the bound exceeds the
    double range, and naming n when n itself does.
    """
    _check_int(n, "n", 2)
    if not (t >= 1.0) or math.isinf(t) or math.isnan(t):
        raise ValueError(f"the closed bound needs t >= 1, got {t!r}")
    decay = -_as_float(n, "dimension", n) * t
    linear = (n + 1) * math.exp(decay)
    corr_log = cly_constant_log(n) + decay - math.log(t)
    try:
        correction = math.exp(corr_log)
    except OverflowError:
        raise OverflowError(
            f"closed trace bound exceeds the double range at n={n}, t={t!r}"
        ) from None
    return 1.0 + linear + correction

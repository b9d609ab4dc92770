"""Laplace spectrum of the round n-sphere and its heat trace.

Level k of S^n carries eigenvalue lambda_k = k(k + n - 1) with
multiplicity m_k = binom(n+k, n) - binom(n+k-2, n), both exact
integers here.  The heat trace Z(t) = sum_k m_k e^(-lambda_k t) is
summed level by level at t >= 1e-6 (below it, see the closed forms
further down); consecutive multiplicities follow the exact integer
recurrence

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

Below t = _CLOSED_T = 1e-6, where the level sum's rounding would pass the
1e-14 its tail bound promises, the trace of S^n is first evaluated in
closed form, for odd n <= 155 and even n <= 88.  With rho = (n-1)/2 and
nu = k + rho, lambda_k = nu^2 - rho^2 and m_k = P(nu) = 2 nu prod_(i=1..n-2)
(nu - rho + i) / (n-1)!, so Z(t) = e^(rho^2 t) sum_nu P(nu) e^(-nu^2 t).
Its coefficients are formed in exact integers, each turned into a float
by one rounded division.

- Odd n: nu runs over the integers from rho, and P is even and vanishes
  at every |nu| < rho, so the sum is half the sum over all integers.
  Poisson summation gives Z = e^(rho^2 t) / 2 sum_i p_i Gamma(i + 1/2)
  t^(-i-1/2) for P(nu) = sum_i p_i nu^(2i), up to the terms m != 0 of
  the dual sum.  Shifting each of their integrals by i pi m / t bounds
  them all by e^(rho^2 t) 4/(n-1)! sqrt(pi/t) A^rho e^(-pi^2/t), A =
  (pi^2 + rho t + rho^2 t^2) / t^2, once 4^rho e^(-3 pi^2/t) <= 1/2,
  as it is far below t = 1e-6; that bound is 0.0 in doubles there.
- Even n: nu runs over the half-integers from rho, and P is odd and
  vanishes at the smaller positive ones.  The midpoint Euler-Maclaurin
  formula on [0, inf), with P(nu) = sum_i c_i nu^(2i+1), gives
  Z = e^(rho^2 t) [sum_i c_i i! / (2 t^(i+1)) + sum_(j<=4) (1 - 2^(1-2j))
  B_2j / (2j) sum_(i+m=j-1) c_i (-t)^m / m!] plus a remainder at most
  e^(rho^2 t) (2 - 2^(-9)) |B_10| / 10! int_0^inf |f^(10)|, f(x) =
  P(x) e^(-t x^2) (DLMF 2.10(i)); _euler_maclaurin bounds the integral.
  On S^2 this is Mulholland's 1/t + 1/3 + t/15 + ...

The closed form is taken only where its bound is at most 5e-15 of the
value, the level sum's own target, and the absolute values of its terms
sum to at most twice the value, as it is at every n and t below 1e-6 where
it is tried.  Above those n the levels are summed as above t = 1e-6: an
odd n past 155 overflows there, and an even n past 88 reaches the level
cap where t is tiny and the trace still a double (n = 90 near 2.5e-9).

sphere_level returns a SpectralLevel and heat_trace a TraceResult (the
value, the levels summed, 0 for a closed form, and the tail bound), both
named tuples.

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

# Below _CLOSED_T the trace is evaluated in closed form.  Above it the
# level sum is accurate: against the exact trace its error is at most
# 7.1e-15 of the value at t >= 1e-6 for n in {2, 3, 5, 8}, while at 3e-7
# and 1e-7 its rounding, which grows like the root of the level count,
# reaches 1.5e-14 to 2.1e-14, past the 1e-14 its tail bound promises.
_CLOSED_T = 1e-6
# Odd n up to _POISSON_MAX_N: from n = 157 on the trace already leaves the
# double range at _CLOSED_T, and so at every smaller t until n t is large,
# while the Poisson coefficients cost O(n^2) integer steps; the level sum
# finds the overflow in a few thousand levels.  Even n up to _EM_MAX_N, the
# largest even n whose Euler-Maclaurin remainder bound certifies every t
# below _CLOSED_T (at n = 90 it fails just below it).
_POISSON_MAX_N = 155
_EM_MAX_N = 88

# B_2, B_4, ..., B_10 as (numerator, denominator): the even-n closed form
# keeps the Euler-Maclaurin terms of B_2 to B_8 and bounds the rest by B_10.
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66))


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
    """The heat trace sum_k m_k e^(-lambda_k t) of S^n, with a bound on what it omits.

    Below t = _CLOSED_T (1e-6), for odd n <= 155 and even n <= 88, the
    trace is evaluated in closed form: Poisson summation for odd n,
    midpoint Euler-Maclaurin for even n (see the module docstring).
    levels_used is then 0, as no level was summed, and tail_bound bounds
    the terms the closed form drops.  It is taken only where that bound is
    at most 5e-15 times the value and the sum of the absolute values of
    its terms at most twice the value, which holds at every such n and t;
    at every other n and t the levels are summed.

    The level sum stops at the first K where the term ratio r_(K+1) is
    below 1 and T_(K+1) / (1 - r_(K+1)), which bounds every omitted
    level, is at most 5e-15 times the partial sum; that bound is
    returned as tail_bound.  As the bound is at least T_(K+1), the ratio
    is only formed once T_(K+1) itself is at most that target, and a
    term that underflows (log at most logdomain._UNDERFLOW_LOG) is
    zeroed there, where it always lands; the result is the one a ratio
    test at every level gives, bit for bit.  Each term is
    exp(log m_k - lambda_k t), so a huge multiplicity never overflows
    while the product is an ordinary double.

    Either way tail_bound covers truncation only: the rounding of the
    value itself is not included (a few ulps per summed level at worst,
    a few ulps in all for the closed form).  Raises RuntimeError when
    the levels needed to certify the tail pass the level cap (a tiny t
    at an even n > 88 where the trace is still a double), and
    OverflowError when n, the trace, or a single term of it, exceeds the
    double range.
    """
    _check_int(n, "n", 2)
    _check_positive(t, "time")
    result = None
    if t < _CLOSED_T and n <= (_POISSON_MAX_N if n % 2 else _EM_MAX_N):
        result = _closed_form(n, t)
    if result is None:
        result = _level_sum(n, t)
    if result.value == math.inf:
        raise OverflowError(f"heat trace exceeds the double range at n={n}, t={t!r}")
    return result


def _level_sum(n: int, t: float) -> TraceResult:
    """The trace level by level; an infinite value where it leaves the double range."""
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
                    if tail <= eps * total:  # an infinite sum passes too
                        break
            term_log = next_log
        else:
            raise RuntimeError(
                f"heat trace did not converge within {_MAX_LEVELS} levels at n={n}, t={t!r}"
            )
    except OverflowError:  # a single term already leaves the double range
        return TraceResult(value=math.inf, levels_used=j, tail_bound=math.inf)
    return TraceResult(value=total, levels_used=j, tail_bound=tail)


def _closed_form(n: int, t: float) -> TraceResult | None:
    """The trace in closed form, or None where its bounds do not certify it.

    An infinite value is returned as it is: the closed form is a sum
    whose leading term dominates (its absolute sum is at most twice the
    value wherever it is taken), so the trace leaves the double range.
    """
    value, size, tail = (_poisson if n % 2 else _euler_maclaurin)(n, t)
    growth = math.exp((n - 1) ** 2 / 4 * t)  # e^(rho^2 t)
    value, size, tail = growth * value, growth * size, growth * tail
    if value == math.inf or (tail <= _TAIL_EPS * value and size <= 2.0 * value):
        return TraceResult(value=value, levels_used=0, tail_bound=tail)
    return None


def _monic(roots) -> list:
    """The integer coefficients, constant first, of the product of (x - r) over roots."""
    coeffs = [1]
    for r in roots:
        coeffs = [low - r * a for a, low in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def _horner(coeffs, x: float) -> tuple:
    """sum_i coeffs[i] x^i and sum_i |coeffs[i]| x^i, for x > 0 (inf included)."""
    value, size = coeffs[-1], abs(coeffs[-1])
    for a in reversed(coeffs[:-1]):
        value = value * x + a
        size = size * x + abs(a)
    return value, size


def _poisson(n: int, t: float) -> tuple:
    """Odd n: the value, the absolute sum and the dropped terms' bound, each over e^(rho^2 t).

    P(nu) = 2 Q(nu^2) / (n-1)! with Q(x) = x prod_(j<rho) (x - j^2) and
    Gamma(i + 1/2) = sqrt(pi) (2i-1)!! / 2^i, so the sum is
    sqrt(pi/t) sum_i q_i (2i-1)!! / (n-1)! w^i with w = 1/(2t).
    """
    rho = (n - 1) // 2
    fact = math.factorial(n - 1)
    coeffs, odd = [], 1
    for i, q in enumerate(_monic([j * j for j in range(1, rho)]), 1):  # q: Q's x^i coefficient
        odd *= 2 * i - 1
        coeffs.append(q * odd / fact)
    w = 0.5 / t
    value, size = _horner(coeffs, w)
    front = math.sqrt(math.pi / t) * w
    # The dropped terms: 4 / (n-1)! sqrt(pi/t) A^rho e^(-pi^2/t), A = (pi^2 + rho t + rho^2 t^2) / t^2
    log_a = math.log(math.pi**2 + rho * t + rho * rho * t * t) - 2.0 * math.log(t)
    tail = math.exp(math.log(4 / fact) + 0.5 * math.log(math.pi / t) + rho * log_a - math.pi**2 / t)
    return front * value, front * size, tail


def _euler_maclaurin(n: int, t: float) -> tuple:
    """Even n: the value, the absolute sum and the remainder's bound, each over e^(rho^2 t).

    P(nu) = sum_i c_i nu^(2i+1) with c_i = 2 r_i 4^i / (4^h (n-1)!),
    where r_i are the coefficients of prod_(odd o < n-2) (Y - o^2),
    Y = 4 nu^2, and h = (n-2)/2 is the top i.
    """
    fact = math.factorial
    top = (n - 2) // 2
    r = _monic([o * o for o in range(1, n - 2, 2)])
    den = 4**top * fact(n - 1)
    # the integral: sum_i c_i i! / (2 t^(i+1)) = u sum_i e_i u^i, u = 1/t
    u = 1.0 / t
    value, size = _horner([r[i] * 4**i * fact(i) / den for i in range(top + 1)], u)
    value, size = value * u, size * u
    # The remainder after the terms of B_2..B_2k is at most (2 - 2^(1-2M))
    # |B_2M| / (2M)! int_0^inf |f^(2M)|, M = k + 1, f(x) = P(x) e^(-t x^2).
    # In y = sqrt(t) x each monomial is x^p e^(-t x^2) = t^(-p/2) y^p e^(-y^2),
    # and y^p = p!/2^p sum_l H_(p-2l) / (l! (p-2l)!) in Hermite polynomials,
    # with (d/dy)^(2M) (H_j e^(-y^2)) = H_(j+2M) e^(-y^2).  Cauchy-Schwarz
    # and their orthogonality bound int_0^inf |(d/dy)^(2M) (y^p e^(-y^2))|
    # by sqrt(pi) / 2 sqrt(sum_l (p!/(2^p l! (p-2l)!))^2 2^j j!), j = p-2l+2M,
    # hence the integral by t^M kappa sum_i |e_i| u^(i+1), kappa the largest
    # of those bounds at p = 2i+1 times 2 / i!.
    k = len(_BERNOULLI) - 1
    two_m = 2 * k + 2
    kappa = 0.0
    for i in range(top + 1):
        p = 2 * i + 1
        squares = sum((fact(p) // (fact(l) * fact(p - 2 * l))) ** 2 * 2.0 ** (two_m - p - 2 * l)
                      * fact(p - 2 * l + two_m) for l in range(i + 1))
        kappa = max(kappa, math.sqrt(math.pi * squares) / fact(i))
    b_num, b_den = _BERNOULLI[k]
    tail = size
    for _ in range(two_m // 2):  # t^M a factor at a time, before kappa, which would overflow at n = 58
        tail *= t
    tail *= 2 * (2**two_m - 1) * abs(b_num) / (2**two_m * b_den * fact(two_m)) * kappa
    # the terms of B_2j, j = 1..k: G_j sum_(i+m=j-1) c_i (-t)^m / m!,
    # G_j = (1 - 2^(1-2j)) B_2j / (2j), gathered by the power m of t
    # into one exact fraction each
    power = 1.0
    for m in range(k):
        num, dnm = 0, 1
        for i in range(min(top, k - 1 - m) + 1):
            j = i + m + 1
            b_num, b_den = _BERNOULLI[j - 1]
            a, b = (4**j - 2) * b_num * r[i] * 4**i, 4**j * j * b_den
            num, dnm = num * b + a * dnm, dnm * b
        term = (-1) ** m * num / (dnm * den * fact(m)) * power
        value, size = value + term, size + abs(term)
        power *= t
    return value, size, tail


def trace_bound(n: int, t: float) -> float:
    """Closed upper bound 1 + (n+1) e^(-nt) + C_n t^-1 e^(-nt), t >= 1.

    Raises OverflowError, naming n and t, when the bound exceeds the
    double range, and naming n when n itself does.
    """
    _check_int(n, "n", 2)
    if not 1.0 <= t < math.inf:
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

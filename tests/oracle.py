"""The one mpmath reference for every quantity of the paper, for the tests.

Each function is memoised and runs at DPS digits, under workdps(DPS) unless its caller
holds DPS digits already, as a test that computes on the results does.  None reads volgap.

  C_n = n^(n/2) e Gamma(n/2, 1) / 2,  B_(n,alpha) = alpha n + alpha + 1 + alpha e^(alpha n C_n),  B_n = B_(n,2)
  E = alpha n C_n (1 - (n+4) (n+2 ell)^(2/n) 4^(1/n)), and the case (i) bump is alpha (n+ell+2) e^E
  excess: (2 ell - 1) / B_n for CLY, and over B_(n,alpha) alpha ell - 1 for THM1, alpha ell - 1 + bump
  for THM2_CASE1 and 2 alpha ell - 1 for THM2_CASE2, with alpha a number or "auto": 1/ell + u at
  the root u of u (1 + ell u) n C_n = 1 + (n+1+ell) e^(-alpha n C_n)
"""

from contextlib import nullcontext
from functools import cache, wraps
from itertools import count
from math import comb, factorial

import mpmath

DPS = 40
with mpmath.workdps(DPS):
    _LN10 = +mpmath.ln10


def _memo(f):
    @cache
    @wraps(f)
    def run(*args, **kwargs):
        with nullcontext() if mpmath.mp.dps == DPS else mpmath.workdps(DPS):
            return f(*args, **kwargs)
    return run


@_memo
def gamma_at_one(twice: int):
    """Gamma(twice/2, 1)."""
    return mpmath.gammainc(mpmath.mpf(twice) / 2, 1, mpmath.inf)


@_memo
def c(n: int):
    return mpmath.mpf(n) ** (mpmath.mpf(n) / 2) * mpmath.e * gamma_at_one(n) / 2


@_memo
def log_c(n: int):
    return mpmath.log(c(n))


@_memo
def nc(n: int):
    return n * c(n)


@_memo
def root(n: int, ell: int):
    """u at alpha = "auto": the root of u (1 + ell u) n C_n = 1 where (n+1+ell) e^(-n C_n / ell),
    which bounds the rest of the right side, is below the working precision; findroot from it elsewhere."""
    ncn = nc(n)
    u = 2 / (ncn * (1 + mpmath.sqrt(1 + 4 * ell / ncn)))
    if mpmath.log(n + 1 + ell) - ncn / ell < -DPS * _LN10:
        return u
    return mpmath.findroot(
        lambda u: u * (1 + ell * u) * ncn - 1 - (n + 1 + ell) * mpmath.exp(-(1 / mpmath.mpf(ell) + u) * ncn), u)


@_memo
def tuning(n: int, ell: int, alpha):
    """(alpha, alpha ell - 1); at "auto" the second is ell u, exact however small u is."""
    if alpha == "auto":
        return 1 / mpmath.mpf(ell) + root(n, ell), ell * root(n, ell)
    return mpmath.mpf(alpha), mpmath.mpf(alpha) * ell - 1


@_memo
def log_b(n: int, alpha):
    """log B_(n,alpha) at a number alpha; log B_n at alpha = 2."""
    alpha = mpmath.mpf(alpha)
    return mpmath.log(alpha * n + alpha + 1 + alpha * mpmath.exp(alpha * nc(n)))


@_memo
def _growth(n: int, ell: int):  # (n+4) (n+2 ell)^(2/n) 4^(1/n), the factor of E free of alpha
    return (n + 4) * mpmath.mpf(4 * (n + 2 * ell) ** 2) ** (mpmath.mpf(1) / n)


@_memo
def exponent(n: int, ell: int, alpha):  # E at a number alpha
    return mpmath.mpf(alpha) * nc(n) * (1 - _growth(n, ell))


@_memo
def log_excess(variant: str, n: int, ell: int, alpha):
    """The log of variant's excess; CLY's is at alpha = 2 whatever alpha is."""
    if variant == "CLY":
        return mpmath.log(2 * ell - 1) - log_b(n, 2)
    a, tuned = tuning(n, ell, alpha)
    if variant == "THM2_CASE1":  # plus the case (i) bump
        tuned += a * (n + ell + 2) * mpmath.exp(exponent(n, ell, a))
    elif variant == "THM2_CASE2":
        tuned = 2 * tuned + 1
    return mpmath.log(tuned) - log_b(n, a)


@_memo
def heat_trace(n: int, t, start: int = 0):
    """sum_(k >= start) m_k e^(-lambda_k t) on S^n, summed until a term is below 10^-DPS of the sum."""
    total, t = mpmath.mpf(0), mpmath.mpf(t)
    for k in count(start):
        term = (comb(n + k, n) - (comb(n + k - 2, n) if k >= 2 else 0)) * mpmath.exp(-k * (k + n - 1) * t)
        total += term
        if k >= start + 2 and term < total * mpmath.mpf(10) ** -DPS:
            return total


@_memo
def small_time_trace(n: int, t, head: int = 50):
    """The heat trace at any t > 0: levels 0..head-1 exactly, then mpmath.sumem for the rest.

    The tail is Euler-Maclaurin on m_k e^(-lambda_k t) with m_k as its polynomial in k,
    (2k+n-1) (k+1)...(k+n-2) / (n-1)!, and its integral by quad split at the peak of the
    terms, near k = sqrt(n / t); one unsplit quad is off by 1e-16 at t = 1e-12.
    """
    t = mpmath.mpf(t)
    poly = [n - 1, 2]  # 2k + n - 1, constant first
    for i in range(1, n - 1):
        poly = [i * a + b for a, b in zip(poly + [0], [0] + poly)]
    coeffs = [mpmath.mpf(c) / factorial(n - 1) for c in reversed(poly)]

    def term(k):
        return mpmath.polyval(coeffs, k) * mpmath.exp(-k * (k + n - 1) * t)

    peak = mpmath.sqrt(n / t)
    tail = mpmath.sumem(term, [head, mpmath.inf], integral=mpmath.quad(term, [head, peak, 4 * peak, mpmath.inf]))
    return mpmath.fsum(term(k) for k in range(head)) + tail

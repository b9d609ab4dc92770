"""Root-finding for the tuning parameters behind the gap bounds.

The central objective is

  f1(alpha) = (alpha ell - 1) / (alpha n + alpha + 1 + alpha e^(alpha n C_n)),

whose unique stationary point alpha* maximises the excess of the tuned
bound.  Setting ell = 1 specialises to the classical objective, and
its critical point gamma_n solves

  (g^2 n C_n - g n C_n - 1) e^(g n C_n) = n + 2.

Numerically the story is all about scale.  gamma_n - 1 behaves like
1/(n C_n), which is 0.43 at n = 2 but 2e-35 at n = 30: the root is far
closer to 1 than a double can express through gamma itself.  All
solves therefore run in the excess coordinate u = alpha - 1/ell with a
geometric (log-spaced) bisection, on the equivalent well-scaled form
of the equation

  u (1 + ell u) n C_n = 1 + (n + 1 + ell) e^(-alpha n C_n).

RootResult reports the bracket, root and residual in that coordinate
and carries the additive base, so tiny roots stay exact while
value = base + root recovers the familiar parameter when it is
representable.  The residual is the log of LHS/RHS above, a normalised
form of the defining equation that stays O(1) at every dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import _log_denominator, b_alpha
from .logdomain import LogScalar, log_add, log_div
from .specials import cly_constant, nc_product


class BracketError(ValueError):
    """The supplied or derived bracket does not straddle a sign change."""


class EvaluationError(ArithmeticError):
    """The objective produced NaN or an otherwise unusable value."""


@dataclass(frozen=True)
class RootResult:
    """Bracketed root in the coordinate the solver actually bisected.

    base shifts that coordinate: the solved parameter is base + root.
    Plain bisect uses base = 0; the tuning solvers use base = 1/ell so
    that a root excess of 1e-30 is still a first-class float.
    """

    bracket_lo: float
    bracket_hi: float
    root: float
    residual: float
    iterations: int
    base: float = 0.0

    @property
    def value(self) -> float:
        return self.base + self.root


def _check_finite(name: str, x: float) -> float:
    if math.isnan(x):
        raise EvaluationError(f"{name} evaluated to NaN")
    return x


def bisect(f, lo: float, hi: float, tol: float = 1e-12) -> RootResult:
    """Plain deterministic bisection on [lo, hi] with f(lo) f(hi) < 0.

    Terminates when the bracket width is at most tol, in at most
    ceil(log2((hi - lo)/tol)) iterations, or immediately if a midpoint
    lands exactly on a zero.
    """
    if not (lo < hi) or math.isinf(lo) or math.isinf(hi):
        raise ValueError(f"need a finite bracket with lo < hi, got [{lo!r}, {hi!r}]")
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol!r}")
    flo = _check_finite("f(lo)", f(lo))
    fhi = _check_finite("f(hi)", f(hi))
    if flo == 0.0 or fhi == 0.0 or (flo > 0.0) == (fhi > 0.0):
        raise BracketError(f"no sign change on [{lo!r}, {hi!r}]: f gives {flo!r}, {fhi!r}")
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # float resolution exhausted
            break
        fm = _check_finite("f(mid)", f(mid))
        iterations += 1
        if fm == 0.0:
            return RootResult(
                bracket_lo=lo, bracket_hi=hi, root=mid,
                residual=0.0, iterations=iterations,
            )
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    return RootResult(
        bracket_lo=lo, bracket_hi=hi, root=root,
        residual=_check_finite("f(root)", f(root)), iterations=iterations,
    )


def _bisect_geometric(f, lo: float, hi: float, rel_tol: float) -> RootResult:
    # bisection in log(x) for a positive bracket; terminates on
    # relative width, which is what tiny roots need
    if not (0.0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got [{lo!r}, {hi!r}]")
    flo = _check_finite("f(lo)", f(lo))
    fhi = _check_finite("f(hi)", f(hi))
    if flo == 0.0 or fhi == 0.0 or (flo > 0.0) == (fhi > 0.0):
        raise BracketError(f"no sign change on [{lo!r}, {hi!r}]: f gives {flo!r}, {fhi!r}")
    iterations = 0
    while hi - lo > rel_tol * lo:
        mid = math.sqrt(lo) * math.sqrt(hi)
        if mid <= lo or mid >= hi:
            break
        fm = _check_finite("f(mid)", f(mid))
        iterations += 1
        if fm == 0.0:
            return RootResult(
                bracket_lo=lo, bracket_hi=hi, root=mid,
                residual=0.0, iterations=iterations,
            )
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    root = math.sqrt(lo) * math.sqrt(hi)
    return RootResult(
        bracket_lo=lo, bracket_hi=hi, root=root,
        residual=_check_finite("f(root)", f(root)), iterations=iterations,
    )


def h(alpha: float) -> float:
    """h(a) = 4 + (1 + 2a - 2a^2) e^(2a); sign change locates gamma_2."""
    return 4.0 + (1.0 + 2.0 * alpha - 2.0 * alpha * alpha) * math.exp(2.0 * alpha)


def f1(alpha: float, n: int, ell: int) -> LogScalar:
    """(alpha ell - 1) / B_(n,alpha) as a LogScalar; may be <= 0."""
    if ell < 1:
        raise ValueError(f"ell must be at least 1, got {ell}")
    numerator = LogScalar.from_float(alpha * ell - 1.0)
    return log_div(numerator, b_alpha(n, alpha))


def _exponent_from_excess(u: float, n: int, ell: int, ncn: float) -> float:
    # alpha n C_n built as ncn/ell + u*ncn so the excess u contributes
    # exactly even when base + u rounds to the base
    return ncn / ell + u * ncn


def f1_from_excess(u: float, n: int, ell: int) -> LogScalar:
    """f1 at alpha = 1/ell + u, trustworthy for arbitrarily small u.

    The numerator alpha ell - 1 equals ell * u exactly, and the big
    exponent is assembled from u directly; evaluating f1(base + u)
    instead would collapse both for u below float resolution of the
    base.
    """
    if ell < 1:
        raise ValueError(f"ell must be at least 1, got {ell}")
    ncn = nc_product(n)
    alpha = 1.0 / ell + u
    if alpha <= 0.0:
        raise ValueError(f"alpha must stay positive, got excess {u!r}")
    numerator = LogScalar.from_float(ell * u)
    log_b = _log_denominator(n, alpha, _exponent_from_excess(u, n, ell, ncn))
    return log_div(numerator, LogScalar(1, log_b))


def f1_prime(alpha: float, n: int, ell: int) -> LogScalar:
    """d f1 / d alpha in closed form.

    The numerator reduces to e^B (1 + B (1 - alpha ell)) + (n + 1 + ell)
    with B = alpha n C_n, over B_(n,alpha)^2.
    """
    if ell < 1:
        raise ValueError(f"ell must be at least 1, got {ell}")
    big_b = alpha * nc_product(n)
    coeff = 1.0 + big_b * (1.0 - alpha * ell)
    lead = LogScalar.from_float(coeff)
    exp_part = LogScalar(lead.sign, lead.log_mag + big_b) if lead.sign != 0 else lead
    numerator = log_add(exp_part, LogScalar.from_float(n + 1.0 + ell))
    denominator = b_alpha(n, alpha)
    return log_div(numerator, denominator * denominator)


def _critical_objective(u: float, n: int, ell: int, ncn: float) -> float:
    # log-form residual of  u (1 + ell u) n C_n = 1 + (n+1+ell) e^(-alpha n C_n)
    exponent = -_exponent_from_excess(u, n, ell, ncn)
    corr = (n + 1.0 + ell) * math.exp(exponent) if exponent > -745.0 else 0.0
    return math.log(u) + math.log1p(ell * u) + math.log(ncn) - math.log1p(corr)


def optimal_alpha(n: int, ell: int = 1, tol: float = 1e-12) -> RootResult:
    """Excess coordinate of the maximiser of f1 over alpha > 1/ell.

    Solves the critical-point equation in the scaled form noted in the
    module docstring by geometric bisection on u = alpha - 1/ell; the
    bracket [0.1/((1+ell) n C_n), 2] straddles the root for every
    admissible (n, ell).

    The maximum (rather than minimum) nature of the point is certified
    by orientation: the scaled residual carries the opposite sign of
    d f1 / d alpha, so it must pass from negative to positive across
    the bracket.  Sampling f1 itself cannot certify this at large n,
    where one ulp of a log magnitude of order n C_n exceeds any
    curvature signal near the crest.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"n must be an int at least 2, got {n!r}")
    if not isinstance(ell, int) or ell < 1:
        raise ValueError(f"ell must be an int at least 1, got {ell!r}")
    if not (0.0 < tol < 1.0):
        raise ValueError(f"tol must lie in (0, 1), got {tol!r}")
    ncn = nc_product(n)
    lo = 0.1 / ncn / (1.0 + ell)  # divide twice: the combined product can overflow
    hi = 2.0

    def objective(u: float) -> float:
        return _critical_objective(u, n, ell, ncn)

    q_lo = _check_finite("objective(lo)", objective(lo))
    q_hi = _check_finite("objective(hi)", objective(hi))
    if not (q_lo < 0.0 < q_hi):
        raise BracketError(
            f"critical equation does not pass from negative to positive on"
            f" [{lo!r}, {hi!r}] for (n={n}, ell={ell}); no interior maximum"
        )
    result = _bisect_geometric(objective, lo, hi, tol)
    return RootResult(
        bracket_lo=result.bracket_lo, bracket_hi=result.bracket_hi,
        root=result.root, residual=result.residual,
        iterations=result.iterations, base=1.0 / ell,
    )


def gamma_n(n: int, tol: float = 1e-12) -> RootResult:
    """The critical tuning for ell = 1, i.e. the root gamma_n > 1 of

      (g^2 n C_n - g n C_n - 1) e^(g n C_n) = n + 2.

    With ell = 1 the objective f1 is exactly the classical one, so this
    simply delegates to optimal_alpha(n, 1).  The result is expressed
    as base 1 plus the excess gamma_n - 1.
    """
    return optimal_alpha(n, 1, tol)


def aux_root_tilde_gamma3() -> float:
    """Positive root of 3 C_3 g^2 - 3 C_3 g - 1, about 1.0857 (below 1.1)."""
    c3 = cly_constant(3)
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 / (3.0 * c3)))


def phi3_threshold() -> float:
    """phi_3(1.3) = 3 C_3 (1.3)(0.3) - 1 = 1.17 C_3 - 1, about 3.19."""
    return 3.0 * cly_constant(3) * 1.3 * 0.3 - 1.0


def g_log(beta: float, n: int) -> LogScalar:
    """g(beta) = (n + 1 + (1+B) e^B) / (beta^2 n C_n e^B - 1), B = beta n C_n.

    Only defined where the denominator is positive; outside that the
    call raises.
    """
    if not (beta > 0.0):
        raise ValueError(f"beta must be positive, got {beta!r}")
    ncn = nc_product(n)
    big_b = beta * ncn
    numerator = log_add(
        LogScalar.from_float(n + 1.0),
        LogScalar(1, math.log1p(big_b) + big_b),
    )
    denominator = log_add(
        LogScalar(1, math.log(beta * beta * ncn) + big_b),
        LogScalar.from_float(-1.0),
    )
    if denominator.sign <= 0:
        raise ValueError(f"beta={beta!r} is outside the domain beta^2 n C_n e^B > 1")
    return log_div(numerator, denominator)


def g_prime_numerator(beta: float, n: int) -> LogScalar:
    """Numerator of g'(beta) after combining over the common denominator:

      -n C_n [ e^(2B) (2 beta + beta^2 n C_n)
               + e^B (B (1 + beta (n+1)) + 2 (beta n + beta + 1)) ]

    Both bracketed terms are positive, so the sign is -1 throughout the
    domain; the scan below makes that observable point by point.
    """
    if not (beta > 0.0):
        raise ValueError(f"beta must be positive, got {beta!r}")
    ncn = nc_product(n)
    big_b = beta * ncn
    if math.isinf(2.0 * big_b):
        raise OverflowError(f"exponent beta n C_n overflows for beta={beta!r}, n={n}")
    # assemble the polynomial factors by log-summing their pieces: the
    # plain products overflow long before the log magnitudes do
    poly = log_add(
        LogScalar(1, math.log(2.0) + math.log(beta)),
        LogScalar(1, 2.0 * math.log(beta) + math.log(ncn)),
    )
    first = LogScalar(1, 2.0 * big_b + poly.log_mag)
    inner = log_add(
        LogScalar(1, math.log(big_b) + math.log1p(beta * (n + 1.0))),
        LogScalar.from_float(2.0 * (beta * n + beta + 1.0)),
    )
    second = LogScalar(1, big_b + inner.log_mag)
    return log_add(first, second) * LogScalar.from_float(-ncn)


@dataclass(frozen=True)
class GPrimeSample:
    beta: float
    in_domain: bool
    sign: int | None


def g_prime_sign_scan(n: int, betas) -> list[GPrimeSample]:
    """Sign of the g' numerator at each beta; out-of-domain points are
    flagged rather than fatal."""
    ncn = nc_product(n)
    samples = []
    for beta in betas:
        if not (beta > 0.0):
            raise ValueError(f"beta values must be positive, got {beta!r}")
        in_domain = math.log(beta * beta * ncn) + beta * ncn > 0.0
        sign = g_prime_numerator(beta, n).sign if in_domain else None
        samples.append(GPrimeSample(beta=beta, in_domain=in_domain, sign=sign))
    return samples


def psi_log_value(n: int) -> float:
    """log of psi(n) = (n + 2) e^(-20 n); psi itself underflows by n = 4."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return math.log(n + 2.0) - 20.0 * n


@dataclass(frozen=True)
class PsiCheck:
    decreasing: bool
    first_violation: int | None
    log10_at_start: float


def psi_decreasing_check(n_lo: int = 4, n_hi: int = 200) -> PsiCheck:
    """Confirm psi(n) = (n+2) e^(-20n) strictly decreases on [n_lo, n_hi].

    Compared in log form; the values themselves are down at 1e-34
    already for n = 4.
    """
    if n_lo < 4:
        raise ValueError(f"the monotonicity claim starts at n = 4, got {n_lo}")
    if n_hi <= n_lo:
        raise ValueError(f"need n_hi > n_lo, got [{n_lo}, {n_hi}]")
    prev = psi_log_value(n_lo)
    for n in range(n_lo + 1, n_hi + 1):
        cur = psi_log_value(n)
        if not (cur < prev):
            return PsiCheck(
                decreasing=False, first_violation=n,
                log10_at_start=psi_log_value(n_lo) / math.log(10.0),
            )
        prev = cur
    return PsiCheck(
        decreasing=True, first_violation=None,
        log10_at_start=psi_log_value(n_lo) / math.log(10.0),
    )


@dataclass(frozen=True)
class ObjectiveProfile:
    """f1 sampled along strictly increasing parameter values."""

    n: int
    ell: int
    samples: tuple

    def __post_init__(self) -> None:
        params = [p for p, _ in self.samples]
        if any(b <= a for a, b in zip(params, params[1:])):
            raise ValueError("sample parameters must be strictly increasing")


def profile_f1(n: int, ell: int, alphas) -> ObjectiveProfile:
    pts = tuple((float(a), f1(float(a), n, ell)) for a in alphas)
    return ObjectiveProfile(n=n, ell=ell, samples=pts)

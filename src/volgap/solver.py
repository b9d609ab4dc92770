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
solves therefore run in the excess coordinate u = alpha - 1/ell, on the
equivalent well-scaled form of the equation

  u (1 + ell u) n C_n = 1 + (n + 1 + ell) e^(-alpha n C_n).

The residual is the log of LHS/RHS, a normalised form of the defining
equation that stays O(1) everywhere.  As a function of s = log u it
rises with slope at least 1, so Newton steps in s from the closed-form
root of u (1 + ell u) n C_n = 1, which the equation approaches once
its correction term underflows, converge in a few steps.  The bracket
is then certified by the residual's signs at its two ends, not
inferred from the steps.  A solve reads n C_n and its log once and
passes both to every residual evaluation.

RootResult, an immutable named tuple, reports the bracket, root and
residual in that coordinate and carries the additive base, so tiny
roots stay exact while value = base + root recovers the familiar
parameter when it is representable; the tuning itself lives in
bounds.Tuning, which the bounds, f1 and f1_prime read, and which takes
a root exactly as Tuning.excess(ell, root).  g_prime_sign_scan reports
its signs as GPrimeSample named tuples.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .bounds import _excess_exponent, _finite_numerator, _tuning, b_alpha
from .logdomain import _UNDERFLOW_LOG, LogScalar, _as_float, _check_int, _check_positive, _overflow, log_add, log_div
from .specials import nc_product


class BracketError(ValueError):
    """The supplied or derived bracket does not straddle a sign change."""


class EvaluationError(ArithmeticError):
    """The objective produced NaN or an otherwise unusable value."""


class RootResult(namedtuple("RootResult", "bracket_lo bracket_hi root residual iterations base", defaults=(0.0,))):
    """Bracketed root in the coordinate the solver worked in.

    base shifts that coordinate: the solved parameter is base + root.
    Plain bisect uses base = 0; the tuning solvers use base = 1/ell so
    that a root excess of 1e-30 is still a first-class float.
    iterations counts bisection steps for bisect and Newton steps for
    the tuning solvers.  An immutable tuple record: a field cannot be
    assigned, and _replace makes a changed copy.
    """

    __slots__ = ()

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
    _check_positive(tol, "tol")
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
            return RootResult(lo, hi, mid, 0.0, iterations)
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    return RootResult(lo, hi, root, _check_finite("f(root)", f(root)), iterations)


def h(alpha: float) -> float:
    """h(a) = 4 + (1 + 2a - 2a^2) e^(2a); sign change locates gamma_2."""
    return 4.0 + (1.0 + 2.0 * alpha - 2.0 * alpha * alpha) * math.exp(2.0 * alpha)


def f1(alpha, n: int, ell: int) -> LogScalar:
    """(alpha ell - 1) / B_(n,alpha) as a LogScalar; may be <= 0.

    alpha is a float or a bounds.Tuning.  Tuning.excess(ell, u) keeps
    f1 trustworthy for arbitrarily small u: its numerator is ell u and
    its exponent is assembled from u, where a float alpha = 1/ell + u
    would collapse both once u drops below the resolution of 1/ell.
    Where alpha ell - 1 leaves the double range, OverflowError names it and n.
    """
    _check_int(ell, "ell", 1)
    tuning = _tuning(alpha)
    return log_div(LogScalar.from_float(_finite_numerator(tuning, ell, n)), b_alpha(n, tuning))


def f1_prime(alpha, n: int, ell: int) -> LogScalar:
    """d f1 / d alpha in closed form; alpha is a float or a bounds.Tuning.

    The numerator reduces to e^B (1 - B (alpha ell - 1)) + (n + 1 + ell)
    with B = alpha n C_n, over B_(n,alpha)^2.  Where alpha ell - 1,
    B (alpha ell - 1) or ell leaves the double range, OverflowError names it and n.
    """
    _check_int(ell, "ell", 1)
    tuning = _tuning(alpha)
    big_b = tuning.exponent(nc_product(n))
    coeff = 1.0 - big_b * _finite_numerator(tuning, ell, n)
    if coeff == -math.inf:
        raise _overflow("alpha n C_n (alpha ell - 1)", n)
    lead = LogScalar.from_float(coeff)
    exp_part = LogScalar(lead.sign, lead.log_mag + big_b) if lead.sign != 0 else lead
    numerator = log_add(exp_part, LogScalar.from_float(n + 1.0 + _as_float(ell, "ell", n)))
    denominator = b_alpha(n, tuning)
    return log_div(numerator, denominator * denominator)


def _critical_objective(u: float, n: int, ell: int, ncn: float, log_ncn: float) -> tuple[float, float]:
    # log-form residual of  u (1 + ell u) n C_n = 1 + (n+1+ell) e^(-alpha n C_n)
    # at alpha = 1/ell + u, the excess form of bounds.Tuning, and its slope
    # in log u from the same exp: 1 + ell u/(1 + ell u) + n C_n u corr/(1 + corr);
    # log_ncn = log(ncn), taken once per solve
    exponent = -_excess_exponent(ell, u, ncn)
    corr = (n + 1.0 + ell) * math.exp(exponent) if exponent > _UNDERFLOW_LOG else 0.0
    lu = ell * u
    residual = math.log(u) + math.log1p(lu) + log_ncn - math.log1p(corr)
    return residual, 1.0 + lu / (1.0 + lu) + ncn * (u * corr) / (1.0 + corr)


# bounds the loop below, which takes at most 5 steps on n 2:165 x ell 1:30
# and 17 on n 2:165 x ell 10^2..10^308; bisections in log u narrow any
# bracket of doubles to adjacent floats in 64
_NEWTON_STEPS = 100
# relative resolution of every tuning root: the steps stop below _TOL/4
# in log u, and the certified bracket is at most _TOL times the root wide
_TOL = 1e-12


def optimal_alpha(n: int, ell: int = 1) -> RootResult:
    """Excess coordinate of the maximiser of f1 over alpha > 1/ell.

    Solves the critical-point equation in the scaled form noted in the
    module docstring by Newton steps in s = log u, u = alpha - 1/ell,
    from the closed-form root u0 = 2 / (n C_n (1 + sqrt(1 + 4 ell / n C_n)))
    of u (1 + ell u) n C_n = 1; iterations counts the steps.  They stop
    below _TOL/4 in s.  The points evaluated bracket the root by their
    residual signs, and a step that would leave that bracket, or does
    not halve the step before it, bisects it in s instead: otherwise
    steps for ell far above n C_n jump back and forth over the root.
    The steps also stop once the bracket's geometric mean rounds onto
    one of its ends, a few ulps from the root.

    The bracket returned is certified, not estimated: its ends are
    u (1 -+ _TOL/2), and the residual must be negative at the lower end
    and positive at the upper one.  A failing end moves outward until
    its sign certifies, and a root that cannot be certified raises
    EvaluationError.  Every table, gap and verify row that tunes alpha
    reads this one root.

    The maximum (rather than minimum) nature of the point is certified
    by that orientation: the scaled residual carries the opposite sign
    of d f1 / d alpha, so it must pass from negative to positive across
    the bracket.  Sampling f1 itself cannot certify this at large n,
    where one ulp of a log magnitude of order n C_n exceeds any
    curvature signal near the crest.
    """
    _check_int(n, "n", 2)
    _check_int(ell, "ell", 1)
    ncn = nc_product(n)
    log_ncn = math.log(ncn)
    # n C_n sqrt(1 + 4 ell / n C_n), written so that 4 ell cannot overflow
    u = 2.0 / (ncn + 2.0 * math.sqrt(ncn) * math.sqrt(0.25 * ncn + _as_float(ell, "ell", n)))
    lo, hi = 0.0, math.inf  # evaluated points with residual < 0 and > 0
    last = math.inf
    for steps in range(_NEWTON_STEPS):
        q, slope = _critical_objective(u, n, ell, ncn, log_ncn)
        step = _check_finite("Newton step", q / slope)
        if q < 0.0:
            lo = u
        elif q > 0.0:
            hi = u
        if q == 0.0 or abs(step) <= 0.25 * _TOL:
            break
        nxt = u * math.exp(-step)
        if lo > 0.0 and hi < math.inf and not (lo < nxt < hi and abs(step) <= 0.5 * abs(last)):
            nxt = math.sqrt(lo) * math.sqrt(hi)
            step = 0.5 * (math.log(hi) - math.log(lo))
            if not lo < nxt < hi:
                break  # lo and hi are a few ulps apart
        u, last = nxt, step
    else:
        raise EvaluationError(f"Newton steps did not settle for (n={n}, ell={ell})")
    lo, hi = _certified_bracket(u, n, ell, ncn, log_ncn)
    return RootResult(lo, hi, u, q, steps, 1.0 / ell)


def _certified_bracket(u: float, n: int, ell: int, ncn: float, log_ncn: float) -> tuple[float, float]:
    """Floats lo < u < hi at which the critical residual is < 0 and > 0.

    The ends start at u (1 -+ _TOL/2), pulled in by an ulp while
    rounding leaves (hi - lo)/u above _TOL; that takes a few ulps, so
    the ends stay thousands of ulps away from u.  An end that does not
    certify moves outward, doubling its distance from u, until it does
    or that distance passes u/4.
    """
    lo, hi = u - 0.5 * _TOL * u, u + 0.5 * _TOL * u
    while (hi - lo) / u > _TOL:
        lo, hi = math.nextafter(lo, u), math.nextafter(hi, u)
    ends = []
    for end, sign in ((lo, -1.0), (hi, 1.0)):
        while not sign * _critical_objective(end, n, ell, ncn, log_ncn)[0] > 0.0:  # NaN widens too
            if abs(end - u) > 0.25 * u:
                raise EvaluationError(
                    f"critical residual does not change sign around u={u!r}"
                    f" for (n={n}, ell={ell})"
                )
            end = u + 2.0 * (end - u)
        ends.append(end)
    return ends[0], ends[1]


def gamma_n(n: int) -> RootResult:
    """The critical tuning for ell = 1, i.e. the root gamma_n > 1 of

      (g^2 n C_n - g n C_n - 1) e^(g n C_n) = n + 2.

    With ell = 1 the objective f1 is exactly the classical one, so this
    simply delegates to optimal_alpha(n, 1), at the solver's _TOL.  The
    result is expressed as base 1 plus the excess gamma_n - 1.
    """
    return optimal_alpha(n, 1)


class GPrimeSample(namedtuple("GPrimeSample", "beta in_domain sign")):
    __slots__ = ()


def g_prime_sign_scan(n: int, betas) -> list[GPrimeSample]:
    """Sign of g'(beta) at each beta, flagging rather than failing on
    out-of-domain points, beta^2 n C_n e^(beta n C_n) <= 1.

    Over the common denominator, the numerator of g' is

      -n C_n (2 + B) e^B (beta e^B + 1 + beta (n+1)),  B = beta n C_n,

    whose factors after the minus sign are all positive, so the sign is
    -1 throughout the domain.  LEML_GPRIME_NEG proves that form by
    exact expansion (claims._leml_counts) for every beta.
    """
    ncn = nc_product(n)
    samples = []
    for beta in betas:
        _check_positive(beta, "beta")
        in_domain = math.log(beta * beta * ncn) + beta * ncn > 0.0  # the domain, in log form
        samples.append(GPrimeSample(beta=beta, in_domain=in_domain, sign=-1 if in_domain else None))
    return samples

"""The bound formulas one (n, ell) point at a time, as bounds computed them
before it evaluated whole ell columns.

This is the reference implementation for bounds' column code: each
function here makes the same float operations in the same order, and
raises the same error at the same check, for one point.  Tests require
the columns to equal these values with ==, and a table build to fail,
after the request check, where a pass over the points fails first.
"""

import math

from volgap.bounds import GapVariant
from volgap.logdomain import _log_sum


def ln(x: float, what: str, n: int) -> float:
    if x < math.inf:
        return math.log(x)
    raise OverflowError(f"{what} leaves the double range at n={n}")


def log_mag(v: float, what: str, n: int) -> float:
    if v < math.inf:
        return v
    raise OverflowError(f"the log of {what} leaves the double range at n={n}")


def float_ell(ell: int, n: int) -> float:
    try:
        return float(ell)
    except OverflowError:
        raise OverflowError(f"ell leaves the double range at n={n}") from None


def correction_exponent(n: int, ell: int, anc: float) -> float:
    growth = (n + 4) * math.pow(float_ell(n + 2 * ell, n), 2.0 / n) * math.pow(4.0, 1.0 / n)
    return anc * (1.0 - growth)


def log_case1_correction(n: int, ell: int, alpha: float, anc: float) -> float:
    e_corr = correction_exponent(n, ell, anc)
    # where alpha (n+ell+2) overflows, its log is the sum of the two logs
    scale = alpha * (n + ell + 2)
    log_scale = math.log(scale) if scale < math.inf else math.log(alpha) + math.log(n + ell + 2)
    return log_mag(log_scale + e_corr, "alpha (n+ell+2) e^E", n)


def logs(kernel, ell: int, variants) -> list:
    """(log B, log excess, log ratio to CLY) per variant at one ell, from kernel's per-n scalars."""
    n = kernel.n
    log_cly = ln(2.0 * ell - 1.0, "2 ell - 1", n) - kernel.log_b_cly
    thm1, case2 = kernel.tuning.numerators(ell)
    log_thm1 = None
    out = []
    for variant in variants:
        if variant is GapVariant.CLY:
            out.append((kernel.log_b_cly, log_cly, 0.0))
            continue
        if variant is GapVariant.THM1 or variant is GapVariant.THM2_CASE1:
            if log_thm1 is None:
                log_thm1 = ln(thm1, "alpha ell - 1", n)
            log_num = log_thm1
            if variant is GapVariant.THM2_CASE1:
                correction = log_case1_correction(n, ell, kernel.tuning.alpha, kernel.anc)
                log_num = _log_sum(log_thm1, correction)
        elif variant is GapVariant.THM2_CASE2:
            log_num = ln(case2, "2 alpha ell - 1", n)
        else:
            raise ValueError(f"unknown variant {variant!r}")
        log_excess = log_num - kernel.log_b
        out.append((kernel.log_b, log_excess, log_excess - log_cly))
    return out


def case2_margin(tuning, ell: int) -> float:
    thm1 = tuning.numerators(ell)[0]
    if not thm1 > 0.0:
        raise ValueError("alpha*ell must exceed 1")
    return math.log1p(0.5 / thm1)


def final_margin(n: int, ell: int, anc: float) -> float:
    return anc * (n + 3) - math.log1p((n + 3.0) / ell)


def multiplicity_excess(n: int, nc: float, k: int, t: float) -> float:
    shift = n + 1.0 + nc / t
    if not k - shift > 0.0:
        return -math.inf
    return math.log(k - shift) - _log_sum(t, math.log(shift))

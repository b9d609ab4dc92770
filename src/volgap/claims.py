"""Verification suite for the numerical claims behind the gap bounds.

Every claim that the package's results rest on is expressed here as a
pure function returning a ClaimVerdict, so the whole chain of
assertions can be re-checked at any grid size from the CLI or from
tests.  A verdict records the checked statement (the anchor), PASS or
FAIL, the witness numbers that decide it, and the tolerance used when
the statement is quantitative rather than a strict inequality.

Claims never abort the suite: an evaluator that raises is reported as
ERROR with the exception text, and the remaining claims still run.  A
grid claim whose grid the overflow cap leaves empty is ERROR too, with
the cap note as its reason: a statement over no points is neither shown
nor refuted.

Each claim takes one argument, the run's private context: the
SuiteConfig, the capped grid (one bounds.BoundKernel per n up to the
overflow cap that bounds decides, from one bounds.capped_kernels call)
and one gamma_n root per n, which ALPHA_STAR_BRACKET, GAMMAN_LE_13 and
GAMMA2_GT_13 share.  A failed solve is not kept, so it errors only the
claims that ask for its n.  The context lives for one run_claim_suite
or run_claim call.  The grid claims over (n, ell) points fold a margin
of (kernel, ell) by one reduction that keeps the smallest margin and
the first point where it occurs.
LEML_GPRIME_NEG checks its lemma on the values of g, not on the sign of
g', which is -1 by construction: at each n, log g (solver._log_g) must
strictly decrease across the in-domain samples beta = 0.05, ..., 3.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from . import bounds, solver, spectral
from .bounds import DEFAULT_ALPHA, GapVariant
from .specials import cly_constant, cly_constant_log

_C3_REFERENCE = 3.58258102141221
_THM1 = (GapVariant.THM1,)


@dataclass(frozen=True)
class SuiteConfig:
    """Grid and tolerance choices for the verification suite.

    tol is the relative tolerance of the root solves.  Each claim's
    own check keeps a fixed tolerance, which its verdict reports.

    cn_scale is a fault-injection hook: it multiplies the computed
    dimensional constant inside the two constant-value claims, so a
    deliberately perturbed run demonstrably fails.  Leave it at 1.0
    for real verification.
    """

    n_min: int = 2
    n_max: int = 30
    ell_min: int = 1
    ell_max: int = 30
    alpha: float = DEFAULT_ALPHA
    tol: float = 1e-12
    cn_scale: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.n_min, int) or self.n_min < 2:
            raise ValueError(f"n_min must be an int at least 2, got {self.n_min!r}")
        if not isinstance(self.n_max, int) or self.n_max < self.n_min:
            raise ValueError(f"n_max must be an int at least n_min, got {self.n_max!r}")
        if not isinstance(self.ell_min, int) or self.ell_min < 1:
            raise ValueError(f"ell_min must be an int at least 1, got {self.ell_min!r}")
        if not isinstance(self.ell_max, int) or self.ell_max < self.ell_min:
            raise ValueError(f"ell_max must be an int at least ell_min, got {self.ell_max!r}")
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")
        if self.alpha * self.ell_min <= 1.0:
            raise ValueError(
                f"alpha * ell_min must exceed 1 for the tuned bounds, got {self.alpha * self.ell_min!r}"
            )
        if not (0.0 < self.tol < 1.0):
            raise ValueError(f"tol must lie in (0, 1), got {self.tol!r}")
        if not (self.cn_scale > 0.0 and math.isfinite(self.cn_scale)):
            raise ValueError(f"cn_scale must be positive and finite, got {self.cn_scale!r}")


@dataclass(frozen=True)
class ClaimVerdict:
    claim_id: str
    anchor: str
    status: str  # PASS, FAIL or ERROR
    witnesses: dict = field(default_factory=dict)
    tolerance: float | None = None
    grid_note: str | None = None

    @property
    def passed(self) -> bool:
        return self.status == "PASS"


def _verdict(claim_id, anchor, ok, witnesses, tolerance=None, grid_note=None):
    return ClaimVerdict(
        claim_id=claim_id, anchor=anchor,
        status="PASS" if ok else "FAIL",
        witnesses=witnesses, tolerance=tolerance, grid_note=grid_note,
    )


class _EmptyGrid(Exception):
    """The overflow cap left no n of the grid; the message says where it stopped."""


class _Run:
    """One run of the suite: its SuiteConfig, the capped grid and the gamma_n roots.

    The grid and each root are computed once, on first use; a call that
    raises keeps nothing, so the next one raises again.
    """

    def __init__(self, config: SuiteConfig) -> None:
        self.config = config
        self._roots = {}

    @cached_property
    def _grid(self):
        c = self.config
        return bounds.capped_kernels(range(c.n_min, c.n_max + 1), c.alpha, c.ell_max)

    def kernels(self):
        """One BoundKernel per n up to the overflow cap; _EmptyGrid, every call, if none."""
        kernels, cap = self._grid
        if not kernels:
            raise _EmptyGrid(f"empty grid; {cap}")
        return kernels

    def grid_note(self, grid: str) -> str:
        """grid, and the cap note if the overflow cap cut the grid short."""
        cap = self._grid[1]
        return grid if cap is None else f"{grid}; {cap}"

    def gamma(self, n: int):
        """solver.gamma_n(n, config.tol), solved once per n."""
        if n not in self._roots:
            self._roots[n] = solver.gamma_n(n, self.config.tol)
        return self._roots[n]


def _reduce_grid(run: _Run, margin, start=math.inf):
    """Fold margin(kernel, ell) over the (n, ell) grid, one kernel per n.

    Returns (worst, at, grid_note): the smallest margin and its point.
    Points are visited n first, then ell, and only a strictly smaller
    margin moves the point, so ties keep the first.  A NaN margin counts
    as -inf: the statement could not be checked there.  The point stays
    (-1, -1) unless some margin falls below start.
    """
    config = run.config
    kernels = run.kernels()
    worst = start
    at = (-1.0, -1.0)
    for kernel in kernels:
        for ell in range(config.ell_min, config.ell_max + 1):
            m = margin(kernel, ell)
            if m != m:
                m = -math.inf
            if m < worst:
                worst, at = m, (float(kernel.n), float(ell))
    grid = (
        f"n in [{kernels[0].n}, {kernels[-1].n}], ell in [{config.ell_min}, {config.ell_max}],"
        f" alpha = {config.alpha:g}"
    )
    return worst, at, run.grid_note(grid)


# ---------------------------------------------------------------- claims


def _claim_lem3_trace_bound(run: _Run) -> ClaimVerdict:
    anchor = (
        "sum_k m_k e^(-lambda_k t) <= 1 + (n+1) e^(-n t) + (C_n / t) e^(-n t)"
        " for the round n-sphere whenever t >= 1"
    )
    worst = math.inf
    worst_at = (0, 0.0)
    points = 0
    for n in range(2, 11):
        for j in range(37):  # t = 1, 1.25, ..., 10
            t = 1.0 + 0.25 * j
            trace = spectral.heat_trace(n, t).value
            margin = spectral.trace_bound(n, t) - trace
            points += 1
            if margin < worst:
                worst = margin
                worst_at = (n, t)
    return _verdict(
        "LEM3_TRACE_BOUND", anchor, worst >= 0.0,
        {
            "min_margin": worst,
            "at_n": float(worst_at[0]),
            "at_t": worst_at[1],
            "points": float(points),
        },
        grid_note="n in [2, 10], t in {1, 1.25, ..., 10}",
    )


def _claim_c3_approx(run: _Run) -> ClaimVerdict:
    anchor = "C_3 = 3^(3/2) e Gamma(3/2, 1) / 2 = 3.58258102141221 to 1e-12"
    computed = cly_constant(3) * run.config.cn_scale
    diff = abs(computed - _C3_REFERENCE)
    return _verdict(
        "C3_APPROX", anchor, diff <= 1e-12,
        {"computed": computed, "reference": _C3_REFERENCE, "abs_diff": diff},
        tolerance=1e-12,
    )


def _claim_c4_exact(run: _Run) -> ClaimVerdict:
    anchor = "C_4 = 4^2 e Gamma(2, 1) / 2 = 16 exactly, even in floating point"
    computed = cly_constant(4) * run.config.cn_scale
    return _verdict(
        "C4_EXACT", anchor, computed == 16.0,
        {"computed": computed, "reference": 16.0},
        tolerance=0.0,
    )


def _claim_cn_monotone(run: _Run) -> ClaimVerdict:
    anchor = "C_(n+1) > C_n for every n >= 2 (checked in log form)"
    config = run.config
    prev = cly_constant_log(config.n_min).log_mag
    first_bad = -1.0
    for n in range(config.n_min + 1, config.n_max + 1):
        cur = cly_constant_log(n).log_mag
        if not (cur > prev):
            first_bad = float(n)
            break
        prev = cur
    return _verdict(
        "CN_MONOTONE", anchor, first_bad < 0.0,
        {
            "log_c_first": cly_constant_log(config.n_min).log_mag,
            "log_c_last": cly_constant_log(config.n_max).log_mag,
            "first_violation_n": first_bad,
        },
        grid_note=f"n in [{config.n_min}, {config.n_max}]",
    )


def _claim_h_sign_142(run: _Run) -> ClaimVerdict:
    anchor = "h(a) = 4 + (1 + 2a - 2a^2) e^(2a) is positive at a = 1.42"
    value = solver.h(1.42)
    return _verdict("H_SIGN_142", anchor, value > 0.0, {"h_142": value})


def _claim_h_sign_144(run: _Run) -> ClaimVerdict:
    anchor = "h(a) = 4 + (1 + 2a - 2a^2) e^(2a) is negative at a = 1.44"
    value = solver.h(1.44)
    return _verdict("H_SIGN_144", anchor, value < 0.0, {"h_144": value})


def _claim_alpha_star_bracket(run: _Run) -> ClaimVerdict:
    anchor = (
        "the maximiser gamma_n of (a - 1)/B_(n,a) lies strictly between 1 and 1.43"
        " for every n, with defining-equation residual at most 1e-9"
    )
    ns = [kernel.n for kernel in run.kernels()]
    ok = True
    witnesses = {}
    worst_res = 0.0
    min_excess = math.inf
    max_excess = -math.inf
    for n in ns:
        r = run.gamma(n)
        if n == 2:
            witnesses["gamma_2"] = r.value
        worst_res = max(worst_res, abs(r.residual))
        min_excess = min(min_excess, r.root)
        max_excess = max(max_excess, r.root)
        inside = 0.0 < r.root < 0.43 and r.bracket_lo <= r.root <= r.bracket_hi
        if not inside or abs(r.residual) > 1e-9:
            ok = False
    grid = f"n in [{ns[0]}, {ns[-1]}], ell = 1"
    witnesses.update(max_abs_residual=worst_res, min_excess=min_excess, max_excess=max_excess)
    return _verdict(
        "ALPHA_STAR_BRACKET", anchor, ok, witnesses,
        tolerance=1e-9,
        grid_note=run.grid_note(grid),
    )


def _claim_ratio_165(run: _Run) -> ClaimVerdict:
    anchor = (
        "at n = 2, ell = 1 the tuned excess with alpha = 1.43 exceeds the"
        " classical excess by a factor greater than 1.65"
    )
    # the anchor fixes alpha, as H_SIGN_142 fixes its constant
    ratio = math.exp(bounds.log_improvement_vs_cly(2, 1, DEFAULT_ALPHA))
    return _verdict(
        "RATIO_165", anchor, ratio > 1.65,
        {"ratio": ratio, "alpha": DEFAULT_ALPHA},
    )


def _claim_gamma2_gt_13(run: _Run) -> ClaimVerdict:
    anchor = "gamma_2 > 1.3"
    r = run.gamma(2)
    return _verdict("GAMMA2_GT_13", anchor, r.root > 0.3, {"gamma_2": r.value})


def _claim_gamman_le_13(run: _Run) -> ClaimVerdict:
    anchor = "gamma_n < 1.3 for every n >= 3"
    ns = [kernel.n for kernel in run.kernels() if kernel.n >= 3]
    roots = [run.gamma(n).root for n in ns]
    # a vacuous grid has no largest gamma_n to report
    grid = f"n in [3, {ns[-1]}]" if ns else "vacuous: no n >= 3 in grid"
    return _verdict(
        "GAMMAN_LE_13", anchor, all(root < 0.3 for root in roots),
        {"max_gamma_from_3": 1.0 + max(roots)} if ns else {},
        grid_note=run.grid_note(grid),
    )


def _claim_tilde_gamma3_lt_11(run: _Run) -> ClaimVerdict:
    anchor = "the positive root of 3 C_3 x^2 - 3 C_3 x - 1 lies in (1, 1.1)"
    value = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 / (3.0 * cly_constant(3))))
    return _verdict(
        "TILDE_GAMMA3_LT_11", anchor, 1.0 < value < 1.1, {"root": value},
    )


def _claim_phi3_gt_2(run: _Run) -> ClaimVerdict:
    anchor = "phi_3(1.3) = 3 C_3 (1.3)(0.3) - 1 exceeds 2"
    value = 3.0 * cly_constant(3) * 1.3 * 0.3 - 1.0
    return _verdict("PHI3_GT_2", anchor, value > 2.0, {"phi3_at_1_3": value})


def _claim_psi_decreasing(run: _Run) -> ClaimVerdict:
    anchor = "(n + 2) e^(-20 n) strictly decreases for n in [4, 200]"
    # compared in log form: psi is down at 1e-34 already at n = 4
    logs = {n: math.log(n + 2.0) - 20.0 * n for n in range(4, 201)}
    first_bad = next((float(n) for n in range(5, 201) if not logs[n] < logs[n - 1]), -1.0)
    return _verdict(
        "PSI_DECREASING", anchor, first_bad < 0.0,
        {"log10_at_n4": logs[4] / math.log(10.0), "first_violation_n": first_bad},
        grid_note="n in [4, 200]",
    )


def _claim_rhs_gt_20(run: _Run) -> ClaimVerdict:
    anchor = "4 C_4 (1.3)(0.3) - 1 = 23.96 exceeds 20"
    value = 4.0 * cly_constant(4) * 1.3 * 0.3 - 1.0
    return _verdict("RHS_GT_20", anchor, value > 20.0, {"value": value})


def _claim_leml_gprime_neg(run: _Run) -> ClaimVerdict:
    anchor = (
        "g(b) = (n + 1 + (1+B) e^B)/(b^2 n C_n e^B - 1) has negative derivative"
        " throughout its domain b^2 n C_n e^B > 1, with B = b n C_n"
    )
    kernels = run.kernels()
    betas = [0.05 * k for k in range(1, 61)]
    log_g = solver._log_g
    in_domain = 0
    bad_n = bad_beta = -1.0
    for kernel in kernels:
        n, ncn = kernel.n, kernel.nc
        # the first value is checked against +inf, so NaN or inf fails it
        prev = math.inf
        for beta in betas:
            if not solver._in_g_domain(beta, ncn):
                continue
            in_domain += 1
            cur = log_g(beta, n, ncn)
            if not cur < prev and bad_n < 0.0:
                bad_n, bad_beta = float(n), beta
            prev = cur
    grid = f"n in [{kernels[0].n}, {kernels[-1].n}], beta in {{0.05, ..., 3.0}}"
    return _verdict(
        "LEML_GPRIME_NEG", anchor, bad_n < 0.0 and in_domain > 0,
        {
            "in_domain_points": float(in_domain),
            "first_bad_beta": bad_beta,
            "first_bad_n": bad_n,
        },
        grid_note=run.grid_note(grid),
    )


def _claim_final_ineq(run: _Run) -> ClaimVerdict:
    anchor = (
        "alpha n (n + 3) C_n + log(ell) - log(n + ell + 3) stays positive"
        " on the whole parameter grid"
    )
    worst, at, grid = _reduce_grid(
        run, lambda kernel, ell: bounds._final_inequality_log_margin(kernel.n, ell, kernel.anc)
    )
    return _verdict(
        "FINAL_INEQ", anchor, worst > 0.0,
        {"min_log_margin": worst, "at_n": at[0], "at_ell": at[1]},
        grid_note=grid,
    )


def _claim_gap_order_thm1_cly(run: _Run) -> ClaimVerdict:
    anchor = (
        "the tuned excess exceeds 1.65 times the classical excess at every"
        " grid point (compared in log form; the margin grows with n)"
    )
    floor = math.log(1.65)
    worst, at, grid = _reduce_grid(
        run, lambda kernel, ell: kernel.logs(ell, _THM1)[0][2] - floor
    )
    try:
        ratio = math.exp(worst + floor)
    except OverflowError:  # every ratio on the grid leaves the double range
        ratio, grid = math.inf, f"{grid}; ratio_at_min exceeds the double range"
    return _verdict(
        "GAP_ORDER_THM1_CLY", anchor, worst > 0.0,
        {
            "min_log_margin_over_165": worst,
            "at_n": at[0],
            "at_ell": at[1],
            "ratio_at_min": ratio,
        },
        grid_note=grid,
    )


def _claim_gap_order_thm2_thm1(run: _Run) -> ClaimVerdict:
    anchor = (
        "case (i) strictly improves on the tuned bound (its correction term is"
        " positive) and case (ii) strictly exceeds twice the tuned excess"
    )

    def margin(kernel, ell):
        # a correction term that vanished fails the point outright
        if kernel.log_case1_correction(ell) == -math.inf:
            return -math.inf
        return bounds.case2_vs_doubled_thm1_log_margin(kernel.n, ell, kernel.tuning)

    worst, at, grid = _reduce_grid(run, margin)
    ok = worst > 0.0
    bad = (-1.0, -1.0) if ok else at
    return _verdict(
        "GAP_ORDER_THM2_THM1", anchor, ok,
        {
            "min_case2_log_margin": worst,
            "first_bad_n": bad[0],
            "first_bad_ell": bad[1],
        },
        grid_note=grid,
    )


def _claim_thm6_consistency(run: _Run) -> ClaimVerdict:
    anchor = (
        "the minimal-volume excess computed from the multiplicity route at"
        " k = n + ell + 1, t = alpha n C_n reproduces the tuned excess"
    )

    def margin(kernel, ell):
        # minus the relative log difference; -inf if the route is not positive
        direct = kernel.logs(ell, _THM1)[0][1]
        k = kernel.n + ell + 1
        routed = bounds._log_multiplicity_excess(kernel.n, kernel.nc, k, kernel.anc)
        return -abs(direct - routed) / max(1.0, abs(direct))

    # start at 0: the point names the largest difference, if any is nonzero
    worst, at, grid = _reduce_grid(run, margin, start=0.0)
    max_rel = abs(worst)
    # the two routes agree to rounding; config.tol sets the root solves only
    return _verdict(
        "THM6_CONSISTENCY", anchor, max_rel <= 1e-12,
        {"max_rel_log_diff": max_rel, "at_n": at[0], "at_ell": at[1]},
        tolerance=1e-12,
        grid_note=grid,
    )


_CLAIMS = {
    "ALPHA_STAR_BRACKET": _claim_alpha_star_bracket,
    "C3_APPROX": _claim_c3_approx,
    "C4_EXACT": _claim_c4_exact,
    "CN_MONOTONE": _claim_cn_monotone,
    "FINAL_INEQ": _claim_final_ineq,
    "GAMMA2_GT_13": _claim_gamma2_gt_13,
    "GAMMAN_LE_13": _claim_gamman_le_13,
    "GAP_ORDER_THM1_CLY": _claim_gap_order_thm1_cly,
    "GAP_ORDER_THM2_THM1": _claim_gap_order_thm2_thm1,
    "H_SIGN_142": _claim_h_sign_142,
    "H_SIGN_144": _claim_h_sign_144,
    "LEM3_TRACE_BOUND": _claim_lem3_trace_bound,
    "LEML_GPRIME_NEG": _claim_leml_gprime_neg,
    "PHI3_GT_2": _claim_phi3_gt_2,
    "PSI_DECREASING": _claim_psi_decreasing,
    "RATIO_165": _claim_ratio_165,
    "RHS_GT_20": _claim_rhs_gt_20,
    "THM6_CONSISTENCY": _claim_thm6_consistency,
    "TILDE_GAMMA3_LT_11": _claim_tilde_gamma3_lt_11,
}


def claim_ids() -> list[str]:
    return sorted(_CLAIMS)


def run_claim(claim_id: str, config: SuiteConfig | None = None) -> ClaimVerdict:
    """One claim's verdict, in a run of its own unless config is a _Run.

    run_claim_suite passes its _Run here, so each claim still runs through
    run_claim while the suite shares one grid and one root per n.
    """
    if claim_id not in _CLAIMS:
        raise KeyError(f"unknown claim id {claim_id!r}; known: {', '.join(claim_ids())}")
    run = config if isinstance(config, _Run) else _Run(config or SuiteConfig())
    fn = _CLAIMS[claim_id]
    try:
        return fn(run)
    except _EmptyGrid as exc:
        anchor, note = "the capped grid holds no point to check the statement at", str(exc)
    except Exception as exc:  # verdicts must outlive any single failure
        anchor = "evaluation failed before the statement could be checked"
        note = f"{type(exc).__name__}: {exc}"
    return ClaimVerdict(claim_id, anchor, "ERROR", witnesses={}, grid_note=note)


def run_claim_suite(config: SuiteConfig | None = None) -> list[ClaimVerdict]:
    run = _Run(config or SuiteConfig())
    return [run_claim(claim_id, run) for claim_id in claim_ids()]


def suite_passed(verdicts) -> bool:
    return all(v.status == "PASS" for v in verdicts)

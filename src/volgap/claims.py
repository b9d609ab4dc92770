"""Verification suite for the numerical claims behind the gap bounds.

Every claim that the package's results rest on is one record in
_CLAIMS, re-checked at any grid size from the CLI or from tests.  A
verdict records the checked statement (the anchor), PASS or FAIL, the
witness numbers that decide it, and the tolerance used when the
statement is quantitative rather than a strict inequality.

A record (_Claim, a named tuple) holds the anchor, the margins over
the claim's domain (positive where it holds), its tolerance (none if
strict), how its witnesses are named from the fold, and its grid
note.  One fold
(_fold) reads every record: a NaN margin counts as -inf, and of equal
margins the first point is kept.  It returns the worst margin, where it
occurs, the first failing point, the point count and the last n it
reached, and the status comes from the worst margin, so a domain with
no points passes.  A claim with no grid is a one-point domain whose
point is the computed value.  A new claim is one record plus its tests.
A verdict is a ClaimVerdict named tuple, whose fields verify --json
writes as they are.

Claims never abort the suite: an evaluation that raises is reported as
ERROR with the exception text, and the remaining claims still run.  A
grid claim walks its requested n in order and stops at the first n where
one of its own quantities raises OverflowError: the fold records the cap
in the note, and the verdict stands on the n before it.  A grid that
overflows at its first n is ERROR, with the error as its reason: a
statement over no points is neither shown nor refuted.  An error of the
request (an ell or a numerator past the double range) is raised before
any row, so it stays an error and never becomes a cap.

Each record reads the run's private context (_Run): the SuiteConfig,
one bounds.BoundKernel per n, the ell-only terms of the bounds over at
most k ells of ell_min..ell_max (one bounds._EllColumns per k, from
_sample), and one gamma_n root per n, shared by ALPHA_STAR_BRACKET,
GAMMAN_LE_13 and GAMMA2_GT_13; each is computed on first use.  _Run.ns
gives the requested n >= lo, or those a fold reached, and _Run.note
builds every grid note: "n in [a, b]" over the n reached, the claim's
suffix, then the cap note.  The (n, ell) grid claims read ell columns
per n, never one point at a time.  FINAL_INEQ, GAP_ORDER_THM1_CLY and
GAP_ORDER_THM2_THM1 read the two ends (k = 2): at each n their margin is
monotone in ell (their grid notes say why), so its minimum over the
range lies at an end.
THM6_CONSISTENCY compares two computations of one number, a check of
the code, so it reads at most _THM6_ELLS ells per n, as its note says.
Each grid row forms, per n, only the columns its margin reads:
FINAL_INEQ the final-inequality margins, GAP_ORDER_THM1_CLY the THM1
log ratios to CLY, GAP_ORDER_THM2_THM1 the case (i) bumps beside the
run's case (ii) margins, and THM6_CONSISTENCY the THM1 log excesses
beside the multiplicity route.  bounds._thm1_log_excesses and
_thm1_log_ratios form those THM1 columns with the helper the tables'
column pass uses (bounds._log_quotients), so THM6 checks the code the
tables print from.  A failed solve is not kept, so it errors only the
claims that ask for its n.  The context lives for one run_claim_suite or
run_claim call.
LEM3_TRACE_BOUND reads t = 1 alone, which decides every t >= 1 (its note
says why).  LEML_GPRIME_NEG reads no grid: it expands g' exactly over
integer polynomials, which decides every n and beta at once (_leml_counts).
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from dataclasses import dataclass
from functools import cache, reduce
from itertools import accumulate, product, repeat
from operator import add, sub

from . import bounds, logdomain, solver, spectral
from .bounds import DEFAULT_ALPHA, GapVariant
from .specials import cly_constant, cly_constant_log

_C3_REFERENCE = 3.58258102141221
_THM1 = (GapVariant.THM1,)
_LOG_165 = math.log(1.65)
_THM6_ELLS = 64  # the most ells THM6_CONSISTENCY reads per n


@dataclass(frozen=True)
class SuiteConfig:
    """Grid and alpha choices for the verification suite.  Each claim's
    check keeps a fixed tolerance, which its verdict reports.

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
    cn_scale: float = 1.0

    def __post_init__(self) -> None:
        # the grid's first point decides the rest: each rule is monotone in n and ell
        bounds.GapParams(n=self.n_min, ell=self.ell_min, alpha=self.alpha)
        logdomain._check_int(self.n_max, "n_max", self.n_min)
        logdomain._check_int(self.ell_max, "ell_max", self.ell_min)
        logdomain._check_positive(self.cn_scale, "cn_scale")


class ClaimVerdict(namedtuple("ClaimVerdict", "claim_id anchor status witnesses tolerance grid_note")):
    """A claim's verdict, PASS, FAIL or ERROR; one built without witnesses gets a dict of its own."""

    __slots__ = ()

    def __new__(cls, claim_id, anchor, status, witnesses=None, tolerance=None, grid_note=None):
        witnesses = {} if witnesses is None else witnesses
        return super().__new__(cls, claim_id, anchor, status, witnesses, tolerance, grid_note)

    @property
    def passed(self) -> bool:
        return self.status == "PASS"


class _EmptyGrid(Exception):
    """A grid overflowed at its first n, so it holds no point; the message says what overflowed."""


def _sample(lo: int, hi: int, k: int):
    """The range lo..hi if it holds at most k ells, else lo, hi and k - 2 log-spaced ells between."""
    if hi - lo < k:
        return range(lo, hi + 1)
    step = math.log(hi - lo + 1) / (k - 1)  # log1p(hi - lo), for an int past the double range too
    inner = (lo + round(math.expm1(j * step)) for j in range(1, k - 1))
    return (*accumulate(inner, lambda prev, ell: max(prev + 1, ell), initial=lo), hi)


class _Run:
    """One run of the suite: its SuiteConfig, and caches that share one bounds.Tuning(config.alpha).

    columns(k) holds the ell-only terms over _sample(ell_min, ell_max, k),
    kernel(n) the BoundKernel at n and gamma(n) solver.gamma_n(n).  Each is
    computed on first use; a call that raises keeps nothing.
    """

    def __init__(self, config: SuiteConfig) -> None:
        self.config = config
        tuning = bounds.Tuning(config.alpha)
        self.columns = cache(lambda k: bounds._EllColumns(_sample(config.ell_min, config.ell_max, k), repeat(tuning)))
        self.kernel = cache(lambda n: bounds.BoundKernel(n, tuning))
        self.gamma = cache(solver.gamma_n)

    def ns(self, lo: int = 2, f=None) -> range:
        """The requested n >= lo, or, given a fold f, the n >= lo it reached."""
        return range(max(lo, self.config.n_min), (self.config.n_max if f is None else f.last) + 1)

    def note(self, f, suffix: str = "", lo: int = 2) -> str:
        """Every grid note: 'n in [a, b]' over ns(lo, f), then suffix, then f's cap note if any.

        A grid with no n >= lo is vacuous, and its note says so in place of the range and suffix.
        """
        if f.last is None:
            return f"vacuous: no n >= {lo} in grid"
        grid = f"n in [{self.ns(lo, f)[0]}, {f.last}]{suffix}"
        return grid if f.cap is None else f"{grid}; {f.cap}"


# ------------------------------------------------------------ the fold


# what _fold found; a point is a tuple of coordinates, None where there is none
_Fold = namedtuple("_Fold", "worst at first_bad points last cap")


def _fold(rows, holds) -> _Fold:
    """Fold rows of (key, cols, margins): margins[i] is the margin at key + (cols[i],).

    Rows are visited in order and only a strictly smaller margin moves
    the worst point, so ties keep the first.  A NaN margin counts as
    -inf.  first_bad is the first point where holds(margin) is false.
    last is the first coordinate of the last row's points, its n on
    every grid, or None if no row had a point.

    The fold is the one place that stops a grid: a row that raises
    OverflowError ends it, and cap says where and why.  Each quantity a
    grid forms grows with n, so the first n that overflows bounds every
    later one.  Where no point came before it, _EmptyGrid is raised.
    """
    worst, at, first_bad, points, last, cap = math.inf, None, None, 0, None, None
    try:
        for key, cols, margins in rows:
            if not margins:
                continue
            points += len(margins)
            last = key[0] if key else cols[0]
            total = sum(margins)
            if total != total:  # a NaN, or +inf and -inf together
                margins = [m if m == m else -math.inf for m in margins]
            lo = min(margins)
            if at is None or lo < worst:
                worst, at = lo, key + (cols[margins.index(lo)],)
            if first_bad is None and not holds(lo):
                first_bad = key + (next(c for c, m in zip(cols, margins) if not holds(m)),)
    except OverflowError as exc:  # from a row: float arithmetic here does not raise it
        if last is None:
            raise _EmptyGrid(f"empty grid; no dimension fits: {exc}") from None
        cap = f"n capped at {last}: {exc}"
    return _Fold(worst, at, first_bad, points, last, cap)


class _Claim(namedtuple("_Claim", "anchor margins witnesses tolerance note", defaults=(None, None))):
    """One claim: its anchor, its margins, its verdict rule, its witnesses and its grid note.

    margins(run) gives the rows that _fold reads.  A claim with no
    tolerance is strict, and holds where every margin is > 0; one with a
    tolerance t holds where every margin is >= -t.  The verdict reports
    tolerance either way.
    witnesses(run, fold) names the witness numbers.  note is the grid
    note, or a function of (run, fold) that gives it.
    """

    __slots__ = ()


def _one(value, margin):
    """A one-point domain: the point is the computed value itself."""
    return (((), (value,), [margin(value)]),)


def _over(ns, margin):
    """A domain of one row per n of ns, margin(n), evaluated as the fold reaches n."""
    return (((), (n,), [margin(n)]) for n in ns)


def _falls(ns, values):
    """A one-row domain over ns[1:]: values[i - 1] - values[i], positive where values fall."""
    return (((), ns[1:], list(map(sub, values, values[1:]))),)


def _grid(row, k: int, reads_numerators: bool = False):
    """Margins over the (n, ell) grid; row(kernel, cols) gives one n's, at cols.ells.

    cols is the run's ell columns over its sample of at most k ells.  At
    k = 2 that is the two ends of the range: a claim whose margin is
    monotone in ell at each n is decided there.  The kernel is the run's
    at n, built as the fold reaches n.  The errors of the request depend
    on ell alone, so they are raised at the first n, before any row, and
    never cap the grid: the largest ell must leave n + 2 ell (which the
    case-correction exponent forms) in the double range, and if row
    reads a numerator, 2 ell - 1 and alpha ell - 1 must fit too
    (bounds._check_numerators).
    """

    def margins(run):
        first, cols = run.config.n_min, run.columns(k)
        logdomain._as_float(first + 2 * cols.ells[-1], "ell", first)
        if reads_numerators:
            bounds._check_numerators(first, cols, _THM1)
        return (((n,), cols.ells, row(run.kernel(n), cols)) for n in run.ns())

    return margins


def _coord(point, i: int) -> float:
    """Coordinate i of a fold point as a witness; -1 where there is no point."""
    return -1.0 if point is None else float(point[i])


def _grid_point(at) -> dict:
    return {"at_n": _coord(at, 0), "at_ell": _coord(at, 1)}


def _grid_note(run, k: int, why: str = "") -> str:
    """The ell part of a grid note at a sample of k ells; why says why the ends of the range decide it."""
    c = run.config
    ells = run.columns(k).ells
    if why:
        why = f"; decided at ell = {' and '.join(map(str, ells))}: {why}"
    elif not isinstance(ells, range):
        why = f"; {len(ells)} log-spaced ells with both ends"
    return f", ell in [{c.ell_min}, {c.ell_max}], alpha = {c.alpha:g}{why}"


def _bracket_margin(r) -> float:
    """-|residual| inside the open bracket (1, 1.43) and the solver's own; -inf outside."""
    inside = 0.0 < r.root < 0.43 and r.bracket_lo <= r.root <= r.bracket_hi
    return -abs(r.residual) if inside else -math.inf


def _bracket_witnesses(run, f) -> dict:
    ns = run.ns(f=f)
    roots = [run.gamma(n) for n in ns]
    return {
        **({"gamma_2": roots[0].value} if ns[0] == 2 else {}),
        "max_abs_residual": max(abs(r.residual) for r in roots),
        "min_excess": min(r.root for r in roots),
        "max_excess": max(r.root for r in roots),
    }


def _ratio_at_min(worst: float) -> float:
    """exp(worst) times 1.65; inf where that leaves the double range."""
    try:
        return math.exp(worst + _LOG_165)
    except OverflowError:  # every ratio on the grid leaves the double range
        return math.inf


def _mul(p, q) -> Counter:
    """p q, where a polynomial maps the exponents (i, j, k, l) of (beta, c, X, m) to int coefficients."""
    out = Counter()
    for (e, a), (f, b) in product(p.items(), q.items()):
        out[tuple(map(add, e, f))] += a * b
    return out


def _d(p) -> Counter:
    """d/dbeta of p, where X = e^(beta c) gives dX/dbeta = c X."""
    out = Counter()
    for (i, j, k, l), a in p.items():
        out[i - 1, j, k, l] += i * a
        out[i, j + 1, k, l] += k * a
    return out


# g = N / D over c = n C_n, X = e^B, B = beta c and m = n + 1, so g' = -(N D' - N' D) / D^2,
# and N D' - N' D is the product of c, 2 + B, X and beta X + 1 + beta m
_G_N = {(0, 0, 0, 1): 1, (0, 0, 1, 0): 1, (1, 1, 1, 0): 1}  # m + (1 + B) X
_G_D = {(2, 1, 1, 0): 1, (0, 0, 0, 0): -1}  # beta^2 c X - 1
_G_FACTORS = (
    {(0, 1, 0, 0): 1}, {(0, 0, 0, 0): 2, (1, 1, 0, 0): 1}, {(0, 0, 1, 0): 1},
    {(1, 0, 1, 0): 1, (0, 0, 0, 0): 1, (1, 0, 0, 1): 1},
)


def _leml_counts() -> tuple[int, int, int]:
    """(terms of N D' - N' D, terms unlike the factors' product, factor coefficients <= 0)."""
    expansion = _mul(_G_N, _d(_G_D))
    expansion.subtract(_mul(_d(_G_N), _G_D))
    factored = reduce(_mul, _G_FACTORS)
    mismatched = sum(expansion[e] != factored[e] for e in expansion.keys() | factored.keys())
    return sum(map(bool, expansion.values())), mismatched, sum(a <= 0 for p in _G_FACTORS for a in p.values())


def _ratio_row(kernel, cols) -> list[float]:
    return [ratio - _LOG_165 for ratio in bounds._thm1_log_ratios(kernel, cols)]


def _case2_row(kernel, cols) -> list[float]:
    # case (i)'s bumps, each alone, must be positive too: E must fit a double
    bounds._standalone_bumps(kernel.n, repeat(kernel.tuning.alpha), repeat(kernel.anc), cols.ells)
    return cols.case2_margin


def _thm6_row(kernel, cols) -> list[float]:
    # minus the relative log difference, over max(1, |direct|) as the
    # conditional spells it (1 where direct is NaN); -inf if the route is not positive
    n = kernel.n
    direct = bounds._thm1_log_excesses(kernel, cols)
    ks = [n + ell + 1 for ell in cols.ells]
    route = bounds._log_multiplicity_excesses(n, kernel.nc, kernel.anc, ks)
    return [-abs(d - r) / (a if (a := abs(d)) > 1.0 else 1.0) for d, r in zip(direct, route)]


def _cn_rows(run):
    ns = range(run.config.n_min, run.config.n_max + 1)
    # C_n rises where -log C_n falls
    return _falls(ns, [-cly_constant_log(n) for n in ns])


def _log_psi(n: int) -> float:
    return math.log(n + 2.0) - 20.0 * n


_CLAIMS = {
    "ALPHA_STAR_BRACKET": _Claim(
        "the maximiser gamma_n of (a - 1)/B_(n,a) lies strictly between 1 and 1.43"
        " for every n, with defining-equation residual at most 1e-9",
        lambda run: _over(run.ns(), lambda n: _bracket_margin(run.gamma(n))),
        _bracket_witnesses, tolerance=1e-9,
        note=lambda run, f: run.note(f, ", ell = 1"),
    ),
    "C3_APPROX": _Claim(
        "C_3 = 3^(3/2) e Gamma(3/2, 1) / 2 = 3.58258102141221 to 1e-12",
        lambda run: _one(cly_constant(3) * run.config.cn_scale, lambda c: -abs(c - _C3_REFERENCE)),
        lambda run, f: {
            "computed": f.at[0], "reference": _C3_REFERENCE, "abs_diff": abs(f.at[0] - _C3_REFERENCE),
        }, tolerance=1e-12,
    ),
    "C4_EXACT": _Claim(
        "C_4 = 4^2 e Gamma(2, 1) / 2 = 16 exactly, even in floating point",
        lambda run: _one(cly_constant(4) * run.config.cn_scale, lambda c: -abs(c - 16.0)),
        lambda run, f: {"computed": f.at[0], "reference": 16.0}, tolerance=0.0,
    ),
    "CN_MONOTONE": _Claim(
        "C_(n+1) > C_n for every n >= 2 (checked in log form)",
        _cn_rows,
        lambda run, f: {
            "log_c_first": cly_constant_log(run.config.n_min),
            "log_c_last": cly_constant_log(run.config.n_max),
            "first_violation_n": _coord(f.first_bad, 0),
        },
        note=lambda run, f: f"n in [{run.config.n_min}, {run.config.n_max}]",
    ),
    "FINAL_INEQ": _Claim(
        "alpha n (n + 3) C_n + log(ell) - log(n + ell + 3) stays positive"
        " on the whole parameter grid",
        # log ell - log(n + ell + 3) rises with ell
        _grid(lambda kernel, cols: bounds._final_inequality_log_margins(kernel.n, kernel.anc, cols.ells), 2),
        lambda run, f: {"min_log_margin": f.worst, **_grid_point(f.at)},
        note=lambda run, f: run.note(f, _grid_note(run, 2, "the margin increases in ell")),
    ),
    "GAMMA2_GT_13": _Claim(
        "gamma_2 > 1.3",
        lambda run: _one(run.gamma(2), lambda r: r.root - 0.3),
        lambda run, f: {"gamma_2": f.at[0].value},
    ),
    "GAMMAN_LE_13": _Claim(
        "gamma_n < 1.3 for every n >= 3",
        lambda run: _over(run.ns(3), lambda n: 0.3 - run.gamma(n).root),
        # a vacuous grid has no largest gamma_n to report
        lambda run, f: {
            "max_gamma_from_3": 1.0 + max(run.gamma(n).root for n in run.ns(3, f)),
        } if f.points else {},
        note=lambda run, f: run.note(f, lo=3),
    ),
    "GAP_ORDER_THM1_CLY": _Claim(
        "the tuned excess exceeds 1.65 times the classical excess at every"
        " grid point (compared in log form; the margin grows with n)",
        # ell enters only through log((alpha ell - 1)/(2 ell - 1)), whose
        # derivative has the sign of 2 - alpha
        _grid(_ratio_row, 2, reads_numerators=True),
        lambda run, f: {
            "min_log_margin_over_165": f.worst,
            **_grid_point(f.at),
            "ratio_at_min": _ratio_at_min(f.worst),
        },
        note=lambda run, f: run.note(f, _grid_note(run, 2, "the ratio is monotone in ell")) + (
            "; ratio_at_min exceeds the double range" if _ratio_at_min(f.worst) == math.inf else ""
        ),
    ),
    "GAP_ORDER_THM2_THM1": _Claim(
        "case (i) strictly improves on the tuned bound (its correction term is"
        " positive) and case (ii) strictly exceeds twice the tuned excess",
        # log1p(0.5 / (alpha ell - 1)) falls with ell, and so does E, so E
        # leaves the double range at ell_max first
        _grid(_case2_row, 2, reads_numerators=True),  # its margin is read at alpha ell - 1
        lambda run, f: {
            "min_case2_log_margin": f.worst,
            "first_bad_n": _coord(f.first_bad, 0),
            "first_bad_ell": _coord(f.first_bad, 1),
        },
        note=lambda run, f: run.note(
            f, _grid_note(run, 2, "the case (ii) margin and the exponent E fall in ell")
        ),
    ),
    "H_SIGN_142": _Claim(
        "h(a) = 4 + (1 + 2a - 2a^2) e^(2a) is positive at a = 1.42",
        lambda run: _one(solver.h(1.42), lambda h: h), lambda run, f: {"h_142": f.at[0]},
    ),
    "H_SIGN_144": _Claim(
        "h(a) = 4 + (1 + 2a - 2a^2) e^(2a) is negative at a = 1.44",
        lambda run: _one(solver.h(1.44), lambda h: -h), lambda run, f: {"h_144": f.at[0]},
    ),
    "LEM3_TRACE_BOUND": _Claim(
        "sum_k m_k e^(-lambda_k t) <= 1 + (n+1) e^(-n t) + (C_n / t) e^(-n t)"
        " for the round n-sphere whenever t >= 1",
        lambda run: _over(
            run.ns(), lambda n: spectral.trace_bound(n, 1.0) - spectral.heat_trace(n, 1.0).value
        ),
        lambda run, f: {"min_margin": f.worst, "at_n": _coord(f.at, 0), "points": float(f.points)},
        note=lambda run, f: run.note(
            f, "; decided at t = 1: levels 0 and 1 cancel, leaving t sum_(k>=2) m_k e^(-(lambda_k - n) t)"
            " <= C_n, whose terms fall for t >= 1 as lambda_k - n >= n + 2",
        ),
    ),
    "LEML_GPRIME_NEG": _Claim(
        "g(b) = (n + 1 + (1+B) e^B)/(b^2 n C_n e^B - 1) has negative derivative"
        " throughout its domain b^2 n C_n e^B > 1, with B = b n C_n",
        lambda run: _one(_leml_counts(), lambda counts: -(counts[1] + counts[2])),
        lambda run, f: dict(zip(("terms", "mismatched", "nonpositive_coefficients"), map(float, f.at[0]))),
        tolerance=0.0,
        note="every n >= 2 and b > 0: for g = N / D, N D' - N' D expanded exactly over (b, c = n C_n,"
        " X = e^B, m = n + 1) equals c (2 + B) X (b X + 1 + b m), whose factors have positive coefficients",
    ),
    "PHI3_GT_2": _Claim(
        "phi_3(1.3) = 3 C_3 (1.3)(0.3) - 1 exceeds 2",
        lambda run: _one(3.0 * cly_constant(3) * 1.3 * 0.3 - 1.0, lambda v: v - 2.0),
        lambda run, f: {"phi3_at_1_3": f.at[0]},
    ),
    "PSI_DECREASING": _Claim(
        "(n + 2) e^(-20 n) strictly decreases for n in [4, 200]",
        # compared in log form: psi is down at 1e-34 already at n = 4
        lambda run: _falls(range(4, 201), [_log_psi(n) for n in range(4, 201)]),
        lambda run, f: {
            "log10_at_n4": _log_psi(4) / math.log(10.0),
            "first_violation_n": _coord(f.first_bad, 0),
        },
        note="n in [4, 200]",
    ),
    "RATIO_165": _Claim(
        "at n = 2, ell = 1 the tuned excess with alpha = 1.43 exceeds the"
        " classical excess by a factor greater than 1.65",
        # the anchor fixes alpha, as H_SIGN_142 fixes its constant
        lambda run: _one(
            math.exp(bounds.log_improvement_vs_cly(2, 1, DEFAULT_ALPHA)), lambda r: r - 1.65
        ),
        lambda run, f: {"ratio": f.at[0], "alpha": DEFAULT_ALPHA},
    ),
    "RHS_GT_20": _Claim(
        "4 C_4 (1.3)(0.3) - 1 = 23.96 exceeds 20",
        lambda run: _one(4.0 * cly_constant(4) * 1.3 * 0.3 - 1.0, lambda v: v - 20.0),
        lambda run, f: {"value": f.at[0]},
    ),
    "THM6_CONSISTENCY": _Claim(
        "the minimal-volume excess computed from the multiplicity route at"
        " k = n + ell + 1, t = alpha n C_n reproduces the tuned excess",
        _grid(_thm6_row, _THM6_ELLS, reads_numerators=True),
        # the point names the largest difference, if any is nonzero
        lambda run, f: {
            "max_rel_log_diff": abs(f.worst), **_grid_point(f.at if f.worst < 0.0 else None),
        },
        # the two routes agree to rounding
        tolerance=1e-12, note=lambda run, f: run.note(f, _grid_note(run, _THM6_ELLS)),
    ),
    "TILDE_GAMMA3_LT_11": _Claim(
        "the positive root of 3 C_3 x^2 - 3 C_3 x - 1 lies in (1, 1.1)",
        lambda run: _one(
            0.5 * (1.0 + math.sqrt(1.0 + 4.0 / (3.0 * cly_constant(3)))),
            lambda x: min(x - 1.0, 1.1 - x),
        ),
        lambda run, f: {"root": f.at[0]},
    ),
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
    claim = _CLAIMS[claim_id]
    tolerance = claim.tolerance
    holds = (lambda m: m > 0.0) if tolerance is None else (lambda m: m >= -tolerance)
    try:
        f = _fold(claim.margins(run), holds)
        note = claim.note(run, f) if callable(claim.note) else claim.note
        status = "PASS" if holds(f.worst) else "FAIL"
        witnesses = claim.witnesses(run, f)
        return ClaimVerdict(claim_id, claim.anchor, status, witnesses, tolerance, note)
    except _EmptyGrid as exc:
        anchor, note = "the capped grid holds no point to check the statement at", str(exc)
    except Exception as exc:  # verdicts must outlive any single failure
        anchor = "evaluation failed before the statement could be checked"
        note = f"{type(exc).__name__}: {exc}"
    return ClaimVerdict(claim_id, anchor, "ERROR", grid_note=note)


def run_claim_suite(config: SuiteConfig | None = None) -> list[ClaimVerdict]:
    run = _Run(config or SuiteConfig())
    return [run_claim(claim_id, run) for claim_id in claim_ids()]


def suite_passed(verdicts) -> bool:
    return all(v.passed for v in verdicts)

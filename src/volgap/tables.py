"""Tabulation of the gap bounds over parameter grids.

Output is deterministic byte for byte: no timestamps, no environment
leakage, fixed column order, fixed float formatting (12 significant
digits).  A row holds plain floats, no LogScalar: the bounds as base-10
logs, and the ratio to the classical excess as its base-10 log too,
since ratios routinely exceed float range.  A large ratio is rendered
as a mantissa/exponent literal (still a valid JSON number).

Gap tables are built per n: one BoundKernel per (n, alpha) supplies the
logs of every row.  At a fixed alpha every ell is checked once, at the
first n, and each later n only for itself; an auto point is checked on
its own.  All three renderers format rows through one helper that
formats each repeated value (n, ell, alpha, log10_B) once per call.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .bounds import DEFAULT_ALPHA, BoundKernel, GapParams, GapVariant, Tuning
from .bounds import gap_excess  # noqa: F401  (perfbench's tracer tests wrap tables.gap_excess)
from .logdomain import _LN10
from .solver import optimal_alpha

CSV_HEADER = "n,ell,alpha,variant,log10_B,log10_excess,ratio_vs_cly"

_VARIANT_ORDER = (
    GapVariant.CLY,
    GapVariant.THM1,
    GapVariant.THM2_CASE1,
    GapVariant.THM2_CASE2,
)


class GapTableRow(NamedTuple):
    n: int
    ell: int
    alpha: float  # 2 on classical rows, the tuning actually used otherwise
    variant: str
    log10_denominator: float
    log10_excess: float
    log10_ratio_vs_cly: float  # 0 on classical rows


_sig = "{:.12g}".format  # a float's text at 12 significant digits


def format_from_log10(log10_value: float, sign: int = 1) -> str:
    """Render a positive quantity given as log10 to 12 significant digits.

    Values inside comfortable float range go through float formatting;
    anything larger becomes an explicit mantissa/exponent literal, so
    1e400-scale ratios survive serialisation.
    """
    if sign == 0:
        return "0"
    prefix = "-" if sign < 0 else ""
    if math.isinf(log10_value):
        raise ValueError("cannot format an infinite magnitude")
    if abs(log10_value) < 300.0:
        return prefix + _sig(10.0 ** log10_value)
    exponent = math.floor(log10_value)
    mantissa = f"{10.0 ** (log10_value - exponent):.11f}"
    if mantissa == "10.00000000000":  # rounding spilled over a decade
        mantissa = "1.00000000000"
        exponent += 1
    return f"{prefix}{mantissa}e+{exponent}" if exponent >= 0 else f"{prefix}{mantissa}e{exponent}"


def build_gap_table(n_values, ell_values, alpha=DEFAULT_ALPHA, variants=None) -> list[GapTableRow]:
    """Rows for every (n, ell, variant) combination, in grid order.

    alpha may be a positive float applied everywhere or the string
    "auto", which tunes alpha per (n, ell) by maximising the excess.
    Classical rows always use the fixed tuning 2 and report it.

    Points are validated as their first rows' GapParams would be, and
    the first invalid one raises, as it would in a per-point check.  At
    a fixed alpha the checks of ell do not depend on n, so each ell is
    checked at the first n only.  Every row is read from one BoundKernel
    per (n, alpha); an auto point's kernel takes the solver's exact pair
    (bounds.Tuning).
    """
    ns = [int(n) for n in n_values]
    ells = [int(ell) for ell in ell_values]
    if not ns or not ells:
        raise ValueError("need at least one n and one ell")
    auto = alpha == "auto"
    if not auto:
        alpha = float(alpha)
    chosen = tuple(GapVariant(v) for v in variants) if variants else _VARIANT_ORDER
    tuned = any(v is not GapVariant.CLY for v in chosen)
    # a classical first row is evaluated, and fails, before the tuned
    # alpha is checked or its kernel built
    cly_first = chosen[0] is GapVariant.CLY and tuned
    fixed = alpha if tuned else 2.0
    rows = []
    kernel = None
    for n in ns:
        if auto and tuned:
            for i, ell in enumerate(ells):
                tuning = Tuning.excess(ell, optimal_alpha(n, ell).root)
                point = _checked_kernel(n, ell, tuning, cly_first and i == 0)
                _add_rows(rows, point, (ell,), chosen)
        elif kernel is None:
            kernel = _checked_kernel(n, ells[0], fixed, cly_first)
            _add_rows(rows, kernel, ells[:1], chosen)
            for ell in ells[1:]:
                GapParams(n=n, ell=ell, alpha=fixed)
                _add_rows(rows, kernel, (ell,), chosen)
        else:
            # every ell passed at the first n; n is all that is left to check
            GapParams(n=n, ell=ells[0], alpha=fixed)
            kernel = BoundKernel(n, fixed)
            _add_rows(rows, kernel, ells, chosen)
    return rows


def _checked_kernel(n: int, ell: int, tuning, cly_first: bool) -> BoundKernel:
    """The kernel of the point (n, ell), after the checks its first row makes."""
    if cly_first:
        GapParams(n=n, ell=ell, alpha=2.0)
        BoundKernel(n, 2.0).logs(ell, _VARIANT_ORDER[:1])
    GapParams(n=n, ell=ell, alpha=tuning)
    return BoundKernel(n, tuning)


def _add_rows(rows: list, kernel: BoundKernel, ells, chosen) -> None:
    """Append the rows of kernel at each ell; the per-kernel columns are hoisted."""
    n = kernel.n
    tuned = (kernel.tuning.alpha, kernel.log_b / _LN10)
    classical = (2.0, kernel.log_b_cly / _LN10)
    columns = [(v.value, *(classical if v is GapVariant.CLY else tuned)) for v in chosen]
    for ell in ells:
        for (name, alpha, log10_b), (_, log_excess, log_ratio) in zip(columns, kernel.logs(ell, chosen)):
            rows.append(GapTableRow(n, ell, alpha, name, log10_b, log_excess / _LN10, log_ratio / _LN10))


class _Formatted(dict):
    """value -> its text, formatting each distinct value once."""

    def __init__(self, fmt) -> None:
        super().__init__()
        self.fmt = fmt

    def __missing__(self, value):
        text = self[value] = self.fmt(value)
        return text


def _cells(rows):
    """Each row's rendered fields, in CSV_HEADER order.

    n, ell, alpha and log10_B take few distinct values in a table, so
    each is formatted once per call, as is the classical ratio 1.
    """
    ints = _Formatted(str)
    sigs = _Formatted(_sig)
    for n, ell, alpha, variant, log10_b, log10_excess, log10_ratio in rows:
        yield (
            ints[n],
            ints[ell],
            sigs[alpha],
            variant,
            sigs[log10_b],
            _sig(log10_excess),
            "1" if log10_ratio == 0.0 else format_from_log10(log10_ratio),
        )


def render_csv(rows) -> str:
    # no field needs quoting: digits, signs, '.', 'e', '+' and variant names
    lines = [CSV_HEADER]
    lines.extend(",".join(cells) for cells in _cells(rows))
    lines.append("")
    return "\n".join(lines)


def render_json(rows, meta: dict | None = None) -> str:
    # emitted by hand: ratio literals like 1.23456789012e+4000 must land
    # in the stream as bare numbers, which json.dumps cannot produce
    out = []
    for n, ell, alpha, variant, log10_b, log10_excess, ratio in _cells(rows):
        out.append(
            f'{{"n": {n}, "ell": {ell}, "alpha": {alpha}, "variant": "{variant}", '
            f'"log10_B": {log10_b}, "log10_excess": {log10_excess}, "ratio_vs_cly": {ratio}}}'
        )
    body = ",\n    ".join(out)
    meta_part = ""
    if meta:
        pairs = ", ".join(f'"{k}": "{meta[k]}"' for k in sorted(meta))
        meta_part = f',\n  "meta": {{{pairs}}}'
    return f'{{\n  "rows": [\n    {body}\n  ]{meta_part}\n}}\n'


def render_pretty(rows) -> str:
    """Aligned text table; the excess column doubles as a lower bound

      volume ratio >= 1 + 10^(log10_excess)

    which is the readable form once the excess drops below float eps.
    """
    header = CSV_HEADER.split(",")
    cells = [header]
    cells.extend(_cells(rows))
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    lines.append("")
    lines.append("volume ratio >= 1 + 10^(log10_excess) for each row")
    return "\n".join(lines) + "\n"

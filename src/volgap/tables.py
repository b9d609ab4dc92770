"""Tabulation of the gap bounds over parameter grids.

Output is deterministic byte for byte: no timestamps, no environment
leakage, fixed column order, fixed float formatting (12 significant
digits).  A row holds plain floats, no LogScalar: the bounds as base-10
logs, and the ratio to the classical excess as its base-10 log too,
since ratios routinely exceed float range.  A large ratio is rendered
as a mantissa/exponent literal (still a valid JSON number).

A gap table request is checked in full before any row is computed, so
an invalid n, ell or alpha raises ValueError whatever else it holds.
Rows are then built in one loop over n: one BoundKernel per (n, alpha)
supplies the logs of every row.  All three renderers format rows
through one helper that formats each repeated value (n, ell, alpha,
log10_B) once per call.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .bounds import DEFAULT_ALPHA, BoundKernel, GapParams, GapVariant, Tuning
from .bounds import gap_excess  # noqa: F401  (perfbench's tracer tests wrap tables.gap_excess)
from .logdomain import _LN10
from .solver import optimal_alpha

CSV_HEADER = "n,ell,alpha,variant,log10_B,log10_excess,ratio_vs_cly"


class GapTableRow(NamedTuple):
    n: int
    ell: int
    alpha: float  # 2 on classical rows, the tuning actually used otherwise
    variant: str
    log10_denominator: float
    log10_excess: float
    log10_ratio_vs_cly: float  # 0 on classical rows


_sig = "{:.12g}".format  # a float's text at 12 significant digits


def format_from_log10(log10_value: float) -> str:
    """Render a positive quantity given as log10 to 12 significant digits.

    Values inside comfortable float range go through float formatting;
    anything larger becomes an explicit mantissa/exponent literal, so
    1e400-scale ratios survive serialisation.
    """
    if math.isinf(log10_value):
        raise ValueError("cannot format an infinite magnitude")
    if abs(log10_value) < 300.0:
        return _sig(10.0 ** log10_value)
    exponent = math.floor(log10_value)
    mantissa = f"{10.0 ** (log10_value - exponent):.11f}"
    if mantissa == "10.00000000000":  # rounding spilled over a decade
        mantissa = "1.00000000000"
        exponent += 1
    return f"{mantissa}e+{exponent}" if exponent >= 0 else f"{mantissa}e{exponent}"


def build_gap_table(n_values, ell_values, alpha=DEFAULT_ALPHA, variants=None) -> list[GapTableRow]:
    """Rows for every (n, ell, variant) combination, in grid order.

    alpha may be a positive float applied everywhere or the string
    "auto", which tunes alpha per (n, ell) by maximising the excess.
    Classical rows always use the fixed tuning 2 and report it.

    GapParams checks every n at the first ell, then every ell at the
    first n, at the tuned alpha, before any row is computed.  At auto,
    or with no tuned variant, that alpha is the classical 2, valid at
    every ell >= 1; an auto point's own tuning is valid too, since the
    solver's root u is positive.  Rows are read from one BoundKernel per
    n at a fixed alpha and one per (n, ell) at auto, which takes the
    solver's exact pair (bounds.Tuning); each kernel is built before
    its rows.
    """
    ns = [int(n) for n in n_values]
    ells = [int(ell) for ell in ell_values]
    if not ns or not ells:
        raise ValueError("need at least one n and one ell")
    auto = alpha == "auto"
    if not auto:
        alpha = float(alpha)
    chosen = tuple(GapVariant(v) for v in variants) if variants else tuple(GapVariant)
    tuned = any(v is not GapVariant.CLY for v in chosen)
    checked = alpha if tuned and not auto else 2.0
    for n in ns:
        GapParams(n=n, ell=ells[0], alpha=checked)
    for ell in ells[1:]:
        GapParams(n=ns[0], ell=ell, alpha=checked)
    rows = []
    for n in ns:
        if auto and tuned:
            for ell in ells:
                kernel = BoundKernel(n, Tuning.excess(ell, optimal_alpha(n, ell).root))
                _add_rows(rows, kernel, (ell,), chosen)
        else:
            _add_rows(rows, BoundKernel(n, checked), ells, chosen)
    return rows


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

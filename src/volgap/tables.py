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
supplies the logs of every row, as columns over the request's ells.  At
a fixed alpha the ell-only terms are computed once per request (one
bounds._EllColumns); at alpha = auto each (n, ell) has its own tuning
and kernel, and one column pass per n reads them all.  All three
renderers format rows through one helper that formats each distinct
value of every column about once, through a bounded memo.  Values
repeat a lot: n, ell, alpha and log10_B take few values, and from about
n = 20 on the ell terms vanish into log B at double precision, so
excesses and ratios repeat across ell too (the 65,600 rows of
2:165 x 1:100 at alpha 1.43 hold 3,858 distinct excesses and 2,656
distinct ratios).  The JSON renderer joins its text in one copy.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .bounds import DEFAULT_ALPHA, BoundKernel, GapParams, GapVariant, Tuning, _bound_columns, _EllColumns
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

    n_values and ell_values are sequences of ints (a list, tuple or
    range), read in place, so an invalid request costs no copy of its
    ranges.  GapParams checks every n, then every ell, at the tuned
    alpha, before any row is computed; of a range it checks only the two
    ends, the smaller first (_deciding).  At auto, or with no tuned
    variant, that alpha is the classical 2, valid at every ell >= 1; an
    auto point's own tuning is valid too, since the solver's root u is
    positive.  Rows are read from one BoundKernel per n at a fixed alpha,
    and one per (n, ell) at auto, which takes the solver's exact pair
    (bounds.Tuning).  The ell terms are one column set per request at a
    fixed alpha, and one per n at auto, read in one pass per n
    (bounds._bound_columns).  At auto every kernel of an n is built
    before its rows; that moves no first error, since a solve or kernel
    that fails at a checked point fails at the first ell of its n (n C_n
    past the double range).
    """
    if not n_values or not ell_values:
        raise ValueError("need at least one n and one ell")
    auto = alpha == "auto"
    if not auto:
        alpha = float(alpha)
    chosen = tuple(GapVariant(v) for v in variants) if variants else tuple(GapVariant)
    tuned = any(v is not GapVariant.CLY for v in chosen)
    checked = alpha if tuned and not auto else 2.0
    ns, ells = _deciding(n_values), _deciding(ell_values)
    for n in ns:
        GapParams(n=n, ell=ells[0], alpha=checked)
    for ell in ells:
        GapParams(n=ns[0], ell=ell, alpha=checked)
    labels = [(v.value, v is GapVariant.CLY) for v in chosen]  # read once per request
    rows = []
    if auto and tuned:
        for n in n_values:
            kernels = [BoundKernel(n, Tuning.excess(ell, optimal_alpha(n, ell).root)) for ell in ell_values]
            _add_rows(rows, kernels, _EllColumns(ell_values, [k.tuning for k in kernels]), chosen, labels)
    else:
        tuning, m = Tuning(checked), len(ell_values)
        columns = _EllColumns(ell_values, [tuning] * m)
        for n in n_values:
            _add_rows(rows, [BoundKernel(n, tuning)] * m, columns, chosen, labels)
    return rows


def _deciding(values):
    """The items of values whose GapParams checks decide every item's.

    Each check is monotone in n and in ell (n >= 2, ell >= 1, alpha ell
    > 1, ell a finite float), and a range holds only ints, so the ends of
    a range decide it, the smaller end first: a too-small item, which is
    invalid input, is found before a too-large one, which overflows.
    Any other sequence is checked item by item.
    """
    if isinstance(values, range):
        return sorted((values[0], values[-1]))
    return values


def _add_rows(rows: list, kernels, cols: _EllColumns, chosen, labels) -> None:
    """Append the rows at each ell of cols, read from the per-variant columns.

    kernels[i] is the kernel at cols.ells[i] (bounds._bound_columns);
    labels holds each chosen variant's name and whether its rows are
    classical.
    """
    first = kernels[0]
    n, m = first.n, len(kernels)
    tuned = ([k.tuning.alpha for k in kernels], [k.log_b / _LN10 for k in kernels])
    classical = ([2.0] * m, [first.log_b_cly / _LN10] * m)
    columns = [
        (name, *(classical if is_classical else tuned), excesses, ratios)
        for (name, is_classical), (_, excesses, ratios) in zip(labels, _bound_columns(kernels, cols, chosen))
    ]
    # tuple.__new__(GapTableRow, fields) is GapTableRow(*fields) without
    # the NamedTuple constructor's Python-level wrapper
    append, new = rows.append, tuple.__new__
    for i, ell in enumerate(cols.ells):
        for name, alphas, log10_bs, excesses, ratios in columns:
            fields = (n, ell, alphas[i], name, log10_bs[i], excesses[i] / _LN10, ratios[i] / _LN10)
            append(new(GapTableRow, fields))


class _Formatted(dict):
    """value -> its text, formatting each distinct value once.

    The memo is emptied when it reaches SIZE entries.  Tables repeat
    values within one n and seldom across n, so the bound loses almost
    no hits, and a grid of mostly distinct values (small n, many ell)
    does not keep every cell's text alive until the render ends.
    """

    SIZE = 1024

    def __init__(self, fmt) -> None:
        super().__init__()
        self.fmt = fmt

    def __missing__(self, value):
        if len(self) >= self.SIZE:
            self.clear()
        text = self[value] = self.fmt(value)
        return text


def _cells(rows):
    """Each row's rendered fields, in CSV_HEADER order.

    Every column goes through a _Formatted memo, so each distinct value
    is formatted about once per call (see the module docstring for why
    values repeat).  The classical log ratio 0.0 needs no special case: it
    renders as "1", and so does -0.0, which is the same key.
    """
    ints = _Formatted(str)
    sigs = _Formatted(_sig)
    ratios = _Formatted(format_from_log10)
    for n, ell, alpha, variant, log10_b, log10_excess, log10_ratio in rows:
        yield (
            ints[n],
            ints[ell],
            sigs[alpha],
            variant,
            sigs[log10_b],
            sigs[log10_excess],
            ratios[log10_ratio],
        )


def render_csv(rows) -> str:
    # no field needs quoting: digits, signs, '.', 'e', '+' and variant names
    lines = [CSV_HEADER]
    lines.extend(",".join(cells) for cells in _cells(rows))
    lines.append("")
    return "\n".join(lines)


def render_json(rows, meta: dict | None = None) -> str:
    # emitted by hand: ratio literals like 1.23456789012e+4000 must land
    # in the stream as bare numbers, which json.dumps cannot produce;
    # head, rows, separators and tail are joined in one copy
    sep = ",\n    "
    parts = ['{\n  "rows": [\n    ']
    for n, ell, alpha, variant, log10_b, log10_excess, ratio in _cells(rows):
        parts.append(
            f'{{"n": {n}, "ell": {ell}, "alpha": {alpha}, "variant": "{variant}", '
            f'"log10_B": {log10_b}, "log10_excess": {log10_excess}, "ratio_vs_cly": {ratio}}}'
        )
        parts.append(sep)
    if len(parts) > 1:
        parts.pop()  # no separator after the last row
    parts.append("\n  ]")
    if meta:
        pairs = ", ".join(f'"{k}": "{meta[k]}"' for k in sorted(meta))
        parts.append(f',\n  "meta": {{{pairs}}}')
    parts.append("\n}\n")
    return "".join(parts)


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

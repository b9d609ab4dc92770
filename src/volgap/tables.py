"""Tabulation of the gap bounds over parameter grids.

Output is deterministic byte for byte: no timestamps, no environment
leakage, fixed column order, fixed float formatting (12 significant
digits).  Ratios between bounds routinely exceed float range, so they
are carried as LogScalar and rendered as mantissa/exponent literals
(still valid JSON numbers) rather than passed through float().

Gap tables are built per n: one BoundKernel per (n, alpha) supplies the
logs of every row, and each (n, ell) point is validated once.  All three
renderers format a row through one row-to-cells helper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import DEFAULT_ALPHA, BoundKernel, GapParams, GapVariant, Tuning
from .bounds import gap_excess  # noqa: F401  (perfbench's tracer tests wrap tables.gap_excess)
from .logdomain import _LN10, LogScalar
from .solver import optimal_alpha

CSV_HEADER = "n,ell,alpha,variant,log10_B,log10_excess,ratio_vs_cly"

_VARIANT_ORDER = (
    GapVariant.CLY,
    GapVariant.THM1,
    GapVariant.THM2_CASE1,
    GapVariant.THM2_CASE2,
)


@dataclass(frozen=True)
class GapTableRow:
    n: int
    ell: int
    alpha: float  # 2 on classical rows, the tuning actually used otherwise
    variant: str
    log10_denominator: float
    log10_excess: float
    ratio_vs_cly: LogScalar


def _sig(x: float) -> str:
    return f"{x:.12g}"


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


def format_ratio(ratio: LogScalar) -> str:
    if ratio.is_zero:
        return "0"
    return format_from_log10(ratio.log10_mag, ratio.sign)


def build_gap_table(n_values, ell_values, alpha=DEFAULT_ALPHA, variants=None) -> list[GapTableRow]:
    """Rows for every (n, ell, variant) combination, in grid order.

    alpha may be a positive float applied everywhere or the string
    "auto", which tunes alpha per (n, ell) by maximising the excess.
    Classical rows always use the fixed tuning 2 and report it.

    Each point is validated once, as its first row's GapParams would
    be, and every row is read from one BoundKernel per (n, alpha); an
    auto point's kernel takes the solver's exact pair (bounds.Tuning).
    """
    ns = [int(n) for n in n_values]
    ells = [int(ell) for ell in ell_values]
    if not ns or not ells:
        raise ValueError("need at least one n and one ell")
    auto = alpha == "auto"
    if not auto:
        alpha = float(alpha)
    chosen = tuple(GapVariant(v) for v in variants) if variants else _VARIANT_ORDER
    cly_first = chosen[0] is GapVariant.CLY
    tuned = any(v is not GapVariant.CLY for v in chosen)
    retune = auto and tuned
    fixed = alpha if tuned else 2.0
    names = [(v.value, v is GapVariant.CLY) for v in chosen]
    rows = []
    for n in ns:
        kernel = None
        for ell in ells:
            if kernel is not None and not retune:
                GapParams(n=n, ell=ell, alpha=kernel.tuning)
            else:
                tuning = Tuning.excess(ell, optimal_alpha(n, ell).root) if retune else fixed
                if kernel is None and cly_first and tuned:
                    # a classical first row is evaluated, and fails, before
                    # the tuned alpha is checked or its kernel built
                    GapParams(n=n, ell=ell, alpha=2.0)
                    BoundKernel(n, 2.0).logs(ell, chosen[:1])
                GapParams(n=n, ell=ell, alpha=tuning)
                kernel = BoundKernel(n, tuning)
            for (name, classical), (log_b, log_excess, log_ratio) in zip(
                    names, kernel.logs(ell, chosen)):
                rows.append(GapTableRow(
                    n, ell, 2.0 if classical else kernel.tuning.alpha, name,
                    log_b / _LN10, log_excess / _LN10, LogScalar(1, log_ratio),
                ))
    return rows


def _cells(row: GapTableRow) -> tuple[str, ...]:
    """The rendered fields of a row, in CSV_HEADER order."""
    return (
        str(row.n),
        str(row.ell),
        _sig(row.alpha),
        row.variant,
        _sig(row.log10_denominator),
        _sig(row.log10_excess),
        format_ratio(row.ratio_vs_cly),
    )


def render_csv(rows) -> str:
    # no field needs quoting: digits, signs, '.', 'e', '+' and variant names
    lines = [CSV_HEADER]
    lines.extend(",".join(_cells(row)) for row in rows)
    lines.append("")
    return "\n".join(lines)


def render_json(rows, meta: dict | None = None) -> str:
    # emitted by hand: ratio literals like 1.23456789012e+4000 must land
    # in the stream as bare numbers, which json.dumps cannot produce
    out = []
    for row in rows:
        n, ell, alpha, variant, log10_b, log10_excess, ratio = _cells(row)
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
    cells.extend(_cells(row) for row in rows)
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    lines.append("")
    lines.append("volume ratio >= 1 + 10^(log10_excess) for each row")
    return "\n".join(lines) + "\n"

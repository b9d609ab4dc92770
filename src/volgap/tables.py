"""Tabulation of the gap bounds over parameter grids.

Output is deterministic byte for byte: no timestamps, no environment
leakage, fixed column order, fixed float formatting (12 significant
digits).  A table holds plain floats, no LogScalar: the bounds as natural
logs, and the ratio to the classical excess as its natural log too,
since ratios routinely exceed float range.  A log becomes base 10 only
where it is read: as text, or as a GapTableRow field.  A large ratio is
rendered as a mantissa/exponent literal (still a valid JSON number).

A gap table request is checked in full before any row is computed, so
an invalid n, ell or alpha raises ValueError whatever else it holds,
and a numerator the chosen variants form past the double range raises
OverflowError before any kernel is built, the request's one such check.
The table is then built in one loop over n, as one block per n: per
chosen variant, the columns of alpha, log B, log excess and the log
ratio over the request's ells, the very lists the column pass over one
BoundKernel per (n, alpha) returns (bounds._bound_columns), the
classical ones too.  At a fixed alpha the
ell-only terms are computed once per request (one bounds._EllColumns);
at alpha = auto each (n, ell) has its own tuning, from
solver.optimal_alpha, and its own kernel, and one column pass per n
reads them all.  Wherever the case (i) bump underflows against its
numerator at every ell of an n (bounds._case1_bumps), THM2_CASE1's
columns are THM1's own lists, and a render turns them into text once.
build_gap_table returns a _TableRows: the ells once, then one (n,
columns) block per n.  Iterating it derives each GapTableRow only when
read, dividing its logs by ln 10 there.

All three renderers read a built table through one helper, _text_blocks,
which turns each block's columns into columns of text: each alpha, log
B, excess and ratio column once per block, so variants that share a
column share its text, and each value about once per distinct value,
through bounded memos; a variant's heads (alpha,variant,log10_B) are
built from its alpha and log B texts.  Values repeat a lot: alpha and
log B take one value per n and variant at a fixed alpha, and from about
n = 20 on the ell terms vanish into log B at double precision, so
excesses and ratios repeat across ell too (the 65,600 rows of 2:165 x
1:100 at alpha 1.43 hold 3,858 distinct excesses and 2,656 distinct
ratios, and 904 of their 990 columns hold one value).  The CSV and JSON
renderers then write each block as one C-level join over line texts
(_block_text): the ells' texts once per table, and per variant one row
tail, formed once, where its head, excess and ratio columns each hold
one text, or else those columns' texts as they are; no row has code or
a string of its own.  They yield one chunk of text per n (_csv_chunks,
_json_chunks), which the CLI writes as it comes, so their memory
follows the table and not its text; render_csv and render_json join
those chunks.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from typing import NamedTuple

from .bounds import (
    _CLASSICAL, DEFAULT_ALPHA, BoundKernel, GapParams, GapVariant, Tuning, _bound_columns, _check_numerators,
    _EllColumns, _tuning,
)
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


def build_gap_table(n_values, ell_values, alpha=DEFAULT_ALPHA, variants=None) -> _TableRows:
    """The table of every (n, ell, variant) combination, iterating in grid order.

    alpha may be a positive float applied everywhere or the string
    "auto", which tunes alpha per (n, ell) by maximising the excess.
    Classical rows always use bounds._CLASSICAL (alpha = 2) and report it.

    n_values and ell_values are sequences of ints (a list, tuple or
    range), read in place, so an invalid request costs no copy of its
    ranges.  GapParams checks every n, then every ell, at the tuned
    alpha, before any row is computed; of a range it checks only the two
    ends, the smaller first (_deciding).  At auto, or with no tuned
    variant, that is the classical tuning, valid at every ell >= 1; an
    auto point's own tuning is valid too, since the solver's root u is
    positive.  The same ells, at the first n checked, then decide
    whether 2 ell - 1 and, at a fixed alpha, each chosen variant's
    numerator fit a double (bounds._check_numerators); at auto the
    solver's pair forms ell u and 1 + 2 ell u, which cannot overflow.

    Rows are read from one BoundKernel per n at a fixed alpha, and one
    per (n, ell) at auto, which takes the solver's exact pair
    (bounds.Tuning) from optimal_alpha; n C_n is memoised in specials,
    so the solves and kernels of an n compute it once.  The ell terms
    are one column set per request at a fixed alpha, and one per n at
    auto, read in one pass per n (bounds._bound_columns).  At auto every
    kernel of an n is built before its rows; that moves no first error,
    since a solve or kernel that fails at a checked point fails at the
    first ell of its n (n C_n past the double range), and no numerator
    can fail once the request is checked.

    The table is a _TableRows over ell_values and one block per n
    (_block); an empty n or ell sequence would leave it no row, and raises.
    """
    if not n_values or not ell_values:
        raise ValueError("need at least one n and one ell")
    auto = alpha == "auto"
    if not auto:
        alpha = float(alpha)
    chosen = tuple(GapVariant(v) for v in variants) if variants else tuple(GapVariant)
    tuned = any(v is not GapVariant.CLY for v in chosen)
    checked = alpha if tuned and not auto else _CLASSICAL
    ns, ells = _deciding(n_values), _deciding(ell_values)
    for n in ns:
        GapParams(n=n, ell=ells[0], alpha=checked)
    for ell in ells:
        GapParams(n=ns[0], ell=ell, alpha=checked)
    tuning = _tuning(checked)
    _check_numerators(ns[0], _EllColumns(ells, [tuning] * len(ells)), () if auto else chosen)
    if auto and tuned:
        blocks = []
        for n in n_values:
            kernels = [BoundKernel(n, Tuning.excess(ell, optimal_alpha(n, ell).root)) for ell in ell_values]
            cols = _EllColumns(ell_values, [k.tuning for k in kernels])
            blocks.append(_block(kernels, cols, chosen))
    else:
        m = len(ell_values)
        columns = _EllColumns(ell_values, [tuning] * m)
        blocks = [_block([BoundKernel(n, tuning)] * m, columns, chosen) for n in n_values]
    return _TableRows(ell_values, blocks)


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


def _block(kernels, cols: _EllColumns, chosen) -> tuple:
    """One n's rows as (n, columns): the lists of _bound_columns, as it returns them.

    columns holds, per chosen variant, (name, alphas, log_Bs,
    log_excesses, log_ratios), the logs natural, the last four indexed
    like cols.ells; the rows run ell by ell, variant by variant.
    kernels[i] is the kernel at cols.ells[i].  Nothing here depends on
    the variant.  A column that variants share (alpha and log B across
    the tuned ones, and all of THM1's where THM2_CASE1 shares them) is
    one list, shared here too.
    """
    columns = _bound_columns(kernels, cols, chosen)
    return kernels[0].n, [(variant.value, *lists) for variant, lists in zip(chosen, columns)]


class _TableRows:
    """A gap table: its ells, then one (n, columns) block per n (_block).

    len and iteration give its GapTableRow values in grid order, each
    derived when read, its logs divided by ln 10 there; the renderers
    read the blocks directly.
    """

    def __init__(self, ells, blocks: list) -> None:
        self.ells, self.blocks = ells, blocks

    def __len__(self) -> int:
        return len(self.ells) * sum(len(columns) for _, columns in self.blocks)

    def __iter__(self):
        for n, columns in self.blocks:
            for i, ell in enumerate(self.ells):
                for name, alphas, log_bs, excesses, ratios in columns:
                    yield GapTableRow(n, ell, alphas[i], name, log_bs[i] / _LN10, excesses[i] / _LN10,
                                      ratios[i] / _LN10)


class _Formatted(dict):
    """value -> its text, formatting each distinct value once.

    column(xs) is the texts of a whole column of values: one lookup, its
    text repeated, where xs holds one value.  Each variant that shares xs
    (_block) shares its texts, kept by id for one block, which holds xs
    alive.  next_block drops those and empties the memo once it holds
    SIZE entries; the walker calls it between blocks.  Tables repeat
    values within one n and seldom across n, so the bound loses almost
    no hits, and a grid of mostly distinct values (small n, many ell)
    does not keep every cell's text alive until the render ends.
    """

    SIZE = 1024

    def __init__(self, fmt) -> None:
        super().__init__()
        self.fmt, self.columns = fmt, {}

    def __missing__(self, value):
        text = self[value] = self.fmt(value)
        return text

    def column(self, xs) -> list:
        texts = self.columns.get(id(xs))
        if texts is None:
            texts = [self[xs[0]]] * len(xs) if _same(xs) else list(map(self.__getitem__, xs))
            self.columns[id(xs)] = texts
        return texts

    def next_block(self) -> None:
        self.columns.clear()
        if len(self) >= self.SIZE:
            self.clear()


def _same(xs) -> bool:
    """Whether every item of xs equals the first; every item is compared, not the ends."""
    return xs.count(xs[0]) == len(xs)


def _text_blocks(table: _TableRows, head):
    """Each block of table as text: (n, per variant (heads, excesses, ratios)).

    head(alpha, variant, log10_B), given their texts, is a renderer's
    text for those three fields.  Each alpha, log B, excess and ratio
    column is formatted once per block (_Formatted.column), so variants
    that share a column (_block) share its text, and each value about
    once, through bounded memos keyed by the natural logs, which divide
    by ln 10 on a miss, as a GapTableRow does (see the module docstring
    for why values repeat).  A variant's heads are built from its alpha
    and log B texts: one head, repeated, where both hold one text.  The
    classical log ratio 0.0 needs no special case: it renders as "1",
    and so does -0.0, which is the same key.
    """
    alphas = _Formatted(_sig)
    sigs = _Formatted(lambda log: _sig(log / _LN10))
    ratios = _Formatted(lambda log: format_from_log10(log / _LN10))
    memos = (alphas, sigs, ratios)
    for n, columns in table.blocks:
        for memo in memos:
            memo.next_block()
        block = []
        for name, alpha_column, log_bs, log_excesses, log_ratios in columns:
            alpha_texts, b_texts = alphas.column(alpha_column), sigs.column(log_bs)
            if _same(alpha_texts) and _same(b_texts):
                heads = [head(alpha_texts[0], name, b_texts[0])] * len(b_texts)
            else:
                heads = list(map(head, alpha_texts, repeat(name), b_texts))
            block.append((heads, sigs.column(log_excesses), ratios.column(log_ratios)))
        yield str(n), block


def _block_text(lead: str, ells: list, columns, seps) -> str:
    """One block's rows, ell by ell, variant by variant: lead, the ell's text, then the variant's fields.

    columns holds per variant (heads, excesses, ratios) (_text_blocks),
    and seps the texts after a head, an excess and a ratio.  A variant
    whose three columns each hold one text has one row tail, formed
    once; any other's texts go into the join as they are.  The block is
    one join at C level, with no per-row code and no per-row string.
    """
    after_head, after_excess, end = seps
    fields = []
    for heads, excesses, ratios in columns:
        fields += (repeat(lead), ells)
        if _same(heads) and _same(excesses) and _same(ratios):
            fields.append(repeat(heads[0] + after_head + excesses[0] + after_excess + ratios[0] + end))
        else:
            fields += (heads, repeat(after_head), excesses, repeat(after_excess), ratios, repeat(end))
    return "".join(chain.from_iterable(zip(*fields)))


def render_csv(rows: _TableRows) -> str:
    return "".join(_csv_chunks(rows))


def _csv_chunks(rows: _TableRows):
    """render_csv's text: the header line, then one chunk per n."""
    # no field needs quoting: digits, signs, '.', 'e', '+' and variant names
    yield CSV_HEADER + "\n"
    ells = [f"{ell}," for ell in rows.ells]
    for n, columns in _text_blocks(rows, "{},{},{}".format):
        yield _block_text(f"{n},", ells, columns, (",", ",", "\n"))


def _json_head(alpha: str, variant: str, log10_b: str) -> str:
    return f'"alpha": {alpha}, "variant": "{variant}", "log10_B": {log10_b}'


def render_json(rows: _TableRows, meta: dict | None = None) -> str:
    return "".join(_json_chunks(rows, meta))


def _json_chunks(rows: _TableRows, meta: dict | None):
    """render_json's text: the opening, one chunk per n, then the closing with meta."""
    # emitted by hand: ratio literals like 1.23456789012e+4000 must land
    # in the stream as bare numbers, which json.dumps cannot produce
    yield '{\n  "rows": [\n'
    ells = [f"{ell}, " for ell in rows.ells]
    seps = ', "log10_excess": ', ', "ratio_vs_cly": ', "}"
    skip = len(",\n")  # each row opens with the separator, which the table's first row drops
    for n, columns in _text_blocks(rows, _json_head):
        yield _block_text(f',\n    {{"n": {n}, "ell": ', ells, columns, seps)[skip:]
        skip = 0
    tail = "\n  ]"
    if meta:
        pairs = ", ".join(f'"{k}": "{meta[k]}"' for k in sorted(meta))
        tail += f',\n  "meta": {{{pairs}}}'
    yield tail + "\n}\n"


def render_pretty(rows: _TableRows) -> str:
    """Aligned text table; the excess column doubles as a lower bound

      volume ratio >= 1 + 10^(log10_excess)

    which is the readable form once the excess drops below float eps.
    """
    header = CSV_HEADER.split(",")
    cells = [header]
    ells = [str(ell) for ell in rows.ells]
    for n, columns in _text_blocks(rows, lambda *head: head):
        for i, ell in enumerate(ells):
            for heads, excesses, ratios in columns:
                cells.append((n, ell, *heads[i], excesses[i], ratios[i]))
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    lines.append("")
    lines.append("volume ratio >= 1 + 10^(log10_excess) for each row")
    return "\n".join(lines) + "\n"

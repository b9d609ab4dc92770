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
through bounded memos.  Values repeat a lot: alpha and log B take one
value per n and variant at a fixed alpha, and from about n = 20 on the
ell terms vanish into log B at double precision, so excesses and ratios
repeat across ell too (the 65,600 rows of 2:165 x 1:100 at alpha 1.43
hold 3,858 distinct excesses and 2,656 distinct ratios, and 904 of their
990 columns hold one value).  Each renderer names its row as a lead,
the separators before each field (the variant name sits in the one
before log B) and an end, and lays out every block with _block_text, one
C-level join: each run of texts that hold one value over the block is
formed once and repeated, and the other columns' texts go in as they
are; no row has code or a string of its own.  The CSV and JSON
renderers yield one chunk of text per n (_csv_chunks, _json_chunks),
which the CLI writes as it comes, so their memory follows the table and
not its text; render_csv and render_json join those chunks.
render_pretty pads its columns to widths that need every block's text,
so it holds them all.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from itertools import chain, repeat
from operator import methodcaller

from .bounds import (
    _CLASSICAL, DEFAULT_ALPHA, BoundKernel, GapParams, GapVariant, Tuning, _bound_columns, _check_numerators,
    _EllColumns, _tuning,
)
from .bounds import gap_excess  # noqa: F401  (perfbench's tracer tests wrap tables.gap_excess)
from .logdomain import _LN10, _check_positive
from .solver import optimal_alpha

CSV_HEADER = "n,ell,alpha,variant,log10_B,log10_excess,ratio_vs_cly"


class GapTableRow(namedtuple("GapTableRow", "n ell alpha variant log10_denominator log10_excess log10_ratio_vs_cly")):
    """One table row: a classical row has alpha 2 and log10_ratio_vs_cly 0, a tuned row its own alpha."""

    __slots__ = ()


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
    ranges.  A fixed alpha is checked first, even if no tuned variant
    reads it; GapParams then checks every n, then every ell, at the tuned
    alpha, before any row is computed; of a range it checks only the two
    ends, the smaller first (_deciding).  At auto, or with no tuned
    variant, that is the classical tuning, valid at every ell >= 1; an
    auto point's own tuning is valid too, since the solver's root u is
    positive.  The same ells, at the first n checked, then decide
    whether 2 ell - 1 and, at a fixed alpha, each chosen variant's
    numerator fit a double (bounds._check_numerators); at auto the
    solver's pair forms ell u and 2 ell u, which cannot overflow.

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
        _check_positive(alpha, "alpha")
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


def _same(xs) -> bool:
    """Whether every item of xs equals the first; every item is compared, not the ends."""
    return xs.count(xs[0]) == len(xs)


def _texts(done: dict, fmt, xs) -> list:
    """fmt over a column xs: one call, its text repeated, where xs holds one value.

    done keeps each column's texts by id for one block, which holds the
    column alive, so the variants that share a column (_block) share its
    texts; a column list has one role, so its id names one format.
    """
    texts = done.get(id(xs))
    if texts is None:
        texts = done[id(xs)] = [fmt(xs[0])] * len(xs) if _same(xs) else list(map(fmt, xs))
    return texts


def _text_blocks(table: _TableRows):
    """Each block of table as text: (n, per variant (name, alphas, log10_Bs, excesses, ratios)).

    Each alpha, log B, excess and ratio column is formatted once per
    block (_texts), so variants that share a column share its text, and
    each value about once, through memos keyed by the natural logs, which
    divide by ln 10 on a miss, as a GapTableRow does (see the module
    docstring for why values repeat).  The memos are built per call, so
    they read _sig as it is then.  The classical log ratio 0.0 needs no
    special case: it renders as "1", and so does -0.0, which is the same
    key.
    """
    # bounded: tables repeat values within one n and seldom across n, so
    # the bound loses almost no hits, and a grid of mostly distinct values
    # (small n, many ell) does not keep every cell's text alive until the
    # render ends.  An entry also holds a link and a key tuple: 1024 per
    # memo would add 0.4 MB to the peak of a 2:165 x 1:100 render, and 256
    # still form each of its 2,656 distinct ratios once
    memo = functools.lru_cache(maxsize=256)
    alpha, sig = memo(_sig), memo(lambda log: _sig(log / _LN10))
    ratio = memo(lambda log: format_from_log10(log / _LN10))
    for n, columns in table.blocks:
        done = {}
        yield str(n), [(name, _texts(done, alpha, alphas), _texts(done, sig, log_bs),
                        _texts(done, sig, excesses), _texts(done, ratio, ratios))
                       for name, alphas, log_bs, excesses, ratios in columns]


def _block_text(lead: str, ells: list, columns, seps, end: str) -> str:
    """One block's rows, ell by ell, variant by variant, as one join at C level.

    A row is lead, the ell's text, then per field of its variant (alpha,
    log B, excess, ratio) seps(name)'s text before it and its text, then
    end.  columns holds per variant (name, and those four columns of
    text) (_text_blocks).  Each run of texts that hold one value over the
    block (the separators, and every column of one text) is one string,
    repeated; a column that varies goes into the join as it is.  ells is
    never folded into a run: it is the one column every row reads, which
    bounds the join.  No row has code or a string of its own.
    """
    fields, run = [], ""
    for name, *texts in columns:
        fields += (repeat(run + lead), ells)
        run = ""
        for sep, column in zip(seps(name), texts):
            if _same(column):
                run += sep + column[0]
            else:
                fields += (repeat(run + sep), column)
                run = ""
        run += end
    fields.append(repeat(run))
    return "".join(chain.from_iterable(zip(*fields)))


def render_csv(rows: _TableRows) -> str:
    return "".join(_csv_chunks(rows))


def _csv_chunks(rows: _TableRows):
    """render_csv's text: the header line, then one chunk per n."""
    # no field needs quoting: digits, signs, '.', 'e', '+' and variant names
    yield CSV_HEADER + "\n"
    ells = [str(ell) for ell in rows.ells]
    for n, columns in _text_blocks(rows):
        yield _block_text(f"{n},", ells, columns, lambda name: (",", f",{name},", ",", ","), "\n")


def render_json(rows: _TableRows, meta: dict | None = None) -> str:
    return "".join(_json_chunks(rows, meta))


def _json_chunks(rows: _TableRows, meta: dict | None):
    """render_json's text: the opening, one chunk per n, then the closing with meta."""
    # emitted by hand: ratio literals like 1.23456789012e+4000 must land
    # in the stream as bare numbers, which json.dumps cannot produce
    yield '{\n  "rows": [\n'
    ells = [str(ell) for ell in rows.ells]

    def seps(name):
        return ', "alpha": ', f', "variant": "{name}", "log10_B": ', ', "log10_excess": ', ', "ratio_vs_cly": '

    skip = len(",\n")  # each row opens with the separator, which the table's first row drops
    for n, columns in _text_blocks(rows):
        yield _block_text(f',\n    {{"n": {n}, "ell": ', ells, columns, seps, "}")[skip:]
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

    Each column is as wide as its longest text or header, and fields are
    two spaces apart; the widths need every block's texts first.  Rows
    are laid out by _block_text, each text column but the last padded to
    its width (_texts), so no line has trailing spaces.
    """
    header = CSV_HEADER.split(",")
    blocks = list(_text_blocks(rows))
    ells = [str(ell) for ell in rows.ells]
    names, alphas, log_bs, excesses, ratios = zip(*(variant for _, columns in blocks for variant in columns))
    groups = ([n for n, _ in blocks], ells, chain(*alphas), names, chain(*log_bs), chain(*excesses), chain(*ratios))
    widths = [max(map(len, chain((head,), texts))) for head, texts in zip(header, groups)]
    n_pad, ell_pad, alpha_pad, name_pad, b_pad, excess_pad = (methodcaller("ljust", w) for w in widths[:-1])

    def seps(name):
        return "  ", f"  {name_pad(name)}  ", "  ", "  "

    parts = ["  ".join([*map(str.ljust, header, widths[:-1]), header[-1]]) + "\n",
             "  ".join("-" * w for w in widths) + "\n"]
    ells = list(map(ell_pad, ells))
    for n, columns in blocks:
        done = {}
        columns = [(name, _texts(done, alpha_pad, alpha_texts), _texts(done, b_pad, b_texts),
                    _texts(done, excess_pad, excess_texts), ratio_texts)
                   for name, alpha_texts, b_texts, excess_texts, ratio_texts in columns]
        parts.append(_block_text(n_pad(n) + "  ", ells, columns, seps, "\n"))
    parts.append("\nvolume ratio >= 1 + 10^(log10_excess) for each row\n")
    return "".join(parts)

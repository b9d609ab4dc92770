"""Table output: byte identity on pinned grids and literal formatting."""

import collections
import collections.abc
import datetime
import hashlib
import itertools
import json
import math
import random
from pathlib import Path

import mpmath
import pytest

from volgap import bounds, cli, tables
from volgap.bounds import BoundKernel, GapParams, GapVariant, Tuning
from volgap.cli import main
from volgap.solver import optimal_alpha
from volgap.specials import nc_product
from volgap.tables import (
    CSV_HEADER, GapTableRow, build_gap_table, format_from_log10, render_csv, render_json, render_pretty,
)

import oracle
import per_point_bounds as per_point

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"

# an ell at which 2 ell - 1 and, at alpha 1, alpha ell - 1 round into the
# double range, and n + 2 ell, at any n >= 2, rounds past it
TOP_ELL = 2**1023 - 2**969 - 1

# sha256 of `volgap table ...`, to --out and to stdout, recorded before
# the gap tables were built from the per-dimension bound kernel (the auto
# table's before the blocks kept natural logs, the auto pretty and
# one-variant auto tables' before each block was joined from line texts,
# the two full-size pretty tables' before pretty rows were laid out by the
# CSV and JSON row join); any byte of drift fails.
PINNED = [
    (("--alpha", "1.43", "--n-range", "2:30", "--l-range", "1:30"), "csv",
     "134b0b06aca671c0023202a46d74866321df19b7746a6e6e11113eef20a23e37"),
    (("--alpha", "1.43", "--n-range", "2:30", "--l-range", "1:30"), "json",
     "a3ff59860f00d007e0a4200f61235d9ebeae06e7e35768ca6c05f8bb0ba9213d"),
    (("--n-range", "160:165", "--l-range", "1:5"), "csv",
     "2c144cfb9c0cd218170197b385b26551a9c2e029c22cecc0f5fe0c85ee9e87ae"),
    (("--n-range", "160:165", "--l-range", "1:5"), "json",
     "b5b7d94ec9fa4b27b63fe46f23ae715ebb55cbf846d601f5fc81f35284390ea2"),
    (("--n-range", "160:165", "--l-range", "1:5"), "pretty",
     "b51dcc358d29c5b157e42ef6f0ef3edba7cc5624354c37f26fe0581f52fd4810"),
    (("--n-range", "2:30", "--l-range", "1:30", "--variant", "thm2_case1"), "csv",
     "5b56c6116a8998d389cb4b68998c8c15d51f908fc436f7568aac3097c48e867a"),
    (("--n-range", "2:30", "--l-range", "1:30", "--variant", "thm2_case1"), "json",
     "d0f918c4543e288671abef6326dc1259512af4ab5ec09f7f67d92eee028299ed"),
    (("--alpha", "auto", "--n-range", "2:165", "--l-range", "1:30"), "csv",
     "d019254e90b92fa370a07653bdecea2a38fe03ac5bbfaed07d50b65a816fce45"),
    (("--alpha", "auto", "--n-range", "2:165", "--l-range", "1:30"), "json",
     "fc32a97e30f7cfdd37be97f004d5bfda5f6b2ba1ac638a4df0659cf3bcfbafc6"),
    (("--alpha", "auto", "--n-range", "2:30", "--l-range", "1:30"), "pretty",
     "b5a3c6b8199aad9aa7f9bda0cc1adfe83e8569ad9a576ca8140170e3dcb22685"),
    (("--alpha", "auto", "--variant", "thm2_case2"), "csv",
     "7f4f04524d08f0f5192da8818b002a0110774bf28a1d7bfab3c0bbf2c40d8cb8"),
    (("--alpha", "auto", "--variant", "thm2_case2"), "json",
     "3a6782d2fe81eb55f93f6dd044d6eae47d3d5b242615cd5a4601b78edd7ac2c1"),
    (("--alpha", "1.43", "--n-range", "2:165", "--l-range", "1:100"), "pretty",
     "27974aa043d5de0a2913304cbd473a0b5c8a07a603c6db4bad620b3495c3dd40"),
    (("--alpha", "auto", "--n-range", "2:165", "--l-range", "1:30"), "pretty",
     "69cd2740689ea414c5c20ffc81d18b35650899a0941f5f8c8c91c5f12ef80a08"),
]


def written_digests(capsysbinary, tmp_path, argv):
    """sha256 of what argv writes to --out, then to stdout; each run must exit 0."""
    target = tmp_path / "table.out"
    assert main([*argv, "--out", str(target)]) == 0
    assert main(argv) == 0
    return (hashlib.sha256(target.read_bytes()).hexdigest(),
            hashlib.sha256(capsysbinary.readouterr().out).hexdigest())


@pytest.mark.parametrize(
    "argv, fmt, digest", PINNED,
    ids=[f"{' '.join(a)} {f}" for a, f, _ in PINNED],
)
def test_table_bytes_pinned(capsysbinary, tmp_path, argv, fmt, digest):
    assert written_digests(capsysbinary, tmp_path, ["table", *argv, "--format", fmt]) == (digest, digest)


@pytest.mark.parametrize("size, grid", [
    ("tiny", ("--n-range", "2:5", "--l-range", "1:4")),
    ("full", ("--n-range", "2:165", "--l-range", "1:100")),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_bytes_match_the_benchmark_digests(capsysbinary, tmp_path, size, grid, fmt):
    # the benchmark's table workload checks these digests; reading them
    # here keeps its 65,600-row tables byte for byte without running it
    digest = json.loads(GOLDEN.read_text(encoding="utf-8"))[f"table_{size}_{fmt}"]
    argv = ["table", "--alpha", "1.43", *grid, "--format", fmt]
    assert written_digests(capsysbinary, tmp_path, argv) == (digest, digest)


def reference_table(n_values, ell_values, alpha, variants):
    """Rows from checks of the whole request, then per-point kernels, in grid order.

    GapParams checks every n at the first ell, then every ell at the
    first n, at the tuned alpha: the classical 2 at auto or without a
    tuned variant.  At the first n, 2 ell - 1 and then, at a fixed alpha,
    each chosen variant's numerator must be finite at every ell.  Each
    point then builds every kernel its rows use, the tuned one first,
    before any row, and each row reads its own through the per-point
    formulas of per_point_bounds.
    """
    chosen = [GapVariant(v) for v in variants] if variants else list(GapVariant)
    tuned = any(v is not GapVariant.CLY for v in chosen)
    auto = alpha == "auto"
    if not auto:
        alpha = float(alpha)
    checked = alpha if tuned and not auto else 2.0
    for n in n_values:
        GapParams(n=n, ell=ell_values[0], alpha=checked)
    for ell in ell_values:
        GapParams(n=n_values[0], ell=ell, alpha=checked)
    numerators = {
        GapVariant.CLY: ("2 ell - 1", lambda ell: 2.0 * ell - 1.0),
        GapVariant.THM1: ("alpha ell - 1", lambda ell: checked * ell - 1.0),
        GapVariant.THM2_CASE1: ("alpha ell - 1", lambda ell: checked * ell - 1.0),
        GapVariant.THM2_CASE2: ("2 alpha ell - 1", lambda ell: 2.0 * checked * ell - 1.0),
    }
    for v in [GapVariant.CLY] + ([] if auto else chosen):
        what, numerator = numerators[v]
        for ell in ell_values:
            per_point.ln(numerator(ell), what, n_values[0])
    rows = []
    for n in n_values:
        for ell in ell_values:
            tuned_kernel = cly_kernel = None
            if tuned:
                tuning = Tuning.excess(ell, optimal_alpha(n, ell).root) if auto else checked
                tuned_kernel = BoundKernel(n, tuning)
            if GapVariant.CLY in chosen:
                cly_kernel = BoundKernel(n, 2.0)
            for v in chosen:
                kernel = cly_kernel if v is GapVariant.CLY else tuned_kernel
                ((log_b, log_excess, log_ratio),) = per_point.logs(kernel, ell, (v,))
                rows.append(GapTableRow(
                    n, ell, kernel.tuning.alpha, v.value,
                    log_b / math.log(10.0), log_excess / math.log(10.0), log_ratio / math.log(10.0),
                ))
    return rows


def outcome(build, *args):
    try:
        return list(build(*args))
    except Exception as exc:  # the parity is on the exception too
        return type(exc), str(exc)


class TestErrorParity:
    """build_gap_table checks the request, then builds one kernel per n; the first error must not move."""

    CASES = [
        ([2, 3], [3, 1, 0, 2], 1.43, None),  # unsorted ell, one invalid
        ([2, 5, 1, 4], [1, 2], 1.43, None),  # n < 2 after a valid n
        ([2, 3], [1, 2], 0.5, None),  # alpha * ell <= 1
        ([2, 3], [2, 1], 0.5, ["CLY", "THM1"]),
        ([2, 1], [1, 2], 0.5, ["CLY"]),  # classical rows ignore alpha, not n
        ([163, 164, 165, 166], [1, 2], 1.43, None),  # past the double range
        ([166, 2], [1], 0.5, None),  # invalid alpha before the n C_n overflow
        ([164, 165, 166], [1], "auto", ["THM1"]),
        ([3, 1], [1, 2], "auto", None),  # invalid n before any solve
        # at (2, 2) 2 alpha ell - 1 overflows, and the request check meets it
        # in either order; the case (i) bump vanishes there (E = -inf)
        ([2], [2], 5e307, ["THM2_CASE1", "THM2_CASE2"]),
        ([2], [2], 5e307, ["THM2_CASE2", "THM2_CASE1"]),
        # 2 ell - 1 and alpha ell - 1 fit a double; n + 2 ell, in the bump's E, does not
        ([30], [TOP_ELL], 1.0, ["THM2_CASE1"]),
    ]

    def test_the_top_ell_builds_where_no_bump_is_formed(self, capsys):
        want = outcome(reference_table, [30], [TOP_ELL], 1.0, ["THM1"])
        assert isinstance(want, list) and len(want) == 1
        assert outcome(build_gap_table, [30], [TOP_ELL], 1.0, ["THM1"]) == want
        with pytest.raises(OverflowError, match="^ell leaves the double range at n=30$"):
            build_gap_table([30], [TOP_ELL], 1.0, ["THM2_CASE1"])
        argv = ["table", "--alpha", "1", "--n-range", "30:30", "--l-range", f"{TOP_ELL}:{TOP_ELL}", "--variant"]
        assert main([*argv, "thm1"]) == 0
        (row,) = capsys.readouterr().out.splitlines()[1:]
        assert row.startswith(f"30,{TOP_ELL},1,THM1,")
        assert main([*argv, "thm2_case1"]) == 1
        assert capsys.readouterr() == ("", "error: ell leaves the double range at n=30\n")

    @pytest.mark.parametrize("n_values, ell_values, alpha, variants", CASES)
    def test_cases(self, n_values, ell_values, alpha, variants):
        want = outcome(reference_table, n_values, ell_values, alpha, variants)
        assert isinstance(want, tuple)  # each case fails somewhere
        assert outcome(build_gap_table, n_values, ell_values, alpha, variants) == want

    @pytest.mark.parametrize("n_values, ell_values, alpha, want", [
        ([166, 2], [1], 0.5, (ValueError, "alpha*ell must exceed 1 for a positive gap, got 0.5*1")),
        ([3, 1], [1, 2], "auto", (ValueError, "n must be at least 2, got 1")),
    ])
    def test_invalid_input_comes_before_any_computation(self, n_values, ell_values, alpha, want):
        # the same message at auto as at a fixed alpha, whatever else the request holds
        assert outcome(reference_table, n_values, ell_values, alpha, None) == want
        assert outcome(build_gap_table, n_values, ell_values, alpha, None) == want

    def fuzz(self, seed, cases, ell_pool, alphas):
        """How often each outcome kind (rows or an error type) occurs among seeded requests."""
        rng = random.Random(seed)
        n_pool = [1, 2, 3, 4, 7, 30, 164, 165, 166]
        variant_sets = [None, ["CLY"], ["THM1"], ["CLY", "THM1"], ["THM2_CASE2", "CLY"],
                        ["THM2_CASE1", "THM2_CASE2"]]
        kinds = collections.Counter()
        for _ in range(cases):
            ns = rng.sample(n_pool, rng.randint(1, 3))
            ells = rng.sample(ell_pool, rng.randint(1, 3))
            args = (ns, ells, rng.choice(alphas), rng.choice(variant_sets))
            want = outcome(reference_table, *args)
            assert outcome(build_gap_table, *args) == want, args
            kinds[want[0].__name__ if isinstance(want, tuple) else "rows"] += 1
        return kinds

    def test_fuzz(self):
        kinds = self.fuzz(20240607, 300, [0, 1, 2, 3, 5, 30], [1.43, 0.5, 0.9, 1.0, 2.0, 3.7, "auto"])
        failures = 300 - kinds["rows"]
        assert 50 < failures < 250  # both paths are exercised

    def test_fuzz_competing_overflows(self):
        # an ell or alpha near the top of the double range overflows in
        # several places at once; the first one raised must still agree
        kinds = self.fuzz(
            20241018, 1000, [0, 1, 2, 3, 5, 30, 10**308, 2 * 10**308],
            [1.43, 0.5, 0.9, 1.0, 2.0, 3.7, 1e300, 1e308, "auto"],
        )
        assert min(kinds[k] for k in ("rows", "ValueError", "OverflowError")) > 100


@pytest.mark.parametrize("alpha, variants, checked", [
    (1.43, None, tuple(GapVariant)),
    (1.43, ["CLY"], (GapVariant.CLY,)),
    ("auto", None, ()),  # the solver's numerators cannot overflow; 2 ell - 1 is checked alone
])
def test_a_request_checks_its_numerators_once(monkeypatch, alpha, variants, checked):
    # at the first n and the two ends of the ells, before any kernel; the
    # column pass of each n checks none
    calls, real = [], bounds._check_numerators

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bounds, "_check_numerators", counted)
    monkeypatch.setattr(tables, "_check_numerators", counted)
    n_hi = 165 if alpha != "auto" else 8
    rows = build_gap_table(range(2, n_hi + 1), range(1, 101), alpha, variants)
    assert len(rows) == (n_hi - 1) * 100 * len(variants or GapVariant)
    assert [(n, tuple(cols.ells), chosen) for n, cols, chosen in calls] == [(2, (1, 100), checked)]


class _CountingRange(collections.abc.Sequence):
    """range(lo, hi) that counts the items read from it."""

    def __init__(self, lo, hi):
        self.items, self.reads = range(lo, hi), 0

    def __len__(self):
        return len(self.items)

    def __getitem__(self, index):
        self.reads += 1
        return self.items[index]


@pytest.mark.parametrize("n_range, ell_range, message", [
    ((2, 4), (0, 100_000), "ell must be at least 1, got 0"),
    ((1, 100_000), (1, 3), "n must be at least 2, got 1"),
])
def test_an_invalid_request_reads_only_a_few_items(n_range, ell_range, message):
    # the ranges are checked where they are, not copied first
    ns, ells = _CountingRange(*n_range), _CountingRange(*ell_range)
    with pytest.raises(ValueError, match=message):
        build_gap_table(ns, ells, 1.43)
    assert ns.reads + ells.reads <= 4


@pytest.mark.parametrize("ells", [range(0, 2 * 10**308), range(2 * 10**308, -1, -1)], ids=["up", "down"])
def test_a_range_is_decided_by_its_ends_invalid_first(ells):
    # two checks, not 2*10^308; the invalid end wins over the one that overflows
    with pytest.raises(ValueError, match="ell must be at least 1, got 0"):
        build_gap_table(range(2, 5), ells, 1.43)


def reference_cells(rows):
    """Each row's fields, formatted one row at a time with no memo."""
    sig = "{:.12g}".format
    for n, ell, alpha, variant, log10_b, log10_excess, log10_ratio in rows:
        ratio = "1" if log10_ratio == 0.0 else format_from_log10(log10_ratio)
        yield str(n), str(ell), sig(alpha), variant, sig(log10_b), sig(log10_excess), ratio


def reference_text(rows, fmt, meta):
    """What `volgap table` writes for rows, from per-row cells and a plain body join."""
    cells = list(reference_cells(rows))
    framing = "".join(f"# {k}: {meta[k]}\n" for k in sorted(meta)) if meta else ""
    if fmt == "csv":
        return framing + "\n".join([CSV_HEADER, *(",".join(c) for c in cells), ""])
    if fmt == "json":
        body = ",\n    ".join(
            f'{{"n": {n}, "ell": {ell}, "alpha": {alpha}, "variant": "{variant}", '
            f'"log10_B": {log10_b}, "log10_excess": {log10_excess}, "ratio_vs_cly": {ratio}}}'
            for n, ell, alpha, variant, log10_b, log10_excess, ratio in cells
        )
        meta_part = ""
        if meta:
            pairs = ", ".join(f'"{k}": "{meta[k]}"' for k in sorted(meta))
            meta_part = f',\n  "meta": {{{pairs}}}'
        return f'{{\n  "rows": [\n    {body}\n  ]{meta_part}\n}}\n'
    header = CSV_HEADER.split(",")
    widths = [max(len(r[i]) for r in [header, *cells]) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in [header, *cells]]
    lines.insert(1, "  ".join("-" * w for w in widths))
    lines += ["", "volume ratio >= 1 + 10^(log10_excess) for each row"]
    return "\n".join(lines) + "\n" + framing


def first_difference(got: str, want: str):
    """None if the texts are equal, else (line number, got line, wanted line).

    A plain == on two long texts that differ on every line makes pytest
    diff them, which takes minutes.
    """
    if got == want:
        return None
    pairs = itertools.zip_longest(got.split("\n"), want.split("\n"))
    return next((i, a, b) for i, (a, b) in enumerate(pairs) if a != b)


class _FrozenClock(datetime.datetime):
    @classmethod
    def now(cls, tz=None):
        return cls(2024, 6, 7, 8, 9, 10, tzinfo=tz)


class TestRendering:
    """The renderers format each column once and join each block from line texts; their bytes must not move."""

    @pytest.mark.parametrize("with_meta", [False, True], ids=["plain", "meta"])
    @pytest.mark.parametrize("fmt", ["csv", "json", "pretty"])
    @pytest.mark.parametrize("alpha, variant", [
        ("1.43", None), ("auto", None), ("auto", "cly"), ("1.43", "thm2_case2"), ("auto", "thm2_case2"),
    ], ids=["1.43", "auto", "auto-cly", "1.43-thm2_case2", "auto-thm2_case2"])
    def test_bytes_match_a_per_row_reference(self, tmp_path, monkeypatch, alpha, variant, fmt, with_meta):
        # at n < 20 almost every excess and ratio is distinct, so the memo
        # mostly misses; one variant leaves one column per block
        monkeypatch.setattr(cli, "datetime", _FrozenClock)
        target = tmp_path / f"table.{fmt}"
        argv = ["table", "--alpha", alpha, "--n-range", "2:12", "--l-range", "1:300",
                "--format", fmt, "--out", str(target)]
        argv += ["--variant", variant] if variant else []
        assert main(argv + ["--meta"] * with_meta) == 0
        meta = None
        if with_meta:
            meta = {"alpha": alpha, "generated": "2024-06-07T08:09:10+00:00",
                    "l_range": "1:300", "n_range": "2:12"}
        rows = build_gap_table(range(2, 13), range(1, 301), alpha if alpha == "auto" else float(alpha),
                               [variant.upper()] if variant else None)
        assert first_difference(target.read_text(encoding="utf-8"), reference_text(rows, fmt, meta)) is None
        if fmt == "pretty":
            return
        # the command hands main one chunk per n and two more: the CSV
        # framing and header, or the JSON opening and close
        args = cli._parser().parse_args(argv + ["--meta"] * with_meta)
        chunks = list(args.handler(args)[1])
        assert len(chunks) == 2 + 11
        if fmt == "json":
            assert first_difference("".join(chunks), render_json(rows, meta)) is None
        else:
            assert chunks[0] == "".join(f"# {k}: {meta[k]}\n" for k in sorted(meta or ()))
            assert first_difference("".join(chunks[1:]), render_csv(rows)) is None

    @pytest.mark.parametrize("alpha", [1.43, "auto"])
    def test_small_and_large_n_render_like_the_reference(self, alpha):
        # small n, and large n with its ratio literals, in one table
        ns, ells = [2, 3, 9, 164, 165], range(1, 31)
        rows = build_gap_table(ns, ells, alpha)
        want = reference_table(ns, ells, alpha, None)
        meta = {"alpha": str(alpha), "n_range": "2:165"}
        for fmt, text in [("csv", render_csv(rows)), ("json", render_json(rows)),
                          ("pretty", render_pretty(rows))]:
            assert first_difference(text, reference_text(want, fmt, None)) is None, fmt
        assert first_difference(render_json(rows, meta), reference_text(want, "json", meta)) is None

    def test_each_distinct_ratio_is_formatted_about_once(self, monkeypatch):
        # the benchmark's grid: 49,200 tuned rows but 2,655 distinct ratios besides the classical 0
        rows = build_gap_table(range(2, 166), range(1, 101), 1.43)
        calls = []

        def counting(log10_value):
            calls.append(log10_value)
            return format_from_log10(log10_value)

        monkeypatch.setattr(tables, "format_from_log10", counting)
        render_csv(rows)
        distinct = {row.log10_ratio_vs_cly for row in rows}
        # the memo is bounded, so a value seen again after it was emptied
        # is formatted again; on this grid that happens almost never
        assert len(calls) <= len(distinct) * 101 // 100
        assert set(calls) == distinct

    def test_shared_alpha_and_log_b_columns_are_formatted_once_per_block(self, monkeypatch):
        # at auto the tuned variants share one alpha and one log B column
        # per n, whose values differ at each ell; each is formatted once
        # per block, not once per variant
        table = build_gap_table(range(2, 9), range(1, 31), "auto")
        calls, sig = collections.Counter(), tables._sig

        def counting(value):
            calls[value] += 1
            return sig(value)

        monkeypatch.setattr(tables, "_sig", counting)
        render_csv(table)
        blocks = collections.Counter()  # each alpha and log10 B value -> the blocks it is in
        for _, columns in table.blocks:
            blocks.update({x for _, alphas, log_bs, _, _ in columns
                           for x in (*alphas, *(log_b / math.log(10.0) for log_b in log_bs))})
        assert len(blocks) > 7 * 60
        assert all(1 <= calls[x] <= k for x, k in blocks.items())

    @pytest.mark.parametrize("alpha", [1.43, "auto"])
    @pytest.mark.parametrize("ns", [[2], [165], [2, 165], [165, 2]], ids=["2", "165", "2,165", "165,2"])
    def test_the_first_block_leads_like_the_reference(self, alpha, ns):
        # one n, and a first block whose lines vary (n = 2) or hold one text each (n = 165)
        rows = build_gap_table(ns, range(1, 8), alpha)
        want = reference_table(ns, range(1, 8), alpha, None)
        for fmt, render in [("csv", render_csv), ("json", render_json), ("pretty", render_pretty)]:
            assert first_difference(render(rows), reference_text(want, fmt, None)) is None, fmt

    @pytest.mark.parametrize("n_values, ell_values", [
        ([], [1, 2]), ([2, 3], []), ((), ()), (range(2, 2), range(1, 31)), (range(2, 31), range(1, 1)),
    ])
    def test_an_empty_table_cannot_be_built(self, n_values, ell_values):
        with pytest.raises(ValueError, match=r"^need at least one n and one ell$"):
            build_gap_table(n_values, ell_values, 1.43)


class TestRowsView:
    """build_gap_table's result derives rows from its per-n blocks; the renderers never do."""

    def test_len_and_iteration_agree(self):
        assert len(build_gap_table(range(2, 166), range(1, 101))) == 65_600
        rows = build_gap_table(range(2, 8), range(1, 6), 1.43, ["THM2_CASE2", "CLY"])
        listed = list(rows)
        assert len(rows) == len(listed) == 6 * 5 * 2
        assert listed == reference_table(range(2, 8), range(1, 6), 1.43, ["THM2_CASE2", "CLY"])

    @pytest.mark.parametrize("alpha", ["1.43", "auto"])
    @pytest.mark.parametrize("fmt", ["csv", "json", "pretty"])
    def test_the_table_command_builds_no_row(self, tmp_path, monkeypatch, alpha, fmt):
        def no_rows(*fields):
            raise AssertionError("a GapTableRow was built")

        target = tmp_path / f"table.{fmt}"
        argv = ["table", "--alpha", alpha, "--n-range", "2:6", "--l-range", "1:4", "--format", fmt]
        assert main(argv + ["--out", str(target)]) == 0
        want = target.read_bytes()
        monkeypatch.setattr(tables, "GapTableRow", no_rows)
        assert main(argv + ["--out", str(target)]) == 0
        assert target.read_bytes() == want


class TestNaturalLogBlocks:
    """A block keeps the column pass's natural-log lists; rows and texts divide by ln 10 when read."""

    @pytest.mark.parametrize("alpha, variants, ns, ells", [
        (1.43, None, range(2, 31), range(1, 31)),
        (1.43, ["THM2_CASE1"], range(2, 31), range(1, 31)),
        ("auto", None, range(2, 9), range(1, 11)),
        ("auto", ["THM2_CASE2"], range(2, 9), range(1, 11)),
    ])
    def test_a_block_holds_the_column_pass_lists(self, monkeypatch, alpha, variants, ns, ells):
        returned, real = [], bounds._bound_columns

        def recording(*args):
            returned.append(real(*args))
            return returned[-1]

        monkeypatch.setattr(tables, "_bound_columns", recording)
        table = build_gap_table(ns, ells, alpha, variants)
        assert len(returned) == len(table.blocks) == len(ns)
        rows = iter(table)
        ln10 = math.log(10.0)
        for (n, columns), lists in zip(table.blocks, returned):
            assert [len(c) for c in columns] == [5] * len(lists)
            for (_, *held), made in zip(columns, lists):
                assert all(a is b for a, b in zip(held, made, strict=True)), n
            for i in range(len(ells)):
                for name, alphas, log_bs, excesses, ratios in columns:
                    row = next(rows)
                    assert (row.n, row.variant, row.alpha) == (n, name, alphas[i])
                    assert row.log10_denominator.hex() == (log_bs[i] / ln10).hex()
                    assert row.log10_excess.hex() == (excesses[i] / ln10).hex()
                    assert row.log10_ratio_vs_cly.hex() == (ratios[i] / ln10).hex()
        assert next(rows, None) is None

    @staticmethod
    def rendered_like_the_reference(table):
        want = list(table)
        return all(first_difference(render(table), reference_text(want, fmt, None)) is None
                   for fmt, render in [("csv", render_csv), ("json", render_json), ("pretty", render_pretty)])

    # natural logs: alpha, log B, log excess, log ratio; one value each, then one odd one out
    BASE = (1.43, 300.25, -290.5, -1.75)
    ODD = (1.5, 301.0, -280.0, 0.0)

    @pytest.mark.parametrize("where", [0, 3, 6])
    @pytest.mark.parametrize("column", range(4), ids=["alpha", "log_B", "log_excess", "log_ratio"])
    def test_a_column_equal_but_at_one_index_renders_each_value(self, column, where):
        # the constant-column shortcut must read every index, not the ends
        lists = [[x] * 7 for x in self.BASE]
        lists[column][where] = self.ODD[column]
        table = tables._TableRows(range(1, 8), [(40, [("THM1", *lists)])])
        assert self.rendered_like_the_reference(table)

    @pytest.mark.parametrize("where", [0, 3, 6])
    @pytest.mark.parametrize("column", range(4), ids=["alpha", "log_B", "log_excess", "log_ratio"])
    @pytest.mark.parametrize("first", ["constant", "varying"])
    def test_a_block_of_constant_varying_and_shared_variants(self, column, where, first):
        # one variant's line holds one text, one differs at a single ell,
        # and one shares the first's column objects, as THM2_CASE1 does THM1's
        constant = [[x] * 7 for x in self.BASE]
        varying = [[x] * 7 for x in self.BASE]
        varying[column][where] = self.ODD[column]
        variants = [("THM1", *constant), ("THM2_CASE2", *varying), ("THM2_CASE1", *constant)]
        if first == "varying":
            variants.insert(0, variants.pop(1))
        for blocks in ([(40, variants)], [(40, variants), (41, variants[::-1])]):
            assert self.rendered_like_the_reference(tables._TableRows(range(1, 8), blocks))

    def test_a_column_of_zero_and_nonzero_logs(self):
        # a log ratio of 0 (or -0) renders as "1", a log excess of 0 as "0"
        ratios = [0.0, -0.0, 2.5, 0.0, 700.0]
        excesses = [0.0, 0.0, -3.0, 0.0, 0.0]
        table = tables._TableRows(range(1, 6), [(9, [("THM2_CASE2", [1.43] * 5, [4.0] * 5, excesses, ratios)])])
        assert self.rendered_like_the_reference(table)
        assert render_csv(table).splitlines()[1:3] == ["9,1,1.43,THM2_CASE2,1.73717792761,0,1",
                                                       "9,2,1.43,THM2_CASE2,1.73717792761,0,1"]

    @pytest.mark.parametrize("alpha", [1.43, "auto"])
    def test_a_one_ell_table(self, alpha):
        ns = [2, 3, 30, 164, 165]
        table = build_gap_table(ns, [7], alpha)
        assert self.rendered_like_the_reference(table)
        assert list(table) == reference_table(ns, [7], alpha, None)


class TestFormatFromLog10:
    @pytest.mark.parametrize("log10_value, text", [
        (400.9999999999999, "1.00000000000e+401"),
        (-400.0000000000001, "1.00000000000e-400"),
        (400.5, "3.16227766017e+400"),
        (-400.5, "3.16227766017e-401"),
    ])
    def test_mantissa_never_spills_past_ten(self, log10_value, text):
        assert format_from_log10(log10_value) == text

    def test_sign_and_float_range(self):
        assert format_from_log10(2.0) == "100"

    @pytest.mark.parametrize("log10_value", [math.inf, -math.inf])
    def test_an_infinite_magnitude_is_refused(self, log10_value):
        with pytest.raises(ValueError, match="^cannot format an infinite magnitude$"):
            format_from_log10(log10_value)


class TestAutoAlpha:
    def test_every_representable_point_beats_the_fixed_tuning(self):
        # from n = 17 on 1/ell + u rounds to 1/ell; the exact pair keeps
        # every point valid and its excess the maximum
        auto = build_gap_table(range(2, 166), range(1, 31), "auto", ["THM1"])
        fixed = build_gap_table(range(2, 166), range(1, 31), 1.43, ["THM1"])
        assert len(auto) == len(fixed) == 164 * 30
        for a, f in zip(auto, fixed):
            assert (a.n, a.ell) == (f.n, f.ell)
            assert a.log10_excess >= f.log10_excess, (a.n, a.ell)

    def test_n_c_n_is_computed_once_per_n(self):
        # the solves and kernels of each n share the memoised n C_n
        want = reference_table(range(2, 9), range(1, 31), "auto", None)
        nc_product.cache_clear()
        rows = build_gap_table(range(2, 9), range(1, 31), "auto")
        assert nc_product.cache_info().misses == 7
        assert list(rows) == want

    def test_every_tuning_comes_from_the_public_solver(self, monkeypatch):
        calls = collections.Counter()

        def counting(n, ell=1):
            calls[n] += 1
            return optimal_alpha(n, ell)

        want = reference_table(range(2, 9), range(1, 31), "auto", None)
        monkeypatch.setattr(tables, "optimal_alpha", counting)
        rows = build_gap_table(range(2, 9), range(1, 31), "auto")
        assert calls == dict.fromkeys(range(2, 9), 30)
        assert list(rows) == want

    def test_all_variants_build_on_the_full_grid(self):
        rows = build_gap_table(range(2, 166), range(1, 31), "auto")
        assert len(rows) == 164 * 30 * 4

    def test_log10_excess_matches_an_mpmath_oracle(self):
        # in the excess e^(alpha n C_n) swamps the numerator; that one is
        # pinned bit for bit in test_bounds.TestTuning
        points = [(n, ell) for n in range(2, 31) for ell in (1, 2, 5, 30)]
        points += [(n, ell) for n in (40, 80, 120, 164, 165) for ell in (1, 30)]
        for n, ell in points:
            (row,) = build_gap_table((n,), (ell,), "auto", ["THM1"])
            with mpmath.workdps(oracle.DPS):
                want = float(oracle.log_excess("THM1", n, ell, "auto") / mpmath.ln10)
            assert row.log10_excess == pytest.approx(want, rel=1e-12, abs=0), (n, ell)

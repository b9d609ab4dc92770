"""Table output: byte identity on pinned grids and literal formatting."""

import collections
import hashlib
import json
import math
import random
from pathlib import Path

import mpmath
import pytest

from volgap.bounds import BoundKernel, GapParams, GapVariant, Tuning
from volgap.cli import main
from volgap.solver import optimal_alpha
from volgap.tables import GapTableRow, build_gap_table, format_from_log10

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"

# sha256 of `volgap table ... --out FILE`, recorded before the gap tables
# were built from the per-dimension bound kernel; any byte of drift fails.
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
]


@pytest.mark.parametrize(
    "argv, fmt, digest", PINNED,
    ids=[f"{' '.join(a)} {f}" for a, f, _ in PINNED],
)
def test_table_bytes_pinned(tmp_path, argv, fmt, digest):
    target = tmp_path / f"table.{fmt}"
    assert main(["table", *argv, "--format", fmt, "--out", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("size, grid", [
    ("tiny", ("--n-range", "2:5", "--l-range", "1:4")),
    ("full", ("--n-range", "2:165", "--l-range", "1:100")),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_bytes_match_the_benchmark_digests(tmp_path, size, grid, fmt):
    # the benchmark's table workload checks these digests; reading them
    # here keeps its 65,600-row tables byte for byte without running it
    digest = json.loads(GOLDEN.read_text(encoding="utf-8"))[f"table_{size}_{fmt}"]
    target = tmp_path / f"table.{fmt}"
    assert main(["table", "--alpha", "1.43", *grid, "--format", fmt, "--out", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


def reference_table(n_values, ell_values, alpha, variants):
    """Rows from checks of the whole request, then per-point kernels, in grid order.

    GapParams checks every n at the first ell, then every ell at the
    first n, at the tuned alpha: the classical 2 at auto or without a
    tuned variant.  Each point then builds every kernel its rows use,
    the tuned one first, before any row, and each row reads its own.
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
                ((log_b, log_excess, log_ratio),) = kernel.logs(ell, (v,))
                rows.append(GapTableRow(
                    n, ell, kernel.tuning.alpha, v.value,
                    log_b / math.log(10.0), log_excess / math.log(10.0), log_ratio / math.log(10.0),
                ))
    return rows


def outcome(build, *args):
    try:
        return build(*args)
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
    ]

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


def mp_auto_thm1_log10_excess(n: int, ell: int) -> mpmath.mpf:
    """log10 of the THM1 excess at its maximiser, solved here at 50 digits.

    The maximiser u = alpha - 1/ell solves
    u (1 + ell u) n C_n = 1 + (n + 1 + ell) e^(-alpha n C_n), started
    from the root of the quadratic that drops the exponential term.
    """
    with mpmath.workdps(50):
        half = mpmath.mpf(n) / 2
        nc = n * mpmath.mpf(n) ** half * mpmath.e * mpmath.gammainc(half, 1, mpmath.inf) / 2

        def critical(u):
            alpha = mpmath.mpf(1) / ell + u
            return u * (1 + ell * u) * nc - 1 - (n + 1 + ell) * mpmath.exp(-alpha * nc)

        guess = 2 / (nc * (1 + mpmath.sqrt(1 + 4 * ell / nc)))
        u = mpmath.findroot(critical, guess)
        alpha = mpmath.mpf(1) / ell + u
        b = alpha * n + alpha + 1 + alpha * mpmath.exp(alpha * nc)
        return mpmath.log10(ell * u) - mpmath.log10(b)


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
            want = float(mp_auto_thm1_log10_excess(n, ell))
            assert row.log10_excess == pytest.approx(want, rel=1e-12, abs=0), (n, ell)

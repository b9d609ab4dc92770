"""Table output: byte identity on pinned grids and literal formatting."""

import hashlib

import mpmath
import pytest

from volgap.cli import main
from volgap.tables import build_gap_table, format_from_log10

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
        assert format_from_log10(400.5, -1) == "-3.16227766017e+400"
        assert format_from_log10(2.0) == "100"
        assert format_from_log10(0.0, 0) == "0"


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

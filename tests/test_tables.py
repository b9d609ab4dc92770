"""Table output: byte identity on pinned grids and literal formatting."""

import hashlib

import pytest

from volgap.cli import main
from volgap.tables import format_from_log10

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

"""Command line contract: exit codes, output formats, reproducibility."""

import json
import math

import pytest

from volgap.cli import main
from volgap.spectral import heat_trace
from volgap.tables import CSV_HEADER


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestExitCodes:
    def test_verify_default_passes(self, capsys):
        code, out = run(capsys, "verify", "--n-range", "2:6", "--l-range", "1:3")
        assert code == 0
        assert "19/19 claims passed" in out

    def test_injected_fault_fails_with_named_claim(self, capsys):
        code, out = run(
            capsys, "verify", "--n-range", "2:6", "--l-range", "1:3",
            "--cn-scale", "1.001",
        )
        assert code == 1
        assert "FAIL" in out
        assert "C4_EXACT" in out and "C3_APPROX" in out
        assert "17/19 claims passed" in out

    def test_usage_error_bad_alpha(self, capsys):
        assert run(capsys, "verify", "--alpha", "0.5")[0] == 2

    @pytest.mark.parametrize("bad", ["6:2", "abc", "2:, "])
    def test_usage_error_bad_range(self, bad):
        # malformed ranges die inside argparse's type hook
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n-range", bad])
        assert exc.value.code == 2

    def test_usage_error_out_of_domain_range(self, capsys):
        # well-formed syntax, rejected by the suite's own validation
        assert run(capsys, "verify", "--n-range", "0:3")[0] == 2

    def test_usage_error_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2

    def test_usage_error_no_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_computation_error_exits_one(self, capsys):
        # n C_n not representable at n = 200
        code, _ = run(capsys, "gap", "--n", "200", "--l", "1")
        assert code == 1

    def test_unknown_claim_is_usage_error(self, capsys):
        code, out = run(capsys, "verify", "--claim", "NOPE")
        assert code == 2


class TestVerifyOutput:
    def test_text_lines_name_every_claim(self, capsys):
        _, out = run(capsys, "verify", "--n-range", "2:4", "--l-range", "1:2")
        lines = [l for l in out.splitlines() if l.startswith("PASS")]
        assert len(lines) == 19

    def test_json_structure(self, capsys):
        code, out = run(
            capsys, "verify", "--n-range", "2:4", "--l-range", "1:2", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert payload["passed"] == payload["total"] == 19
        assert len(payload["claims"]) == 19
        c4 = next(c for c in payload["claims"] if c["claim_id"] == "C4_EXACT")
        assert c4["status"] == "PASS"
        assert c4["witnesses"]["computed"] == 16.0

    def test_single_claim(self, capsys):
        code, out = run(
            capsys, "verify", "--claim", "RATIO_165", "--json",
            "--n-range", "2:4", "--l-range", "1:2",
        )
        assert code == 0
        payload = json.loads(out)
        assert [c["claim_id"] for c in payload["claims"]] == ["RATIO_165"]
        assert payload["total"] == 1


class TestTable:
    def test_csv_header_exact(self, capsys):
        _, out = run(capsys, "table", "--n-range", "2:3", "--l-range", "1:2")
        assert out.splitlines()[0] == CSV_HEADER

    def test_row_count(self, capsys):
        _, out = run(capsys, "table", "--n-range", "2:3", "--l-range", "1:2")
        # 2 dims x 2 codims x 4 variants + header
        assert len(out.splitlines()) == 17

    def test_byte_reproducible(self, capsys):
        a = run(capsys, "table", "--n-range", "2:4", "--l-range", "1:2")[1]
        b = run(capsys, "table", "--n-range", "2:4", "--l-range", "1:2")[1]
        assert a == b

    def test_meta_breaks_reproducibility_on_purpose(self, capsys):
        _, out = run(capsys, "table", "--n-range", "2:2", "--l-range", "1:1", "--meta")
        assert any(line.startswith("# generated") for line in out.splitlines())

    def test_json_parses_with_huge_ratios(self, capsys):
        _, out = run(
            capsys, "table", "--n-range", "2:6", "--l-range", "1:1",
            "--format", "json",
        )
        rows = json.loads(out)["rows"]
        assert len(rows) == 20
        # the literal in the JSON text carries the full magnitude even
        # though a loading float saturates to inf
        assert '"ratio_vs_cly": 6.82671217515e+801' in out
        big = [r for r in rows if r["n"] == 6 and r["variant"] == "THM1"]
        assert big[0]["ratio_vs_cly"] == math.inf

    def test_variant_filter(self, capsys):
        _, out = run(
            capsys, "table", "--n-range", "2:3", "--l-range", "1:1",
            "--variant", "thm1",
        )
        body = out.splitlines()[1:]
        assert len(body) == 2
        assert all(",THM1," in line for line in body)

    def test_auto_alpha(self, capsys):
        code, out = run(
            capsys, "table", "--n-range", "2:2", "--l-range", "1:1",
            "--alpha", "auto",
        )
        assert code == 0
        thm1 = [l for l in out.splitlines() if ",THM1," in l][0]
        assert thm1.split(",")[2] == "1.42982647695"  # tuned, not 1.43

    def test_pretty_format(self, capsys):
        _, out = run(
            capsys, "table", "--n-range", "2:2", "--l-range", "1:1",
            "--format", "pretty",
        )
        assert "volume ratio >= 1 + 10^(log10_excess)" in out

    def test_bad_variant_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--variant", "THM9"])
        assert exc.value.code == 2


class TestGridErrorContract:
    """Exit code and the one-line message for invalid or unrepresentable grids."""

    @pytest.mark.parametrize("argv, code, message", [
        (("table", "--n-range", "1:3"), 2,
         "usage error: n must be at least 2, got 1"),
        (("table", "--l-range", "0:2"), 2,
         "usage error: ell must be at least 1, got 0"),
        (("table", "--alpha", "0.5", "--l-range", "1:1"), 2,
         "usage error: alpha*ell must exceed 1 for a positive gap, got 0.5*1"),
        (("table", "--n-range", "165:166"), 1,
         "error: n*C_n exceeds the double range at n=166;"
         " exponent-scale formulas stop here"),
    ])
    def test_table_errors(self, capsys, argv, code, message):
        assert main(list(argv)) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"

    def test_classical_rows_ignore_the_tuned_alpha(self, capsys):
        code, out = run(capsys, "table", "--alpha", "0.5", "--variant", "cly")
        assert code == 0
        assert len(out.splitlines()) == 1 + 7 * 4

    def test_gap_auto_collapse_still_exits_two(self, capsys):
        # alpha=auto collapses the tuned excess into 1/ell from n = 17 on
        assert main(["gap", "--n", "17", "--l", "1", "--alpha", "auto"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: alpha*ell must exceed 1")
        assert err.count("\n") == 1


class TestOutFile:
    def test_out_matches_stdout(self, capsys, tmp_path):
        _, out = run(capsys, "table", "--n-range", "2:3", "--l-range", "1:1")
        target = tmp_path / "t.csv"
        code, silent = run(
            capsys, "table", "--n-range", "2:3", "--l-range", "1:1",
            "--out", str(target),
        )
        assert code == 0 and silent == ""
        assert target.read_text() == out


class TestSingleShotCommands:
    def test_gap_prose_and_values(self, capsys):
        code, out = run(capsys, "gap", "--n", "2", "--l", "1")
        assert code == 0
        assert "minimally immersed" in out
        for name in ("CLY", "THM1", "THM2_CASE1", "THM2_CASE2"):
            assert name in out

    def test_gap_json(self, capsys):
        _, out = run(capsys, "gap", "--n", "2", "--l", "1", "--json")
        rows = json.loads(out)
        assert [row["variant"] for row in rows] == [
            "CLY", "THM1", "THM2_CASE1", "THM2_CASE2",
        ]
        thm1 = rows[1]
        assert thm1["excess"] == "0.0142101861928"  # 12 significant digits
        assert thm1["ratio_vs_cly"] == "1.65117105885"

    def test_optimize_alpha(self, capsys):
        code, out = run(capsys, "optimize-alpha", "--n", "2")
        assert code == 0
        assert "1.4298264769460" in out

    def test_optimize_alpha_json(self, capsys):
        _, out = run(capsys, "optimize-alpha", "--n", "2", "--l", "2", "--json")
        payload = json.loads(out)
        assert payload["alpha_star"] == pytest.approx(0.9553232317284198, rel=1e-12)
        assert payload["base"] == 0.5
        assert abs(payload["residual"]) <= 1e-9

    def test_trace_matches_library(self, capsys):
        _, out = run(capsys, "trace", "--n", "2", "--t", "1.0", "--json")
        payload = json.loads(out)
        assert payload["value"] == heat_trace(2, 1.0).value
        assert payload["upper_bound"] >= payload["value"]

    def test_trace_short_time_no_bound(self, capsys):
        code, out = run(capsys, "trace", "--n", "2", "--t", "0.5", "--json")
        assert code == 0
        assert json.loads(out)["upper_bound"] is None

    def test_constants(self, capsys):
        code, out = run(capsys, "constants", "--n-range", "2:6", "--json")
        assert code == 0
        by_n = {row["n"]: row for row in json.loads(out)}
        assert by_n[4]["c_n"] == "16"
        assert by_n[2]["c_n"] == "1"
        assert by_n[3]["log10_c_n"] == pytest.approx(math.log10(3.58258102141221))

    def test_constants_beyond_float_range(self, capsys):
        # values far past 1e308 still print, from their logs
        code, out = run(capsys, "constants", "--n-range", "300:301", "--json")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["c_n"] == "1.91537954911e+632"
        assert all(row["log10_c_n"] > 600 for row in rows)

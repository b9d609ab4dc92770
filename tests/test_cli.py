"""Command line contract: exit codes, output formats, reproducibility."""

import collections
import hashlib
import json
import math
import random
import re

import pytest

from volgap.cli import main
from volgap.solver import _critical_objective
from volgap.specials import nc_product
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

    def test_capped_empty_grid_exits_one_without_made_up_witnesses(self, capsys):
        code, out = run(capsys, "verify", "--n-range", "165:170", "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["passed"] == 12
        errors = [c for c in payload["claims"] if c["status"] == "ERROR"]
        assert len(errors) == 7
        assert all(c["witnesses"] == {} and "capped at 164" in c["grid_note"] for c in errors)
        for claim in payload["claims"]:
            assert all(v is not None for v in claim["witnesses"].values()), claim["claim_id"]

    @pytest.mark.parametrize("n_range, omitted", [
        ("3:10", ("ALPHA_STAR_BRACKET", "gamma_2")),
        ("2:2", ("GAMMAN_LE_13", "max_gamma_from_3")),
    ])
    def test_witness_of_an_n_off_the_grid_is_omitted(self, capsys, n_range, omitted):
        # a witness whose n is not in the grid is left out, not reported as NaN
        code, out = run(capsys, "verify", "--json", "--n-range", n_range)
        assert code == 0
        claims = {c["claim_id"]: c for c in json.loads(out)["claims"]}
        for claim in claims.values():
            assert all(v is not None for v in claim["witnesses"].values()), claim["claim_id"]
        claim_id, key = omitted
        assert claims[claim_id]["status"] == "PASS" and key not in claims[claim_id]["witnesses"]
        code, out = run(capsys, "verify", "--n-range", n_range)
        assert code == 0 and "nan" not in out

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


# sha256 of `volgap verify --json ... --out FILE`, recorded before the grid
# claims became reductions over one bound kernel per n; the FAIL run pins
# where the witnesses land.  The alpha = 3 digest was re-recorded when
# RATIO_165 moved to the alpha = 1.43 its anchor states: only its status,
# its alpha witness and the pass count changed.  All three were re-recorded
# when the tuning root moved from bisection to certified Newton steps: only
# the root-derived witnesses of ALPHA_STAR_BRACKET, GAMMA2_GT_13 and
# GAMMAN_LE_13 changed, in their last digits.  The last one was recorded
# while THM6_CONSISTENCY still built its route from LogScalars: alpha one
# ulp above 1 makes the route round to <= 0 at (2, 1).  All four were
# re-recorded when LEML_GPRIME_NEG began to report first_bad_beta = -1 on
# a pass instead of NaN (JSON null); no other byte changed.
VERIFY_PINNED = [
    ((), "3602c44b1d358131b290deacf022bfac988cfa439e1faaa87faaf17f2007d84d"),
    (("--n-range", "2:400", "--l-range", "1:30"),
     "ed6c87526e38ee075d0dd1fa4fa93037f0b71c7bbe66f93cbeb8f3fac6a77108"),
    (("--alpha", "3.0", "--n-range", "2:400", "--l-range", "1:30"),
     "ea4be69e84f81a88dd9d998c71e3c166db598d4973f4caee9fe4cc5c1c2593f0"),
    (("--alpha", "1.0000000000000002", "--n-range", "2:12", "--l-range", "1:3"),
     "3d520004231563ff154d31725dd61774f6b2a3ef59f02f51791bbfee80e587be"),
]


@pytest.mark.parametrize(
    "argv, digest", VERIFY_PINNED, ids=[" ".join(a) or "default" for a, _ in VERIFY_PINNED],
)
def test_verify_bytes_pinned(tmp_path, argv, digest):
    target = tmp_path / "verify.json"
    main(["verify", "--json", *argv, "--out", str(target)])
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


# sha256 of `volgap gap --n 2 --l 1 [--json] --out FILE`, recorded while
# `gap` still built its own GapParams per variant; fixed-alpha output is
# the table's row rendered for one point and must not drift.
GAP_PINNED = [
    ((), "731be2783b981d7e29cc2a7ffb6165b7fd0b977c9e4c2876ca12b17ceefd9e74"),
    (("--json",), "65db65243d929df9e434581f70293c103cf3248849178ab109d967e486513ea2"),
]


@pytest.mark.parametrize("argv, digest", GAP_PINNED, ids=["text", "json"])
def test_gap_bytes_pinned(tmp_path, argv, digest):
    target = tmp_path / "gap.out"
    assert main(["gap", "--n", "2", "--l", "1", *argv, "--out", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


# sha256 of `volgap constants --json --n-range 2:1000 --out FILE`, recorded
# while log Gamma(s, 1) past s = 170 still ran through LogScalars; n > 340
# reaches that branch for odd n.
CONSTANTS_PINNED = "13a2c54760c052a737c67c0d4bc7f3beaf907a823e638a29f7be66671135476d"


def test_constants_bytes_pinned(tmp_path):
    target = tmp_path / "constants.json"
    assert main(["constants", "--json", "--n-range", "2:1000", "--out", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == CONSTANTS_PINNED


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


_OVERFLOW_POINTS = [("1e300", "30"), ("8e307", "2"), ("8e307", "30"), ("1e308", "2"), ("1e308", "30")]


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
        # invalid input exits 2 before any overflow, with the same
        # message at auto as at a fixed alpha
        (("table", "--n-range", "166:166", "--alpha", "0.5"), 2,
         "usage error: alpha*ell must exceed 1 for a positive gap, got 0.5*1"),
        (("gap", "--n", "166", "--l", "1", "--alpha", "0.5"), 2,
         "usage error: alpha*ell must exceed 1 for a positive gap, got 0.5*1"),
        (("table", "--n-range", "1:3", "--alpha", "auto"), 2,
         "usage error: n must be at least 2, got 1"),
        (("gap", "--n", "1", "--l", "1", "--alpha", "auto"), 2,
         "usage error: n must be at least 2, got 1"),
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

    def test_gap_auto_exits_zero_past_the_collapse(self, capsys):
        # from n = 17 on 1/ell + u rounds to 1/ell; the exact pair (ell, u)
        # still gives a positive numerator, so the point is valid
        assert main(["gap", "--n", "17", "--l", "1", "--alpha", "auto"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        thm1 = captured.out.splitlines()[3]
        assert thm1.startswith("THM1       alpha=1 ")
        assert "excess=3.16227766017e-4050476638913261" in thm1

    # alpha is valid at any positive finite value, so a bound whose terms
    # leave the double range is a computation error, not a usage error;
    # (alpha, n) = (1e300, 2) is still representable and exits 0
    @pytest.mark.parametrize("argv", [
        *(("gap", "--n", n, "--l", "1", "--alpha", a) for a, n in _OVERFLOW_POINTS),
        *(("table", "--n-range", f"{n}:{n}", "--l-range", "1:1", "--alpha", a)
          for a, n in _OVERFLOW_POINTS),
        ("trace", "--n", "100000", "--t", "1"),
    ], ids=" ".join)
    def test_overflow_is_a_one_line_computation_error(self, capsys, argv):
        assert main(list(argv)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "LogScalar" not in captured.err and "math range error" not in captured.err
        n = argv[2].split(":")[0]
        assert re.search(rf"\bn={n}\b", captured.err), captured.err

    def test_auto_tunes_an_ell_far_beyond_the_dimension(self, capsys):
        # the tuning once started from a bracket end 0.1/((1+ell) n C_n),
        # which underflows to 0 here; the point itself is valid
        ell = str(10**16)
        for argv in (
            ("table", "--alpha", "auto", "--n-range", "165:165", "--l-range", f"{ell}:{ell}"),
            ("gap", "--alpha", "auto", "--n", "165", "--l", ell),
        ):
            assert main(list(argv)) == 0, argv
            assert capsys.readouterr().err == ""


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

    def test_optimize_alpha_ell_far_beyond_the_dimension(self, capsys):
        code, out = run(capsys, "optimize-alpha", "--n", "165", "--l", str(10**16), "--json")
        assert code == 0
        payload = json.loads(out)
        assert 0.0 < payload["bracket_lo"] < payload["excess"] < payload["bracket_hi"]

    @pytest.mark.parametrize("tol", ["1e-16", "1e-300"])
    def test_optimize_alpha_tol_below_resolution(self, capsys, tol):
        # no double bracket is that narrow: the certified one is the
        # narrowest whose ends the residual still tells apart
        code, out = run(capsys, "optimize-alpha", "--n", "5", "--l", "3", "--tol", tol, "--json")
        assert code == 0
        payload = json.loads(out)
        lo, root, hi = payload["bracket_lo"], payload["excess"], payload["bracket_hi"]
        assert lo <= root <= hi
        ncn = nc_product(5)
        assert _critical_objective(lo, 5, 3, ncn)[0] < 0.0 < _critical_objective(hi, 5, 3, ncn)[0]

    def test_optimize_alpha_tol_outside_the_unit_interval_is_a_usage_error(self, capsys):
        assert main(["optimize-alpha", "--n", "2", "--tol", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: tol must lie in (0, 1), got 2.0\n"

    def test_trace_matches_library(self, capsys):
        _, out = run(capsys, "trace", "--n", "2", "--t", "1.0", "--json")
        payload = json.loads(out)
        assert payload["value"] == heat_trace(2, 1.0).value
        assert payload["upper_bound"] >= payload["value"]

    def test_trace_short_time_no_bound(self, capsys):
        code, out = run(capsys, "trace", "--n", "2", "--t", "0.5", "--json")
        assert code == 0
        assert json.loads(out)["upper_bound"] is None

    def test_trace_level_cap_is_a_one_line_error(self, capsys):
        # t = 1e-10 needs about 600k levels, past the 200k cap
        assert main(["trace", "--n", "2", "--t", "1e-10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: heat trace did not converge")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("--n", "300", "--t", "4e-5"),  # the sum overflows, no single term does
        ("--n", "250", "--t", "1.6e-5"),  # one term overflows on its own
    ])
    @pytest.mark.parametrize("fmt", [(), ("--json",)], ids=["text", "json"])
    def test_trace_overflow_is_a_one_line_error(self, capsys, argv, fmt):
        assert main(["trace", *argv, *fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: heat trace exceeds the double range at n=")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (("--n", "1", "--t", "1"), "dimension must be at least 2, got 1"),
        (("--n", "2", "--t", "0"), "time must be positive and finite, got 0.0"),
        (("--n", "2", "--t=-1"), "time must be positive and finite, got -1.0"),
        (("--n", "2", "--t", "nan"), "time must be positive and finite, got nan"),
        (("--n", "2", "--t", "inf"), "time must be positive and finite, got inf"),
    ])
    def test_trace_invalid_input_is_a_usage_error_in_library_wording(self, capsys, argv, message):
        assert main(["trace", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: {message}\n"

    def test_trace_small_time_converges(self, capsys):
        code, out = run(capsys, "trace", "--n", "2", "--t", "1e-7", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(1e7 + 1.0 / 3.0, rel=1e-13)
        assert payload["tail_bound"] <= 1e-14 * payload["value"]

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


class TestExitContractFuzz:
    """Seeded random argv over all six commands, valid, invalid and overflowing."""

    N = ["-1", "1", "2", "12", "165", "166", "100000"]
    ELL = ["0", "1", "2", "30", str(10**308), str(2 * 10**308)]
    ALPHA = ["1.43", "0.5", "0.9", "auto", "1e300", "1e308", "x"]
    TOL = ["1e-12", "1e-16", "0.5", "0", "1", "nan"]

    def draw(self, rng):
        """(argv, invalid): invalid is True for a table or gap request that must exit 2."""
        command = rng.choice(["verify", "table", "table", "table", "constants", "gap", "gap", "gap",
                              "optimize-alpha", "trace"])
        if command == "verify":
            lo, hi = rng.choice(["0", "1", "2", "3", "7"]), rng.choice(["2", "5", "12"])
            argv = ["verify", "--n-range", f"{lo}:{hi}", "--l-range", rng.choice(["0:2", "1:3", "2:30"]),
                    "--alpha", rng.choice(["1.43", "0.5", "2", "1e300", "nan", "auto"]),
                    "--tol", rng.choice(self.TOL)]
            return argv + rng.choice([[], ["--json"], ["--claim", "THM6_CONSISTENCY"]]), False
        if command == "constants":
            lo = rng.choice(["0", "1", "2", "166", "300"])
            return ["constants", "--n-range", f"{lo}:{int(lo) + rng.randint(0, 3)}"], False
        if command == "optimize-alpha":
            return ["optimize-alpha", "--n", rng.choice(self.N), "--l", rng.choice(self.ELL),
                    "--tol", rng.choice(self.TOL)], False
        if command == "trace":
            t = rng.choice(["1", "0.25", "0.01", "0", "-1", "nan", "inf", "1e308"])
            return ["trace", "--n", rng.choice(self.N), "--t", t], False
        n, ell, alpha = rng.choice(self.N), rng.choice(self.ELL), rng.choice(self.ALPHA)
        variant = rng.choice(["all", "cly", "thm1"])
        if command == "gap":
            argv = ["gap", "--n", n, "--l", ell]
        else:
            argv = ["table", "--n-range", f"{n}:{int(n) + rng.randint(0, 2)}",
                    "--l-range", f"{ell}:{int(ell) + rng.randint(0, 2)}"]
        argv += ["--alpha", alpha, "--variant", variant]
        fixed = alpha not in ("auto", "x") and variant != "cly"
        small_ell = int(ell) < 10**300  # alpha * ell stays a float
        invalid = int(n) < 2 or int(ell) < 1 or (fixed and small_ell and float(alpha) * int(ell) <= 1.0)
        return argv, invalid

    def test_seeded_argv(self, capsys):
        rng = random.Random(19)
        invalid = collections.Counter()
        for _ in range(300):
            argv, must_exit_2 = self.draw(rng)
            try:
                code = main(argv)
                parsed = True
            except SystemExit as exc:  # argparse rejected the argv
                code, parsed = exc.code, False
            err = capsys.readouterr().err
            assert code in (0, 1, 2), argv
            if parsed and (code == 2 or (code == 1 and argv[0] != "verify")):
                assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
            if must_exit_2:
                assert code == 2, (argv, err)
                # invalid input must win over an n C_n that overflows too
                past = int(argv[2].split(":")[0]) >= 166
                invalid["past the double range" if past else "other"] += 1
        assert invalid["past the double range"] >= 5 and invalid["other"] > 30

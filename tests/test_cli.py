"""Command line contract: exit codes, output formats, reproducibility."""

import collections
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc

import pytest

from volgap import cli
from volgap.claims import ClaimVerdict
from volgap.cli import main
from volgap.logdomain import LogScalar
from volgap.specials import cly_constant, cly_constant_log, nc_product
from volgap.spectral import TraceResult, heat_trace
from volgap.tables import CSV_HEADER, build_gap_table

import oracle


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

    def test_an_empty_grid_exits_one_without_made_up_witnesses(self, capsys):
        # n C_n leaves the double range from n = 166 on
        code, out = run(capsys, "verify", "--n-range", "166:170", "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["passed"] == 13
        errors = [c for c in payload["claims"] if c["status"] == "ERROR"]
        assert len(errors) == 6
        assert all(c["witnesses"] == {} and "n C_n leaves the double range at n=166" in c["grid_note"]
                   for c in errors)
        for claim in payload["claims"]:
            assert all(v is not None for v in claim["witnesses"].values()), claim["claim_id"]
        # as text: LEM3, whose closed bound fits up to n = 204, and LEML, which reads no grid, pass
        code, out = run(capsys, "verify", "--n-range", "166:170")
        assert code == 1
        errors = [line for line in out.splitlines() if line.startswith("ERROR ")]
        assert len(errors) == 6
        assert all(line.endswith("[empty grid; no dimension fits: n C_n leaves the double range at n=166]")
                   for line in errors)
        assert any(line.startswith("PASS  LEM3_TRACE_BOUND ") for line in out.splitlines())
        assert any(line.startswith("PASS  LEML_GPRIME_NEG ") for line in out.splitlines())

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

    @pytest.mark.parametrize("bad", ["6:2", "abc", "2:, ", "1:2:3"])
    def test_usage_error_bad_range(self, bad):
        # malformed ranges die inside argparse's type hook
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n-range", bad])
        assert exc.value.code == 2

    def test_usage_error_out_of_domain_range(self, capsys):
        # well-formed syntax, rejected by the suite's own validation
        assert run(capsys, "verify", "--n-range", "0:3")[0] == 2

    def test_verify_has_no_tol(self, capsys):
        # every root is solved at solver._TOL; argparse's rejection is one line too
        for tol in ("1e-12", "1"):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--tol", tol])
            assert exc.value.code == 2
            assert capsys.readouterr().err == f"usage error: unrecognized arguments: --tol {tol}\n"

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

    def test_each_claim_object_holds_the_verdict_fields(self, capsys):
        _, out = run(capsys, "verify", "--n-range", "2:4", "--l-range", "1:2", "--json")
        assert [sorted(c) for c in json.loads(out)["claims"]] == [sorted(ClaimVerdict._fields)] * 19

    def test_single_claim(self, capsys):
        code, out = run(
            capsys, "verify", "--claim", "RATIO_165", "--json",
            "--n-range", "2:4", "--l-range", "1:2",
        )
        assert code == 0
        payload = json.loads(out)
        assert [c["claim_id"] for c in payload["claims"]] == ["RATIO_165"]
        assert payload["total"] == 1

    def test_a_ratio_past_the_double_range_prints_inf(self, capsys):
        argv = ("verify", "--claim", "GAP_ORDER_THM1_CLY", "--n-range", "8:30")
        code, out = run(capsys, *argv)
        assert code == 0
        assert " ratio_at_min=inf " in out and out.rstrip().endswith("1/1 claims passed")
        assert "; ratio_at_min exceeds the double range]" in out
        code, out = run(capsys, *argv, "--json")
        (claim,) = json.loads(out)["claims"]
        assert claim["witnesses"]["ratio_at_min"] is None
        assert claim["grid_note"].endswith("; ratio_at_min exceeds the double range")


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
# a pass instead of NaN (JSON null); no other byte changed.  All four were
# re-recorded when the case (ii) margin became log1p(1 / (2 (alpha ell - 1))):
# only GAP_ORDER_THM2_THM1's min_case2_log_margin changed, in its last
# digits, and the text output did not change.  All four were re-recorded
# when FINAL_INEQ, GAP_ORDER_THM1_CLY and GAP_ORDER_THM2_THM1 began to be
# decided at the two ends of the ell range: only those three grid notes
# changed, each naming its deciding ells and why they decide it.  All four
# were re-recorded when LEM3_TRACE_BOUND came to be decided at t = 1 and
# LEML_GPRIME_NEG by exact expansion: only those two verdicts changed, in
# their witnesses and grid notes, and every status stayed PASS.  All four
# were re-recorded when log Gamma(n/2, 1) came to be read per n, from
# lgamma past n = 340, and log C_n summed so that log C_2 is exactly 0:
# only CN_MONOTONE's log_c_first changed (1.1102230246251565e-16 -> 0.0)
# and, on the two 2:400 runs, its log_c_last (2056.5334320668935 ->
# 2056.533432066894, the double nearest 40-digit mpmath).  The two 2:400
# runs were re-recorded when each grid claim came to stop where its own
# quantity leaves the double range, in place of one predicted cap at 164:
# every status stayed the same, and every grid note now names its last n
# and what stopped it (165 and n C_n for ALPHA_STAR_BRACKET, GAMMAN_LE_13,
# GAP_ORDER_THM1_CLY and THM6_CONSISTENCY; 164 for FINAL_INEQ and
# GAP_ORDER_THM2_THM1; 204 and the closed trace bound for LEM3_TRACE_BOUND).
# The witnesses that read the new n changed with them: ALPHA_STAR_BRACKET's
# min_excess (gamma_165 - 1), LEM3_TRACE_BOUND's points (163 -> 203) and, at
# alpha 3, GAP_ORDER_THM1_CLY's worst point (n = 164 -> 165), a FAIL either way.
VERIFY_PINNED = [
    ((), "d04fcf5cf54c39bb60a3c64319829842bc0edfdfb820b8688a42e45590bce6d9"),
    (("--n-range", "2:400", "--l-range", "1:30"),
     "5963fe30ee4ea37e049cfee80ceea87b94a64b99bc4612016095e162abb3f348"),
    (("--alpha", "3.0", "--n-range", "2:400", "--l-range", "1:30"),
     "c872ec73b67a5f22dcecdc8666254f86ffb40925d487ee0cd063c393a6e647ba"),
    (("--alpha", "1.0000000000000002", "--n-range", "2:12", "--l-range", "1:3"),
     "60ea9a57d8104f758ae903ee1bfbc7f860d8d32d925145373ccb7eb6726ee8ec"),
]


@pytest.mark.parametrize(
    "argv, digest", VERIFY_PINNED, ids=[" ".join(a) or "default" for a, _ in VERIFY_PINNED],
)
def test_verify_bytes_pinned(tmp_path, argv, digest):
    target = tmp_path / "verify.json"
    main(["verify", "--json", *argv, "--out", str(target)])
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


def test_the_full_size_verify_benchmark_check_holds(tmp_path):
    # the two conditions the benchmark's verify workload applies to its
    # full-size run, which CI runs only at its tiny size: every claim
    # passes, and the output reports the grid capped at n = 164
    target = tmp_path / "verify.json"
    main(["verify", "--json", "--n-range", "2:400", "--l-range", "1:30", "--out", str(target)])
    data = target.read_bytes()
    payload = json.loads(data)
    assert [c["claim_id"] for c in payload["claims"] if c["status"] != "PASS"] == []
    assert len(payload["claims"]) >= 19 and payload["passed"] == payload["total"] and payload["all_passed"]
    assert b"capped at 164" in data


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


# sha256 of `volgap constants --json --n-range 2:1000 --out FILE`; n > 340
# reads log Gamma(n/2, 1) from lgamma.  Re-recorded when it came to, and
# log C_n to be summed so that log C_2 is exactly 0: 88 of the 999 rows
# changed, n = 2 in log10_c_n (4.82163733277e-17 -> 0.0), 86 in the 12th
# digit of c_n (79 of them past n = 340) and n = 623 and 885 in the last
# digit of log10_c_n, both now rounded as 40-digit mpmath rounds them.
CONSTANTS_PINNED = "5bc989ad1759eb45812af30fb8cc9869221c9f4bfc4ad7a486eeef704534131a"


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

    @pytest.mark.parametrize("alpha", ["0", "-1", "inf", "nan"])
    @pytest.mark.parametrize("argv", [("table",), ("table", "--variant", "cly"),
                                      ("gap", "--n", "2", "--l", "1", "--variant", "cly")])
    def test_alpha_must_be_positive_and_finite(self, capsys, argv, alpha):
        # one line, the one verify prints, also where no tuned variant reads alpha
        assert main([*argv, "--alpha", alpha]) == 2
        assert capsys.readouterr().err == f"usage error: alpha must be positive and finite, got {float(alpha)!r}\n"
        assert main(["verify", "--alpha", alpha]) == 2
        assert capsys.readouterr().err == f"usage error: alpha must be positive and finite, got {float(alpha)!r}\n"


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
         "error: n C_n leaves the double range at n=166"),
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
        # the ends of a range decide its checks, so a huge range is
        # answered at once (10^8 n, or 2*10^308 ell, were each checked)
        (("table", "--n-range", "2:2", "--l-range", f"1:{2 * 10**308}"), 1,
         "error: ell leaves the double range at n=2"),
        (("table", "--n-range", "2:2", "--l-range", f"1:{2 * 10**308}", "--alpha", "auto"), 1,
         "error: ell leaves the double range at n=2"),
        (("table", "--n-range", "2:100000000", "--l-range", "1:1"), 1,
         "error: n C_n leaves the double range at n=166"),
        (("table", "--l-range", f"0:{2 * 10**308}"), 2,
         "usage error: ell must be at least 1, got 0"),
        (("table", "--n-range", "1:100000000", "--l-range", f"1:{2 * 10**308}"), 2,
         "usage error: n must be at least 2, got 1"),
        # the request check meets 2 ell - 1 before any kernel forms n C_n
        (("table", "--n-range", "166:167", "--l-range", f"{10**308}:{10**308}"), 1,
         "error: 2 ell - 1 leaves the double range at n=166"),
        (("table", "--n-range", "2:2", "--l-range", f"{10**308}:{10**308}", "--variant", "thm1"), 1,
         "error: 2 ell - 1 leaves the double range at n=2"),
        # every command answers a rule it shares with the table in the table's words
        (("verify", "--n-range", "1:3"), 2, "usage error: n must be at least 2, got 1"),
        (("trace", "--n", "1", "--t", "1"), 2, "usage error: n must be at least 2, got 1"),
        (("optimize-alpha", "--n", "1"), 2, "usage error: n must be at least 2, got 1"),
        (("constants", "--n-range", "1:3"), 2, "usage error: n must be at least 2, got 1"),
        (("verify", "--l-range", "0:3"), 2, "usage error: ell must be at least 1, got 0"),
        (("optimize-alpha", "--n", "2", "--l", "0"), 2, "usage error: ell must be at least 1, got 0"),
        (("verify", "--alpha", "0.5"), 2,
         "usage error: alpha*ell must exceed 1 for a positive gap, got 0.5*1"),
    ])
    def test_table_errors(self, capsys, argv, code, message):
        assert main(list(argv)) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"

    # only the numerators the chosen variants form are checked: 2 alpha
    # ell - 1 would overflow at the classical 2 in the CLY request, at
    # 1.43 in the THM1 one, and at the checked 2 at auto, whose pairs form
    # 1 + 2 ell u instead
    @pytest.mark.parametrize("alpha, variant, ell, rows", [
        ("1.43", "cly", 5 * 10**307, 1), ("1.43", "thm1", 7 * 10**307, 1), ("auto", "all", 5 * 10**307, 4),
    ], ids=["cly", "thm1", "auto"])
    def test_the_request_checks_only_the_numerators_it_forms(self, capsys, alpha, variant, ell, rows):
        argv = ["table", "--n-range", "2:2", "--l-range", f"{ell}:{ell}", "--alpha", alpha, "--variant", variant]
        code, out = run(capsys, *argv)
        assert code == 0
        assert len(out.splitlines()) == 1 + rows

    def test_a_case1_bump_past_the_double_range_vanishes(self, capsys):
        # alpha (n+ell+2) = 3*10^308 overflows and E = -inf here: the bump's
        # log is -inf, not inf - inf, so the row builds and equals THM1's
        argv = ("table", "--alpha", "5e307", "--n-range", "2:2", "--l-range", "2:2", "--variant")
        code, case1 = run(capsys, *argv, "thm2_case1")
        assert code == 0
        assert run(capsys, *argv, "thm1") == (0, case1.replace("THM2_CASE1", "THM1"))

    def test_classical_rows_ignore_the_tuned_alpha(self, capsys):
        # each prints the classical alpha = 2, even where alpha ell - 1 would overflow
        for alpha in ("0.5", "1e308"):
            code, out = run(capsys, "table", "--alpha", alpha, "--variant", "cly")
            assert code == 0
            rows = out.splitlines()[1:]
            assert len(rows) == 7 * 4
            assert {tuple(row.split(",")[2:4]) for row in rows} == {("2", "CLY")}

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

    # an ell past the double range is valid input too; its message names ell and n
    @pytest.mark.parametrize("argv", [
        ("gap", "--n", "2", "--l", str(2 * 10**308)),
        ("gap", "--n", "2", "--l", str(2 * 10**308), "--variant", "cly"),
        ("table", "--n-range", "2:2", "--l-range", f"{2 * 10**308}:{2 * 10**308}", "--alpha", "auto"),
        ("optimize-alpha", "--n", "2", "--l", str(2 * 10**308)),
        ("verify", "--l-range", f"{2 * 10**308}:{2 * 10**308}"),
    ], ids=["gap", "gap cly", "table auto", "optimize-alpha", "verify"])
    def test_huge_ell_overflow_names_ell_and_n(self, capsys, argv):
        assert main(list(argv)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ell leaves the double range at n=2\n"  # not "int too large ..."

    # an n past the double range is valid input; its message names n
    @pytest.mark.parametrize("argv", [
        ("trace", "--n", str(10**400), "--t", "1"),
        ("gap", "--n", str(10**400), "--l", "1"),
        ("constants", "--n", str(10**400)),
        ("optimize-alpha", "--n", str(10**400)),
    ], ids=lambda argv: argv[0])
    def test_huge_n_overflow_names_n(self, capsys, argv):
        assert main(list(argv)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: dimension leaves the double range at n={10**400}\n"

    # n = 2^64 fits a double, and Gamma(n/2, 1) there is one lgamma, not a
    # walk of n/2 steps: each command answers or fails in one line at once
    @pytest.mark.parametrize("n", [2**64, 2**64 + 1], ids=["even", "odd"])
    @pytest.mark.parametrize("argv, err", [
        (("constants",), ""),
        (("gap", "--l", "1"), "error: n C_n leaves the double range at n={n}\n"),
        (("optimize-alpha",), "error: n C_n leaves the double range at n={n}\n"),
        (("trace", "--t", "1"), "error: closed trace bound exceeds the double range at n={n}, t=1.0\n"),
    ], ids=["constants", "gap", "optimize-alpha", "trace"])
    def test_n_past_2_to_the_64_finishes(self, n, argv, err):
        done = subprocess.run(
            [sys.executable, "-m", "volgap.cli", argv[0], "--n", str(n), *argv[1:]],
            capture_output=True, text=True, timeout=10,
        )
        assert (done.returncode, done.stderr) == (1 if err else 0, err.format(n=n))
        if not err:
            assert done.stdout.splitlines()[1].split()[0] == str(n)

    def test_huge_n_errors_cn_monotone_naming_n(self, capsys):
        n = 10**400
        code, out = run(capsys, "verify", "--n-range", f"{n}:{n}", "--claim", "CN_MONOTONE", "--json")
        assert code == 1
        (claim,) = json.loads(out)["claims"]
        assert claim["status"] == "ERROR"
        assert claim["grid_note"] == f"OverflowError: dimension leaves the double range at n={n}"

    @pytest.mark.parametrize("n_range, lem3", [
        ("166:170", "[n in [166, 170]; "),
        ("200:300", "; n capped at 204: closed trace bound exceeds the double range at n=205, t=1.0]"),
    ])
    def test_an_empty_grid_names_no_unchecked_n(self, capsys, n_range, lem3):
        code, out = run(capsys, "verify", "--n-range", n_range)
        assert code == 1
        errors = [line for line in out.splitlines() if line.startswith("ERROR ")]
        assert len(errors) == 6
        first = n_range.split(":")[0]
        note = f"[empty grid; no dimension fits: n C_n leaves the double range at n={first}]"
        assert all(line.endswith(note) for line in errors)
        # only LEM3 checks an n, and the only n it names as its last is one it checked
        (line,) = [line for line in out.splitlines() if line.startswith("PASS  LEM3_TRACE_BOUND ")]
        assert lem3 in line and out.count("capped at") == line.count("capped at")

    def test_huge_ell_max_errors_the_grid_claims_naming_ell_and_n(self, capsys):
        # an error of the request, not a cap; the grid claims that read no ell pass
        code, out = run(capsys, "verify", "--l-range", f"1:{2 * 10**308}", "--json")
        assert code == 1
        errors = [c for c in json.loads(out)["claims"] if c["status"] == "ERROR"]
        assert [c["claim_id"] for c in errors] == [
            "FINAL_INEQ", "GAP_ORDER_THM1_CLY", "GAP_ORDER_THM2_THM1", "THM6_CONSISTENCY",
        ]
        assert {c["grid_note"] for c in errors} == {"OverflowError: ell leaves the double range at n=2"}

    def test_an_overflowing_numerator_errors_the_claims_that_form_it(self, capsys):
        # alpha ell - 1 is 10^309 here: the claims that read it error naming
        # it, and none reports a margin of +inf as a pass.  The case (ii)
        # margin log1p(0.5 / (alpha ell - 1)) would round to 0 and FAIL, and
        # the case (i) bump is finite (about e^(-10^211)), so it is the
        # numerator check that must stop GAP_ORDER_THM2_THM1
        code, out = run(capsys, "verify", "--alpha", "1e9", "--n-range", "3:5",
                        "--l-range", f"{10**300}:{10**300 + 1}", "--json")
        assert code == 1
        claims = json.loads(out)["claims"]
        assert [c["status"] for c in claims].count("PASS") == 16
        errors = {c["claim_id"]: c["grid_note"] for c in claims if c["status"] == "ERROR"}
        assert errors == {
            claim_id: "OverflowError: alpha ell - 1 leaves the double range at n=3"
            for claim_id in ("GAP_ORDER_THM1_CLY", "GAP_ORDER_THM2_THM1", "THM6_CONSISTENCY")
        }

    @pytest.mark.parametrize("ell_max", [10**6, 10**30, 2**63 - 1], ids=["1e6", "1e30", "2^63-1"])
    def test_an_ell_range_too_long_to_list_passes_on_a_sample(self, capsys, ell_max):
        # THM6 once listed every ell: 10^30 exited 1 on an OverflowError, 2^63 - 1 on a MemoryError
        assert main(["verify", "--l-range", f"1:{ell_max}"]) == 0
        captured = capsys.readouterr()
        thm6 = [line for line in captured.out.splitlines() if "THM6_CONSISTENCY" in line]
        assert len(thm6) == 1 and thm6[0].startswith("PASS  THM6_CONSISTENCY ")
        assert thm6[0].endswith(f"ell in [1, {ell_max}], alpha = 1.43; 64 log-spaced ells with both ends]")
        assert captured.out.endswith("\n19/19 claims passed\n")
        assert "Traceback" not in captured.out and captured.err == ""

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


# one small invocation of each command
EVERY_COMMAND = [
    ("verify", "--n-range", "2:4", "--l-range", "1:2"),
    ("table", "--n-range", "2:3", "--l-range", "1:1"),
    ("constants", "--n-range", "2:6"),
    ("gap", "--n", "2", "--l", "1"),
    ("optimize-alpha", "--n", "2"),
    ("trace", "--n", "2", "--t", "1"),
]
# each command in every output form it has, a verify run that fails, and
# the JSON table of the default grid
OUT_FORMS = [
    *(argv + form for argv in EVERY_COMMAND if argv[0] != "table" for form in ((), ("--json",))),
    *(EVERY_COMMAND[1] + ("--format", fmt) for fmt in ("csv", "json", "pretty")),
    EVERY_COMMAND[0] + ("--cn-scale", "1.001"),
    ("table", "--format", "json"),
]


class TestOutFile:
    @pytest.mark.parametrize("argv", OUT_FORMS, ids=" ".join)
    def test_out_matches_stdout(self, capsys, tmp_path, argv):
        code, out = run(capsys, *argv)
        target = tmp_path / "out.txt"
        assert run(capsys, *argv, "--out", str(target)) == (code, "")
        assert target.read_bytes() == out.encode("utf-8")
        if "--json" in argv or "json" in argv:
            payload = json.loads(target.read_bytes())
            assert payload and (argv[0] != "table" or payload["rows"])

    @pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_out_is_a_one_line_error(self, capsys, tmp_path, argv, where):
        target = tmp_path / "missing" / "out.txt" if where == "missing directory" else tmp_path
        assert main([*argv, "--out", str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {target}: ")
        assert captured.err.count("\n") == 1


class TestStreamedTable:
    """A CSV or JSON table is written one n at a time, after its request is checked and built."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_follows_the_table_not_its_text(self, tmp_path, fmt):
        # the benchmark's grid: a built table of about 4.7 MB, and 11 MB of
        # CSV or 17 MB of JSON, which held whole took 31 or 43 MB traced
        ns, ells = range(2, 166), range(1, 101)
        target = tmp_path / f"table.{fmt}"
        argv = ["table", "--alpha", "1.43", "--n-range", "2:165", "--l-range", "1:100",
                "--format", fmt, "--out", str(target)]
        build_gap_table(ns, ells, 1.43)  # fill the n C_n memo outside the traced runs
        tracemalloc.start()
        try:
            build_gap_table(ns, ells, 1.43)
            table_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = target.stat().st_size
        assert peak < size / 2
        assert peak < table_peak + size / 8

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv, code, message", [
        (("table", "--n-range", "2:3", "--l-range", "0:2"), 2, "usage error: ell must be at least 1, got 0"),
        (("table", "--alpha", "1e308", "--n-range", "2:3", "--l-range", "1:2"), 1,
         "error: alpha ell - 1 leaves the double range at n=2"),
    ], ids=["usage", "overflow"])
    def test_a_failing_table_writes_nothing(self, capsys, tmp_path, argv, code, message, fmt):
        target = tmp_path / "table.out"
        argv = [*argv, "--format", fmt]
        assert main([*argv, "--out", str(target)]) == code
        assert not target.exists()
        assert capsys.readouterr() == ("", message + "\n")
        assert main(argv) == code
        assert capsys.readouterr() == ("", message + "\n")

    def test_a_reader_that_closes_stdout_early_ends_the_output_quietly(self):
        # 11 MB of CSV into a pipe whose reader takes 100 bytes, as `| head -c 100` does
        argv = [sys.executable, "-m", "volgap.cli", "table", "--n-range", "2:165", "--l-range", "1:100"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            head = proc.stdout.read(100)
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert len(head) == 100 and head.startswith(CSV_HEADER.encode() + b"\n2,1,")
        assert (code, err) == (0, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("n_range", ["2:3", "2:165"], ids=["buffered", "chunked"])
    def test_a_full_stdout_is_a_one_line_error(self, n_range):
        # stdout is left on devnull, so whatever bytes a Python version keeps
        # buffered cannot fail again in the flush at exit, report the error a
        # second time and turn the exit code into 120
        script = ("import os, sys\nfrom volgap.cli import main\ncode = main(sys.argv[1:])\n"
                  "print(os.path.samestat(os.fstat(1), os.stat(os.devnull)), file=sys.stderr)\nsys.exit(code)\n")
        argv = [sys.executable, "-c", script, "table", "--n-range", n_range, "--l-range", "1:100"]
        with open("/dev/full", "w") as full:
            done = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True)
        assert (done.returncode, done.stderr) == (1, "error: cannot write stdout: No space left on device\nTrue\n")


class TestParserReuse:
    """main parses every argv with one parser, built on its first call."""

    @pytest.fixture
    def fresh_cache(self):
        shared = cli._parser
        shared.cache_clear()
        yield
        shared.cache_clear()

    def test_one_parser_serves_every_command(self, capsys, monkeypatch, fresh_cache):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        for argv in EVERY_COMMAND:
            assert main(list(argv)) == 0, argv
        assert built == [1]
        assert cli.build_parser() is not cli.build_parser()  # other callers get their own

    # (COLUMNS, argv): a valid run of every command, an argparse rejection,
    # a usage error found after parsing, a computation error, and help at
    # two widths, interleaved
    SEQUENCE = [
        (None, EVERY_COMMAND[0]),
        ("40", ("--help",)),
        (None, ("table", "--n-range", "x")),
        (None, EVERY_COMMAND[1]),
        (None, ("table", "--n-range", "1:3")),
        ("200", ("--help",)),
        (None, EVERY_COMMAND[2]),
        (None, ("table", "--n-range", "165:166")),
        ("40", ("table", "--help")),
        (None, EVERY_COMMAND[3]),
        (None, ()),
        (None, EVERY_COMMAND[4]),
        ("200", ("table", "--help")),
        (None, ("verify", "--claim", "nope")),
        (None, EVERY_COMMAND[5]),
        (None, ("gap", "--n", "2")),
        (None, EVERY_COMMAND[0] + ("--json",)),
    ]

    def outcomes(self, capsys, monkeypatch):
        results = []
        for columns, argv in self.SEQUENCE:
            if columns is None:
                monkeypatch.delenv("COLUMNS", raising=False)
            else:
                monkeypatch.setenv("COLUMNS", columns)
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    def test_interleaved_calls_match_a_fresh_parser(self, capsys, monkeypatch, fresh_cache):
        shared = self.outcomes(capsys, monkeypatch)
        monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a new parser per call
        fresh = self.outcomes(capsys, monkeypatch)
        for (columns, argv), got, want in zip(self.SEQUENCE, shared, fresh):
            assert got == want, (columns, argv)
        codes = [code for code, _, _ in shared]
        assert codes.count(0) == 11 and codes.count(1) == 1 and codes.count(2) == 5
        # help reads COLUMNS when it is formatted, not when the parser was built
        assert shared[1][1] != shared[5][1] and shared[8][1] != shared[12][1]


# one run of each command, with the specials memos as cold as a fresh process has them
COLD_COMMANDS = [
    ("verify",),
    ("verify", "--n-range", "2:400"),
    ("constants", "--n-range", "2:50"),
    ("trace", "--n", "5", "--t", "1"),
    ("table", "--n-range", "2:20", "--l-range", "1:5"),
    ("table", "--alpha", "auto", "--n-range", "2:20", "--l-range", "1:5"),
    ("gap", "--n", "5", "--l", "1"),
    ("optimize-alpha", "--n", "5"),
]


@pytest.mark.parametrize("argv", COLD_COMMANDS, ids=" ".join)
def test_no_command_builds_a_log_scalar(capsys, monkeypatch, argv):
    # LogScalar is the type of the public views; below them logs are floats
    for memo in (cly_constant_log, cly_constant, nc_product):
        memo.cache_clear()
    built = []
    check = LogScalar.__post_init__
    monkeypatch.setattr(LogScalar, "__post_init__", lambda self: built.append(1) or check(self))
    code, _ = run(capsys, *argv)
    assert (code, len(built)) == (0, 0)


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

    def test_optimize_alpha_has_no_tol(self, capsys):
        # the root printed is the one every auto row reads, at solver._TOL
        with pytest.raises(SystemExit) as exc:
            main(["optimize-alpha", "--n", "2", "--tol", "1e-12"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: unrecognized arguments: --tol 1e-12\n"

    def test_trace_matches_library(self, capsys):
        _, out = run(capsys, "trace", "--n", "2", "--t", "1.0", "--json")
        payload = json.loads(out)
        assert payload["value"] == heat_trace(2, 1.0).value
        assert payload["upper_bound"] >= payload["value"]

    @pytest.mark.parametrize("t", ["0.5", "1.0"])
    def test_trace_json_holds_the_result_fields(self, capsys, t):
        _, out = run(capsys, "trace", "--n", "3", "--t", t, "--json")
        assert sorted(json.loads(out)) == sorted({*TraceResult._fields, "n", "t", "upper_bound", "margin"})

    def test_trace_short_time_no_bound(self, capsys):
        code, out = run(capsys, "trace", "--n", "2", "--t", "0.5", "--json")
        assert code == 0
        assert json.loads(out)["upper_bound"] is None

    def test_trace_level_cap_is_a_one_line_error(self, capsys):
        # even n = 90 is past the closed forms, and t = 2.5e-9 needs
        # about 217,000 levels there, past the 200k cap
        assert main(["trace", "--n", "90", "--t", "2.5e-9"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: heat trace did not converge within 200000 levels at n=90, t=2.5e-09\n"
        )

    @pytest.mark.parametrize("n", [2, 8])
    @pytest.mark.parametrize("t", ["1e-10", "1e-12"])
    def test_trace_tiny_time_answers_in_closed_form(self, capsys, n, t):
        code, out = run(capsys, "trace", "--n", str(n), "--t", t, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["levels_used"] == 0
        assert payload["value"] == pytest.approx(float(oracle.small_time_trace(n, float(t))), rel=1e-15)
        assert 0.0 <= payload["tail_bound"] <= 5e-15 * payload["value"]

    @pytest.mark.parametrize("argv", [
        ("--n", "300", "--t", "4e-5"),  # the sum overflows, no single term does
        ("--n", "250", "--t", "1.6e-5"),  # one term overflows on its own
        ("--n", "300", "--t", "3.98e-5"),  # the same, at a t of three digits
    ])
    @pytest.mark.parametrize("fmt", [(), ("--json",)], ids=["text", "json"])
    def test_trace_overflow_is_a_one_line_error(self, capsys, argv, fmt):
        assert main(["trace", *argv, *fmt]) == 1
        n, t = argv[1], float(argv[3])
        assert capsys.readouterr() == ("", f"error: heat trace exceeds the double range at n={n}, t={t!r}\n")

    @pytest.mark.parametrize("argv, message", [
        (("--n", "1", "--t", "1"), "n must be at least 2, got 1"),
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
        assert payload["value"] == pytest.approx(1e7 + 1.0 / 3.0, rel=1e-15)
        assert payload["tail_bound"] <= 1e-14 * payload["value"]
        assert payload["levels_used"] == 0

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
                    "--alpha", rng.choice(["1.43", "0.5", "2", "1e300", "nan", "auto"])]
            rng.choice(self.TOL)  # no command takes --tol; the draw keeps the seeded sequence of argvs
            return argv + rng.choice([[], ["--json"], ["--claim", "THM6_CONSISTENCY"]]), False
        if command == "constants":
            lo = rng.choice(["0", "1", "2", "166", "300"])
            return ["constants", "--n-range", f"{lo}:{int(lo) + rng.randint(0, 3)}"], False
        if command == "optimize-alpha":
            argv = ["optimize-alpha", "--n", rng.choice(self.N), "--l", rng.choice(self.ELL)]
            rng.choice(self.TOL)  # as for verify
            return argv, False
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
            if not parsed:
                assert code == 2 and err.startswith("usage error: "), (argv, err)
                invalid["rejected by argparse"] += 1
            if code == 2 or (code == 1 and argv[0] != "verify"):
                assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
            if must_exit_2:
                assert code == 2, (argv, err)
                # invalid input must win over an n C_n that overflows too
                past = int(argv[2].split(":")[0]) >= 166
                invalid["past the double range" if past else "other"] += 1
        assert invalid["past the double range"] >= 5 and invalid["other"] > 30
        assert invalid["rejected by argparse"] > 30

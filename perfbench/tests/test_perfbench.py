"""Tests of the benchmark itself:  python3 -m pytest -q perfbench/tests"""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import Runner  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _copy_bench(dest: Path, with_source: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_source:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_workload_runs_at_tiny_size(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                  "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == [(m["name"], m["unit"]) for m in declared]
    for m in SPEC["end_to_end"] if trace == "0" else ():
        assert result["metrics"][m["name"]]["value"] > 0


def test_corrupted_golden_digest_turns_ops_into_failures(tmp_path):
    _copy_bench(tmp_path, with_source=True)
    golden_path = tmp_path / "perfbench" / "golden.json"
    golden = json.loads(golden_path.read_text())
    golden["table_tiny_csv"] = "0" * 64
    golden_path.write_text(json.dumps(golden))
    result = _result(_bench(tmp_path, "--workload", "table", "--seed", "1", "--seconds", "0.2",
                            "--trace", "0", "--size", "tiny"))
    assert result["correct"] is False
    # every CSV op is wrong, every JSON op still right
    assert result["failed"] * 2 == result["attempted"]
    assert result["metrics"]["ok_share"]["value"] == 0.5


def test_fails_without_a_result_when_the_program_is_absent(tmp_path):
    _copy_bench(tmp_path, with_source=False)
    proc = _bench(tmp_path, "--workload", "trace", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _first_cycle(name, seed):
    return next(workloads.cycles(workloads.build(name, seed), seed))


def test_seed_changes_order_but_not_the_set_of_ops():
    for name in workloads.WORKLOADS:
        a, a_again, b = _first_cycle(name, 1), _first_cycle(name, 1), _first_cycle(name, 2)
        assert [op.argv for op in a] == [op.argv for op in a_again]
        if name == "trace":  # same (n, t) points, t jittered upward by under 4 %
            points = sorted((int(op.argv[3]), float(op.argv[5])) for op in a)
            others = sorted((int(op.argv[3]), float(op.argv[5])) for op in b)
            for (n, t), (m, u) in zip(points, others):
                assert n == m and 1 / 1.04 < t / u < 1.04
        else:
            assert sorted(op.argv for op in a) == sorted(op.argv for op in b)
        if len(a) > 2:
            assert [op.label for op in a] != [op.label for op in b]


def test_full_workloads_have_the_documented_sizes():
    sizes = {name: len(workloads.build(name, 1).ops) for name in workloads.WORKLOADS}
    assert sizes == {"verify": 1, "table": 2, "autotune": 164, "trace": 30}


def test_uses_only_the_standard_library():
    local = {path.stem for path in BENCH.glob("*.py")}
    for path in BENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top in local or top == "volgap", (path.name, name)


def test_failures_are_counted_by_kind(tmp_path):
    def main(argv):
        action = argv[0]
        if action == "raise":
            raise RuntimeError("boom")
        if action == "argparse":
            raise SystemExit(2)
        if action == "ok":
            Path(argv[-1]).write_bytes(b"fine")
        return int(action) if action.isdigit() else 0

    runner = Runner(SimpleNamespace(main=main), tmp_path / "op.out")

    def kind(action, check=lambda data: None):
        return runner.run(workloads.Op(action, (action,), check)).kind

    assert kind("1") == "exit_1"
    assert kind("2") == "exit_2"
    assert kind("argparse") == "exit_2"
    assert kind("raise") == "uncaught:RuntimeError"
    assert kind("ok") == "ok"
    assert kind("ok", lambda data: "not fine") == "wrong"
    assert kind("0") == "wrong"  # exit 0 without writing the output file


def test_tracer_restores_wrappers_and_accounts_for_all_time(tmp_path):
    import volgap.cli as cli
    import volgap.logdomain as logdomain
    import volgap.tables as tables

    originals = (tables.gap_excess, cli.optimal_alpha, logdomain.LogScalar.__init__)
    runner = Runner(cli, tmp_path / "op.out")
    op = workloads.build("verify", 1, "tiny").ops[0]
    plain = runner.run(op)
    t = tracer.Tracer()
    t.install()
    try:
        assert tables.gap_excess is not originals[0] and cli.optimal_alpha is not originals[1]
        token = t.begin_op(1)
        traced = runner.run(op)
        t.end_op(token)
    finally:
        t.uninstall()
    assert t.removed()
    assert (tables.gap_excess, cli.optimal_alpha, logdomain.LogScalar.__init__) == originals
    assert plain.kind == traced.kind == "ok" and plain.output == traced.output

    assert t.calls["claims.run_claim"] == 19 and t.calls["logdomain.LogScalar"] > 0
    assert t.stats["solver.roots_observed"] == t.calls["solver.optimal_alpha"] > 0
    # self times rebuilt from the span records match the live counters
    from_spans = tracer.self_times_from_spans(t.spans)
    for layer in ("bench", "cli", "claims", "bounds", "solver", "spectral"):
        assert from_spans[layer] == t.self_ns[layer]
    assert not set(from_spans) & tracer.HOT_LAYERS
    (root,) = [s for s in t.spans if s[3] == "bench.op"]
    assert sum(t.self_ns.values()) == root[5] - root[4]

    path = tmp_path / "spans.csv"
    t.write_spans(path)
    lines = path.read_text().splitlines()
    assert lines[0] == tracer.SPAN_HEADER and len(lines) == len(t.spans) + 1


@pytest.mark.parametrize("n", [2, 3, 7, 16, 30, 90, 165])
def test_fixed_alpha_oracle_matches_the_program(n):
    from volgap.bounds import GapParams, GapVariant, gap_excess

    for ell in (1, 7, 30):
        program = gap_excess(GapParams(n=n, ell=ell, alpha=1.43), GapVariant.THM1).excess.log10_mag
        oracle = workloads.thm1_log10_excess(n, ell, 1.43)
        assert oracle == pytest.approx(program, rel=1e-12)


def test_op_times_are_scaled_by_the_probes_that_bracket_them(monkeypatch):
    import probe
    import worker

    # the host runs probes at half the nominal speed, then at the nominal speed
    times = iter([2 * probe.NOMINAL_S, probe.NOMINAL_S, probe.NOMINAL_S])
    monkeypatch.setattr(worker, "SEGMENT_S", 0.25)

    class FakeRunner:
        def run(self, op):
            return worker.Outcome(0.1, "ok", b"")

    ops = workloads.Workload(None, tuple(workloads.Op(str(i), (), None) for i in range(5)))
    result = worker._timed_run(FakeRunner(), ops, 1, 0.0, lambda: next(times))
    assert result["probes"] == [2 * probe.NOMINAL_S, probe.NOMINAL_S, probe.NOMINAL_S]
    # three ops before the second probe (1.5x slow on average), two after it
    assert result["scaled"] == pytest.approx([0.1 / 1.5] * 3 + [0.1] * 2)
    assert result["ok_scaled"] == result["scaled"] and result["latencies"] == [0.1] * 5

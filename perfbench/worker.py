"""One workload in one fresh interpreter: the process that run.py spawns.

It imports volgap.cli from the checkout's src/, runs the workload's
warm-up op untimed and prints "ready"; run.py's set-up time stops at
that line.  In mode "setup" it exits there.  In mode "run" it then
loops over whole cycles of ops until --seconds have passed, asking
run.py for a probe after every SEGMENT_S spent in ops, and in
mode "trace" it measures the micro cases and alternates untraced and
traced cycles.  The last stdout line is a JSON object of raw results.

Every op is one `volgap.cli.main(argv)` call writing to a file; it
counts as failed when it raises, exits non-zero, or its output fails
the op's check.  A failing op never stops the run.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import probe  # noqa: E402
import workloads  # noqa: E402

# A probe runs after the ops since the last one have taken this long.
SEGMENT_S = 0.5


class Outcome:
    __slots__ = ("seconds", "kind", "output", "reason")

    def __init__(self, seconds, kind, output, reason=None):
        self.seconds, self.kind, self.output, self.reason = seconds, kind, output, reason


class Runner:
    """Runs ops through one imported cli module, writing to one file."""

    def __init__(self, cli, out_path: Path):
        self.cli = cli
        self.out_path = out_path

    def run(self, op) -> Outcome:
        with contextlib.suppress(FileNotFoundError):
            self.out_path.unlink()
        argv = [*op.argv, "--out", str(self.out_path)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects usage this way
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # the op failed; the run goes on
                code = f"uncaught:{type(exc).__name__}"
            seconds = time.perf_counter() - start
        if code != 0:
            return Outcome(seconds, code if isinstance(code, str) else f"exit_{code}", b"")
        try:
            output = self.out_path.read_bytes()
            reason = op.check(output)
        except Exception as exc:  # missing or malformed output is a wrong answer
            output, reason = b"", f"unreadable output: {type(exc).__name__}: {exc}"
        if reason is not None:
            return Outcome(seconds, "wrong", output, f"{op.label}: {reason}")
        return Outcome(seconds, "ok", output)


def probe_in_parent() -> float:
    """Have run.py run one probe while this process waits, and return
    the probe's time in seconds.

    The probe runs in the parent so that neither its memory nor the
    state the program leaves this process's heap in affects it."""
    print("probe", flush=True)
    return float(sys.stdin.readline())


def _timed_run(runner, workload, seed, seconds, run_probe) -> dict:
    """Ops in stretches of about SEGMENT_S, each bracketed by probes; every
    op's time is also given scaled to the nominal probe speed."""
    kinds = Counter()
    latencies, ok_latencies, wrong, cycles = [], [], [], 0
    scaled, ok_scaled, probes = [], [], [run_probe()]
    segment = []  # (seconds, ok) of the ops since the last probe
    segment_s = 0.0

    def close_segment():
        nonlocal segment_s
        probes.append(run_probe())
        factor = probe.NOMINAL_S / ((probes[-2] + probes[-1]) / 2.0)
        for seconds_, ok in segment:
            scaled.append(seconds_ * factor)
            if ok:
                ok_scaled.append(seconds_ * factor)
        segment.clear()
        segment_s = 0.0

    start = time.perf_counter()
    for order in workloads.cycles(workload, seed):
        for op in order:
            out = runner.run(op)
            kinds[out.kind] += 1
            latencies.append(out.seconds)
            segment.append((out.seconds, out.kind == "ok"))
            segment_s += out.seconds
            if out.kind == "ok":
                ok_latencies.append(out.seconds)
            elif out.reason:
                wrong.append(out.reason)
            del out  # the next op must not run while this output is held
            if segment_s >= SEGMENT_S:
                close_segment()
        cycles += 1
        if time.perf_counter() - start >= seconds:
            break
    if segment:
        close_segment()
    return {
        "cycles": cycles,
        "kinds": dict(kinds),
        "latencies": latencies,
        "ok_latencies": ok_latencies,
        "scaled": scaled,
        "ok_scaled": ok_scaled,
        "probes": probes,
        "wrong": wrong[:5],
        "correct": not wrong,
    }


def _traced_run(runner, workload, seed, seconds, spans_path) -> dict:
    import micro
    import tracer as tracing
    from volgap.claims import claim_ids

    start = time.perf_counter()
    per_layer = micro.run()
    tracer = tracing.Tracer()
    kinds, traced_kinds = Counter(), Counter()
    untraced_s = traced_s = 0.0
    identical = removed = True
    wrong, cycles, op_index = [], 0, 0
    pair_start = time.perf_counter()
    for order in workloads.cycles(workload, seed):
        # start another untraced + traced pair only if one as long as the
        # last should end within the time given
        now = time.perf_counter()
        if cycles and now - start + (now - pair_start) > seconds:
            break
        pair_start = begin = now
        plain = [runner.run(op) for op in order]
        untraced_s += time.perf_counter() - begin
        tracer.install()
        try:
            traced = []
            begin = time.perf_counter()
            for op in order:
                op_index += 1
                token = tracer.begin_op(op_index)
                traced.append(runner.run(op))
                tracer.end_op(token)
            traced_s += time.perf_counter() - begin
        finally:
            tracer.uninstall()
        removed = removed and tracer.removed()
        for a, b in zip(plain, traced):
            identical = identical and a.kind == b.kind and a.output == b.output
            kinds[a.kind] += 1
            kinds[b.kind] += 1
            traced_kinds[b.kind] += 1
            wrong.extend(o.reason for o in (a, b) if o.reason)
        cycles += 1
    tracer.write_spans(spans_path)

    calls, stats, incl = tracer.calls, tracer.stats, tracer.incl_ns

    def per_cycle(x):
        return x / cycles

    def self_s(layer):
        return per_cycle(tracer.self_ns[layer] / 1e9)

    def ratio(a, b):
        return a / b if b else 0.0

    per_layer.update({
        "logdomain.scalars": per_cycle(calls["logdomain.LogScalar"]),
        "logdomain.ops": per_cycle(sum(calls[f"logdomain.{f}"] for f in
                                       ("log_add", "log_mul", "log_div", "log_exp", "log_sum"))),
        "specials.calls": per_cycle(tracer.entries["specials"]),
        "spectral.calls": per_cycle(tracer.entries["spectral"]),
        "spectral.levels": per_cycle(stats["spectral.levels"]),
        "spectral.level_evals_per_level": ratio(
            stats["spectral.heat_trace>spectral.sphere_level"], stats["spectral.levels"]),
        "bounds.excess_calls": per_cycle(calls["bounds.gap_excess"]),
        "bounds.b_alpha_per_excess": ratio(calls["bounds.b_alpha"], calls["bounds.gap_excess"]),
        "solver.roots": per_cycle(calls["solver.optimal_alpha"] + calls["solver.bisect"]),
        "solver.iterations_per_root": ratio(stats["solver.iterations"], stats["solver.roots_observed"]),
        "solver.failures": per_cycle(stats["solver.failures"]),
        "tables.rows": per_cycle(stats["tables.rows"]),
        "tables.bytes": per_cycle(stats["tables.bytes"]),
        "tables.build_s": per_cycle(incl["tables.build_gap_table"] / 1e9),
        "tables.render_s": per_cycle(sum(incl[f"tables.render_{f}"] for f in ("csv", "json", "pretty")) / 1e9),
        "cli.exit_1": per_cycle(traced_kinds["exit_1"]),
        "cli.exit_2": per_cycle(traced_kinds["exit_2"]),
        "cli.uncaught": per_cycle(sum(v for k, v in traced_kinds.items() if k.startswith("uncaught:"))),
        "trace.overhead_ratio": traced_s / untraced_s,
        "trace.accounted_share": sum(tracer.self_ns.values()) / 1e9 / traced_s,
        "bench.self_s": self_s("bench"),
    })
    for layer in tracing.LAYERS:
        per_layer[f"{layer}.self_s"] = self_s(layer)
    for claim_id in claim_ids():
        per_layer[f"claims.{claim_id}.s"] = per_cycle(incl[f"claims.run_claim[{claim_id}]"] / 1e9)
    return {
        "cycles": cycles,
        "kinds": dict(kinds),
        "per_layer": per_layer,
        "traced_identical": identical,
        "wrappers_removed": removed,
        "spans": len(tracer.spans),
        "wrong": wrong[:5],
        "correct": not wrong and identical and removed,
    }


def _peak_rss_kb() -> int:
    """Peak RSS of this process image.  ru_maxrss would also count the
    parent's peak, which Linux hands on across fork and exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    workload = workloads.build(args.workload, args.seed, args.size)
    import volgap.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"volgap was imported from {cli.__file__}, not from this checkout")
    runner = Runner(cli, args.out_dir / f"op-{args.workload}-{os.getpid()}.out")
    try:
        runner.run(workload.warmup)
        print("ready", flush=True)
        if args.mode == "setup":
            return 0
        if args.mode == "run":
            result = _timed_run(runner, workload, args.seed, args.seconds, probe_in_parent)
        else:
            spans_path = args.out_dir / f"spans-{args.workload}.csv"
            result = _traced_run(runner, workload, args.seed, args.seconds, spans_path)
            result["spans_file"] = str(spans_path.relative_to(ROOT))
    finally:
        with contextlib.suppress(FileNotFoundError):
            runner.out_path.unlink()
    result["peak_rss_kb"] = _peak_rss_kb()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

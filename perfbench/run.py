"""volgap benchmark: whole `volgap` invocations, end to end and layer by layer.

    python3 perfbench/run.py --workload table --seed 1 --seconds 20 --trace 0

runs one workload in fresh interpreters, a single client in a closed
loop, and prints every metric with its unit.  Gated times are scaled to
a nominal host speed by probes this process runs while the worker waits
(see probe.py); the unscaled figures are printed too.  The last stdout
line is one JSON object {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones from a traced run.  Without --workload
(or with --workload all) every workload runs both ways and the figures
are also written to perfbench/out/summary.json.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe
from workloads import SIZES, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# Set-up is sampled in fresh interpreters, at least SETUP_MIN and at most
# SETUP_MAX of them, until the samples add up to SETUP_BUDGET_S; the median
# is reported.  Cheap set-ups thus get more samples against spawn noise.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 15, 2.0
# Tail percentiles tried, highest first; one is reported once at least ten
# successful samples lie beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "volgap").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def meta() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def _spawn(args, mode: str, seconds: float):
    """Start one worker and run the probes it asks for while it waits.

    Returns the seconds until it printed "ready", the probe times and
    its result (None in mode "setup")."""
    OUT.mkdir(exist_ok=True)
    cmd = [sys.executable, "-I", str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--size", args.size,
           "--mode", mode, "--out-dir", str(OUT)]
    limit = seconds + 150.0
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    ready, probes, buffer, lines = None, [], b"", []
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                if not sel.select(timeout=max(0.0, start + limit - time.perf_counter())):
                    raise BenchError(f"{mode} worker did not finish within {limit:.0f} s")
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if ready is None:
                    ready = time.perf_counter() - start
                if not chunk:
                    break
                *complete, buffer = (buffer + chunk).split(b"\n")
                for line in complete:
                    if line == b"probe":
                        probes.append(probe.probe())
                        proc.stdin.write(f"{probes[-1]!r}\n".encode())
                        proc.stdin.flush()
                    else:
                        lines.append(line)
        proc.wait(timeout=limit)
    except (subprocess.TimeoutExpired, BrokenPipeError):
        raise BenchError(f"{mode} worker for {args.workload} stopped answering") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    if proc.returncode != 0 or not lines or lines[0] != b"ready":
        raise BenchError(f"{mode} worker for {args.workload} exited with code {proc.returncode}")
    return ready, probes, (json.loads(lines[-1]) if len(lines) > 1 else None)


def _tail(latencies):
    for p in TAIL_PERCENTILES:
        if len(latencies) * (1.0 - p / 100.0) >= 10:
            cut = statistics.quantiles(latencies, n=1000, method="inclusive")[round(p * 10) - 1]
            return p, cut
    return None


def _scaled(seconds: float, before: float, after: float) -> float:
    return seconds * probe.NOMINAL_S / ((before + after) / 2.0)


def end_to_end(args) -> dict:
    # each set-up is scaled by the probes run just before and just after it
    setup, setup_wall, probes = [], [], []
    while len(setup) < SETUP_MIN - 1 or (sum(setup_wall) < SETUP_BUDGET_S and len(setup) < SETUP_MAX - 1):
        before = probe.probe()
        ready = _spawn(args, "setup", 0.0)[0]
        probes += [before, probe.probe()]
        setup.append(_scaled(ready, *probes[-2:]))
        setup_wall.append(ready)
    before = probe.probe()
    ready, run_probes, result = _spawn(args, "run", args.seconds)
    # the worker asks for its first probe right after "ready"
    setup.append(_scaled(ready, before, run_probes[0]))
    setup_wall.append(ready)
    probes += [before, *run_probes]
    kinds = result["kinds"]
    attempted = sum(kinds.values())
    ok = kinds.get("ok", 0)
    # when every op failed, the latency of failing is all there is to report
    p50 = statistics.median(result["ok_scaled"] or result["scaled"])
    wall_p50 = statistics.median(result["ok_latencies"] or result["latencies"])
    return {
        "metrics": {
            "setup_s": statistics.median(setup),
            "ops_per_s": ok / sum(result["scaled"]),
            "op_p50_ms": p50 * 1e3,
            "ok_share": ok / attempted,
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        },
        "wall": {
            "setup_s": statistics.median(setup_wall),
            "ops_per_s": ok / sum(result["latencies"]),
            "op_p50_ms": wall_p50 * 1e3,
            "probe_ms": statistics.median(probes) * 1e3,
            "probes": len(probes),
        },
        "attempted": attempted,
        "failed": attempted - ok,
        "correct": result["correct"],
        "kinds": kinds,
        "cycles": result["cycles"],
        "tail": _tail(result["ok_scaled"]),
        "ok_samples": len(result["ok_scaled"]),
        "setup_samples": setup_wall,
        "wrong": result["wrong"],
    }


def per_layer(args) -> dict:
    _, _, result = _spawn(args, "trace", args.seconds)
    kinds = result["kinds"]
    attempted = sum(kinds.values())
    return {
        "metrics": result["per_layer"],
        "attempted": attempted,
        "failed": attempted - kinds.get("ok", 0),
        "correct": result["correct"],
        "kinds": kinds,
        "cycles": result["cycles"],
        "traced_identical": result["traced_identical"],
        "wrappers_removed": result["wrappers_removed"],
        "spans": result["spans"],
        "spans_file": result["spans_file"],
        "wrong": result["wrong"],
    }


def _select(measured: dict, declared: list) -> dict:
    """Exactly the declared metrics, in declared order, with units."""
    out = {}
    for m in declared:
        name = m["name"]
        if name not in measured:
            if not name.startswith("claims."):  # a claim the workload never runs took 0 s
                raise BenchError(f"metric {name} was not measured")
        out[name] = {"value": float(measured.get(name, 0.0)), "unit": m["unit"]}
    return out


def _print_run(workload: str, traced: bool, res: dict, metrics: dict) -> None:
    print(f"== {workload} ({'traced, per layer' if traced else 'untraced, end to end'})")
    width = max(len(n) for n in metrics)
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    kinds = ", ".join(f"{k} {v}" for k, v in sorted(res["kinds"].items()))
    print(f"  ops: {res['attempted']} attempted in {res['cycles']} cycles, {res['failed']} failed"
          f" (failed_share {res['failed'] / res['attempted']:.6g}); by kind: {kinds}")
    if not traced:
        tail = res["tail"]
        tail_text = (f"p{tail[0]:g} {tail[1] * 1e3:.6g} ms" if tail
                     else "no percentile has 10 samples beyond it")
        print(f"  tail latency (ungated) over {res['ok_samples']} successful ops: {tail_text}")
        wall = res["wall"]
        print(f"  unscaled wall time (ungated): setup_s {wall['setup_s']:.6g} s, ops_per_s"
              f" {wall['ops_per_s']:.6g} 1/s, op_p50_ms {wall['op_p50_ms']:.6g} ms;"
              f" median probe {wall['probe_ms']:.6g} ms of {wall['probes']}"
              f" (nominal {probe.NOMINAL_S * 1e3:g} ms)")
    else:
        print(f"  traced outputs identical: {res['traced_identical']}; wrappers removed:"
              f" {res['wrappers_removed']}; {res['spans']} spans in {res['spans_file']}")
    for reason in res["wrong"]:
        print(f"  wrong answer: {reason}")


def main(argv=None) -> int:
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="tiny shrinks every grid, for the benchmark's own tests")
    args = parser.parse_args(argv)
    info = meta()
    # the probes must run on the CPU the worker runs on; workers inherit this
    info["cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {info["cpu"]})
    print(" ".join(f"{k}={v}" for k, v in info.items()))

    def measure(traced: bool):
        res = per_layer(args) if traced else end_to_end(args)
        metrics = _select(res["metrics"], spec["per_layer" if traced else "end_to_end"])
        _print_run(args.workload, traced, res, metrics)
        return res, metrics

    try:
        if args.workload != "all":
            res, metrics = measure(bool(args.trace))
            print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                              "failed": res["failed"], "metrics": metrics}))
            return 0
        summary = {"meta": info, "seed": args.seed, "seconds": args.seconds, "workloads": {}}
        for workload in WORKLOADS:
            args.workload = workload
            entry = summary["workloads"][workload] = {}
            for traced, key in ((False, "end_to_end"), (True, "per_layer")):
                res, metrics = measure(traced)
                entry[key] = {"correct": res["correct"], "attempted": res["attempted"],
                              "failed": res["failed"], "failed_share": res["failed"] / res["attempted"],
                              "kinds": res["kinds"],
                              "metrics": {n: m["value"] for n, m in metrics.items()}}
                if not traced:
                    entry[key]["unscaled_wall"] = res["wall"]
        OUT.mkdir(exist_ok=True)
        (OUT / "summary.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
        print(json.dumps(summary))
        return 0
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

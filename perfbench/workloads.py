"""The benchmark's workloads: which `volgap` invocations make up one
cycle of each, and how each invocation's output is checked.

An op is one command line.  The benchmark runs it in-process as
`volgap.cli.main(argv + ["--out", path])` and hands the bytes written to
`path` to the op's check, which returns None when the output is right
and a one-line reason otherwise.  A check never calls into volgap: the
references are recorded digests, a closed-form oracle below, or
invariants of the output itself.

The workload seed only reorders a cycle's ops and, for `trace`, jitters
the times t upward by less than 4 %; the set of command lines is
otherwise fixed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

WORKLOADS = ("verify", "table", "autotune", "trace")
SIZES = ("full", "tiny")

GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text(encoding="utf-8"))

# Largest dimension whose case-correction exponent still fits in a double
# at ell <= 30; `verify` over a wider n range must say that it stopped here.
VERIFY_N_CAP = 164
FIXED_ALPHA = 1.43
TRACE_JITTER = 0.04


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple
    check: Callable[[bytes], Optional[str]]


@dataclass(frozen=True)
class Workload:
    warmup: Op  # fixed, so set-up does the same work whatever the seed
    ops: tuple  # one cycle, in unshuffled order


# ------------------------------------------------------------- verify


def _check_verify(n_max: int):
    def check(data: bytes) -> Optional[str]:
        payload = json.loads(data)
        claims = payload["claims"]
        bad = [c["claim_id"] for c in claims if c["status"] != "PASS"]
        if bad:
            return f"claims not passing: {', '.join(bad)}"
        if len(claims) < 19 or payload["passed"] != payload["total"] or not payload["all_passed"]:
            return f"summary says {payload['passed']}/{payload['total']}"
        if n_max > VERIFY_N_CAP and f"capped at {VERIFY_N_CAP}".encode() not in data:
            return f"grid cap at n = {VERIFY_N_CAP} not reported"
        return None
    return check


def _verify(size: str) -> Workload:
    n_max, l_max = (400, 30) if size == "full" else (6, 3)
    argv = ("verify", "--json", "--n-range", f"2:{n_max}", "--l-range", f"1:{l_max}")
    op = Op(f"verify n 2:{n_max}", argv, _check_verify(n_max))
    return Workload(op, (op,))


# -------------------------------------------------------------- table


def _check_digest(key: str):
    def check(data: bytes) -> Optional[str]:
        digest = hashlib.sha256(data).hexdigest()
        if digest != GOLDEN[key]:
            return f"sha256 {digest[:16]}... differs from the recorded {key} digest"
        return None
    return check


def _table(size: str) -> Workload:
    n_max, l_max = (165, 100) if size == "full" else (5, 4)
    ops = tuple(
        Op(
            f"table {fmt}",
            ("table", "--alpha", "1.43", "--n-range", f"2:{n_max}", "--l-range", f"1:{l_max}",
             "--format", fmt),
            _check_digest(f"table_{size}_{fmt}"),
        )
        for fmt in ("csv", "json")
    )
    return Workload(ops[0], ops)


# ----------------------------------------------------------- autotune


def log_cn(n: int) -> float:
    """log C_n with C_n = n^(n/2) e Gamma(n/2, 1) / 2, from the standard
    library only: Gamma(s, 1) = Gamma(s) (1 - P(s, 1)) with the lower
    regularised series P(s, 1) = e^-1 sum_k 1 / Gamma(s + k + 1)."""
    s = n / 2.0
    p, k = 0.0, 0
    while True:
        term = math.exp(-1.0 - math.lgamma(s + k + 1.0))
        p += term
        if term < 1e-18 * p:
            break
        k += 1
    log_gamma_upper = math.lgamma(s) + math.log1p(-p)
    return s * math.log(n) + 1.0 + log_gamma_upper - math.log(2.0)


def thm1_log10_excess(n: int, ell: int, alpha: float) -> float:
    """log10 of the THM1 excess (alpha ell - 1) / B_(n,alpha)."""
    ncn = math.exp(math.log(n) + log_cn(n))
    affine = math.log(alpha * n + alpha + 1.0)
    spike = math.log(alpha) + alpha * ncn
    big, small = max(affine, spike), min(affine, spike)
    log_b = big + math.log1p(math.exp(small - big))
    return (math.log(alpha * ell - 1.0) - log_b) / math.log(10.0)


def _check_autotune(n: int, ells: range):
    def check(data: bytes) -> Optional[str]:
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
        thm1 = {}
        for row in rows:
            ell = int(row["ell"])
            if int(row["n"]) != n or ell not in ells:
                return f"row outside the requested grid: n={row['n']} ell={ell}"
            if row["variant"] == "CLY":
                continue
            # alpha is printed to 12 significant digits, and the tuned
            # excess alpha - 1/ell drops below that from n = 13 on
            if not float(row["alpha"]) >= float(f"{1.0 / ell:.12g}"):
                return f"alpha {row['alpha']} is below 1/ell at ell={ell}"
            if row["variant"] == "THM1":
                thm1[ell] = float(row["log10_excess"])
        if sorted(thm1) != list(ells):
            return "THM1 rows missing"
        for ell, auto in thm1.items():
            fixed = thm1_log10_excess(n, ell, FIXED_ALPHA)
            if not auto >= fixed - 1e-10 * abs(fixed):
                return f"auto excess {auto!r} below the alpha={FIXED_ALPHA} excess {fixed!r} at ell={ell}"
        return None
    return check


def _autotune(size: str) -> Workload:
    ns, ells = (range(2, 166), range(1, 31)) if size == "full" else ((2, 3, 4, 20), range(1, 4))
    ops = tuple(
        Op(
            f"autotune n {n}",
            ("table", "--alpha", "auto", "--l-range", f"{ells[0]}:{ells[-1]}", "--n-range", f"{n}:{n}"),
            _check_autotune(n, ells),
        )
        for n in ns
    )
    return Workload(ops[0], ops)


# -------------------------------------------------------------- trace


def _check_trace(n: int, t: float):
    def check(data: bytes) -> Optional[str]:
        payload = json.loads(data)
        value, tail = payload["value"], payload["tail_bound"]
        if payload["n"] != n or payload["t"] != t:
            return f"answered for n={payload['n']} t={payload['t']}"
        if not (0.0 <= tail <= 1e-14 * value):
            return f"tail bound {tail!r} exceeds 1e-14 of the value {value!r}"
        if t >= 1.0 and not value <= payload["upper_bound"]:
            return f"value {value!r} above the closed bound {payload['upper_bound']!r}"
        if n == 2 and t <= 1.1e-3:
            # Mulholland's small-t expansion of the S^2 trace; the
            # omitted terms are O(t^2), below 1e-10 relative here
            expected = 1.0 / t + 1.0 / 3.0 + t / 15.0
            if abs(value - expected) > 1e-9 * expected:
                return f"value {value!r} disagrees with 1/t + 1/3 + t/15 = {expected!r}"
        return None
    return check


def _trace(size: str, rng: random.Random) -> Workload:
    if size == "full":
        points = [(n, 10.0 ** e) for n in (2, 3, 5, 8) for e in range(1, -6, -1)]
        points += [(2, 1e-6), (2, 1e-7)]
    else:
        points = [(2, 10.0), (2, 1.0), (2, 1e-3), (3, 1.0)]
    ops = []
    for n, t in points:
        t *= 1.0 + TRACE_JITTER * rng.random()
        ops.append(Op(f"trace n {n} t {t:.3g}", ("trace", "--json", "--n", str(n), "--t", repr(t)),
                      _check_trace(n, t)))
    return Workload(ops[0], tuple(ops))


# ---------------------------------------------------------------- api


def build(name: str, seed: int, size: str = "full") -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {', '.join(SIZES)}")
    if name == "trace":
        return _trace(size, random.Random(f"jitter-{seed}"))
    return {"verify": _verify, "table": _table, "autotune": _autotune}[name](size)


def cycles(workload: Workload, seed: int):
    """Endless stream of cycles; each is the workload's ops in a fresh
    seed-determined order."""
    rng = random.Random(f"order-{seed}")
    while True:
        order = list(workload.ops)
        rng.shuffle(order)
        yield order

"""Outside-in tracing of volgap's eight layers.

`Tracer.install` wraps every public function of each layer module,
and rebinds every name under which another volgap module imported it
(`tables.gap_excess`, `cli.optimal_alpha`, ...), plus the LogScalar
constructor.  Nothing under `src/` is edited; `uninstall` puts every
original back and `removed` confirms it.

A wrapped call made from inside its own layer only bumps a counter.
A call that crosses into another layer opens a frame.  Frames of the
logdomain and specials layers are the hot leaves (LogScalar
construction, log_add, nc_product ...): their time is summed per layer
but no span is kept.  Every other frame is kept as a span

    (span_id, parent_id, op, name, start_ns, end_ns, leaf_ns)

where leaf_ns is the time of its direct hot-leaf children, so a span's
self time is end - start minus its child spans minus leaf_ns.  The
benchmark opens one `bench.op` span around each op, so the self times
of all layers plus the bench add up to the time spent in ops.
"""

from __future__ import annotations

import importlib
import itertools
import time
from collections import Counter, defaultdict

LAYERS = ("logdomain", "specials", "spectral", "bounds", "solver", "claims", "tables", "cli")
HOT_LAYERS = frozenset(("logdomain", "specials"))

# Opens a span even when called from its own layer: splits the claims
# layer into one span per claim.
SPLIT = {"claims.run_claim": lambda args, kwargs: args[0] if args else kwargs.get("claim_id")}

# For these calls, also remember how often the named function ran inside them.
INNER = {"spectral.heat_trace": "spectral.sphere_level"}

SPAN_HEADER = "span_id,parent_id,op,name,start_ns,end_ns,leaf_ns"


class Tracer:
    def __init__(self) -> None:
        self.calls = Counter()  # qualified name -> calls, from any layer
        self.entries = Counter()  # layer -> calls arriving from another layer
        self.self_ns = Counter()  # layer (and "bench") -> time not spent in child frames
        self.incl_ns = Counter()  # qualified name (per claim for run_claim) -> time in its frames
        self.stats = Counter()  # observed results: levels, root iterations, rows, bytes
        self.spans = []
        self.op = 0
        self._ids = itertools.count(1)
        self._stack = [["bench", 0, 0, 0, True]]  # layer, span id, child ns, leaf ns, kept
        self._patches = []
        self.installed = False

    # ------------------------------------------------------------ frames

    def _push(self, layer: str, kept: bool) -> list:
        frame = [layer, next(self._ids) if kept else 0, 0, 0, kept]
        self._stack.append(frame)
        return frame

    def _pop(self, frame: list, name: str, start: int, end: int) -> None:
        self._stack.pop()
        dur = end - start
        self.self_ns[frame[0]] += dur - frame[2]
        parent = self._stack[-1]
        parent[2] += dur
        if frame[4]:
            self.spans.append((frame[1], parent[1], self.op, name, start, end, frame[3]))
        else:
            parent[3] += dur

    def begin_op(self, op_index: int) -> tuple:
        self.op = op_index
        return self._push("bench", True), time.perf_counter_ns()

    def end_op(self, token: tuple) -> None:
        frame, start = token
        self._pop(frame, "bench.op", start, time.perf_counter_ns())

    # ---------------------------------------------------------- wrappers

    def _wrap(self, fn, layer: str, qual: str):
        calls, entries, stack = self.calls, self.entries, self._stack
        clock = time.perf_counter_ns
        hot = layer in HOT_LAYERS
        split = SPLIT.get(qual)
        inner = INNER.get(qual)
        observe = _OBSERVERS.get(qual)
        on_failure = _ON_FAILURE.get(qual)
        watched = observe is not None or on_failure is not None

        def traced(*args, **kwargs):
            calls[qual] += 1
            parent = stack[-1]
            if parent[0] == layer and split is None and not watched:
                return fn(*args, **kwargs)
            if parent[0] == layer and split is None:
                frame = None
            else:
                entries[layer] += 1
                frame = self._push(layer, parent[4] and not hot)
                name = qual if split is None else f"{qual}[{split(args, kwargs)}]"
            before = calls[inner] if inner else 0
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                if frame is not None:
                    self._pop(frame, name, start, end)
                    self.incl_ns[name if split else qual] += end - start
                if on_failure is not None and not ok:
                    self.stats[on_failure] += 1
            if observe is not None:
                observe(self, result)
            if inner:
                self.stats[f"{qual}>{inner}"] += calls[inner] - before
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, name: str, new) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        self._patches = []
        package = importlib.import_module("volgap")
        modules = {layer: importlib.import_module(f"volgap.{layer}") for layer in LAYERS}
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(obj, layer, f"{layer}.{name}"))
        for mod in (package, *modules.values()):
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])
        cls = modules["logdomain"].LogScalar
        self._patch(cls, "__init__", self._wrap(cls.__init__, "logdomain", "logdomain.LogScalar"))
        from_float = vars(cls)["from_float"].__func__
        self._patch(cls, "from_float",
                    classmethod(self._wrap(from_float, "logdomain", "logdomain.LogScalar.from_float")))
        self.installed = True

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self.installed = False

    def removed(self) -> bool:
        """True when every patched name holds its original object again."""
        return all(vars(owner)[name] is original for owner, name, original in self._patches)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(SPAN_HEADER + "\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")


def _root(tracer, result):
    tracer.stats["solver.roots_observed"] += 1
    tracer.stats["solver.iterations"] += result.iterations


def _levels(tracer, result):
    tracer.stats["spectral.levels"] += result.levels_used


def _rows(tracer, result):
    tracer.stats["tables.rows"] += len(result)


def _text(tracer, result):
    tracer.stats["tables.bytes"] += len(result.encode("utf-8"))


_OBSERVERS = {
    "solver.optimal_alpha": _root,
    "solver.bisect": _root,
    "spectral.heat_trace": _levels,
    "tables.build_gap_table": _rows,
    "tables.render_csv": _text,
    "tables.render_json": _text,
    "tables.render_pretty": _text,
}

_ON_FAILURE = {"solver.optimal_alpha": "solver.failures", "solver.bisect": "solver.failures"}


def self_times_from_spans(spans) -> dict:
    """Self time per span name prefix (the layer), recomputed from span
    records alone: duration minus child spans minus hot-leaf time."""
    child = defaultdict(int)
    for span_id, parent_id, _op, _name, start, end, _leaf in spans:
        child[parent_id] += end - start
    out = Counter()
    for span_id, _parent, _op, name, start, end, leaf in spans:
        out[name.split(".", 1)[0]] += end - start - child[span_id] - leaf
    return out

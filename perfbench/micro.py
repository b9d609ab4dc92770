"""Per-call costs of single layers, measured in-process and untraced on
fixed representative inputs.  Each figure is the minimum, over REPEATS
passes, of the mean time per call within a pass: the least disturbed
pass, as timeit reports."""

from __future__ import annotations

import time

REPEATS = 5


def _per_call_ns(fn, arg_tuples) -> float:
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter_ns()
        for args in arg_tuples:
            fn(*args)
        samples.append((time.perf_counter_ns() - start) / len(arg_tuples))
    return min(samples)


def _per_unit_ns(fn, args, units) -> float:
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter_ns()
        fn(*args)
        samples.append((time.perf_counter_ns() - start) / units)
    return min(samples)


def run() -> dict:
    """The *_ns and *_us per-layer metrics, keyed by metric name."""
    from volgap import bounds, logdomain, solver, specials, spectral, tables

    scalar = logdomain.LogScalar
    pairs = [
        (scalar(sa, 0.37 * i), scalar(sb, 0.53 * j))
        for i in range(-10, 10) for j in range(-10, 10)
        for sa, sb in ((1, 1), (1, -1), (-1, 1))
    ] * 2
    ns = [(n,) for n in range(2, 166)] * 4
    grid = [(bounds.GapParams(n=n, ell=ell, alpha=1.43), bounds.GapVariant.THM1)
            for n in range(2, 166, 3) for ell in (1, 4, 16, 30)]
    roots = [(n, ell) for n in (2, 3, 4, 6, 9, 13) for ell in (1, 2, 5, 12, 30)]
    levels = spectral.heat_trace(2, 1e-4).levels_used
    rows = tables.build_gap_table(range(2, 31), range(1, 31), 1.43)
    return {
        "logdomain.add_ns": _per_call_ns(logdomain.log_add, pairs),
        "logdomain.div_ns": _per_call_ns(logdomain.log_div, pairs),
        "specials.nc_product_ns": _per_call_ns(specials.nc_product, ns),
        "spectral.level_ns": _per_unit_ns(spectral.heat_trace, (2, 1e-4), levels),
        "bounds.b_alpha_us": _per_call_ns(bounds.b_alpha, [(n, 1.43) for (n,) in ns]) / 1e3,
        "bounds.gap_excess_us": _per_call_ns(bounds.gap_excess, grid) / 1e3,
        "solver.root_us": _per_call_ns(solver.optimal_alpha, roots) / 1e3,
        "tables.csv_row_us": _per_unit_ns(tables.render_csv, (rows,), len(rows)) / 1e3,
        "tables.json_row_us": _per_unit_ns(tables.render_json, (rows,), len(rows)) / 1e3,
    }

"""Command line front end.

Subcommands:

  verify          run the claim verification suite
  table           tabulate the gap bounds over a parameter grid
  constants       print the dimensional constants C_n
  gap             evaluate the bounds at a single (n, ell)
  optimize-alpha  solve for the excess-maximising tuning parameter
  trace           evaluate the spherical heat trace with certified tail

Exit codes: 0 on success with all checks passing, 1 when a computation
fails, a claim does not verify or the output cannot be written, 2
on usage errors.  Every error is one line on stderr.  Each command
returns its exit code and its text as chunks, and main writes a
command's chunks, to stdout or to --out.  A CSV or JSON table is one
chunk per n, rendered as it is written; every other output is one
chunk.  A command has checked its request and computed its results
before it returns, so a failing command writes nothing.  A reader that
closes stdout early (`volgap table | head`) ends the output quietly,
with the command's own exit code.  Output is deterministic; nothing
varying (timestamps, paths) is emitted unless --meta asks for it.

main(argv) may be called any number of times in one process.  It builds
its parser on the first call and reuses it, so a repeated in-process
call pays only for its command.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from datetime import datetime, timezone

from .bounds import DEFAULT_ALPHA, GapVariant
from .claims import SuiteConfig, claim_ids, run_claim, run_claim_suite
from .logdomain import _LN10
from .solver import optimal_alpha
from .specials import cly_constant_log
from .spectral import heat_trace, trace_bound
from .tables import _csv_chunks, _json_chunks, _sig, build_gap_table, format_from_log10, render_pretty


class _UsageError(Exception):
    """Bad parameter values discovered after argparse; maps to exit 2."""


def _checked(fn, *args, **kwargs):
    """fn(*args, **kwargs); a TypeError or ValueError from it rejects the input, a usage error."""
    try:
        return fn(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise _UsageError(str(exc)) from None


def _range_type(text: str):
    parts = text.split(":")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or LO:HI, got {text!r}") from None
    if hi < lo:
        raise argparse.ArgumentTypeError(f"range is empty: {text!r}")
    return lo, hi


def _alpha_type(text: str):
    """'auto' or a float; build_gap_table checks the value, as SuiteConfig does verify's."""
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number or 'auto', got {text!r}") from None


def _variant_type(text: str):
    """build_gap_table's variants: None for 'all', else a 1-tuple."""
    key = text.upper()
    if key == "ALL":
        return None
    try:
        return (GapVariant(key),)
    except ValueError:
        names = ", ".join(v.value.lower() for v in GapVariant)
        raise argparse.ArgumentTypeError(f"unknown variant {text!r}; choose from {names}, all") from None


def _json_safe(value):
    if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_safe(v) for v in value]
    return value


def _output(args, payload, lines) -> tuple:
    """The text of a command, as one chunk: payload as JSON under --json, else lines."""
    if args.json:
        return (json.dumps(_json_safe(payload), indent=2, sort_keys=True) + "\n",)
    return ("\n".join(lines) + "\n",)


# ------------------------------------------------------------- verify


def _cmd_verify(args):
    config = _checked(
        SuiteConfig,
        n_min=args.n_range[0], n_max=args.n_range[1],
        ell_min=args.l_range[0], ell_max=args.l_range[1],
        alpha=args.alpha, cn_scale=args.cn_scale,
    )
    if args.claim:
        wanted = args.claim.upper()
        if wanted not in claim_ids():
            raise _UsageError(f"unknown claim {args.claim!r}; known: {', '.join(claim_ids())}")
        verdicts = [run_claim(wanted, config)]
    else:
        verdicts = run_claim_suite(config)
    passed = sum(v.passed for v in verdicts)
    payload = {
        "claims": [v._asdict() for v in verdicts],
        "passed": passed,
        "total": len(verdicts),
        "all_passed": passed == len(verdicts),
    }
    lines = []
    for v in verdicts:
        bits = " ".join(f"{k}={vv:.6g}" for k, vv in v.witnesses.items())
        note = f"  [{v.grid_note}]" if v.grid_note else ""
        lines.append(f"{v.status:<5} {v.claim_id:<22} {bits}{note}")
    lines.append(f"{passed}/{len(verdicts)} claims passed")
    return (0 if passed == len(verdicts) else 1), _output(args, payload, lines)


# -------------------------------------------------------------- table


def _cmd_table(args):
    (n_lo, n_hi), (l_lo, l_hi) = args.n_range, args.l_range
    rows = _checked(build_gap_table, range(n_lo, n_hi + 1), range(l_lo, l_hi + 1), args.alpha, args.variant)
    meta = None
    if args.meta:
        meta = {
            "alpha": str(args.alpha),
            "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "l_range": f"{l_lo}:{l_hi}",
            "n_range": f"{n_lo}:{n_hi}",
        }
    if args.format == "json":
        return 0, _json_chunks(rows, meta)
    framing = "".join(f"# {k}: {meta[k]}\n" for k in sorted(meta)) if meta else ""
    if args.format == "csv":
        return 0, itertools.chain((framing,), _csv_chunks(rows))
    return 0, (render_pretty(rows) + framing,)  # its column widths need every row first


# ---------------------------------------------------------- constants


def _cmd_constants(args):
    lo, hi = args.n_range
    _checked(cly_constant_log, lo)  # the range's first n decides the rules for every n
    payload = []
    lines = [f"{'n':>4}  {'C_n':>24}  {'log10_C_n':>16}  {'log10_nC_n':>16}"]
    for n in range(lo, hi + 1):
        log10_cn = cly_constant_log(n) / _LN10
        c_n, l10, l10n = format_from_log10(log10_cn), _sig(log10_cn), _sig(log10_cn + math.log10(n))
        payload.append({"n": n, "c_n": c_n, "log10_c_n": float(l10), "log10_n_c_n": float(l10n)})
        lines.append(f"{n:>4}  {c_n:>24}  {l10:>16}  {l10n:>16}")
    return 0, _output(args, payload, lines)


# ----------------------------------------------------------------- gap


def _cmd_gap(args):
    rows = _checked(build_gap_table, (args.n,), (args.ell,), args.alpha, args.variant)
    payload = []
    lines = [f"gap bounds at n={args.n}, ell={args.ell}"]
    for row in rows:
        excess = format_from_log10(row.log10_excess)
        ratio = format_from_log10(row.log10_ratio_vs_cly)
        payload.append({
            "n": row.n,
            "ell": row.ell,
            "alpha": float(_sig(row.alpha)),
            "variant": row.variant,
            "log10_B": float(_sig(row.log10_denominator)),
            "log10_excess": float(_sig(row.log10_excess)),
            "excess": excess,
            "ratio_vs_cly": ratio,
        })
        lines.append(
            f"{row.variant:<10} alpha={_sig(row.alpha):<14}"
            f" log10_B={_sig(row.log10_denominator):<18}"
            f" excess={excess:<20} ratio_vs_cly={ratio}"
        )
        lines.append(
            f"{'':<10} a compact n-manifold minimally immersed in the (n+ell)-sphere"
            f" has volume > (1 + {excess}) x vol(S^n)"
        )
    return 0, _output(args, payload, lines)


# ------------------------------------------------------ optimize-alpha


def _cmd_optimize_alpha(args):
    result = _checked(optimal_alpha, args.n, args.ell)
    payload = {
        "n": args.n,
        "ell": args.ell,
        "alpha_star": result.value,
        "base": result.base,
        "excess": result.root,
        "bracket_lo": result.bracket_lo,
        "bracket_hi": result.bracket_hi,
        "residual": result.residual,
        "iterations": result.iterations,
    }
    lines = [
        f"alpha_star    = {result.value!r}",
        f"base          = {_sig(result.base)}",
        f"excess (root) = {result.root!r}",
        f"bracket       = [{result.bracket_lo!r}, {result.bracket_hi!r}]",
        f"residual      = {result.residual:.3e}",
        f"iterations    = {result.iterations}",
    ]
    return 0, _output(args, payload, lines)


# --------------------------------------------------------------- trace


def _cmd_trace(args):
    # a RuntimeError past the level cap exits 1: a tiny t at an even n > 88,
    # which the closed forms leave to the level sum
    result = _checked(heat_trace, args.n, args.t)
    upper = trace_bound(args.n, args.t) if args.t >= 1.0 else None
    payload = {
        "n": args.n,
        "t": args.t,
        **result._asdict(),
        "upper_bound": upper,
        "margin": None if upper is None else upper - result.value,
    }
    lines = [
        f"heat trace on the {args.n}-sphere at t={_sig(args.t)}",
        f"value       = {result.value!r}",
        f"levels_used = {result.levels_used}",
        f"tail_bound  = {result.tail_bound:.3e}",
    ]
    if upper is not None:
        lines.append(f"upper_bound = {upper!r}")
        lines.append(f"margin      = {upper - result.value:.6g}")
    return 0, _output(args, payload, lines)


# ---------------------------------------------------------------- main


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose rejection is one line, as every other usage error; subparsers inherit it."""

    def error(self, message):
        self.exit(2, f"usage error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="volgap",
        description="volume-gap lower bounds for minimal submanifolds of round spheres",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    to_file = argparse.ArgumentParser(add_help=False)
    to_file.add_argument("--out", help="write output to a file instead of stdout")
    as_json = argparse.ArgumentParser(add_help=False, parents=[to_file])
    as_json.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", parents=[as_json], help="run the claim verification suite")
    grid = SuiteConfig  # a dataclass keeps each field's default as a class attribute
    p.add_argument("--n-range", type=_range_type, default=(grid.n_min, grid.n_max), metavar="LO:HI")
    p.add_argument("--l-range", type=_range_type, default=(grid.ell_min, grid.ell_max), metavar="LO:HI")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--cn-scale", type=float, default=grid.cn_scale,
                   help="fault injection: scale C_n inside the constant checks")
    p.add_argument("--claim", help="run a single claim by id")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("table", parents=[to_file], help="tabulate bounds over a grid")
    p.add_argument("--n-range", type=_range_type, default=(2, 8), metavar="LO:HI")
    p.add_argument("--l-range", type=_range_type, default=(1, 4), metavar="LO:HI")
    p.add_argument("--alpha", type=_alpha_type, default=DEFAULT_ALPHA,
                   help="a positive number, or 'auto' to tune per point")
    p.add_argument("--variant", type=_variant_type, default=None)
    p.add_argument("--format", choices=("csv", "json", "pretty"), default="csv")
    p.add_argument("--meta", action="store_true",
                   help="include generation metadata (breaks byte reproducibility)")
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("constants", parents=[as_json], help="print the dimensional constants C_n")
    p.add_argument("--n-range", type=_range_type, default=(2, 10), metavar="LO:HI")
    p.set_defaults(handler=_cmd_constants)

    p = sub.add_parser("gap", parents=[as_json], help="evaluate the bounds at one (n, ell)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", dest="ell", type=int, required=True)
    p.add_argument("--alpha", type=_alpha_type, default=DEFAULT_ALPHA)
    p.add_argument("--variant", type=_variant_type, default=None)
    p.set_defaults(handler=_cmd_gap)

    p = sub.add_parser("optimize-alpha", parents=[as_json], help="solve for the excess-maximising tuning")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", dest="ell", type=int, default=1)
    p.set_defaults(handler=_cmd_optimize_alpha)

    p = sub.add_parser("trace", parents=[as_json], help="heat trace on the round n-sphere")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(handler=_cmd_trace)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reads every argv with: built on the first call.

    argparse keeps no state between parses, and help text reads COLUMNS
    when it is formatted, so one parser serves every later call.
    build_parser itself still returns a fresh parser.
    """
    return build_parser()


def _write_stdout(chunks) -> None:
    """Write chunks to stdout, and stop quietly where the reader closes it early, as `| head` does.

    Any other write error is raised for main to report in one line.
    """
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except OSError as exc:
        # what could not be written is dropped.  Point stdout at devnull,
        # so the interpreter's flush at exit finds nothing to fail on and
        # neither reports the error again nor changes the exit code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            raise


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code, chunks = args.handler(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(chunks)
        else:
            _write_stdout(chunks)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # no command raises it: the output could not be written
        print(f"error: cannot write {args.out or 'stdout'}: {exc.strerror}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, KeyError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())

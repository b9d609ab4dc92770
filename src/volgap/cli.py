"""Command line front end.

Subcommands:

  verify          run the claim verification suite
  table           tabulate the gap bounds over a parameter grid
  constants       print the dimensional constants C_n
  gap             evaluate the bounds at a single (n, ell)
  optimize-alpha  solve for the excess-maximising tuning parameter
  trace           evaluate the spherical heat trace with certified tail

Exit codes: 0 on success with all checks passing, 1 when a computation
fails or a claim does not verify, 2 on usage errors.  Output is
deterministic; nothing varying (timestamps, paths) is emitted unless
--meta asks for it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone

from .bounds import DEFAULT_ALPHA, GapVariant
from .claims import SuiteConfig, claim_ids, run_claim, run_claim_suite
from .solver import optimal_alpha
from .specials import cly_constant_log
from .spectral import heat_trace, trace_bound
from .tables import (
    _sig,
    build_gap_table,
    format_from_log10,
    render_csv,
    render_json,
    render_pretty,
)


class _UsageError(Exception):
    """Bad parameter values discovered after argparse; maps to exit 2."""


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
    if text == "auto":
        return "auto"
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number or 'auto', got {text!r}") from None
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"alpha must be positive and finite, got {text!r}")
    return value


def _variant_type(text: str):
    key = text.upper()
    if key == "ALL":
        return "ALL"
    try:
        return GapVariant(key)
    except ValueError:
        names = ", ".join(v.value.lower() for v in GapVariant)
        raise argparse.ArgumentTypeError(f"unknown variant {text!r}; choose from {names}, all") from None


def _json_safe(value):
    if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ------------------------------------------------------------- verify


def _cmd_verify(args) -> int:
    try:
        config = SuiteConfig(
            n_min=args.n_range[0], n_max=args.n_range[1],
            ell_min=args.l_range[0], ell_max=args.l_range[1],
            alpha=args.alpha, tol=args.tol, cn_scale=args.cn_scale,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if args.claim:
        wanted = args.claim.upper()
        if wanted not in claim_ids():
            raise _UsageError(f"unknown claim {args.claim!r}; known: {', '.join(claim_ids())}")
        verdicts = [run_claim(wanted, config)]
    else:
        verdicts = run_claim_suite(config)
    passed = sum(1 for v in verdicts if v.status == "PASS")
    if args.json:
        payload = {
            "claims": [
                {
                    "claim_id": v.claim_id,
                    "anchor": v.anchor,
                    "status": v.status,
                    "witnesses": _json_safe(v.witnesses),
                    "tolerance": _json_safe(v.tolerance),
                    "grid_note": v.grid_note,
                }
                for v in verdicts
            ],
            "passed": passed,
            "total": len(verdicts),
            "all_passed": passed == len(verdicts),
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = []
        for v in verdicts:
            bits = " ".join(f"{k}={vv:.6g}" for k, vv in v.witnesses.items())
            note = f"  [{v.grid_note}]" if v.grid_note else ""
            lines.append(f"{v.status:<5} {v.claim_id:<22} {bits}{note}")
        lines.append(f"{passed}/{len(verdicts)} claims passed")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if passed == len(verdicts) else 1


# -------------------------------------------------------------- table


def _cmd_table(args) -> int:
    ns = range(args.n_range[0], args.n_range[1] + 1)
    ells = range(args.l_range[0], args.l_range[1] + 1)
    variants = None if args.variant == "ALL" else [args.variant]
    try:
        rows = build_gap_table(ns, ells, args.alpha, variants)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    meta = None
    if args.meta:
        meta = {
            "alpha": str(args.alpha),
            "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "l_range": f"{args.l_range[0]}:{args.l_range[1]}",
            "n_range": f"{args.n_range[0]}:{args.n_range[1]}",
        }
    if args.format == "csv":
        text = render_csv(rows)
        if meta:
            text = "".join(f"# {k}: {meta[k]}\n" for k in sorted(meta)) + text
    elif args.format == "json":
        text = render_json(rows, meta)
    else:
        text = render_pretty(rows)
        if meta:
            text += "".join(f"# {k}: {meta[k]}\n" for k in sorted(meta))
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------- constants


def _cmd_constants(args) -> int:
    lo, hi = args.n_range
    if lo < 2:
        raise _UsageError(f"n must be at least 2, got {lo}")
    entries = []
    for n in range(lo, hi + 1):
        log10_cn = cly_constant_log(n).log10_mag
        log10_ncn = log10_cn + math.log10(n)
        entries.append((n, log10_cn, log10_ncn))
    if args.json:
        payload = [
            {
                "n": n,
                "c_n": format_from_log10(l10),
                "log10_c_n": float(_sig(l10)),
                "log10_n_c_n": float(_sig(l10n)),
            }
            for n, l10, l10n in entries
        ]
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = [f"{'n':>4}  {'C_n':>24}  {'log10_C_n':>16}  {'log10_nC_n':>16}"]
        for n, l10, l10n in entries:
            lines.append(f"{n:>4}  {format_from_log10(l10):>24}  {_sig(l10):>16}  {_sig(l10n):>16}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# ----------------------------------------------------------------- gap


def _cmd_gap(args) -> int:
    variants = None if args.variant == "ALL" else [args.variant]
    try:
        rows = build_gap_table((args.n,), (args.ell,), args.alpha, variants)
    except (TypeError, ValueError) as exc:
        raise _UsageError(str(exc)) from None
    if args.json:
        payload = [
            {
                "n": row.n,
                "ell": row.ell,
                "alpha": float(_sig(row.alpha)),
                "variant": row.variant,
                "log10_B": float(_sig(row.log10_denominator)),
                "log10_excess": float(_sig(row.log10_excess)),
                "excess": format_from_log10(row.log10_excess),
                "ratio_vs_cly": format_from_log10(row.log10_ratio_vs_cly),
            }
            for row in rows
        ]
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = [f"gap bounds at n={args.n}, ell={args.ell}"]
        for row in rows:
            excess = format_from_log10(row.log10_excess)
            lines.append(
                f"{row.variant:<10} alpha={_sig(row.alpha):<14}"
                f" log10_B={_sig(row.log10_denominator):<18}"
                f" excess={excess:<20} ratio_vs_cly={format_from_log10(row.log10_ratio_vs_cly)}"
            )
            lines.append(
                f"{'':<10} a compact n-manifold minimally immersed in the (n+ell)-sphere"
                f" has volume > (1 + {excess}) x vol(S^n)"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# ------------------------------------------------------ optimize-alpha


def _cmd_optimize_alpha(args) -> int:
    try:
        result = optimal_alpha(args.n, args.ell, args.tol)
    except (TypeError, ValueError) as exc:
        raise _UsageError(str(exc)) from None
    if args.json:
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
        _emit(json.dumps(_json_safe(payload), indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = [
            f"alpha_star    = {result.value!r}",
            f"base          = {_sig(result.base)}",
            f"excess (root) = {result.root!r}",
            f"bracket       = [{result.bracket_lo!r}, {result.bracket_hi!r}]",
            f"residual      = {result.residual:.3e}",
            f"iterations    = {result.iterations}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# --------------------------------------------------------------- trace


def _cmd_trace(args) -> int:
    try:
        result = heat_trace(args.n, args.t)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    except RuntimeError as exc:
        # t too small to certify the tail within the level cap; main
        # reports an ArithmeticError as a one-line error with exit 1
        raise ArithmeticError(str(exc)) from None
    upper = trace_bound(args.n, args.t) if args.t >= 1.0 else None
    if args.json:
        payload = {
            "n": args.n,
            "t": args.t,
            "value": result.value,
            "levels_used": result.levels_used,
            "tail_bound": result.tail_bound,
            "upper_bound": upper,
            "margin": None if upper is None else upper - result.value,
        }
        _emit(json.dumps(_json_safe(payload), indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = [
            f"heat trace on the {args.n}-sphere at t={_sig(args.t)}",
            f"value       = {result.value!r}",
            f"levels_used = {result.levels_used}",
            f"tail_bound  = {result.tail_bound:.3e}",
        ]
        if upper is not None:
            lines.append(f"upper_bound = {upper!r}")
            lines.append(f"margin      = {upper - result.value:.6g}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volgap",
        description="volume-gap lower bounds for minimal submanifolds of round spheres",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the claim verification suite")
    p.add_argument("--n-range", type=_range_type, default=(2, 30), metavar="LO:HI")
    p.add_argument("--l-range", type=_range_type, default=(1, 30), metavar="LO:HI")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--cn-scale", type=float, default=1.0,
                   help="fault injection: scale C_n inside the constant checks")
    p.add_argument("--claim", help="run a single claim by id")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write output to a file instead of stdout")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("table", help="tabulate bounds over a grid")
    p.add_argument("--n-range", type=_range_type, default=(2, 8), metavar="LO:HI")
    p.add_argument("--l-range", type=_range_type, default=(1, 4), metavar="LO:HI")
    p.add_argument("--alpha", type=_alpha_type, default=DEFAULT_ALPHA,
                   help="a positive number, or 'auto' to tune per point")
    p.add_argument("--variant", type=_variant_type, default="ALL")
    p.add_argument("--format", choices=("csv", "json", "pretty"), default="csv")
    p.add_argument("--meta", action="store_true",
                   help="include generation metadata (breaks byte reproducibility)")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("constants", help="print the dimensional constants C_n")
    p.add_argument("--n-range", type=_range_type, default=(2, 10), metavar="LO:HI")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_constants)

    p = sub.add_parser("gap", help="evaluate the bounds at one (n, ell)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", dest="ell", type=int, required=True)
    p.add_argument("--alpha", type=_alpha_type, default=DEFAULT_ALPHA)
    p.add_argument("--variant", type=_variant_type, default="ALL")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_gap)

    p = sub.add_parser("optimize-alpha", help="solve for the excess-maximising tuning")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", dest="ell", type=int, default=1)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_optimize_alpha)

    p = sub.add_parser("trace", help="heat trace on the round n-sphere")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_trace)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, KeyError, OverflowError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Volume-gap lower bounds for compact minimal submanifolds of round spheres.

The package computes, compares and verifies the family of lower bounds

    vol(M) > (1 + excess) vol(S^n)

for an n-dimensional compact minimal submanifold M immersed with
maximal dimension in S^(n+ell).  The excess terms involve the
dimensional constants C_n = n^(n/2) e Gamma(n/2, 1) / 2, which grow
like e^(n log n), so the internals compute on natural logs held as
floats; cly_constant_log returns log C_n itself, and the public bound
and solver views return their logs as LogScalars.

Layers:

  logdomain   two-term log sums, the double range and the LogScalar view type
  specials    upper incomplete gamma at 1, the constants C_n
  spectral    heat trace of the round sphere with certified truncation
  bounds      the gap excess variants and their comparisons
  solver      tuning-parameter optimisation in an excess coordinate
  claims      machine-checkable verification of every numbered claim
  tables      deterministic CSV/JSON/pretty tabulation
  cli         the `volgap` command
"""

from .bounds import (
    DEFAULT_ALPHA,
    GapBound,
    GapParams,
    GapVariant,
    b_alpha,
    gap_excess,
    log_improvement_vs_cly,
)
from .claims import ClaimVerdict, SuiteConfig, claim_ids, run_claim, run_claim_suite, suite_passed
from .logdomain import LogScalar, log_add, log_div, log_mul
from .solver import (
    BracketError,
    EvaluationError,
    RootResult,
    bisect,
    f1,
    f1_prime,
    gamma_n,
    h,
    optimal_alpha,
)
from .specials import (
    HalfInteger,
    cly_constant,
    cly_constant_log,
    nc_product,
    upper_incomplete_gamma_at_one,
)
from .spectral import SpectralLevel, TraceResult, heat_trace, sphere_level, trace_bound
from .tables import GapTableRow, build_gap_table, render_csv, render_json, render_pretty

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "ClaimVerdict",
    "DEFAULT_ALPHA",
    "EvaluationError",
    "GapBound",
    "GapParams",
    "GapTableRow",
    "GapVariant",
    "HalfInteger",
    "LogScalar",
    "RootResult",
    "SpectralLevel",
    "SuiteConfig",
    "TraceResult",
    "__version__",
    "b_alpha",
    "bisect",
    "build_gap_table",
    "claim_ids",
    "cly_constant",
    "cly_constant_log",
    "f1",
    "f1_prime",
    "gamma_n",
    "gap_excess",
    "h",
    "heat_trace",
    "log_add",
    "log_div",
    "log_improvement_vs_cly",
    "log_mul",
    "nc_product",
    "optimal_alpha",
    "render_csv",
    "render_json",
    "render_pretty",
    "run_claim",
    "run_claim_suite",
    "sphere_level",
    "suite_passed",
    "trace_bound",
    "upper_incomplete_gamma_at_one",
]

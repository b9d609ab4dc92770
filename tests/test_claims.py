"""Claim registry behaviour: ids, verdict shape, failure and error paths,
and the witnesses of the closed-form claims."""

import dataclasses
import math
import random

import mpmath
import pytest

from volgap import bounds, claims, solver, spectral
from volgap.bounds import GapVariant
from volgap.claims import (
    ClaimVerdict,
    SuiteConfig,
    _CLAIMS,
    _G_D,
    _G_FACTORS,
    _G_N,
    _Claim,
    _d,
    _fold,
    _mul,
    _Run,
    _sample,
    claim_ids,
    run_claim,
    run_claim_suite,
    suite_passed,
)
from volgap.specials import cly_constant

import per_point_bounds as per_point

EXPECTED_IDS = [
    "ALPHA_STAR_BRACKET",
    "C3_APPROX",
    "C4_EXACT",
    "CN_MONOTONE",
    "FINAL_INEQ",
    "GAMMA2_GT_13",
    "GAMMAN_LE_13",
    "GAP_ORDER_THM1_CLY",
    "GAP_ORDER_THM2_THM1",
    "H_SIGN_142",
    "H_SIGN_144",
    "LEM3_TRACE_BOUND",
    "LEML_GPRIME_NEG",
    "PHI3_GT_2",
    "PSI_DECREASING",
    "RATIO_165",
    "RHS_GT_20",
    "THM6_CONSISTENCY",
    "TILDE_GAMMA3_LT_11",
]

SMALL = SuiteConfig(n_min=2, n_max=6, ell_min=1, ell_max=3)

# witnesses of the claims that need no grid, frozen from the mpmath
# oracle that TestClosedFormWitnesses recomputes
TILDE_GAMMA_3 = 1.0856985486718291
PHI3_AT_13 = 3.1916197950522855


def test_registry_ids_sorted_and_complete():
    assert claim_ids() == EXPECTED_IDS
    assert claim_ids() == sorted(claim_ids())
    assert len(claim_ids()) == 19


def test_default_suite_all_pass():
    verdicts = run_claim_suite()
    assert len(verdicts) == 19
    failing = [v.claim_id for v in verdicts if not v.passed]
    assert failing == []
    assert suite_passed(verdicts)


def test_verdict_shape():
    for v in run_claim_suite(SMALL):
        assert v.claim_id in EXPECTED_IDS
        assert v.status in {"PASS", "FAIL", "ERROR"}
        assert v.anchor  # every claim states what it checks
        assert isinstance(v.witnesses, dict) and v.witnesses
        for key, value in v.witnesses.items():
            assert isinstance(key, str)
            assert isinstance(value, float), (v.claim_id, key)


def test_verdicts_come_back_in_id_order():
    verdicts = run_claim_suite(SMALL)
    assert [v.claim_id for v in verdicts] == EXPECTED_IDS


def test_passed_property():
    ok = ClaimVerdict(claim_id="X", anchor="a", status="PASS", witnesses={})
    bad = ClaimVerdict(claim_id="X", anchor="a", status="FAIL", witnesses={})
    err = ClaimVerdict(claim_id="X", anchor="a", status="ERROR", witnesses={})
    assert ok.passed and not bad.passed and not err.passed


def test_run_single_claim():
    v = run_claim("RATIO_165", SMALL)
    assert v.claim_id == "RATIO_165"
    assert v.status == "PASS"
    assert v.witnesses["ratio"] > 1.65


def test_unknown_claim_raises():
    with pytest.raises(KeyError):
        run_claim("NOT_A_CLAIM")


def test_cn_perturbation_fails_only_constant_claims():
    verdicts = run_claim_suite(dataclasses.replace(SMALL, cn_scale=1.001))
    failing = sorted(v.claim_id for v in verdicts if not v.passed)
    assert failing == ["C3_APPROX", "C4_EXACT"]
    assert not suite_passed(verdicts)


def test_perturbed_witnesses_show_the_drift():
    v = run_claim("C4_EXACT", dataclasses.replace(SMALL, cn_scale=1.001))
    assert v.status == "FAIL"
    assert v.witnesses["computed"] == pytest.approx(16.016, rel=1e-12)


class TestFold:
    """The one fold and verdict rule every record goes through, on synthetic records."""

    @staticmethod
    def verdict(monkeypatch, rows, **kwargs):
        # the witnesses are the fold itself: worst, at, first_bad, points
        claim = _Claim("synthetic", lambda run: rows, lambda run, f: f._asdict(), **kwargs)
        monkeypatch.setitem(_CLAIMS, "SYNTHETIC", claim)
        return run_claim("SYNTHETIC", SMALL)

    def test_nan_counts_as_minus_inf(self, monkeypatch):
        v = self.verdict(monkeypatch, [((2,), [1, 2, 3], [1.0, math.nan, 0.5])])
        assert v.status == "FAIL"
        assert v.witnesses == {"worst": -math.inf, "at": (2, 2), "first_bad": (2, 2), "points": 3}

    def test_a_nan_fails_a_non_strict_claim_too(self, monkeypatch):
        v = self.verdict(monkeypatch, [((), [1, 2], [0.0, math.nan])], tolerance=1e-9)
        assert v.status == "FAIL"
        assert v.witnesses["at"] == (2,)

    def test_a_tie_keeps_the_first_point(self, monkeypatch):
        rows = [((2,), [1, 2, 3], [3.0, 1.0, 1.0]), ((3,), [1, 2, 3], [1.0, 2.0, 1.0])]
        v = self.verdict(monkeypatch, rows)
        assert v.status == "PASS"
        assert v.witnesses == {"worst": 1.0, "at": (2, 2), "first_bad": None, "points": 6}

    def test_first_failing_point_is_not_the_worst(self, monkeypatch):
        # in a row as across rows: (2, 2) fails first, (2, 3) is its row's worst
        rows = [((2,), [1, 2, 3], [0.5, -1.0, -3.0]), ((3,), [1, 2], [-5.0, -1.0])]
        v = self.verdict(monkeypatch, rows)
        assert v.status == "FAIL"
        assert (v.witnesses["first_bad"], v.witnesses["at"]) == ((2, 2), (3, 1))
        assert v.witnesses["worst"] == -5.0

    @pytest.mark.parametrize("rows", [[], [((2,), [], [])]], ids=["no-rows", "empty-row"])
    def test_a_domain_with_no_points_passes(self, monkeypatch, rows):
        v = self.verdict(monkeypatch, rows)
        assert v.status == "PASS"
        assert v.witnesses == {"worst": math.inf, "at": None, "first_bad": None, "points": 0}

    @pytest.mark.parametrize("margin, kwargs, status", [
        (0.0, {}, "FAIL"),  # no tolerance, strict: margin > 0
        (5e-324, {}, "PASS"),
        (0.0, {"tolerance": 0.0}, "PASS"),  # tolerance 0, non-strict: margin >= 0
        (-5e-324, {"tolerance": 0.0}, "FAIL"),
        (-1e-9, {"tolerance": 1e-9}, "PASS"),  # margin >= -tolerance
        (math.nextafter(-1e-9, -1.0), {"tolerance": 1e-9}, "FAIL"),
    ])
    def test_strict_and_non_strict_at_the_edge(self, monkeypatch, margin, kwargs, status):
        v = self.verdict(monkeypatch, [((), [0], [margin])], **kwargs)
        assert v.status == status
        assert v.tolerance == kwargs.get("tolerance")
        assert v.witnesses["first_bad"] == (None if status == "PASS" else (0,))

    def test_an_exception_becomes_an_error_verdict(self, monkeypatch):
        def boom(run):
            raise OverflowError("synthetic blowup")

        monkeypatch.setitem(_CLAIMS, "CN_MONOTONE", _Claim("synthetic", boom, lambda run, f: {}))
        v = run_claim("CN_MONOTONE", SMALL)
        assert v == ClaimVerdict(
            "CN_MONOTONE", "evaluation failed before the statement could be checked", "ERROR",
            witnesses={}, grid_note="OverflowError: synthetic blowup",
        )
        assert not suite_passed(run_claim_suite(SMALL))


def test_lem3_fails_where_the_trace_is_nan(monkeypatch):
    trace = spectral.heat_trace

    def nan_at_4_1(n, t):
        result = trace(n, t)
        return dataclasses.replace(result, value=math.nan) if (n, t) == (4, 1.0) else result

    monkeypatch.setattr(spectral, "heat_trace", nan_at_4_1)
    v = run_claim("LEM3_TRACE_BOUND", SMALL)
    assert v.status == "FAIL"
    assert v.witnesses["min_margin"] == -math.inf
    assert v.witnesses["at_n"] == 4.0


@pytest.mark.parametrize("n_max, ns", [(6, range(2, 7)), (400, range(2, 165))])
def test_lem3_reads_t_1_alone_at_each_n_of_the_capped_grid(monkeypatch, n_max, ns):
    traces = _count_calls(monkeypatch, spectral, "heat_trace")
    closed = _count_calls(monkeypatch, spectral, "trace_bound")
    v = run_claim("LEM3_TRACE_BOUND", dataclasses.replace(SMALL, n_max=n_max))
    assert v.status == "PASS"
    assert traces == closed == [(n, 1.0) for n in ns]
    assert v.witnesses["points"] == len(ns)
    assert v.grid_note.startswith(f"n in [2, {ns[-1]}]; decided at t = 1: ")
    assert v.grid_note.endswith("capped at 164: the case-correction exponent exceeds float range beyond"
                                if n_max > 164 else "as lambda_k - n >= n + 2")


def test_leml_reads_no_grid_no_beta_and_no_kernel(monkeypatch):
    def unread(*args, **kwargs):
        raise AssertionError("LEML_GPRIME_NEG read what it should not")

    for module, name in [(bounds, "capped_kernels"), (bounds, "BoundKernel"), (solver, "_g_prime_numerator"),
                         (solver, "g_prime_sign_scan")]:
        monkeypatch.setattr(module, name, unread)
    # 165:170 leaves the capped grid empty; LEML still passes there
    v = run_claim("LEML_GPRIME_NEG", SuiteConfig(n_min=165, n_max=170))
    assert (v.status, v.tolerance) == ("PASS", 0.0)
    assert v.witnesses == {"terms": 6.0, "mismatched": 0.0, "nonpositive_coefficients": 0.0}
    assert v.grid_note.startswith("every n >= 2 and b > 0: ")


def test_vacuous_gamma_range_still_passes():
    narrow = SuiteConfig(n_min=2, n_max=2, ell_min=1, ell_max=1)
    v = run_claim("GAMMAN_LE_13", narrow)
    assert v.status == "PASS"
    assert v.grid_note is not None


@pytest.mark.parametrize("n_min, n_max, note", [
    (2, 30, "n in [3, 30]"),
    (10, 20, "n in [10, 20]"),
    (160, 200, "n in [160, 164]; n capped at 164: the case-correction exponent exceeds float range beyond"),
])
def test_gamman_note_names_the_checked_n(n_min, n_max, note):
    v = run_claim("GAMMAN_LE_13", SuiteConfig(n_min=n_min, n_max=n_max))
    assert v.status == "PASS"
    assert v.grid_note == note


def test_grid_caps_before_overflow():
    # the deepest exponent (the case-correction one) leaves float range
    # at n = 165, a step before n C_n itself does; the suite must cap
    # there, say so, and still pass everywhere it can evaluate
    wide = SuiteConfig(n_min=2, n_max=200, ell_min=1, ell_max=30)
    verdicts = run_claim_suite(wide)
    assert suite_passed(verdicts)
    capped = [v for v in verdicts if v.grid_note and "capped at 164" in v.grid_note]
    assert capped


GRID_CLAIMS = [
    "ALPHA_STAR_BRACKET",
    "FINAL_INEQ",
    "GAMMAN_LE_13",
    "GAP_ORDER_THM1_CLY",
    "GAP_ORDER_THM2_THM1",
    "LEM3_TRACE_BOUND",
    "THM6_CONSISTENCY",
]


def test_capped_empty_grid_is_an_error_not_a_verdict():
    # n C_n is finite at n = 165, but the case-correction exponent at
    # ell = 30 is not, so the cap leaves no n of 165:170 to check
    verdicts = run_claim_suite(SuiteConfig(n_min=165, n_max=170))
    unchecked = [v for v in verdicts if v.status != "PASS"]
    assert [v.claim_id for v in unchecked] == GRID_CLAIMS
    for v in unchecked:
        assert v.status == "ERROR"
        assert v.witnesses == {}
        assert v.grid_note == (
            "empty grid; n capped at 164: the case-correction exponent"
            " exceeds float range beyond"
        )


@pytest.mark.parametrize("n_min, n_max", [(166, 170), (200, 300)])
def test_empty_grid_names_no_dimension_when_the_n_below_it_does_not_fit(n_min, n_max):
    # n C_n overflows from n = 166 on, and at n = 165 the case-correction
    # exponent does, so no n below the grid can be named as its last
    verdicts = run_claim_suite(SuiteConfig(n_min=n_min, n_max=n_max))
    unchecked = [v for v in verdicts if v.status != "PASS"]
    assert [v.claim_id for v in unchecked] == GRID_CLAIMS
    for v in unchecked:
        assert (v.status, v.witnesses) == ("ERROR", {})
        assert v.grid_note == f"empty grid; no dimension fits: n C_n exceeds float range from n={n_min}"


def test_empty_grid_names_no_dimension_when_n_2_does_not_fit():
    # the case-correction exponent overflows already at n = 2, so there
    # is no last dimension to name, and n = 1 is no dimension at all
    verdicts = run_claim_suite(SuiteConfig(alpha=1e300, ell_min=10**9, ell_max=10**9 + 1))
    unchecked = [v for v in verdicts if v.status != "PASS"]
    assert [v.claim_id for v in unchecked] == GRID_CLAIMS
    for v in unchecked:
        assert (v.status, v.witnesses) == ("ERROR", {})
        assert v.grid_note == (
            "empty grid; no dimension fits: the case-correction exponent"
            " exceeds float range from n=2"
        )


def test_first_bad_names_the_first_failing_point(monkeypatch):
    # the case (ii) margin fails at (3, ell_max) and, worse, at (4, ell_min);
    # n-then-ell order puts (3, 3) first, and the minimum still names the
    # worst margin
    claim = _CLAIMS["GAP_ORDER_THM2_THM1"]
    bad = {(3, 3): -1.0, (4, 1): -5.0}

    def margins(run):
        for (n,), ells, row in claim.margins(run):
            yield (n,), ells, [bad.get((n, ell), m) for ell, m in zip(ells, row)]

    monkeypatch.setitem(_CLAIMS, "GAP_ORDER_THM2_THM1", dataclasses.replace(claim, margins=margins))
    v = run_claim("GAP_ORDER_THM2_THM1", SMALL)
    assert v.status == "FAIL"
    assert (v.witnesses["first_bad_n"], v.witnesses["first_bad_ell"]) == (3.0, 3.0)
    assert v.witnesses["min_case2_log_margin"] == -5.0


@pytest.mark.parametrize("ell", [10**16, 10**300], ids=["1e16", "1e300"])
def test_case2_order_holds_at_huge_ell(ell):
    # the margin is about 1 / (2 alpha ell); a difference of two logs rounded it to 0
    config = SuiteConfig(ell_min=ell, ell_max=ell + 1)
    v = run_claim("GAP_ORDER_THM2_THM1", config)
    assert v.status == "PASS"
    assert 0.0 < v.witnesses["min_case2_log_margin"] < 1.0 / ell
    # and so does every other claim, as `volgap verify --l-range` reports it
    assert [v.status for v in run_claim_suite(config)] == ["PASS"] * 19


# ------------------------------------ claims decided at the ends of ell

ENDS_CLAIMS = ["FINAL_INEQ", "GAP_ORDER_THM1_CLY", "GAP_ORDER_THM2_THM1"]


@pytest.mark.parametrize("claim_id", ENDS_CLAIMS)
@pytest.mark.parametrize("ell_min, ell_max, ends", [(1, 30, (1, 30)), (5, 5, (5,))])
def test_the_ell_ends_decide_the_claim(claim_id, ell_min, ell_max, ends):
    # one point per n at each end, and one, not two, where the ends coincide
    run = _Run(SuiteConfig(ell_min=ell_min, ell_max=ell_max))
    rows = list(_CLAIMS[claim_id].margins(run))
    assert [key for key, _, _ in rows] == [(n,) for n in range(2, 31)]
    assert all(tuple(ells) == ends and len(margins) == len(ends) for _, ells, margins in rows)
    v = run_claim(claim_id, run)
    assert v.status == "PASS"
    assert f"; decided at ell = {' and '.join(map(str, ends))}: " in v.grid_note


@pytest.mark.parametrize("ell_max", [10**30, 2**63 - 1], ids=["1e30", "2^63-1"])
def test_every_claim_passes_on_an_ell_range_too_long_to_list(ell_max):
    # THM6 once listed every ell: 10^30 overflowed len(), 2^63 - 1 ran out of memory
    verdicts = {v.claim_id: v for v in run_claim_suite(SuiteConfig(ell_max=ell_max))}
    assert suite_passed(verdicts.values())
    assert verdicts.pop("THM6_CONSISTENCY").grid_note == (
        f"n in [2, 30], ell in [1, {ell_max}], alpha = 1.43; 64 log-spaced ells with both ends"
    )
    # the ends decide the other grid claims; the rest do not read ell_max
    default = {v.claim_id: v for v in run_claim_suite()}
    for claim_id, v in verdicts.items():
        if claim_id in ENDS_CLAIMS:
            assert f"ell in [1, {ell_max}]" in v.grid_note
        else:
            assert v == default[claim_id]


@pytest.mark.parametrize("ell_max", [30, 64, 65, 10**6, 10**30])
def test_thm6_folds_at_most_64_ells_per_n(ell_max):
    run = _Run(SuiteConfig(ell_max=ell_max))
    rows = list(_CLAIMS["THM6_CONSISTENCY"].margins(run))
    assert [key for key, _, _ in rows] == [(n,) for n in range(2, 31)]
    for _, ells, margins in rows:
        assert len(ells) == len(margins) == min(ell_max, 64)
        if ell_max <= 64:
            assert ells == range(1, ell_max + 1)
    assert _fold(rows, lambda m: m >= -1e-12).points == 29 * min(ell_max, 64)
    v = run_claim("THM6_CONSISTENCY", run)
    assert v.status == "PASS"
    assert v.grid_note.endswith("alpha = 1.43" if ell_max <= 64 else "; 64 log-spaced ells with both ends")


@pytest.mark.parametrize("lo, hi", [
    (1, 1), (5, 5), (1, 2), (1, 30), (1, 64), (1, 65), (1, 66), (1, 10**6), (7, 10**30),
    (2**53 + 1, 2**53 + 10**6), (2**60 + 1, 2**90 + 3), (1, 2 * 10**308),
])
@pytest.mark.parametrize("k", [2, 3, 64])
def test_sample(lo, hi, k):
    ells = _sample(lo, hi, k)
    if hi - lo < k:
        assert ells == range(lo, hi + 1)
    else:
        # k ints, both ends exact past 2^53, strictly increasing, so none outside [lo, hi]
        assert type(ells) is tuple and len(ells) == k
        assert all(type(ell) is int for ell in ells)
        assert (ells[0], ells[-1]) == (lo, hi)
        assert all(a < b for a, b in zip(ells, ells[1:]))
    if k == 2:
        assert tuple(ells) == ((lo,) if lo == hi else (lo, hi))


def test_a_thm6_mutant_off_at_one_sampled_ell_fails(monkeypatch):
    config, ell = SuiteConfig(ell_max=10**6), 10000
    assert ell in _sample(1, 10**6, 64)[1:-1]
    assert run_claim("THM6_CONSISTENCY", config).status == "PASS"
    _thm6_off_at_one_sampled_ell(monkeypatch)
    v = run_claim("THM6_CONSISTENCY", config)
    assert v.status == "FAIL"
    assert v.witnesses["at_ell"] == ell
    assert v.witnesses["max_rel_log_diff"] > 1e-10


@pytest.mark.parametrize("nan_at, inf_at, at", [
    ((5, 20), (7, 12), (5, 20)),
    ((7, 12), (5, 20), (5, 20)),
    ((9, 3), (9, 8), (9, 3)),
    ((9, 8), (9, 3), (9, 3)),
], ids=["nan-first", "inf-first", "one-row-nan-first", "one-row-inf-first"])
def test_thm6_fails_at_the_first_nan_or_infinite_route(monkeypatch, nan_at, inf_at, at):
    # a NaN route gives a NaN margin, which folds as -inf, and a -inf route
    # gives -inf; of the two, the fold keeps the first in (n, ell) order
    real = bounds._log_multiplicity_excesses

    def route(n, nc, t, ks):
        marked = {nan_at: math.nan, inf_at: -math.inf}
        return [marked.get((n, k - n - 1), e) for k, e in zip(ks, real(n, nc, t, ks))]

    monkeypatch.setattr(bounds, "_log_multiplicity_excesses", route)
    v = run_claim("THM6_CONSISTENCY")
    assert v.status == "FAIL"
    assert v.witnesses == {"max_rel_log_diff": math.inf, "at_n": float(at[0]), "at_ell": float(at[1])}


def _hexes(xs) -> list[str]:
    return [x.hex() for x in xs]


@pytest.mark.parametrize("alpha", [1.43, 3.0, 1.0000000000000002])
@pytest.mark.parametrize("ell_max", [30, 10**6])
def test_the_lean_rows_match_the_table_columns_bit_for_bit(alpha, ell_max):
    # THM6's direct column and GAP_ORDER_THM1_CLY's margins, at every n of
    # the capped grid, against the THM1 columns the tables print from
    run = _Run(SuiteConfig(n_max=400, ell_max=ell_max, alpha=alpha))
    for k in (2, claims._THM6_ELLS):
        cols = run.columns(k)
        for kernel in run.kernels():
            ((_, _, excesses, ratios),) = bounds._bound_columns([kernel] * len(cols.ells), cols, (GapVariant.THM1,))
            assert _hexes(bounds._thm1_log_excesses(kernel, cols)) == _hexes(excesses)
            assert _hexes(claims._ratio_row(kernel, cols)) == _hexes(r - math.log(1.65) for r in ratios)
            ks = [kernel.n + ell + 1 for ell in cols.ells]
            route = bounds._log_multiplicity_excesses(kernel.n, kernel.nc, kernel.anc, ks)
            want = [-abs(d - r) / max(1.0, abs(d)) for d, r in zip(excesses, route)]
            assert _hexes(claims._thm6_row(kernel, cols)) == _hexes(want)


# each claim's margin at one (kernel, ell), point by point, as the suite
# evaluated it at every ell of the range before it read the two ends alone
FULL_GRID_MARGIN = {
    "FINAL_INEQ": lambda k, ell: per_point.final_margin(k.n, ell, k.anc),
    "GAP_ORDER_THM1_CLY": lambda k, ell: (
        per_point.logs(k, ell, (GapVariant.THM1,))[0][2] - math.log(1.65)
    ),
    "GAP_ORDER_THM2_THM1": lambda k, ell: (
        -math.inf if per_point.log_case1_correction(k.n, ell, k.tuning.alpha, k.anc) == -math.inf
        else per_point.case2_margin(k.tuning, ell)
    ),
}


@pytest.mark.parametrize("claim_id", ENDS_CLAIMS)
@pytest.mark.parametrize("config", [
    SuiteConfig(), SuiteConfig(n_max=400), SuiteConfig(n_max=400, alpha=3.0),
], ids=["default", "2:400", "2:400-alpha-3"])
def test_the_ends_fold_as_the_full_grid_does(claim_id, config):
    run = _Run(config)
    ells = range(config.ell_min, config.ell_max + 1)
    margin = FULL_GRID_MARGIN[claim_id]
    full = _fold((((k.n,), ells, [margin(k, ell) for ell in ells]) for k in run.kernels()), lambda m: m > 0.0)
    ends = _fold(_CLAIMS[claim_id].margins(run), lambda m: m > 0.0)
    assert (ends.worst, ends.at, ends.first_bad) == (full.worst, full.at, full.first_bad)
    assert ends.points == 2 * len(run.kernels())
    assert run_claim(claim_id, run).witnesses == _CLAIMS[claim_id].witnesses(run, full)


def _head_of_one(monkeypatch):
    # alpha n (n+3) C_n replaced by 1: false at ell = 1 for every n, true at
    # ell = 30 up to n = 48
    real = bounds._final_inequality_log_margins
    monkeypatch.setattr(bounds, "_final_inequality_log_margins", lambda n, anc, ells: real(n, 1.0 / (n + 3), ells))


def _short_tuned_numerator(monkeypatch):
    # alpha ell - 1 short by 0.01: the ratio at (2, 1) falls about 2 % below
    # 1.65, and stays above it at ell = 30
    real = bounds.Tuning.numerators
    monkeypatch.setattr(bounds.Tuning, "numerators", lambda self, ell: (real(self, ell)[0] - 0.01, real(self, ell)[1]))


def _case2_against_2002_thm1(monkeypatch):
    # case (ii) against 2 e^0.001 times the tuned excess: false from ell = 351
    # on at alpha 1.43, true below
    real = bounds._EllColumns.case2_margin.func
    monkeypatch.setattr(bounds._EllColumns, "case2_margin", property(lambda cols: [m - 1e-3 for m in real(cols)]))


@pytest.mark.parametrize("claim_id, mutate, config, witness, end", [
    ("FINAL_INEQ", _head_of_one, SuiteConfig(), "at_ell", 1.0),
    ("GAP_ORDER_THM1_CLY", _short_tuned_numerator, SuiteConfig(), "at_ell", 1.0),
    ("GAP_ORDER_THM2_THM1", _case2_against_2002_thm1, SuiteConfig(ell_max=1000), "first_bad_ell", 1000.0),
], ids=["final-ineq", "thm1-cly", "thm2-thm1"])
def test_a_mutant_false_at_a_deciding_end_fails(monkeypatch, claim_id, mutate, config, witness, end):
    assert run_claim(claim_id, config).status == "PASS"
    mutate(monkeypatch)
    v = run_claim(claim_id, config)
    assert v.status == "FAIL"
    assert v.witnesses[witness] == end


class TestEndsPremises:
    """mpmath checks that each claim decided at the ends of its ell range is monotone in ell there.

    Each premise is the part of its margin that depends on ell; the rest
    is constant in ell at fixed n and alpha.  The ells are every valid one
    up to 10^3 (alpha ell > 1), then 10^16 and 10^300.
    """

    NS = [2, 3, 4, 10, 30, 100, 164]
    ALPHAS = [0.6, 1.01, 1.43, 2.0, 3.0, 50.0]

    @staticmethod
    def ells(alpha: float) -> list[int]:
        return [ell for ell in range(1, 1001) if alpha * ell > 1] + [10**16, 10**300]

    @staticmethod
    def steps(values) -> list:
        return [b - a for a, b in zip(values, values[1:])]

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_the_final_margin_increases(self, alpha):
        # alpha n (n+3) C_n + log ell - log(n + ell + 3)
        with mpmath.workdps(40):
            for n in self.NS:
                values = [mpmath.log(ell) - mpmath.log(n + ell + 3) for ell in self.ells(alpha)]
                assert all(step > 0 for step in self.steps(values)), n

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_the_ratio_to_cly_moves_as_2_minus_alpha(self, alpha):
        # log[(alpha ell - 1) / B_(n,alpha)] - log[(2 ell - 1) / B_n]; at
        # alpha = 2 it is constant, so either end decides it
        a = mpmath.mpf(alpha)
        with mpmath.workdps(40):
            values = [mpmath.log((a * ell - 1) / (2 * ell - 1)) for ell in self.ells(alpha)]
            direction = mpmath.sign(2 - a)
            assert all(mpmath.sign(step) == direction for step in self.steps(values))

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_the_case2_margin_falls(self, alpha):
        a = mpmath.mpf(alpha)
        with mpmath.workdps(40):
            values = [mpmath.log1p(mpmath.mpf(0.5) / (a * ell - 1)) for ell in self.ells(alpha)]
            assert all(step < 0 for step in self.steps(values))

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_the_case1_exponent_falls(self, alpha):
        # E = alpha n C_n (1 - (n+4) (n+2 ell)^(2/n) 4^(1/n)), C_n = n^(n/2) e Gamma(n/2, 1) / 2
        a = mpmath.mpf(alpha)
        with mpmath.workdps(40):
            for n in self.NS:
                nc = n * mpmath.mpf(n) ** (mpmath.mpf(n) / 2) * mpmath.e * mpmath.gammainc(mpmath.mpf(n) / 2, 1) / 2
                growth = (n + 4) * mpmath.root(4, n)
                values = [a * nc * (1 - growth * mpmath.mpf(n + 2 * ell) ** (mpmath.mpf(2) / n))
                          for ell in self.ells(alpha)]
                assert all(step < 0 for step in self.steps(values)), n


class TestTraceBoundPremise:
    """mpmath checks that t = 1 decides LEM3_TRACE_BOUND at each n.

    Levels 0 and 1 of the trace cancel against the bound's first two
    terms, so the claim is t sum_(k>=2) m_k e^(-(lambda_k - n) t) <= C_n:
    its left side must fall in t, and lie below C_n at t = 1.
    """

    NS = [*range(2, 11), 20, 50, 100, 164]
    TS = [1 + mpmath.mpf(j) / 4 for j in range(37)]  # t = 1, 1.25, ..., 10

    @staticmethod
    def log_rest(n: int, t) -> mpmath.mpf:
        """log of t sum_(k>=2) m_k e^(-(lambda_k - n) t), summed until a term is below 10^-60 of the sum."""
        total, k = mpmath.mpf(0), 2
        while True:
            m_k = math.comb(n + k, n) - math.comb(n + k - 2, n)
            term = m_k * mpmath.exp(-(k * (k + n - 1) - n) * t)
            total += term
            if term < total * mpmath.mpf(10) ** -60:
                return mpmath.log(t * total)
            k += 1

    @staticmethod
    def log_cn(n: int) -> mpmath.mpf:
        return mpmath.log(mpmath.mpf(n) ** (mpmath.mpf(n) / 2) * mpmath.e * mpmath.gammainc(mpmath.mpf(n) / 2, 1) / 2)

    @pytest.mark.parametrize("n", NS)
    def test_the_rest_falls_in_t_and_lies_below_c_n_at_1(self, n):
        with mpmath.workdps(40):
            values = [self.log_rest(n, t) for t in self.TS]
            assert all(b < a for a, b in zip(values, values[1:]))
            assert values[0] < self.log_cn(n)

    def test_the_worst_margin_matches_mpmath(self):
        # at (2, 1) the float margin trace_bound - heat_trace is e^(-n) (C_n - rest)
        v = run_claim("LEM3_TRACE_BOUND", SMALL)
        assert v.witnesses["at_n"] == 2.0
        with mpmath.workdps(40):
            want = mpmath.exp(-2) * (mpmath.exp(self.log_cn(2)) - mpmath.exp(self.log_rest(2, mpmath.mpf(1))))
        assert v.witnesses["min_margin"] == pytest.approx(float(want), rel=1e-13)


def _value(p, point) -> int:
    """p at an integer point (beta, c, X, m), with X a free variable."""
    return sum(a * math.prod(x ** e for x, e in zip(point, exps)) for exps, a in p.items())


def _at(p, beta, c, m):
    """p at (beta, c, m), with X = e^(beta c)."""
    return sum(a * beta ** i * c ** j * mpmath.exp(beta * c) ** k * m ** l for (i, j, k, l), a in p.items())


def _nonzero(p) -> dict:
    return {e: a for e, a in p.items() if a}


class TestPolynomials:
    """The exact ring LEML_GPRIME_NEG expands g' in: exponents (i, j, k, l) of (beta, c, X, m)."""

    @pytest.mark.parametrize("i", range(4))
    @pytest.mark.parametrize("j", range(4))
    def test_d_of_beta_i_x_j(self, i, j):
        # d/dbeta beta^i X^j = i beta^(i-1) X^j + j c beta^i X^j, as X = e^(beta c)
        want = {e: a for e, a in [((i - 1, 0, j, 0), i), ((i, 1, j, 0), j)] if a}
        assert _nonzero(_d({(i, 0, j, 0): 1})) == want

    def test_d_against_mpmath(self):
        with mpmath.workdps(40):
            for beta, c, m in [("0.5", "2", 3), ("1.25", "10.7", 4), ("3", "0.3", 7)]:
                beta, c = mpmath.mpf(beta), mpmath.mpf(c)
                for p in (_G_N, _G_D, *_G_FACTORS):
                    want = mpmath.diff(lambda b: _at(p, b, c, m), beta)
                    assert _at(_d(p), beta, c, m) == pytest.approx(want, rel=1e-25)

    def test_mul_against_integer_evaluation(self):
        rng = random.Random(20261019)
        for _ in range(200):
            p, q = ({tuple(rng.randint(0, 3) for _ in range(4)): rng.randint(-5, 5) for _ in range(rng.randint(1, 4))}
                    for _ in range(2))
            point = tuple(rng.randint(-4, 4) for _ in range(4))
            assert _value(_mul(p, q), point) == _value(p, point) * _value(q, point)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_n_d_and_the_factors_are_the_anchor_s_g(self, n):
        # N = n + 1 + (1+B) e^B and D = beta^2 n C_n e^B - 1, and the factors'
        # product is -g' D^2, at c = n C_n and m = n + 1
        with mpmath.workdps(40):
            c = n * mpmath.mpf(n) ** (mpmath.mpf(n) / 2) * mpmath.e * mpmath.gammainc(mpmath.mpf(n) / 2, 1) / 2
            for beta in (mpmath.mpf("0.5"), mpmath.mpf(1), mpmath.mpf(2)):
                big_b = beta * c
                assert _at(_G_N, beta, c, n + 1) == pytest.approx(n + 1 + (1 + big_b) * mpmath.exp(big_b), rel=1e-30)
                assert _at(_G_D, beta, c, n + 1) == pytest.approx(beta ** 2 * c * mpmath.exp(big_b) - 1, rel=1e-30)
                g_prime = mpmath.diff(lambda b: _at(_G_N, b, c, n + 1) / _at(_G_D, b, c, n + 1), beta)
                factored = math.prod(_at(f, beta, c, n + 1) for f in _G_FACTORS)
                assert factored == pytest.approx(-g_prime * _at(_G_D, beta, c, n + 1) ** 2, rel=1e-20)


# -------------------------------------------------------------- mutants
#
# One false mutant per claim: a monkeypatched helper or constant, or a
# SuiteConfig hook, under which the claim's statement is false.  Each
# claim passes without it and must FAIL with it.


def _patched(module, name, wrap):
    """A mutant that replaces module.name by wrap(the real one)."""
    return lambda monkeypatch: monkeypatch.setattr(module, name, wrap(getattr(module, name)))


def _root_at(n: int, root: float):
    """A mutant whose solve at n returns gamma_n - 1 = root, inside a bracket of its own."""
    def wrap(solve):
        def mutated(m, ell=1, tol=1e-12):
            r = solve(m, ell, tol)
            return dataclasses.replace(r, root=root, bracket_lo=0.99 * root, bracket_hi=1.01 * root) if m == n else r
        return mutated
    return _patched(solver, "optimal_alpha", wrap)


def _thm6_off_at_one_sampled_ell(monkeypatch):
    # the multiplicity route off by a relative 1e-9 at ell 10000 of 1:10^6,
    # an interior sampled ell; the two routes agree to about 1e-15 elsewhere
    real = bounds._log_multiplicity_excesses

    def off(n, nc, t, ks):
        return [e * (1.0 + 1e-9) if k == n + 10001 else e for k, e in zip(ks, real(n, nc, t, ks))]

    monkeypatch.setattr(bounds, "_log_multiplicity_excesses", off)


def _leml_constant(name: str, polynomial):
    return lambda monkeypatch: monkeypatch.setattr(claims, name, polynomial)


def _mutant(claim_id: str, name: str, mutate, config=SuiteConfig()):
    """One row of MUTANTS: mutate(monkeypatch), or None, and the config the claim runs at."""
    return pytest.param(claim_id, mutate, config, id=f"{claim_id}:{name}")


_C_N_AT_07 = _patched(claims, "cly_constant", lambda c: lambda n: 0.7 * c(n))
_CN_SCALED = SuiteConfig(cn_scale=1.001)

MUTANTS = [
    _mutant("ALPHA_STAR_BRACKET", "gamma_2-is-1.44", _root_at(2, 0.44)),
    _mutant("C3_APPROX", "cn-scale", None, _CN_SCALED),
    _mutant("C4_EXACT", "cn-scale", None, _CN_SCALED),
    _mutant("CN_MONOTONE", "C_5-above-C_6", _patched(
        claims, "cly_constant_log", lambda c: lambda n: c(n) + (100.0 if n == 5 else 0.0))),
    _mutant("FINAL_INEQ", "head-of-one", _head_of_one),
    _mutant("GAMMA2_GT_13", "gamma_2-is-1.29", _root_at(2, 0.29)),
    _mutant("GAMMAN_LE_13", "gamma_3-is-1.31", _root_at(3, 0.31)),
    _mutant("GAP_ORDER_THM1_CLY", "short-numerator", _short_tuned_numerator),
    _mutant("GAP_ORDER_THM2_THM1", "case2-vs-2.002", _case2_against_2002_thm1, SuiteConfig(ell_max=1000)),
    _mutant("H_SIGN_142", "h-minus-1", _patched(solver, "h", lambda h: lambda a: h(a) - 1.0)),
    _mutant("H_SIGN_144", "h-plus-1", _patched(solver, "h", lambda h: lambda a: h(a) + 1.0)),
    # the bound without its C_n / t term, at t = 1 only
    _mutant("LEM3_TRACE_BOUND", "no-C_n-term-at-t-1", _patched(spectral, "trace_bound", lambda bound: lambda n, t: (
        1.0 + (n + 1) * math.exp(-n * t) if t == 1.0 else bound(n, t)))),
    # n + 2 in place of n + 1 in the last factor: beta X + 1 + beta (m + 1)
    _mutant("LEML_GPRIME_NEG", "n+2-in-last-factor", _leml_constant("_G_FACTORS", (
        *claims._G_FACTORS[:3], {**claims._G_FACTORS[3], (1, 0, 0, 0): 1}))),
    # N = n + 2 + (1 + B) X
    _mutant("LEML_GPRIME_NEG", "wrong-N", _leml_constant("_G_N", {**claims._G_N, (0, 0, 0, 0): 1})),
    # the same product from -c and -(2 + B), which only the sign rule rejects
    _mutant("LEML_GPRIME_NEG", "negative-factors", _leml_constant("_G_FACTORS", (
        {(0, 1, 0, 0): -1}, {(0, 0, 0, 0): -2, (1, 1, 0, 0): -1}, *claims._G_FACTORS[2:]))),
    _mutant("PHI3_GT_2", "C_n-times-0.7", _C_N_AT_07),
    _mutant("PSI_DECREASING", "psi-raised-at-100", _patched(claims, "_log_psi", lambda psi: lambda n: (
        psi(n) + (30.0 if n == 100 else 0.0)))),
    _mutant("RATIO_165", "short-numerator", _short_tuned_numerator),
    _mutant("RHS_GT_20", "C_n-times-0.7", _C_N_AT_07),
    _mutant("THM6_CONSISTENCY", "route-off-1e-9", _thm6_off_at_one_sampled_ell, SuiteConfig(ell_max=10**6)),
    _mutant("TILDE_GAMMA3_LT_11", "C_n-times-0.7", _C_N_AT_07),
]


def test_every_claim_has_a_mutant():
    assert sorted({row.values[0] for row in MUTANTS}) == claim_ids()


@pytest.mark.parametrize("claim_id, mutate, config", MUTANTS)
def test_every_claim_fails_under_a_false_mutant(monkeypatch, claim_id, mutate, config):
    assert run_claim(claim_id, dataclasses.replace(config, cn_scale=1.0)).status == "PASS"
    if mutate:
        mutate(monkeypatch)
    assert run_claim(claim_id, config).status == "FAIL"


class TestSuiteConfig:
    def test_defaults(self):
        config = SuiteConfig()
        assert (config.n_min, config.n_max) == (2, 30)
        assert (config.ell_min, config.ell_max) == (1, 30)
        assert config.alpha == 1.43
        assert config.cn_scale == 1.0

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            SuiteConfig(n_min=1)
        with pytest.raises(ValueError):
            SuiteConfig(n_max=1)
        with pytest.raises(ValueError):
            SuiteConfig(ell_min=0)
        with pytest.raises(ValueError):
            SuiteConfig(ell_max=0)

    def test_rejects_nonpositive_numerator(self):
        with pytest.raises(ValueError):
            SuiteConfig(alpha=0.9)  # alpha * ell_min = 0.9 <= 1

    def test_rejects_bad_alpha_tol_scale(self):
        with pytest.raises(ValueError):
            SuiteConfig(alpha=0.0)
        with pytest.raises(ValueError):
            SuiteConfig(tol=0.0)
        with pytest.raises(ValueError):
            SuiteConfig(cn_scale=0.0)


@pytest.mark.parametrize("tol", [1e-16, 0.5])
def test_thm6_keeps_its_own_tolerance(tol):
    # the two routes agree to rounding, about 4e-16 on the default grid;
    # tol sets the root solves only, so it neither fails nor loosens THM6
    v = run_claim("THM6_CONSISTENCY", SuiteConfig(tol=tol))
    assert v.status == "PASS"
    assert v.tolerance == 1e-12


def _count_calls(monkeypatch, module, name):
    """Wrap module.name so each call appends its positional arguments to the returned list."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("n_max, roots", [(30, 29), (400, 163)])
def test_one_grid_and_one_root_per_n_per_run(monkeypatch, n_max, roots):
    # n 2:400 is capped at 164, so both grids solve n = 2, ..., roots + 1
    grids = _count_calls(monkeypatch, bounds, "capped_kernels")
    solves = _count_calls(monkeypatch, solver, "optimal_alpha")
    columns = _count_calls(monkeypatch, bounds, "_EllColumns")
    points = _count_calls(monkeypatch, bounds.BoundKernel, "logs")
    column_sets = _count_calls(monkeypatch, bounds, "_bound_columns")
    checks = _count_calls(monkeypatch, bounds, "_check_numerators")
    config = SuiteConfig(n_max=n_max)
    assert suite_passed(run_claim_suite(config))
    assert len(grids) == 1
    assert sorted(args[0] for args in solves) == list(range(2, roots + 2))
    # the grid's ell terms once, their two ends once, RATIO_165's one point
    # once, and no grid kernel evaluated point by point: the one point read
    # is RATIO_165's anchor, through log_improvement_vs_cly
    assert sorted((args[0] for args in columns), key=len) == [(1,), (1, 30), range(1, 31)]
    assert [(kernel.n, ell, variants) for kernel, ell, variants in points] == [(2, 1, (GapVariant.THM1,))]
    # the grid rows form no full column set: the one left is RATIO_165's
    assert [(kernels[0].n, tuple(cols.ells), variants) for kernels, cols, variants in column_sets] == [
        (2, (1,), (GapVariant.THM1,)),
    ]
    # the numerators are checked once per claim that reads one, at the first
    # n: GAP_ORDER_THM1_CLY, GAP_ORDER_THM2_THM1, RATIO_165 and THM6_CONSISTENCY
    assert [(n, tuple(cols.ells), variants) for n, cols, variants in checks] == [
        (2, (1, 30), (GapVariant.THM1,)),
        (2, (1, 30), (GapVariant.THM1,)),
        (2, (1,), (GapVariant.THM1,)),
        (2, tuple(range(1, 31)), (GapVariant.THM1,)),
    ]
    # nothing is kept between runs
    run_claim_suite(config)
    assert (len(grids), len(solves), len(columns)) == (2, 2 * roots, 6)
    assert (len(column_sets), len(checks)) == (2, 8)


@pytest.mark.parametrize("bad_n, erred_at", [
    # erred_at: each claim that must be ERROR, and the first n it asks for
    (None, {"ALPHA_STAR_BRACKET": 2, "GAMMA2_GT_13": 2, "GAMMAN_LE_13": 3}),
    (5, {"ALPHA_STAR_BRACKET": 5, "GAMMAN_LE_13": 5}),
])
def test_failed_root_errors_only_the_claims_that_ask_for_it(monkeypatch, bad_n, erred_at):
    expected = {v.claim_id: v for v in run_claim_suite()}
    solve = solver.optimal_alpha

    def failing(n, ell=1, tol=1e-12):
        if bad_n in (None, n):
            raise solver.EvaluationError(f"synthetic failure at n={n}")
        return solve(n, ell, tol)

    monkeypatch.setattr(solver, "optimal_alpha", failing)
    verdicts = run_claim_suite()
    assert [v.claim_id for v in verdicts if v.status == "ERROR"] == list(erred_at)
    for v in verdicts:
        if v.claim_id in erred_at:
            # a failed solve is not kept: each claim that asks meets it itself
            assert v.grid_note == f"EvaluationError: synthetic failure at n={erred_at[v.claim_id]}"
        else:
            assert v == expected[v.claim_id]


def mp_three_c3() -> mpmath.mpf:
    # 3 C_3 = 3 * 3^(3/2) e Gamma(3/2, 1) / 2
    return 3 * mpmath.mpf(3) ** 1.5 * mpmath.e * mpmath.gammainc(mpmath.mpf(1.5), 1, mpmath.inf) / 2


class TestClosedFormWitnesses:
    def test_tilde_gamma3_frozen_and_solves_quadratic(self):
        v = run_claim("TILDE_GAMMA3_LT_11")
        x = v.witnesses["root"]
        assert v.status == "PASS"
        assert x == pytest.approx(TILDE_GAMMA_3, rel=1e-14)
        c3 = 3.0 * cly_constant(3)
        assert c3 * x * x - c3 * x - 1.0 == pytest.approx(0.0, abs=1e-13)

    def test_tilde_gamma3_mpmath(self):
        with mpmath.workdps(40):
            root = (1 + mpmath.sqrt(1 + 4 / mp_three_c3())) / 2
        assert run_claim("TILDE_GAMMA3_LT_11").witnesses["root"] == pytest.approx(float(root), rel=1e-14)

    def test_phi3_frozen_plain_and_mpmath(self):
        v = run_claim("PHI3_GT_2")
        value = v.witnesses["phi3_at_1_3"]
        assert v.status == "PASS"
        assert value == pytest.approx(PHI3_AT_13, rel=1e-14)
        assert value == pytest.approx(1.17 * cly_constant(3) - 1.0, rel=1e-14)
        with mpmath.workdps(40):
            want = mp_three_c3() * mpmath.mpf("1.3") * mpmath.mpf("0.3") - 1
        assert value == pytest.approx(float(want), rel=1e-14)

    def test_psi_decreasing_over_claimed_range(self):
        v = run_claim("PSI_DECREASING")
        assert v.status == "PASS"
        assert v.witnesses["first_violation_n"] == -1.0
        # log10 psi(4) = (log 6 - 80) / log 10
        assert v.witnesses["log10_at_n4"] == pytest.approx((math.log(6.0) - 80.0) / math.log(10.0), rel=1e-15)
        assert v.witnesses["log10_at_n4"] == pytest.approx(-33.965407, rel=1e-6)

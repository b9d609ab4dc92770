"""Claim registry behaviour: ids, verdict shape, failure and error paths,
and the witnesses of the closed-form claims."""

import dataclasses
import math

import mpmath
import pytest

from volgap import bounds, solver
from volgap.claims import (
    ClaimVerdict,
    SuiteConfig,
    _CLAIMS,
    claim_ids,
    run_claim,
    run_claim_suite,
    suite_passed,
)
from volgap.specials import cly_constant

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


def test_exception_becomes_error_verdict(monkeypatch):
    def boom(config):
        raise OverflowError("synthetic blowup")

    monkeypatch.setitem(_CLAIMS, "CN_MONOTONE", boom)
    v = run_claim("CN_MONOTONE", SMALL)
    assert v.status == "ERROR"
    assert "OverflowError" in v.grid_note
    assert "synthetic blowup" in v.grid_note
    assert not suite_passed(run_claim_suite(SMALL))


def test_vacuous_gamma_range_still_passes():
    narrow = SuiteConfig(n_min=2, n_max=2, ell_min=1, ell_max=1)
    v = run_claim("GAMMAN_LE_13", narrow)
    assert v.status == "PASS"
    assert v.grid_note is not None


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
    "LEML_GPRIME_NEG",
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


def test_first_bad_names_the_first_failing_point():
    # at alpha = 1e300 the case (ii) margin rounds to exactly 0 everywhere,
    # so every point fails; n-then-ell order puts (2, 1) first
    v = run_claim("GAP_ORDER_THM2_THM1", SuiteConfig(alpha=1e300))
    assert v.status == "FAIL"
    assert (v.witnesses["first_bad_n"], v.witnesses["first_bad_ell"]) == (2.0, 1.0)
    assert v.witnesses["min_case2_log_margin"] == 0.0


def test_first_bad_beta_names_the_first_failing_sample(monkeypatch):
    # raising log g by 1 at (n=2, beta=1) breaks the decrease from beta = 0.95
    log_g = solver._log_g
    monkeypatch.setattr(
        solver, "_log_g",
        lambda beta, n, ncn: log_g(beta, n, ncn) + (1.0 if (n, beta) == (2, 1.0) else 0.0),
    )
    v = run_claim("LEML_GPRIME_NEG", SMALL)
    assert v.status == "FAIL"
    assert (v.witnesses["first_bad_n"], v.witnesses["first_bad_beta"]) == (2.0, 1.0)


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
    config = SuiteConfig(n_max=n_max)
    assert suite_passed(run_claim_suite(config))
    assert len(grids) == 1
    assert sorted(args[0] for args in solves) == list(range(2, roots + 2))
    # nothing is kept between runs
    run_claim_suite(config)
    assert (len(grids), len(solves)) == (2, 2 * roots)


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

"""Every digit the CLI prints for the bounds and constants, against the mpmath oracle.

Each printed value carries 12 significant digits, and each must lie
within one unit of its 12th digit of the oracle's value.  The table
test covers the whole representable grid, n 2:165 x ell 1:30, at a
fixed alpha and at alpha = auto, every n at fixed alphas just above
1/ell, where alpha ell - 1 is far below an ulp of alpha ell, and four
points at alphas down to 3e-15, where B is near 1.
ratio_vs_cly is left out: its digits are not yet right at most tuned
points.
"""

import json
import math
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest

from volgap.cli import main

import oracle


def worst(checks, logs=False) -> tuple:
    """The largest |text - true| of (where, text, true) triples, in units of the 12th
    significant digit of the number text, and its where; with logs, each true is the
    natural log of the number whose log10 text prints.

    Each distance is first taken in doubles, within 1e-3 of a unit, and
    again at the oracle's precision where that leaves it near 1.
    """
    found, per = (-1.0, None), math.log(10) if logs else 1.0
    for where, text, true in checks:
        printed = Decimal(text)
        shift = 11 - printed.adjusted()
        scaled = int(printed.scaleb(shift))
        units = abs(float(true) / per * 10.0 ** shift - scaled)
        if units > 0.999:
            with mpmath.workdps(oracle.DPS):
                units = float(abs(true / (mpmath.ln10 if logs else 1) * mpmath.mpf(10) ** shift - scaled))
        if units > found[0]:
            found = (units, where)
    return found


def run(tmp_path, *argv) -> str:
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def logs_against_oracle(rows, alpha) -> list:
    """(where, text, natural log) for the printed log10 B and log10 excess of rows of
    (variant, n, ell, log10 B, log10 excess)."""
    checks = []
    with mpmath.workdps(oracle.DPS):
        for variant, n, ell, log10_b, log10_excess in rows:
            # classical rows are at alpha = 2 whatever alpha is
            at = 2 if variant == "CLY" else alpha
            tuned = at if at != "auto" else oracle.tuning(n, ell, at)[0]
            checks.append(((variant, n, ell, "log10_B"), log10_b, oracle.log_b(n, tuned)))
            checks.append(((variant, n, ell, "log10_excess"), log10_excess, oracle.log_excess(variant, n, ell, at)))
    return checks


@pytest.mark.parametrize("alpha", [1.43, "auto"])
def test_every_printed_log_of_the_grid(tmp_path, alpha):
    text = run(tmp_path, "table", "--alpha", str(alpha), "--n-range", "2:165", "--l-range", "1:30")
    rows = [(variant, int(n), int(ell), alpha_text, b, excess)
            for n, ell, alpha_text, variant, b, excess, _ in (line.split(",") for line in text.splitlines()[1:])]
    assert len(rows) == 164 * 30 * 4
    checks = logs_against_oracle([(variant, n, ell, b, excess) for variant, n, ell, _, b, excess in rows], alpha)
    units, where = worst(checks, logs=True)
    assert units <= 1, (units, where)
    if alpha == "auto":
        # the three tuned variants of a point print its alpha alike, so each text is checked once
        tuned = {((n, ell), text) for variant, n, ell, text, _, _ in rows if variant != "CLY"}
        units, where = worst((point, text, oracle.tuning(*point, alpha)[0]) for point, text in tuned)
        assert units <= 1, (units, where)


def test_every_printed_constant_to_n_1000(tmp_path):
    rows = json.loads(run(tmp_path, "constants", "--json", "--n-range", "2:1000"), parse_float=str)
    assert [row["n"] for row in rows] == list(range(2, 1001))
    # C_2 = 1: its log prints as 0, which has no 12th digit
    assert rows[0]["log10_c_n"] == "0.0" and abs(oracle.log_c(2)) < 1e-35
    with mpmath.workdps(oracle.DPS):
        checks = [(row["n"], row["log10_c_n"], oracle.log_c(row["n"])) for row in rows[1:]]
        checks += [(row["n"], row["log10_n_c_n"], mpmath.log(oracle.nc(row["n"]))) for row in rows]
    units, where = worst(checks, logs=True)
    assert units <= 1, (units, where)


@pytest.mark.parametrize("alpha", [1.43, "auto"])
def test_every_printed_log_of_gap(tmp_path, alpha):
    rows = []
    for n in (2, 8, 30, 165):
        for ell in (1, 30):
            text = run(tmp_path, "gap", "--json", "--n", str(n), "--l", str(ell), "--alpha", str(alpha))
            printed = json.loads(text, parse_float=str)
            assert [row["variant"] for row in printed] == ["CLY", "THM1", "THM2_CASE1", "THM2_CASE2"]
            rows += [(row["variant"], n, ell, row["log10_B"], row["log10_excess"]) for row in printed]
    units, where = worst(logs_against_oracle(rows, alpha), logs=True)
    assert units <= 1, (units, where)


# three doubles within 1e-6 above 1/ell at each ell, the first the least
# double above it: alpha ell - 1 there is far below an ulp of alpha ell
NEAR_ONE_OVER_ELL = {
    1: ("1.0000000000000002", "1.000000001", "1.0000009"),
    3: ("0.33333333333333337", "0.3333334", "0.3333343"),
    10: ("0.1", "0.1000000001", "0.1000009"),
    100: ("0.01", "0.0100000000001", "0.0100009"),
}


@pytest.mark.parametrize("ell, alpha", [(ell, alpha) for ell, alphas in NEAR_ONE_OVER_ELL.items() for alpha in alphas])
def test_every_printed_log_near_alpha_ell_one(tmp_path, ell, alpha):
    assert 0 < Fraction(float(alpha)) * ell - 1 < 1e-6 * ell
    text = run(tmp_path, "table", "--alpha", alpha, "--n-range", "2:165", "--l-range", f"{ell}:{ell}")
    rows = [(variant, int(n), ell, b, excess)
            for n, _, _, variant, b, excess, _ in (line.split(",") for line in text.splitlines()[1:])]
    assert len(rows) == 164 * 4
    for n in (2, 8, 30, 165):
        printed = json.loads(run(tmp_path, "gap", "--json", "--n", str(n), "--l", str(ell), "--alpha", alpha),
                             parse_float=str)
        rows += [(row["variant"], n, ell, row["log10_B"], row["log10_excess"]) for row in printed]
    units, where = worst(logs_against_oracle(rows, float(alpha)), logs=True)
    assert units <= 1, (units, where)


# small fixed alphas just above 1/ell: B is near 1 and 2 alpha ell - 1 near 1
# as well, so log B and log(2 alpha ell - 1) keep their digits only as log1p
SMALL_ALPHAS = [
    (2, 10**6, "1.0000001e-6"),
    (8, 1700425718, "5.880880239714117e-10"),
    (5, 65886851885, "1.5177535001299244e-11"),
    (3, 329343820027763, "3.036342532682878e-15"),
]


@pytest.mark.parametrize("n, ell, alpha", SMALL_ALPHAS)
def test_every_printed_log_at_a_small_alpha(tmp_path, n, ell, alpha):
    text = run(tmp_path, "table", "--alpha", alpha, "--n-range", f"{n}:{n}", "--l-range", f"{ell}:{ell}")
    rows = [(variant, n, ell, b, excess)
            for _, _, _, variant, b, excess, _ in (line.split(",") for line in text.splitlines()[1:])]
    printed = json.loads(run(tmp_path, "gap", "--json", "--n", str(n), "--l", str(ell), "--alpha", alpha),
                         parse_float=str)
    rows += [(row["variant"], n, ell, row["log10_B"], row["log10_excess"]) for row in printed]
    assert len(rows) == 8
    units, where = worst(logs_against_oracle(rows, float(alpha)), logs=True)
    assert units <= 1, (units, where)

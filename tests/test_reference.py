"""The Gaussian engine and the exact photon route against values evaluated in
60-digit arithmetic.

tests/data/reference_60digit.json is written by tests/data/make_reference.py
(with mpmath); the suite only reads it.
"""

import csv
import io
import json
import math
from pathlib import Path

import pytest

from trisqueeze import FIG2_ALPHA, b3, fig2_setting, make_state, mean_power_exact, wigner
from trisqueeze.cli import run

DATA = Path(__file__).parent / "data"
REFERENCE = json.loads((DATA / "reference_60digit.json").read_text())


def test_wigner_matches_60_digit_exponents():
    # points within 3 sd of the mean for |s| <= 6, where the normal modes of
    # q and p reach e^{|s|} and e^{2|s|} in size, and points off the stretched
    # modes for |s| up to 354, where a circulant map entry times |q| overflows
    strengths = {abs(entry["strength"]) for entry in REFERENCE["wigner"]}
    assert strengths >= {0.0, 3.0, 5.0, 6.0, 350.0, 354.0}
    assert [1800.0, -1800.0, 0.0] in [entry["q"] for entry in REFERENCE["wigner"]]
    for entry in REFERENCE["wigner"]:
        alpha = [complex(re, im) for re, im in entry["alpha"]]
        value = wigner(make_state(entry["strength"], alpha), entry["q"], entry["p"])
        expected = math.exp(-float(entry["exponent"])) / math.pi**3
        assert value == pytest.approx(expected, rel=1e-9, abs=0), entry


def test_b3_matches_60_digit_values():
    for entry in REFERENCE["b3"]:
        value = b3(make_state(entry["strength"], FIG2_ALPHA), fig2_setting(entry["b"]))
        assert value == pytest.approx(float(entry["b3"]), rel=1e-9, abs=0), entry


def _table(text):
    return [tuple(map(float, row)) for row in list(csv.reader(io.StringIO(text)))[1:]]


def test_printed_fig2_maxima_match_60_digit_values(capsys):
    # every printed b3_max is B(3) at the printed b_star, to within the
    # printed precision: the default grid (the golden file) and s = 5, 6
    reference = {(entry["strength"], entry["b"]): float(entry["b3"]) for entry in REFERENCE["b3"]}
    rows = _table((DATA / "fig2_default.csv").read_text())
    assert run(["fig2", "--lambda", "5:1:6"]) == 0
    rows += _table(capsys.readouterr().out)
    assert len(rows) == len(reference) == 53
    for strength, b_star, b3_max in rows:
        assert abs(b3_max - reference[strength, b_star]) <= 1e-12, (strength, b_star)


def test_exact_photon_moments_match_60_digit_values():
    # <A^dag^k A^k> for k = 1..6, |s| <= 4, |alpha_j| <= 2; the reference
    # normal-orders the operator product symbolically, the package sums Wick
    # pairings in closed form
    assert {entry["k"] for entry in REFERENCE["mean_power"]} == set(range(1, 7))
    for entry in REFERENCE["mean_power"]:
        alpha = [complex(re, im) for re, im in entry["alpha"]]
        value = mean_power_exact(entry["k"], alpha, entry["strength"])
        assert value == pytest.approx(float(entry["value"]), rel=1e-13, abs=0), entry

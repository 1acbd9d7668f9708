import json

import pytest

from trisqueeze.cli import run
from trisqueeze import errata
from trisqueeze.errata import build_errata


@pytest.fixture(scope="module")
def entries():
    return build_errata()


def test_all_three_entries_survive(entries):
    assert [entry["id"] for entry in entries] == ["E1", "E2", "E3"]
    for entry in entries:
        assert entry["literal_form"]
        assert entry["implemented_form"]
        assert entry["evidence"]


def test_wigner_entry_evidence(entries):
    evidence = entries[0]["evidence"]
    # implemented form tracks the parity oracle; the literal attachment does not
    assert evidence["implemented_vs_oracle"] < 1e-4
    assert evidence["literal_vs_oracle"] > 100 * evidence["implemented_vs_oracle"]


def test_gm_entry_evidence(entries):
    evidence = entries[1]["evidence"]
    assert evidence["implemented_vs_printed"] < 1e-9
    assert evidence["principal_vs_printed"] > 1.0


def test_collective_transform_entry_evidence(entries):
    evidence = entries[2]["evidence"]
    assert evidence["implemented_vs_oracle"] < 1e-6
    assert evidence["literal_vs_oracle"] > 0.1


def test_distances_are_magnitudes_at_any_cutoff(monkeypatch):
    # at cutoff 14 the implemented Wigner value sits 5.6e-16 below the parity oracle
    monkeypatch.setattr(errata, "_PROBE_CUTOFF", 14)
    for entry in build_errata():
        distances = [value for key, value in entry["evidence"].items() if "_vs_" in key]
        assert distances and min(distances) >= 0


def test_errata_cli_round_trip(tmp_path, capsys):
    out = tmp_path / "errata.json"
    assert run(["errata", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload) == 3
    assert payload[0]["id"] == "E1"

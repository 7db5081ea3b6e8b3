from __future__ import annotations

import json

import pytest

from gbsep.cli import main

THETA_SKEW = """
vertex v1
vertex v2
edge e1 v1 v2 2 2
edge e2 v1 v2 2 2
edge e3 v1 v2 2 3
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--bs", "2", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["separable"] is True
    assert doc["case"] == "CycleCoprime"
    assert doc["cd_profinite"] == 2
    assert doc["self_audit"] is True


def test_classify_text_case3(capsys):
    code, out, _ = run(capsys, "classify", "--bs", "2", "4")
    assert code == 0
    assert "NonIsocratic" in out and "infinite" in out


def test_classify_file_input(tmp_path, capsys):
    f = tmp_path / "theta.gbs"
    f.write_text(THETA_SKEW)
    code, out, _ = run(capsys, "classify", str(f), "--json")
    assert code == 0
    assert json.loads(out)["separable"] is False


def test_bad_file_is_input_error(tmp_path, capsys):
    f = tmp_path / "bad.gbs"
    f.write_text("vertex v1\nedge e1 v1 v1 0 2\n")
    code, _, err = run(capsys, "classify", str(f))
    assert code == 1
    assert "line 2" in err


def test_missing_input(capsys):
    code, _, err = run(capsys, "classify")
    assert code == 1 and "no input" in err


def test_quotient_command(capsys):
    code, out, _ = run(
        capsys, "quotient", "--bs", "2", "3", "-p", "5", "-k", "2", "--vertex", "v1", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["modulus"] == 25
    assert doc["images"]["a_v1"] == [1, 1]


def test_quotient_torsion_auto(capsys):
    code, out, _ = run(capsys, "quotient", "--bs", "2", "4", "-p", "2", "--json")
    assert code == 0
    assert json.loads(out)["kind"] == "torsion"


def test_quotient_out_of_locus_is_input_error(capsys):
    code, _, err = run(capsys, "quotient", "--bs", "2", "3", "-p", "2", "--vertex", "v1")
    assert code == 1 and "isocracy locus" in err


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--bs", "2", "3", "--degree", "5", "--json")
    assert code == 0
    doc = json.loads(out)
    orders = doc["permutation"]["orders"]["a_v1"]
    assert all(o % 2 and o % 3 for o in orders)
    assert doc["prediction"]["checks"][0]["sound"] is True


def test_epsilon_command(tmp_path, capsys):
    f = tmp_path / "cycle.gbs"
    f.write_text(
        "vertex v1\nvertex v2\nedge e1 v1 v2 3 3\nedge e2 v2 v1 2 3\n"
    )
    code, out, _ = run(capsys, "epsilon", str(f), "-p", "2", "--tree", "e2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["values"] == {"v1": 0, "v2": -1}


def test_epsilon_unknown_tree_id_is_input_error(tmp_path, capsys):
    f = tmp_path / "cycle.gbs"
    f.write_text("vertex v1\nvertex v2\nedge e1 v1 v2 3 3\nedge e2 v2 v1 2 3\n")
    code, _, err = run(capsys, "epsilon", str(f), "-p", "2", "--tree", "bogus")
    assert code == 1
    assert err == "error: unknown tree edge ids: bogus\n"


def test_cohomology_refusal_exit_2(tmp_path, capsys):
    graph = tmp_path / "theta.gbs"
    graph.write_text(THETA_SKEW)
    module = tmp_path / "mod.json"
    module.write_text(json.dumps({"prime": 5, "dim": 1, "actions": {}}))
    code, _, err = run(
        capsys, "cohomology", str(graph), "--module", str(module), "--side", "profinite"
    )
    assert code == 2 and "not covered" in err


def test_cohomology_both_sides(tmp_path, capsys):
    module = tmp_path / "mod.json"
    module.write_text(json.dumps({"prime": 5, "dim": 1, "actions": {}}))
    code, out, _ = run(
        capsys, "cohomology", "--bs", "6", "10", "--module", str(module), "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["abstract"]["h2"] >= 0
    assert doc["profinite"]["h2"] == 0  # 5 is excluded from I(6,10)


def test_json_deterministic(capsys):
    _, out1, _ = run(capsys, "classify", "--bs", "6", "10", "--json")
    _, out2, _ = run(capsys, "classify", "--bs", "6", "10", "--json")
    assert out1 == out2

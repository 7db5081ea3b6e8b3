from __future__ import annotations

import json
import math

import pytest

import gbsep.oracle
from gbsep.arith import primes_up_to
from gbsep.cli import main
from gbsep.oracle import MAX_N_CAP

THETA_SKEW = """
vertex v1
vertex v2
edge e1 v1 v2 2 2
edge e2 v1 v2 2 2
edge e3 v1 v2 2 3
"""

THETA_BALANCED = """
vertex a
vertex b
edge e1 a b 2 3
edge e2 a b 4 6
edge e3 a b 6 9
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


def test_quotient_default_exponent_is_one(capsys):
    code, out, _ = run(capsys, "quotient", "--bs", "2", "3", "-p", "5", "--vertex", "v1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["modulus"] == 5 and doc["target_order"] == 5


def test_quotient_large_prime_cube(capsys):
    code, out, _ = run(
        capsys, "quotient", "--bs", "2", "3", "-p", "1009", "-k", "3", "--vertex", "v1", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["modulus"] == 1009**3
    assert doc["claimed_orders"]["v1"] == 1009**3


def test_quotient_rejects_strong_pseudoprime(capsys):
    # psi_12: a strong pseudoprime to every prime base up to 37
    code, _, err = run(
        capsys, "quotient", "--bs", "2", "3", "-p", "318665857834031151167461", "--vertex", "v1"
    )
    assert code == 1 and "not prime" in err


def test_quotient_torsion_auto(capsys):
    code, out, _ = run(capsys, "quotient", "--bs", "2", "4", "-p", "2", "--json")
    assert code == 0
    assert json.loads(out)["kind"] == "torsion"


def test_quotient_out_of_locus_is_input_error(capsys):
    code, _, err = run(capsys, "quotient", "--bs", "2", "3", "-p", "2", "--vertex", "v1")
    assert code == 1 and "isocracy locus" in err


def test_quotient_balanced_refuses_edge_target(tmp_path, capsys):
    f = tmp_path / "theta.gbs"
    f.write_text(THETA_BALANCED)
    code, out, err = run(capsys, "quotient", str(f), "-p", "5", "--edge", "e1", "--json")
    assert code == 1 and out == "" and "--edge" in err


@pytest.mark.parametrize("extra", [["--vertex", "nope"], ["--edge", "e1"], ["-k", "3"]])
def test_quotient_torsion_refuses_target_options(capsys, extra):
    code, out, err = run(capsys, "quotient", "--bs", "2", "4", "-p", "2", *extra, "--json")
    assert code == 1 and out == "" and "torsion quotient takes no" in err


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--bs", "2", "3", "--degree", "5", "--json")
    assert code == 0
    doc = json.loads(out)
    orders = doc["permutation"]["orders"]["a_v1"]
    assert all(o % 2 and o % 3 for o in orders)
    assert doc["prediction"]["checks"][0]["sound"] is True


@pytest.mark.parametrize("bound", [("--degree", "-1"), ("--degree", "0"), ("--ncap", "0"), ("--ncap", "-3")])
def test_oracle_bound_below_one_is_input_error(capsys, bound):
    code, out, err = run(capsys, "oracle", "--bs", "2", "3", *bound, "--json")
    assert code == 1 and out == ""
    assert "below 1" in err


@pytest.mark.parametrize("cap", [str(MAX_N_CAP + 1), "100000000000"])
def test_oracle_ncap_above_bound_is_input_error(capsys, monkeypatch, cap):
    # refused before the sieve up to the cap is built
    def sieve(n):
        raise AssertionError("primes_up_to ran")

    monkeypatch.setattr(gbsep.oracle, "primes_up_to", sieve)
    code, out, err = run(capsys, "oracle", "--bs", "2", "3", "--ncap", cap, "--json")
    assert code == 1 and out == ""
    assert f"above {MAX_N_CAP}" in err


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


def test_cohomology_profinite_low_degrees_outside_locus(tmp_path, capsys):
    # 3 lies outside I(6, 10); H^0 and H^1 still agree with the abstract side
    module = tmp_path / "mod.json"
    module.write_text(json.dumps({"prime": 3, "dim": 1, "actions": {}}))
    code, out, _ = run(
        capsys, "cohomology", "--bs", "6", "10", "--module", str(module), "--side", "both", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    for side in ("abstract", "profinite"):
        assert [doc[side][k] for k in ("h0", "h1", "h2")] == [1, 1, 0]


def test_cohomology_module_on_the_loop_presentation(tmp_path, capsys):
    # <a_v1, t_e1 | a_v1 = t_e1 a_v1^2 t_e1^-1> acting on F_2^3: a 3-cycle
    # inverted by a transposition
    module = tmp_path / "mod.json"
    cycle = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    module.write_text(json.dumps({"prime": 2, "dim": 3, "actions": {"a_v1": cycle, "t_e1": swap}}))
    code, out, err = run(
        capsys, "cohomology", "--bs", "1", "2", "--module", str(module), "--side", "both", "--json"
    )
    assert code == 0, err
    doc = json.loads(out)
    for side in ("abstract", "profinite"):
        assert [doc[side][k] for k in ("h0", "h1", "h2")] == [1, 1, 0]


@pytest.mark.parametrize("dim", [2.5, -1])
def test_cohomology_module_dimension_not_a_nonnegative_integer(tmp_path, capsys, dim):
    module = tmp_path / "mod.json"
    module.write_text(json.dumps({"prime": 5, "dim": dim, "actions": {}}))
    code, out, err = run(capsys, "cohomology", "--bs", "2", "3", "--module", str(module))
    assert code == 1 and out == "" and "not a nonnegative integer" in err


@pytest.mark.parametrize("prime", [5.9, "5", True])
def test_cohomology_module_prime_not_an_integer(tmp_path, capsys, prime):
    # 5.9 was truncated to 5 and the F_5 cohomology reported
    module = tmp_path / "mod.json"
    module.write_text(json.dumps({"prime": prime, "dim": 1, "actions": {}}))
    code, out, err = run(capsys, "cohomology", "--bs", "2", "3", "--module", str(module))
    assert code == 1 and out == "" and "is not an integer" in err


def test_json_deterministic(capsys):
    _, out1, _ = run(capsys, "classify", "--bs", "6", "10", "--json")
    _, out2, _ = run(capsys, "classify", "--bs", "6", "10", "--json")
    assert out1 == out2


def test_classify_two_loops_covering_small_primes(tmp_path, capsys):
    # the loop indices are divisible by every prime below 1000
    p = math.prod(primes_up_to(1000))
    f = tmp_path / "loops.gbs"
    f.write_text(f"vertex v0\nedge e1 v0 v0 {p} 1\nedge e2 v0 v0 2 1\n")
    code, out, _ = run(capsys, "classify", str(f), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["case"] == "IsocraticNotCoprime" and doc["self_audit"] is True
    assert doc["certificates"][0]["module"]["prime"] == 1009

from __future__ import annotations

import json
import math

import pytest

from conftest import cycle_graph, random_graph, theta_graph
from gbsep import (
    Edge,
    GbsGraph,
    bs_graph,
    classify_bs,
    classify_gbs,
    reduce_graph,
    self_audit,
    subdivide_loops,
)
from gbsep.classify import SEPARABLE_CASES


@pytest.mark.parametrize(
    "n, m, case",
    [
        (2, 3, "CycleCoprime"),
        (-3, 3, "CycleCoprime"),
        (1, 1, "CycleCoprime"),
        (1, 7, "CycleCoprime"),
        (6, 10, "IsocraticNotCoprime"),
        (2, 4, "NonIsocratic"),
        (12, 18, "NonIsocratic"),
        (12, 2, "NonIsocratic"),
        (4, 4, "CycleCoprime"),
    ],
)
def test_spot_cases(n, m, case):
    v = classify_bs(n, m)
    assert v.case == case
    assert v.separable == (case in SEPARABLE_CASES)
    assert (v.cd_profinite == "infinite") == (case == "NonIsocratic")


def test_zero_labels_rejected():
    with pytest.raises(ValueError):
        classify_bs(0, 3)


def test_verdict_fields_case2():
    v = classify_bs(6, 10)
    assert not v.separable and v.cd_abstract == 2 and v.cd_profinite == 2
    kinds = [c.kind for c in v.certificates]
    assert "module" in kinds and "quotient" in kinds
    assert self_audit(v)


def test_verdict_fields_case3():
    v = classify_bs(2, 4)
    assert v.cd_profinite == "infinite"
    [cert] = v.certificates
    assert cert.kind == "quotient" and cert.cert.kind == "torsion"
    assert self_audit(v)


def test_verdict_fields_case1():
    v = classify_bs(2, 3)
    assert v.separable and v.cd_profinite == 2
    assert all(c.kind == "quotient" for c in v.certificates)
    assert self_audit(v)


def test_tree_degenerate():
    g = GbsGraph(("v1", "v2"), (Edge("e1", "v1", "v2", 1, 1),))
    v = classify_gbs(g)
    assert v.case == "TreeDegenerate"
    assert v.separable and v.cd_abstract == 1 and v.cd_profinite == 1


def test_tree_with_big_labels_is_balanced():
    g = GbsGraph(
        ("v1", "v2", "v3"),
        (Edge("e1", "v1", "v2", 2, 3), Edge("e2", "v2", "v3", 5, 7)),
    )
    v = classify_gbs(g)
    assert v.case == "Balanced" and v.separable
    assert self_audit(v)


def test_theta_graphs():
    v = classify_gbs(theta_graph([(2, 2)] * 3))
    assert v.case == "Balanced" and v.separable and v.cd_profinite == 2
    assert self_audit(v)

    v = classify_gbs(theta_graph([(2, 2), (2, 2), (2, 3)]))
    assert v.case == "IsocraticNotCoprime" and not v.separable
    assert v.cd_profinite == "unknown"
    assert self_audit(v)


def test_cycle_with_trees_unbalanced():
    # unbalanced cycle plus a leaf: certified abstractly via the leaf module
    g = GbsGraph(
        ("u", "w", "x"),
        (
            Edge("c1", "u", "w", 2, 3),
            Edge("c2", "w", "u", 3, 5),
            Edge("l", "u", "x", 5, 2),
        ),
    )
    v = classify_gbs(g)
    assert not v.separable and v.cd_profinite == "unknown"
    assert any(c.kind == "module" for c in v.certificates)
    assert self_audit(v)


def test_non_isocratic_cycle_spec_example():
    # single cycle (3,3),(2,3) has products (6, 9): nu_3 = 1 vs 2
    g = cycle_graph([(3, 3), (2, 3)])
    v = classify_gbs(g)
    assert v.case == "NonIsocratic" and v.cd_profinite == "infinite"
    assert self_audit(v)


def test_gbs_matches_bs_on_loops():
    for n, m in [(2, 3), (6, 10), (2, 4), (5, 5), (-2, 8)]:
        assert classify_gbs(bs_graph(n, m)).case == classify_bs(n, m).case


def test_invariance_under_moves(rng):
    for _ in range(60):
        g = random_graph(rng)
        v0 = classify_gbs(g)
        v1 = classify_gbs(subdivide_loops(g))
        v2 = classify_gbs(reduce_graph(g))
        assert (v0.case, v0.separable) == (v1.case, v1.separable)
        assert (v0.case, v0.separable) == (v2.case, v2.separable)


def test_verdict_json_shape():
    doc = classify_bs(6, 10).to_json()
    json.dumps(doc)  # serializable
    assert doc["case"] == "IsocraticNotCoprime"
    assert {"separable", "case", "cd_abstract", "cd_profinite", "certificates", "notes"} <= set(doc)


def test_exactly_one_case_small_grid():
    for n in range(1, 11):
        for m in range(1, 11):
            v = classify_bs(n, m)
            coprime_or_equal = math.gcd(n, m) == 1 or n == m
            from gbsep import is_isocratic

            if coprime_or_equal:
                assert v.case == "CycleCoprime"
            elif is_isocratic(n, m):
                assert v.case == "IsocraticNotCoprime"
            else:
                assert v.case == "NonIsocratic"


def test_isocratic_cycle_with_reversed_edge():
    g = GbsGraph(("v0", "v1"), (Edge("e1", "v1", "v0", 1, 10), Edge("e2", "v1", "v0", 1, 6)))
    v = classify_gbs(g)
    assert (v.case, v.separable, v.cd_profinite) == ("IsocraticNotCoprime", False, 2)
    assert self_audit(v)

from __future__ import annotations

import dataclasses
import json
import math
import random
import sys
import time
from collections import Counter

import pytest

import gbsep.arith
import gbsep.classify
import gbsep.quotients
from conftest import cycle_graph, ladder_graph, random_graph, theta_graph, tree_with_chords
from gbsep import (
    Edge,
    GbsGraph,
    bs_graph,
    classify_bs,
    classify_gbs,
    construct_balanced_quotient,
    epsilon_table,
    reduce_graph,
    self_audit,
    spanning_tree,
    subdivide_loops,
    verify_cert,
)
from gbsep.arith import primes_up_to
from gbsep.classify import SEPARABLE_CASES
from gbsep.graphs import stable_letter, vertex_gen


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


def test_coprime_cycle_with_every_small_prime():
    # every prime below 1000 divides n or m, so the two locus primes lie above
    ps = primes_up_to(1000)
    v = classify_bs(math.prod(ps[0::2]), math.prod(ps[1::2]))
    assert v.case == "CycleCoprime"
    assert [c.cert.prime for c in v.certificates] == [1009, 1013]
    assert self_audit(v)


def test_general_branch_prime_above_1000():
    # two loops whose indices cover every prime below 1000
    p = math.prod(primes_up_to(1000))
    g = GbsGraph(("v0",), (Edge("e1", "v0", "v0", p, 1), Edge("e2", "v0", "v0", 2, 1)))
    v = classify_gbs(g)
    assert v.case == "IsocraticNotCoprime" and v.cd_profinite == "unknown"
    module = next(c for c in v.certificates if c.kind == "module")
    assert module.module.prime == 1009
    assert self_audit(v)


# 36-bit primes
A, B, C, D, E = 62604139033, 67977912641, 53023724053, 65216779723, 66603052151


@pytest.mark.parametrize("n, m", [(A * B, A * B), (A * C, D * E)])
def test_equal_and_coprime_products_factor_nothing(monkeypatch, n, m):
    calls = []
    real = gbsep.arith.factorize

    def counting(x):
        calls.append(x)
        return real(x)

    for name, mod in list(sys.modules.items()):
        if name.startswith("gbsep") and getattr(mod, "factorize", None) is real:
            monkeypatch.setattr(mod, "factorize", counting)
    t0 = time.perf_counter()
    v = classify_bs(n, m)
    assert v.case == "CycleCoprime" and len(v.certificates) == 2
    assert self_audit(v)
    assert time.perf_counter() - t0 < 1.0
    assert calls == []


# -- Balanced verdicts: one certificate at the largest modulus ----------------


def balanced_corpus():
    """Ladders, thetas, trees with chords, then the balanced verdicts among
    300 random_graph draws."""
    rng = random.Random(29)
    graphs = [ladder_graph(rng, r) for r in (3, 6, 11)]
    graphs += [theta_graph([(2 * c, 3 * c) for c in (1, 2, 3, 4)[:k]]) for k in (3, 4)]
    graphs += [tree_with_chords(rng, n) for n in (5, 9, 16)]
    for g in graphs:
        v = classify_gbs(g)
        assert v.case == "Balanced"
        yield v
    draws = (classify_gbs(random_graph(rng, max_vertices=5)) for _ in range(300))
    yield from (v for v in draws if v.case == "Balanced")


def test_balanced_certificates_match_the_single_vertex_constructor():
    verdicts = list(balanced_corpus())
    assert len(verdicts) > 20
    for v in verdicts:
        (c,) = v.certificates
        work = c.graph
        eps = epsilon_table(work, spanning_tree(work), 2, work.vertices[0]).values
        w = next(x for x in work.vertices if eps[x] == max(eps.values()))
        assert c.cert.to_json() == construct_balanced_quotient(work, w, 2, 1).to_json()
        assert c.cert.target == f"vertex:{w}" and c.cert.claimed_orders[w] == 2
        assert all(o % 2 == 0 for o in c.cert.claimed_orders.values())
        assert self_audit(v)


def test_balanced_verdict_builds_and_audits_once(monkeypatch):
    calls = Counter()

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    verify = counting("verify_cert", gbsep.quotients.verify_cert)
    monkeypatch.setattr(gbsep.quotients, "verify_cert", verify)
    monkeypatch.setattr(gbsep.classify, "verify_cert", verify)
    monkeypatch.setattr(
        gbsep.quotients, "_translation_cert", counting("_translation_cert", gbsep.quotients._translation_cert)
    )
    v = classify_gbs(ladder_graph(random.Random(3), 22))
    assert v.case == "Balanced" and len(v.certificates[0].graph.vertices) == 44
    assert len(v.certificates) == 1
    assert self_audit(v)
    # one verification inside the constructor, one in the audit
    assert calls == {"_translation_cert": 1, "verify_cert": 2}


def _with_cert(verdict, **changes):
    (c,) = verdict.certificates
    c = dataclasses.replace(c, cert=dataclasses.replace(c.cert, **changes))
    return dataclasses.replace(verdict, certificates=(c,))


def test_self_audit_checks_the_balanced_certificate():
    v = classify_gbs(ladder_graph(random.Random(3), 22))
    assert self_audit(v)
    (c,) = v.certificates
    N = c.cert.modulus
    assert N >= 4
    # an edge whose equation has a unit on each side has one solving unit,
    # so changing that stable letter's unit breaks its relator
    work, images = c.graph, c.cert.images
    t = next(
        stable_letter(e.id)
        for e in work.edges
        if e.id not in c.cert.tree and images[vertex_gen(e.src)][0] * e.lambda0 % 2
    )
    u = images[t][1]
    bad_unit = _with_cert(v, images={**images, t: (images[t][0], (u + 2) % N)})
    assert not verify_cert(work, set(c.cert.tree), bad_unit.certificates[0].cert)["valid"]
    assert not self_audit(bad_unit)
    assert not self_audit(_with_cert(v, target_order=4))
    assert self_audit(_with_cert(v, target_order=2))

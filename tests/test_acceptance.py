"""Acceptance gate: end-to-end checks with independent oracles.

Each test covers one acceptance criterion and prints a single summary
line; thresholds are exact (no floating tolerances anywhere).
"""

from __future__ import annotations

import math
import random
import time

import pytest

from conftest import det_int, euler_consistent, random_graph, theta_graph
from gbsep import (
    Edge,
    FpModule,
    GbsGraph,
    bs_graph,
    build_isocratic_witness,
    classify_bs,
    classify_gbs,
    cohomology_abstract,
    cohomology_profinite,
    construct_balanced_quotient,
    construct_cycle_quotient,
    enumerate_metacyclic_quotients,
    enumerate_perm_quotients,
    epsilon_table,
    isocracy_locus,
    parse_graph,
    reduce_graph,
    spanning_tree,
    subdivide_loops,
    verify_cert,
)
from gbsep.cohomology import assemble_maps
from gbsep.graphs import canonical_presentation


# -- independent helpers (deliberately not using gbsep.arith) ---------------


def _valuation(x: int, p: int) -> int:
    x = abs(x)
    k = 0
    while x % p == 0:
        x //= p
        k += 1
    return k


def _expected_case(n: int, m: int) -> str:
    n, m = abs(n), abs(m)
    if math.gcd(n, m) == 1 or n == m:
        return "CycleCoprime"
    for p in range(2, max(n, m) + 1):
        if any(p % d == 0 for d in range(2, p)):
            continue
        a, b = _valuation(n, p), _valuation(m, p)
        if a and b and a != b:
            return "NonIsocratic"
    return "IsocraticNotCoprime"


def test_criterion_1_trichotomy_grid():
    t0 = time.time()
    spot = {
        (2, 3): "CycleCoprime",
        (-3, 3): "CycleCoprime",
        (6, 10): "IsocraticNotCoprime",
        (2, 4): "NonIsocratic",
        (12, 18): "NonIsocratic",
    }
    for (n, m), case in spot.items():
        assert classify_bs(n, m).case == case, (n, m)
    checked = 0
    for n in range(1, 31):
        for m in range(1, 31):
            v = classify_bs(n, m)
            assert v.case == _expected_case(n, m), (n, m, v.case)
            assert classify_bs(-n, m).case == v.case
            checked += 1
    dt = time.time() - t0
    print(f"PASS criterion 1: trichotomy matches brute force on {checked} grid points ({dt:.2f}s)")


def test_criterion_2_case2_witness():
    t0 = time.time()
    g = subdivide_loops(bs_graph(6, 10))
    tree = spanning_tree(g)
    m = build_isocratic_witness(g, 3, 2)
    h2_abs = cohomology_abstract(g, tree, m).h2
    topo = isocracy_locus(6, 10)
    assert topo.exceptions == (3, 5)
    h2_pro = cohomology_profinite(g, tree, m).h2
    assert h2_abs >= 1 and h2_pro == 0
    dt = time.time() - t0
    assert dt < 1.0
    print(f"PASS criterion 2: BS(6,10) p=3,q=2 witness h2_abstract={h2_abs}, h2_profinite=0 ({dt:.2f}s)")


def test_criterion_3_case2_cd_witness():
    t0 = time.time()
    g = subdivide_loops(bs_graph(6, 10))
    tree = spanning_tree(g)
    m = build_isocratic_witness(g, 2, 2)
    h2_abs = cohomology_abstract(g, tree, m).h2
    h2_pro = cohomology_profinite(g, tree, m).h2
    assert h2_abs >= 1 and h2_pro >= 1
    dt = time.time() - t0
    assert dt < 1.0
    print(f"PASS criterion 3: BS(6,10) p=q=2 witness h2_abstract={h2_abs}, h2_profinite={h2_pro} ({dt:.2f}s)")


def test_criterion_4_quotient_realization():
    t0 = time.time()
    from gbsep import is_isocratic

    cases = 0
    for n in range(1, 13):
        for m in range(1, 13):
            if not is_isocratic(n, m):
                continue
            g = subdivide_loops(bs_graph(n, m))
            locus = isocracy_locus(n, m)
            for p in (2, 3, 5, 7, 11):
                if p not in locus:
                    continue
                for k in range(0, 4):
                    cert = construct_cycle_quotient(g, p, k, target_vertex="v1")
                    rep = verify_cert(g, set(cert.tree), cert)
                    assert rep["valid"] and rep["order_formula_ok"], (n, m, p, k)
                    assert rep["orders"]["v1"] == p**k, (n, m, p, k, rep["orders"])
                    cases += 1
    dt = time.time() - t0
    assert dt < 10.0
    print(f"PASS criterion 4: {cases} quotients realize order exactly p^k ({dt:.2f}s)")


def test_criterion_5_oracle_soundness():
    t0 = time.time()
    pres = canonical_presentation(bs_graph(2, 3), set())
    perm = enumerate_perm_quotients(pres, 6)
    meta = enumerate_metacyclic_quotients(2, 3, 200)
    achieved = set(perm.orders["a_v1"]) | set(meta.orders["a"])
    assert all(o % 2 and o % 3 for o in achieved)
    assert {5, 25, 7}.issubset(achieved)
    dt1 = time.time() - t0
    assert dt1 < 60.0

    t1 = time.time()
    perm24 = enumerate_perm_quotients(canonical_presentation(bs_graph(2, 4), set()), 5)
    assert 2 in perm24.orders["a_v1"]
    dt2 = time.time() - t1
    assert dt2 < 10.0
    print(
        f"PASS criterion 5: BS(2,3) spectra avoid 2,3 and realize 5,25,7 ({dt1:.2f}s); "
        f"BS(2,4) degree-5 search realizes order 2 ({dt2:.2f}s)"
    )


def test_criterion_6_determinant_property():
    t0 = time.time()
    rng = random.Random(20260825)
    done = 0
    while done < 100:
        s = rng.randint(1, 5)
        verts = [f"v{i}" for i in range(s)]
        edges = [
            Edge(
                f"e{i}",
                verts[i],
                verts[(i + 1) % s],
                rng.randint(1, 12) * rng.choice([1, -1]),
                rng.randint(1, 12) * rng.choice([1, -1]),
            )
            for i in range(s)
        ]
        g = GbsGraph(tuple(verts), tuple(edges))
        if s == 1:
            g = subdivide_loops(g)
        prod_i1 = math.prod(e.i1 for e in g.edges)
        cands = [
            p
            for p in (2, 3, 5, 7, 11, 13)
            if prod_i1 % p and sum(1 for e in g.edges if e.i0 % p == 0) == 1
        ]
        if not cands:
            continue
        p = rng.choice(cands)
        module = FpModule(p, 1, {})
        tree = spanning_tree(g)
        _, hbar, _, _ = assemble_maps(g, tree, module)
        assert hbar.shape[0] == hbar.shape[1]
        d = det_int(hbar.tolist()) % p
        assert d in (prod_i1 % p, (-prod_i1) % p), (edges, p)
        assert cohomology_abstract(g, tree, module).h2 == 0
        done += 1
    dt = time.time() - t0
    assert dt < 5.0
    print(f"PASS criterion 6: det(A_hbar) = +-prod(i1) mod p and h2 = 0 on {done} instances ({dt:.2f}s)")


def test_criterion_7_theorem_b_non_cycle():
    t0 = time.time()
    v = classify_gbs(theta_graph([(2, 2)] * 3))
    assert v.separable and v.case == "Balanced"

    skew = theta_graph([(2, 2), (2, 2), (2, 3)])
    v = classify_gbs(skew)
    assert not v.separable
    tree = spanning_tree(skew)
    triv = FpModule(5, 1, {})
    h2_skew = cohomology_abstract(skew, tree, triv).h2
    assert h2_skew >= len(skew.edges) - len(skew.vertices)  # = 1
    h2_equal = cohomology_abstract(theta_graph([(2, 2)] * 3), tree, triv).h2
    assert h2_equal == 2  # all rows equal: rank 1, h2 = 3 - 1

    trees = [
        GbsGraph(
            ("v1", "v2", "v3"),
            (Edge("e1", "v1", "v2", 2, 3), Edge("e2", "v2", "v3", 5, 7)),
        ),
        GbsGraph(
            ("v1", "v2", "v3", "v4"),
            (
                Edge("e1", "v1", "v2", 2, 2),
                Edge("e2", "v1", "v3", 3, 4),
                Edge("e3", "v3", "v4", 6, 5),
            ),
        ),
    ]
    certs = 0
    for g in trees:
        assert classify_gbs(g).separable
        for p, k in ((2, 1), (3, 2)):
            for v_ in g.vertices:
                cert = construct_balanced_quotient(g, v_, p, k)
                rep = verify_cert(g, set(cert.tree), cert)
                assert rep["valid"] and rep["order_formula_ok"]
                assert rep["orders"][v_] == p**k
                certs += 1
    dt = time.time() - t0
    assert dt < 5.0
    print(
        f"PASS criterion 7: theta verdicts and witness h2 values match; {certs} tree certs verify ({dt:.2f}s)"
    )


def test_criterion_8_epsilon_tree_sensitivity():
    t0 = time.time()
    g = parse_graph(
        """
        vertex v1
        vertex v2
        edge e1 v1 v2 3 3
        edge e2 v2 v1 2 3
        """
    )
    t1 = epsilon_table(g, {"e1"}, 2, "v1")
    t2 = epsilon_table(g, {"e2"}, 2, "v1")
    assert t1.values == {"v1": 0, "v2": 0}
    assert t2.values == {"v1": 0, "v2": -1}
    dt = time.time() - t0
    assert dt < 1.0
    print(f"PASS criterion 8: epsilon tables {{0,0}} and {{0,-1}} across the two trees ({dt:.2f}s)")


def test_criterion_9_invariance_suite():
    t0 = time.time()
    rng = random.Random(0xA11CE)
    euler_checked = 0
    for i in range(200):
        g = random_graph(rng, max_vertices=6, max_label=9)
        v0 = classify_gbs(g)
        v1 = classify_gbs(subdivide_loops(g))
        v2 = classify_gbs(reduce_graph(g))
        assert (v0.case, v0.separable) == (v1.case, v1.separable), i
        assert (v0.case, v0.separable) == (v2.case, v2.separable), i
        # Euler identity on a freshly generated report for the same graph
        work = subdivide_loops(g)
        rep = cohomology_abstract(work, spanning_tree(work), FpModule(5, 1, {}))
        assert euler_consistent(rep)
        euler_checked += 1
    dt = time.time() - t0
    assert dt < 30.0
    print(
        f"PASS criterion 9: classify invariant under reduce/subdivide on 200 graphs, "
        f"{euler_checked} Euler identities hold ({dt:.2f}s)"
    )

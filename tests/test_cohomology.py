from __future__ import annotations

import numpy as np
import pytest

from conftest import cycle_graph, theta_graph
from gbsep import (
    FpModule,
    ModuleError,
    RegimeError,
    bs_graph,
    build_isocratic_witness,
    build_leaf_witness,
    cohomology_abstract,
    cohomology_profinite,
    isocracy_locus,
    spanning_tree,
    subdivide_loops,
    validate_module,
)
from gbsep.arith import PrimeSet
from gbsep.cohomology import (
    _licensed_topology,
    assemble_hbar,
    coinvariants,
    norm_element,
)
from gbsep.graphs import Edge, GbsGraph, canonical_presentation


def trivial(p):
    return FpModule(p, 1, {})


def setup(g):
    return g, spanning_tree(g)


def test_module_validation():
    with pytest.raises(ModuleError):
        FpModule(4, 1, {})  # composite characteristic
    with pytest.raises(ModuleError):
        FpModule(3, 2, {"a_v1": [[1, 0], [0, 0]]})  # singular
    with pytest.raises(ModuleError):
        FpModule(3, 2, {"a_v1": [[1, 0]]})  # wrong shape


def test_module_json_roundtrip():
    m = FpModule(3, 2, {"a_v1": [[0, 1], [1, 0]]})
    back = FpModule.from_json(m.to_json())
    assert back.prime == m.prime and back.dim == m.dim
    assert np.array_equal(back.action("a_v1"), m.action("a_v1"))


def test_validate_module_names_offender():
    g = bs_graph(2, 4)
    pres = canonical_presentation(g, set())
    bad = FpModule(5, 1, {"a_v1": [[2]]})  # 2^4 * 2^-2 = 4 != 1 mod 5
    with pytest.raises(ModuleError, match="relator"):
        validate_module(bad, pres)


def test_coinvariants_swap():
    swap = np.array([[0, 1], [1, 0]], dtype=np.int64)
    dim, proj, lift = coinvariants(swap, 3)
    assert dim == 1
    assert np.array_equal(proj @ lift % 3, np.eye(1, dtype=np.int64))
    # proj kills the image of (swap - 1)
    diff = (swap - np.eye(2, dtype=np.int64)) % 3
    assert not (proj @ diff % 3).any()


def test_norm_element_identity():
    p = 5
    a = np.array([[0, 1], [4, 0]], dtype=np.int64)  # order 4 mod 5
    from gbsep.linalg import mat_pow

    for k in (1, 2, 3, -1, -2, -3):
        lhs = norm_element(a, k, p) @ ((a - np.eye(2, dtype=np.int64)) % p) % p
        rhs = (mat_pow(a, k, p) - np.eye(2, dtype=np.int64)) % p
        assert np.array_equal(lhs, rhs)


def _stepping_norm(a, k, p):
    """Reference: the |k|-term sum norm_element used to compute."""
    from gbsep.linalg import identity, mat_pow

    step = a if k > 0 else mat_pow(a, -1, p)
    acc = identity(a.shape[0], p) if k > 0 else step
    out = np.zeros_like(acc)
    for _ in range(abs(k)):
        out = (out + acc) % p
        acc = acc @ step % p
    return out if k > 0 else (-out) % p


def test_norm_element_matches_stepping():
    import random

    from gbsep.linalg import rank

    rng = random.Random(7)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7, 101])
        d = rng.randint(1, 4)
        a = np.array([[rng.randrange(p) for _ in range(d)] for _ in range(d)], dtype=np.int64)
        if rank(a, p) < d:
            continue
        k = rng.choice([1, -1]) * rng.randint(1, 70)
        assert np.array_equal(norm_element(a, k, p), _stepping_norm(a, k, p)), (a, k, p)


def test_norm_element_huge_exponent():
    # the trivial action has norm k; a 1,400-bit exponent takes no |k| loop
    k = 3**900 + 1
    for sign in (1, -1):
        assert norm_element(np.eye(2, dtype=np.int64), sign * k, 1009).tolist() == [
            [sign * k % 1009, 0],
            [0, sign * k % 1009],
        ]


def test_hbar_bs23_trivial():
    g, tree = setup(bs_graph(2, 3))
    hbar, _, _ = assemble_hbar(g, tree, trivial(7))
    assert hbar.shape == (1, 1)
    assert hbar[0, 0] == (2 - 3) % 7


def test_hbar_theta_trivial():
    g, tree = setup(theta_graph([(2, 2)] * 3))
    hbar, _, _ = assemble_hbar(g, tree, trivial(5))
    assert hbar.shape == (3, 2)
    for row in hbar:
        assert list(row) == [(-2) % 5, 2]


def test_h2_values():
    g, tree = setup(bs_graph(2, 3))
    assert cohomology_abstract(g, tree, trivial(5)).h2 == 0
    g, tree = setup(theta_graph([(2, 2)] * 3))
    assert cohomology_abstract(g, tree, trivial(5)).h2 == 2
    g, tree = setup(theta_graph([(2, 2), (2, 2), (2, 3)]))
    assert cohomology_abstract(g, tree, trivial(5)).h2 == 1


def test_torus_cohomology():
    g, tree = setup(subdivide_loops(bs_graph(1, 1)))
    for p in (2, 3, 5):
        rep = cohomology_abstract(g, tree, trivial(p))
        assert (rep.h0, rep.h1, rep.h2) == (1, 2, 1)
        assert rep.euler_consistent()


def test_inconsistent_report_raises(monkeypatch):
    # the rank terms cancel in the Euler characteristic, so only a block
    # mismatch between the degree-zero and degree-one assemblies shows
    from gbsep import cohomology

    original = cohomology._assemble_degree_zero

    def extra_vertex_block(g, tree, m):
        h0map, vdims, edims = original(g, tree, m)
        return h0map, vdims + [1], edims

    monkeypatch.setattr(cohomology, "_assemble_degree_zero", extra_vertex_block)
    g, tree = setup(bs_graph(2, 3))
    with pytest.raises(RuntimeError, match="internal error"):
        cohomology_abstract(g, tree, trivial(5))


def test_isocratic_witness_bs610():
    g, tree = setup(subdivide_loops(bs_graph(6, 10)))
    m = build_isocratic_witness(g, 3, 2)
    assert m.prime == 3 and m.dim == 2
    assert cohomology_abstract(g, tree, m).h2 >= 1
    topo = isocracy_locus(6, 10)
    assert cohomology_profinite(g, tree, m, topo).h2 == 0

    m22 = build_isocratic_witness(g, 2, 2)
    assert cohomology_abstract(g, tree, m22).h2 >= 1
    assert cohomology_profinite(g, tree, m22, topo).h2 >= 1


def test_isocratic_witness_rejections():
    g = subdivide_loops(bs_graph(2, 4))
    with pytest.raises(ValueError, match="isocratic"):
        build_isocratic_witness(g, 2, 2)
    g = subdivide_loops(bs_graph(4, 4))
    # equal products are accepted: separability is about matching, not
    # vanishing, and abstract H^2 is still nonzero
    tree = spanning_tree(g)
    m = build_isocratic_witness(g, 2, 2)
    assert cohomology_abstract(g, tree, m).h2 >= 1


def test_isocratic_witness_transport_consistency():
    # 2-cycle (2,7),(3,3): products (6,21), isocratic at 3; with q = 3 the
    # minimising set is joined by a 3-free edge forcing a nontrivial
    # exponent transport
    g = cycle_graph([(2, 7), (3, 3)])
    tree = spanning_tree(g)
    m = build_isocratic_witness(g, 7, 3)
    validate_module(m, canonical_presentation(g, tree))
    assert cohomology_abstract(g, tree, m).h2 >= 1



def test_isocratic_witness_reversed_edge():
    # BS(6, 10) as a 2-cycle with one edge reversed: the edges do not all
    # point the way the cycle is walked
    g = GbsGraph(("v0", "v1"), (Edge("e1", "v1", "v0", 1, 10), Edge("e2", "v1", "v0", 1, 6)))
    tree = spanning_tree(g)
    m = build_isocratic_witness(g, 3, 2)
    validate_module(m, canonical_presentation(g, tree))
    assert cohomology_abstract(g, tree, m).h2 >= 1
    assert cohomology_profinite(g, tree, m, isocracy_locus(6, 10)).h2 == 0

def test_leaf_witness():
    # cycle (2,3)+(3,2) with a leaf edge (5,2)
    g = GbsGraph(
        ("u", "w", "x"),
        (
            Edge("c1", "u", "w", 2, 3),
            Edge("c2", "w", "u", 3, 2),
            Edge("l", "u", "x", 5, 2),
        ),
    )
    m = build_leaf_witness(g, 7)
    assert m.dim == 2  # the leaf-side index
    tree = spanning_tree(g)
    assert cohomology_abstract(g, tree, m).h2 >= 1


def test_leaf_witness_rejects_unreduced():
    g = GbsGraph(
        ("u", "w", "x"),
        (
            Edge("c1", "u", "w", 2, 3),
            Edge("c2", "w", "u", 3, 2),
            Edge("l", "u", "x", 5, 1),
        ),
    )
    with pytest.raises(ValueError, match="reduce"):
        build_leaf_witness(g, 7)


def test_profinite_regimes():
    # balanced: full topology licensed
    g, tree = setup(theta_graph([(2, 2)] * 3))
    rep = cohomology_profinite(g, tree, trivial(5), PrimeSet.all_primes())
    assert rep.h2 == cohomology_abstract(g, tree, trivial(5)).h2

    # non-isocratic cycle: refused
    g, tree = setup(subdivide_loops(bs_graph(2, 4)))
    with pytest.raises(RegimeError, match="torsion"):
        _licensed_topology(g, tree)

    # unbalanced non-cycle: refused
    g, tree = setup(theta_graph([(2, 2), (2, 2), (2, 3)]))
    with pytest.raises(RegimeError, match="not covered"):
        cohomology_profinite(g, tree, trivial(5), PrimeSet.all_primes())

    # wrong topology requested for a licensed graph: refused
    g, tree = setup(subdivide_loops(bs_graph(6, 10)))
    with pytest.raises(RegimeError):
        cohomology_profinite(g, tree, trivial(7), PrimeSet.all_primes())


def test_profinite_vanishing_outside_locus():
    g, tree = setup(subdivide_loops(bs_graph(6, 10)))
    topo = isocracy_locus(6, 10)
    rep = cohomology_profinite(g, tree, trivial(5), topo)
    assert (rep.h0, rep.h1, rep.h2) == (0, 0, 0)
    rep7 = cohomology_profinite(g, tree, trivial(7), topo)
    assert rep7.h2 == cohomology_abstract(g, tree, trivial(7)).h2

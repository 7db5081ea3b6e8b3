from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle_graph, dense, euler_consistent, random_graph, theta_graph, witness_cases
from gbsep import (
    FpModule,
    ModuleError,
    RegimeError,
    bs_graph,
    build_isocratic_witness,
    build_leaf_witness,
    classify_bs,
    cohomology_abstract,
    cohomology_profinite,
    isocracy_locus,
    licensed_topology,
    linalg,
    self_audit,
    spanning_tree,
    subdivide_loops,
    validate_module,
)
from gbsep.arith import PrimeSet
from gbsep.cohomology import assemble_maps, coinvariants, norm_element
from gbsep.graphs import Edge, GbsGraph, canonical_presentation, stable_letter, vertex_gen


def trivial(p):
    return FpModule(p, 1, {})


def full_norm(a, k, p):
    """The d x d norm element: N applied to the identity's columns."""
    return norm_element(a, k, p, linalg.identity(a.cols))[1]


def setup(g):
    return g, spanning_tree(g)


# -- reference assemblies: one block loop per degree over every
# (edge, vertex) pair --------------------------------------------------------


def _edge_action(m, e):
    return linalg.mat_pow(m.action(vertex_gen(e.dst)), e.lambda1, m.prime)


def _reference_hbar(g, tree, m):
    p = m.prime
    vdata = [coinvariants(m.action(vertex_gen(v)), p) for v in g.vertices]
    edata = [coinvariants(_edge_action(m, e), p) for e in g.edges]
    hbar = np.zeros((sum(d for d, _, _ in edata), sum(d for d, _, _ in vdata)), dtype=np.int64)
    r0 = 0
    for e, (edim, eproj, _) in zip(g.edges, edata):
        t_mat = dense(linalg.identity(m.dim) if e.id in tree else m.action(stable_letter(e.id)))
        c0 = 0
        for v, (vdim, _, vlift) in zip(g.vertices, vdata):
            block = np.zeros((m.dim, m.dim), dtype=np.int64)
            if v == e.dst:
                block = (block + dense(full_norm(m.action(vertex_gen(e.dst)), e.lambda1, p))) % p
            if v == e.src:
                neg = t_mat @ dense(full_norm(m.action(vertex_gen(e.src)), e.lambda0, p)) % p
                block = (block - neg) % p
            if block.any():
                hbar[r0 : r0 + edim, c0 : c0 + vdim] = dense(eproj) @ block @ dense(vlift) % p
            c0 += vdim
        r0 += edim
    return hbar, [d for d, _, _ in vdata], [d for d, _, _ in edata]


def _reference_degree_zero(g, tree, m):
    p = m.prime
    eye = dense(linalg.identity(m.dim))

    def fixed(a):
        return dense(linalg.nullspace((dense(a) - eye) % p, p))

    vfix = [fixed(m.action(vertex_gen(v))) for v in g.vertices]
    efix = [fixed(_edge_action(m, e)) for e in g.edges]
    h0map = np.zeros((sum(k.shape[1] for k in efix), sum(k.shape[1] for k in vfix)), dtype=np.int64)
    r0 = 0
    for e, ek in zip(g.edges, efix):
        t_mat = eye if e.id in tree else dense(m.action(stable_letter(e.id)))
        c0 = 0
        for v, vk in zip(g.vertices, vfix):
            block = np.zeros((m.dim, vk.shape[1]), dtype=np.int64)
            if v == e.dst:
                block = (block + vk) % p
            if v == e.src:
                block = (block - t_mat @ vk) % p
            if block.any():
                x = dense(linalg.solve(ek, block, p))
                h0map[r0 : r0 + ek.shape[1], c0 : c0 + vk.shape[1]] = x
            c0 += vk.shape[1]
        r0 += ek.shape[1]
    return h0map, [k.shape[1] for k in vfix], [k.shape[1] for k in efix]


def _assert_matches_reference(g, tree, m):
    h0map, hbar, vdims, edims = assemble_maps(g, tree, m)
    ref_hbar, v1dims, e1dims = _reference_hbar(g, tree, m)
    ref_h0map, v0dims, e0dims = _reference_degree_zero(g, tree, m)
    assert np.array_equal(dense(hbar), ref_hbar)
    assert np.array_equal(dense(h0map), ref_h0map)
    assert vdims == v0dims == v1dims
    assert edims == e0dims == e1dims


def test_module_validation():
    with pytest.raises(ModuleError):
        FpModule(4, 1, {})  # composite characteristic
    with pytest.raises(ModuleError):
        FpModule(3, 2, {"a_v1": [[1, 0], [0, 0]]})  # singular
    with pytest.raises(ModuleError):
        FpModule(3, 2, {"a_v1": [[1, 0]]})  # wrong shape
    for dim in (2.5, -1, "2", True):
        with pytest.raises(ModuleError, match="nonnegative integer"):
            FpModule(5, dim, {})


def test_module_json_roundtrip():
    m = FpModule(3, 2, {"a_v1": [[0, 1], [1, 0]]})
    back = FpModule.from_json(m.to_json())
    assert back.prime == m.prime and back.dim == m.dim
    assert np.array_equal(dense(back.action("a_v1")), dense(m.action("a_v1")))


def test_validate_module_names_offender():
    g = bs_graph(2, 4)
    pres = canonical_presentation(g, set())
    bad = FpModule(5, 1, {"a_v1": [[2]]})  # 2^4 * 2^-2 = 4 != 1 mod 5
    with pytest.raises(ModuleError, match="relator"):
        validate_module(bad, pres)


def test_coinvariants_swap():
    swap = np.array([[0, 1], [1, 0]], dtype=np.int64)
    dim, proj, lift = coinvariants(linalg.matrix(swap, 3), 3)
    proj, lift = dense(proj), dense(lift)
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
        power, norm = norm_element(linalg.matrix(a, p), k, p, linalg.identity(2))
        lhs = dense(norm) @ ((a - np.eye(2, dtype=np.int64)) % p) % p
        rhs = (dense(mat_pow(a, k, p)) - np.eye(2, dtype=np.int64)) % p
        assert np.array_equal(lhs, rhs)
        assert power == mat_pow(a, k, p)


def _stepping_norm(a, k, p):
    """Reference: the |k|-term sum norm_element used to compute."""
    from gbsep.linalg import identity, mat_pow

    step = dense(mat_pow(a, 1 if k > 0 else -1, p))
    acc = dense(identity(a.shape[0])) if k > 0 else step
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
        norm = dense(full_norm(linalg.matrix(a, p), k, p))
        assert np.array_equal(norm, _stepping_norm(a, k, p)), (a, k, p)


def test_norm_element_huge_exponent():
    # the trivial action has norm k; a 1,400-bit exponent takes no |k| loop
    k = 3**900 + 1
    for sign in (1, -1):
        assert full_norm(linalg.identity(2), sign * k, 1009).tolist() == [
            [sign * k % 1009, 0],
            [0, sign * k % 1009],
        ]


def test_hbar_bs23_trivial():
    g, tree = setup(bs_graph(2, 3))
    _, hbar, _, _ = assemble_maps(g, tree, trivial(7))
    assert hbar.shape == (1, 1)
    assert hbar.tolist()[0][0] == (2 - 3) % 7


def test_hbar_theta_trivial():
    g, tree = setup(theta_graph([(2, 2)] * 3))
    _, hbar, _, _ = assemble_maps(g, tree, trivial(5))
    assert hbar.shape == (3, 2)
    for row in hbar.tolist():
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
        assert euler_consistent(rep)


def test_inconsistent_report_raises(monkeypatch):
    # a fibre's fixed space and its coinvariants come from separate
    # eliminations; the assembler raises when their dimensions differ
    from gbsep import cohomology

    original = cohomology.coinvariants

    def one_dimension_short(omega, p):
        dim, proj, lift = original(omega, p)
        lift = [{j - 1: x for j, x in row.items() if j} for row in lift.rows]
        return dim - 1, linalg.Matrix(proj.rows[1:], proj.cols), linalg.Matrix(lift, dim - 1)

    monkeypatch.setattr(cohomology, "coinvariants", one_dimension_short)
    g, tree = setup(bs_graph(2, 3))
    with pytest.raises(RuntimeError, match="internal error"):
        cohomology_abstract(g, tree, trivial(5))


def test_isocratic_witness_bs610():
    g, tree = setup(subdivide_loops(bs_graph(6, 10)))
    m = build_isocratic_witness(g, 3, 2)
    assert m.prime == 3 and m.dim == 2
    assert cohomology_abstract(g, tree, m).h2 >= 1
    assert cohomology_profinite(g, tree, m).h2 == 0

    m22 = build_isocratic_witness(g, 2, 2)
    assert cohomology_abstract(g, tree, m22).h2 >= 1
    assert cohomology_profinite(g, tree, m22).h2 >= 1


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
    assert cohomology_profinite(g, tree, m).h2 == 0

def test_witnesses_exact_above_int64():
    # p = 3037000507 > 2^31.5: int64 products of residues overflowed, and the
    # F_p witness came out as (0, 1, 1)
    a, b = 3037000507, 3037000537
    v = classify_bs(2 * a, 2 * b)
    found = {}
    for c in v.certificates:
        if c.kind == "module":
            r = cohomology_abstract(c.graph, spanning_tree(c.graph), c.module)
            found[c.module.prime] = (r.h0, r.h1, r.h2)
    assert found == {a: (1, 2, 1), 2: (1, 3, 2)}
    assert self_audit(v)


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
    assert licensed_topology(g, tree) == PrimeSet.all_primes()
    rep = cohomology_profinite(g, tree, trivial(5))
    assert rep.h2 == cohomology_abstract(g, tree, trivial(5)).h2

    # non-isocratic cycle: refused
    g, tree = setup(subdivide_loops(bs_graph(2, 4)))
    with pytest.raises(RegimeError, match="torsion"):
        licensed_topology(g, tree)

    # unbalanced non-cycle: refused
    g, tree = setup(theta_graph([(2, 2), (2, 2), (2, 3)]))
    with pytest.raises(RegimeError, match="not covered"):
        cohomology_profinite(g, tree, trivial(5))
    # the derived report takes the topology from the graph, never from the caller
    with pytest.raises(RegimeError, match="not covered"):
        cohomology_abstract(g, tree, trivial(5)).on_profinite_side(g, tree)

    # isocratic cycle: the pro-isocracy topology
    g, tree = setup(subdivide_loops(bs_graph(6, 10)))
    assert licensed_topology(g, tree) == isocracy_locus(6, 10)
    assert cohomology_profinite(g, tree, trivial(5)).prime_support == isocracy_locus(6, 10)


def test_profinite_vanishing_outside_locus():
    g, tree = setup(subdivide_loops(bs_graph(6, 10)))
    # 5 lies outside the locus: only the degree-one fibre terms vanish
    rep = cohomology_profinite(g, tree, trivial(5))
    assert (rep.h0, rep.h1, rep.h2) == (1, 1, 0)
    assert rep.vertex_h1 == (0, 0) and rep.edge_h1 == (0, 0)
    rep7 = cohomology_profinite(g, tree, trivial(7))
    assert rep7.h2 == cohomology_abstract(g, tree, trivial(7)).h2


def _scalar(c, d):
    return [[c if i == j else 0 for j in range(d)] for i in range(d)]


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_assembly_matches_reference_on_random_graphs(seed):
    # loops included: a loop adds both of its terms into one block
    rng = random.Random(seed)
    g = random_graph(rng, max_vertices=4)
    tree = spanning_tree(g)
    p = rng.choice([2, 3, 5, 7])
    d = rng.randint(1, 2)
    # with trivial vertex actions every stable-letter action satisfies the
    # relators
    actions = {
        stable_letter(e.id): _scalar(rng.randrange(1, p), d) for e in g.edges if e.id not in tree
    }
    _assert_matches_reference(g, tree, FpModule(p, d, actions))


def test_assembly_matches_reference_on_witnesses():
    for g, m in witness_cases(16):
        _assert_matches_reference(g, spanning_tree(g), m)


def _common_fixed_dim(m):
    eye = linalg.identity(m.dim)
    stacked = [row for a in m.actions.values() for row in linalg.add(a, eye, m.prime, -1).rows]
    return linalg.nullspace(linalg.Matrix(stacked, m.dim), m.prime).shape[1]


def test_profinite_low_degrees_match_abstract():
    # H^0 and H^1 of the completion equal those of the group for every
    # finite module (Serre, Galois Cohomology I 2.6); on balanced graphs the
    # topology is the full one and H^2 agrees too
    balanced = [
        theta_graph([(2, 2)] * 3),
        subdivide_loops(bs_graph(1, 1)),
        subdivide_loops(bs_graph(2, -2)),
        GbsGraph(("v1", "v2"), (Edge("e1", "v1", "v2", 2, 3),)),
    ]
    cycles = [subdivide_loops(bs_graph(n, m)) for n, m in ((2, 3), (6, 10), (12, 20))]
    cycles.append(cycle_graph([(2, 7), (3, 3)]))
    cases = witness_cases(16)
    cases += [(g, trivial(p)) for g in balanced + cycles for p in (2, 3, 5, 7)]
    seen = set()
    for g, m in cases:
        tree = spanning_tree(g)
        topology = licensed_topology(g, tree)
        abstract = cohomology_abstract(g, tree, m)
        prof = cohomology_profinite(g, tree, m)
        assert abstract.h0 == _common_fixed_dim(m)
        assert (prof.h0, prof.h1) == (abstract.h0, abstract.h1)
        if topology == PrimeSet.all_primes():
            assert prof.h2 == abstract.h2
        if m.prime not in topology:
            assert prof.h2 == 0
        seen.add(m.prime in topology)
    assert seen == {True, False}


def test_one_assembly_per_module(monkeypatch, tmp_path, capsys):
    import json

    from gbsep import cohomology
    from gbsep.cli import main

    calls = []
    original = cohomology.assemble_maps

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cohomology, "assemble_maps", counted)
    # two module certificates, each assembled once for both of its sides
    assert self_audit(classify_bs(6, 10))
    assert len(calls) == 2
    module = tmp_path / "mod.json"
    module.write_text(json.dumps({"prime": 3, "dim": 1, "actions": {}}))
    calls.clear()
    argv = ["cohomology", "--bs", "6", "10", "--module", str(module), "--side", "both"]
    assert main(argv) == 0
    assert len(calls) == 1

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
from gbsep.arith import PrimeSet, primes_up_to
from gbsep.cohomology import assemble_maps, coinvariants, norm_element
from gbsep.graphs import Edge, GbsGraph, canonical_presentation, stable_letter, vertex_gen
from gbsep.quotients import QuotientError, construct_cycle_quotient


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
    for prime in (5.9, 5.0, "5", True):
        with pytest.raises(ModuleError, match="not an integer"):
            FpModule(prime, 1, {})
    with pytest.raises(ModuleError, match="prime 5.9 is not an integer"):
        FpModule.from_json({"prime": 5.9, "dim": 1, "actions": {}})


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


def test_word_action_skips_generators_without_action(monkeypatch):
    # only the stable letter acts, so only its two letters per relator are
    # powered; the identity of every vertex generator is never formed
    calls = []
    original = linalg.mat_pow

    def counted(a, k, p):
        calls.append(k)
        return original(a, k, p)

    monkeypatch.setattr(linalg, "mat_pow", counted)
    g = theta_graph([(2, 2)] * 3)
    tree = spanning_tree(g)
    actions = {stable_letter(e.id): [[2, 0], [0, 3]] for e in g.edges if e.id not in tree}
    validate_module(FpModule(5, 2, actions), canonical_presentation(g, tree))
    assert sorted(calls) == [-1, -1, 1, 1]


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
    # on the matrix path a fibre's fixed space and its coinvariants come
    # from separate eliminations; the assembler raises when their
    # dimensions differ.  The stable letter of BS(2, 3) acts by the scalar
    # 2 mod 5, which is no permutation, and a_v1 acts trivially, so the
    # relator holds.
    from gbsep import cohomology

    original = cohomology.coinvariants

    def one_dimension_short(omega, p):
        dim, proj, lift = original(omega, p)
        lift = [{j - 1: x for j, x in row.items() if j} for row in lift.rows]
        return dim - 1, linalg.Matrix(proj.rows[1:], proj.cols), linalg.Matrix(lift, dim - 1)

    monkeypatch.setattr(cohomology, "coinvariants", one_dimension_short)
    g, tree = setup(bs_graph(2, 3))
    with pytest.raises(RuntimeError, match="internal error"):
        cohomology_abstract(g, tree, FpModule(5, 1, {stable_letter("e1"): [[2]]}))


# -- the permutation path against the matrix path ----------------------------


def _on_the_matrix_path(m, rng):
    """An isomorphic copy of m that is no permutation module: every action
    conjugated by one random invertible matrix, a product of dim
    transvections.  Conjugation leaves the identity alone, so a module
    whose every action is trivial stays a permutation module; its copy
    has ``perms`` cleared instead."""
    d, p = m.dim, m.prime
    conj = linalg.identity(d)
    for _ in range(d if d > 1 else 0):
        i, j = rng.sample(range(d), 2)
        step = linalg.identity(d)
        step.rows[i][j] = rng.randrange(1, p)
        conj = linalg.mul(step, conj, p)
    inv = linalg.inverse(conj, p)
    copy = FpModule(p, d, {g: linalg.mul(linalg.mul(conj, a, p), inv, p) for g, a in m.actions.items()})
    if copy.perms is not None:
        object.__setattr__(copy, "perms", None)
    return copy


def _assert_paths_agree(g, m, rng):
    assert m.perms is not None
    tree = spanning_tree(g)
    assert cohomology_abstract(g, tree, m) == cohomology_abstract(g, tree, _on_the_matrix_path(m, rng))


def _leaf_graph(rng):
    """A reduced-enough betti-one graph: a cycle of one to three vertices
    (a loop for one) with one or two leaves of index at least 2."""
    def lab(lo=1):
        return rng.choice((-1, 1)) * rng.randint(lo, 6)

    s = rng.randint(1, 3)
    if s == 1:
        base = GbsGraph(("v0",), (Edge("e0", "v0", "v0", lab(), lab()),))
    else:
        base = cycle_graph([(lab(), lab()) for _ in range(s)])
    verts, edges = list(base.vertices), list(base.edges)
    for i in range(rng.randint(1, 2)):
        edges.append(Edge(f"l{i}", rng.choice(verts), f"x{i}", lab(), lab(2)))
        verts.append(f"x{i}")
    return GbsGraph(tuple(verts), tuple(edges))


def _holomorph_cases(rng, count):
    """Permutation modules F_q[Z/N] from cycle-quotient certificates with
    N = p^k <= 60 on subdivided BS(+-a, +-b), a, b <= 8: each generator
    acts by x -> u x + c.  Each comes on the subdivided graph and moved
    onto the loop, where t_e1 takes the subdivided stable letter's image."""
    certs = []
    for a in range(-8, 9):
        for b in range(-8, 9):
            if not (a and b):
                continue
            g = subdivide_loops(bs_graph(a, b))
            for p in primes_up_to(60):
                for k in range(1, 7):
                    try:
                        cert = construct_cycle_quotient(g, p, k, target_vertex="v1")
                    except QuotientError:
                        break
                    if cert.modulus > 60:
                        break
                    certs.append((a, b, g, cert))
    cases = []
    for a, b, g, cert in rng.sample(certs, count):
        n, q = cert.modulus, rng.choice((2, 3, 5))
        acts = {
            gen: [[int((c + u * x) % n == y) for x in range(n)] for y in range(n)]
            for gen, (c, u) in cert.images.items()
        }
        [t] = [gen for gen in acts if gen.startswith("t_")]
        cases.append((g, FpModule(q, n, acts), cert.images[t][1]))
        cases.append((bs_graph(a, b), FpModule(q, n, {"a_v1": acts["a_v1"], "t_e1": acts[t]}), None))
    return cases


def _loop_permutation_case(rng):
    """A random permutation module on one vertex with one or two loops.
    a_v1 acts by a random permutation s of at most 8 points; each stable
    letter by a T with T s^l0 T^-1 = s^l1, which sends the cycles of s^l0
    onto equally long cycles of s^l1 at random offsets."""

    def power_cycles(k):
        step = s if k > 0 else [s.index(j) for j in range(d)]
        image = list(range(d))
        for _ in range(abs(k)):
            image = [step[j] for j in image]
        cycles, seen = [], set()
        for start in range(d):
            cycle = []
            while start not in seen:
                seen.add(start)
                cycle.append(start)
                start = image[start]
            if cycle:
                cycles.append(cycle)
        return cycles

    def lab():
        return rng.choice((-1, 1)) * rng.randint(1, 6)

    while True:
        d = rng.randint(1, 8)
        s = rng.sample(range(d), d)
        edges = tuple(Edge(f"e{i}", "v1", "v1", lab(), lab()) for i in range(rng.randint(1, 2)))
        perms = {"a_v1": s}
        for e in edges:
            src, dst = power_cycles(e.lambda0), power_cycles(e.lambda1)
            if sorted(map(len, src)) != sorted(map(len, dst)):
                break
            rng.shuffle(dst)
            t = [0] * d
            for a in src:
                b = next(b for b in dst if len(b) == len(a))
                dst.remove(b)
                off = rng.randrange(len(a))
                for i, j in enumerate(a):
                    t[j] = b[(i + off) % len(a)]
            perms[stable_letter(e.id)] = t
        else:
            actions = {g: [[int(img[x] == y) for x in range(d)] for y in range(d)] for g, img in perms.items()}
            return GbsGraph(("v1",), edges), FpModule(rng.choice((2, 3, 5)), d, actions)


def test_permutation_path_matches_matrix_path():
    rng = random.Random(31)
    cases = witness_cases(30)
    for _ in range(40):
        g = random_graph(rng, max_vertices=5)
        cases += [(g, trivial(p)) for p in (2, 3, 5)] + [(g, FpModule(3, 0, {}))]
    for _ in range(40):
        g = _leaf_graph(rng)
        cases.append((g, build_leaf_witness(g, rng.choice((2, 3, 5)))))
    holomorph = _holomorph_cases(rng, 40)
    # loops whose stable letter has unit part u != 1
    assert sum(u not in (None, 1) for _, _, u in holomorph) >= 20
    cases += [(g, m) for g, m, _ in holomorph]
    cases += [_loop_permutation_case(rng) for _ in range(60)]
    for g, m in cases:
        _assert_paths_agree(g, m, rng)


def test_dimension_zero_module_on_both_paths():
    rng = random.Random(0)
    g = theta_graph([(2, 2), (2, 2), (2, 3)])
    m = FpModule(7, 0, {"a_v1": []})
    rep = cohomology_abstract(g, spanning_tree(g), m)
    assert (rep.h0, rep.h1, rep.h2, rep.vertex_h0, rep.edge_h0) == (0, 0, 0, (0, 0), (0, 0, 0))
    _assert_paths_agree(g, m, rng)


def test_permutation_module_breaking_a_relator():
    # a_v1 a 3-cycle: t a^4 t^-1 = a^2 fails, since a^4 = a
    cycle = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    m = FpModule(5, 3, {"a_v1": cycle})
    assert m.perms is not None
    copy = _on_the_matrix_path(m, random.Random(1))
    messages = []
    for module in (m, copy):
        with pytest.raises(ModuleError, match="relator not satisfied") as err:
            cohomology_abstract(bs_graph(2, 4), set(), module)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


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


def test_assembly_matches_reference_on_permutation_loops():
    # stable letters that permute the cycles of a_v1: the permutation path
    # numbers cycles and places T_e's terms as the matrix path does
    rng = random.Random(5)
    for _ in range(60):
        g, m = _loop_permutation_case(rng)
        assert m.perms is not None
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

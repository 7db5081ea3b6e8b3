from __future__ import annotations

import random
from collections import deque

import pytest

from conftest import cycle_graph, random_graph, theta_graph
from gbsep import (
    Edge,
    GbsGraph,
    GraphError,
    augmentation_products,
    balance_potential,
    bs_graph,
    canonical_presentation,
    cycle_basis,
    epsilon_table,
    parse_graph,
    reduce_graph,
    spanning_tree,
    subdivide_loops,
    the_cycle,
)
from gbsep.graphs import bridges, tree_path, tree_walk


def test_validation():
    with pytest.raises(GraphError):
        Edge("e1", "a", "b", 0, 2)
    with pytest.raises(GraphError):
        GbsGraph(("v1", "v1"), ())
    with pytest.raises(GraphError):
        GbsGraph(("v1", "v2"), ())  # disconnected
    with pytest.raises(GraphError):
        GbsGraph(("v1",), (Edge("e1", "v1", "v9", 1, 1),))


def test_bs_graph_convention():
    g = bs_graph(2, 3)
    [e] = g.edges
    assert (e.lambda0, e.lambda1) == (3, 2)
    assert e.is_loop and g.betti == 1 and g.is_cycle_graph()


def test_parse_graph_formats():
    g = parse_graph(
        """
        # a two-vertex cycle
        vertex v1
        vertex v2
        edge e1 v1 v2 3 3
        edge e2 v2 v1 2 3
        """
    )
    assert len(g.edges) == 2 and g.betti == 1

    g2 = parse_graph("bs 2 3")
    assert g2.edges[0].lambda1 == 2

    with pytest.raises(GraphError, match="line 2"):
        parse_graph("vertex v1\nedge e1 v1 v1 0 2")
    with pytest.raises(GraphError, match="mixed"):
        parse_graph("vertex v1\nbs 2 3")
    with pytest.raises(GraphError, match="directive"):
        parse_graph("wat v1")


def test_loop_directive():
    g = parse_graph("vertex v1\nloop l1 v1 2 3")
    assert g.edges[0].is_loop
    assert g.degree("v1") == 2


def test_bridges_theta_and_path():
    assert bridges(theta_graph([(2, 2)] * 3)) == set()
    path = GbsGraph(
        ("v1", "v2", "v3"),
        (Edge("e1", "v1", "v2", 2, 3), Edge("e2", "v2", "v3", 5, 7)),
    )
    assert bridges(path) == {"e1", "e2"}


def test_reduce_collapses_index_one_bridge():
    # edge v1-v2 with (1, 5) plus loop (2, 3) at v1 collapses to a single
    # loop (10, 15)
    g = GbsGraph(
        ("v1", "v2"),
        (Edge("e1", "v1", "v2", 1, 5), Edge("l", "v1", "v1", 2, 3)),
    )
    r = reduce_graph(g)
    assert r.vertices == ("v2",)
    [e] = r.edges
    assert (abs(e.lambda0), abs(e.lambda1)) == (10, 15)


def test_reduce_keeps_cycle_edges():
    g = cycle_graph([(1, 2), (3, 4)])
    assert reduce_graph(g) == g  # non-bridges survive even with index 1


def test_subdivide_loops_preserves_products():
    g = bs_graph(6, 10)
    s = subdivide_loops(g)
    assert len(s.edges) == 2 and len(s.vertices) == 2
    assert not any(e.is_loop for e in s.edges)
    n0, m0 = augmentation_products(g, the_cycle(g))
    n1, m1 = augmentation_products(s, the_cycle(s))
    assert {n0, m0} == {n1, m1} == {6, 10}


def test_spanning_tree_and_cycle_basis():
    theta = theta_graph([(2, 2)] * 3)
    tree = spanning_tree(theta)
    assert len(tree) == 1
    cycles = cycle_basis(theta, tree)
    assert len(cycles) == 2
    for cyc in cycles:
        assert len(cyc) == 2


def test_tree_path_endpoints(rng):
    for _ in range(20):
        g = random_graph(rng)
        tree = spanning_tree(g)
        a, b = g.vertices[0], g.vertices[-1]
        path = tree_path(g, tree, a, b)
        at = a
        for e, fwd in path:
            assert (e.src if fwd else e.dst) == at
            at = e.dst if fwd else e.src
        assert at == b


def test_augmentation_orientation_swap():
    g = bs_graph(6, 10)
    cyc = the_cycle(g)
    fwd = augmentation_products(g, cyc)
    rev = augmentation_products(g, tuple((eid, not f) for eid, f in reversed(cyc)))
    assert fwd == (10, 6) and rev == (6, 10)


def test_epsilon_spec_example():
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


def test_epsilon_rebase_and_min():
    g = parse_graph("vertex a\nvertex b\nedge e a b 4 1")
    t = epsilon_table(g, {"e"}, 2, "a")
    assert t.values == {"a": 0, "b": 2}
    assert t.min_vertex(g.vertices) == "a"
    rb = t.rebased("b")
    assert rb.values == {"a": -2, "b": 0}


def test_canonical_presentation_counts():
    theta = theta_graph([(2, 2)] * 3)
    pres = canonical_presentation(theta, spanning_tree(theta))
    assert len(pres.vertex_generators) == 2
    assert len(pres.stable_letters) == 2
    assert len(pres.relators) == 3


def test_balance_potential_theta():
    theta = theta_graph([(2, 2)] * 3)
    _, balanced, witness = balance_potential(theta, spanning_tree(theta), "v1")
    assert balanced and witness is None

    skew = theta_graph([(2, 2), (2, 2), (2, 3)])
    _, balanced, witness = balance_potential(skew, spanning_tree(skew), "v1")
    assert not balanced and witness is not None


def test_balance_on_loop():
    g = bs_graph(2, 3)
    _, balanced, witness = balance_potential(g, set(), "v1")
    assert not balanced and witness == (("e1", True),)


def test_the_cycle_rejects_other_betti():
    with pytest.raises(GraphError):
        the_cycle(theta_graph([(2, 2)] * 3))


def test_tree_walk_reaches_each_vertex_once(rng):
    for _ in range(50):
        g = random_graph(rng)
        root = g.vertices[-1]
        steps = list(tree_walk(g, None, root))
        reached = [v for v, _, _ in steps]
        assert sorted(reached + [root]) == sorted(g.vertices)
        seen = {root}
        for v, e, fwd in steps:
            assert v == (e.dst if fwd else e.src)
            assert (e.src if fwd else e.dst) in seen
            seen.add(v)


def test_graph_index():
    g = theta_graph([(2, 3)] * 2)
    loop = GbsGraph(("v1",), (Edge("l", "v1", "v1", 2, 3),))
    assert g.edge("e2") is g.edges[1]
    assert [e.id for e in g.incident("v2")] == ["e1", "e2"]
    assert loop.degree("v1") == 2 and len(loop.incident("v1")) == 1
    with pytest.raises(KeyError):
        g.edge("e9")
    assert g == theta_graph([(2, 3)] * 2) and hash(g) == hash(theta_graph([(2, 3)] * 2))


def test_unknown_tree_ids_are_named():
    g = theta_graph([(2, 3)] * 2)
    with pytest.raises(GraphError, match="unknown tree edge ids: bogus"):
        epsilon_table(g, {"bogus"}, 2, "v1")


# -- references: the remove-edge-and-search bridges and the
# restart-after-every-collapse reduction that the fast versions replace --


def _ref_reachable(vertices, edges, a, b) -> bool:
    adj = {v: set() for v in vertices}
    for e in edges:
        adj[e.src].add(e.dst)
        adj[e.dst].add(e.src)
    seen = {a}
    queue = deque([a])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return b in seen


def _ref_bridges(g):
    return {
        e.id
        for e in g.edges
        if not e.is_loop
        and not _ref_reachable(g.vertices, [f for f in g.edges if f.id != e.id], e.src, e.dst)
    }


def _ref_reduce(g):
    while True:
        cut = _ref_bridges(g)
        target = next((e for e in g.edges if e.id in cut and 1 in (e.i0, e.i1)), None)
        if target is None:
            return g
        e = target
        if e.i0 == 1:
            gone, keep, scale = e.src, e.dst, e.lambda1 * (1 if e.lambda0 > 0 else -1)
        else:
            gone, keep, scale = e.dst, e.src, e.lambda0 * (1 if e.lambda1 > 0 else -1)
        edges = []
        for f in g.edges:
            if f.id == e.id:
                continue
            src, dst, l0, l1 = f.src, f.dst, f.lambda0, f.lambda1
            if src == gone:
                src, l0 = keep, l0 * scale
            if dst == gone:
                dst, l1 = keep, l1 * scale
            edges.append(Edge(f.id, src, dst, l0, l1))
        g = GbsGraph(tuple(v for v in g.vertices if v != gone), tuple(edges))


def _pendant_cycle(rng, s):
    """A cycle with one pendant edge per vertex; index 1 sits on either
    side of the pendant edge, so leaves and cycle vertices both merge."""
    g = cycle_graph([(rng.choice((1, -1, 2, 3)), rng.choice((1, -1, 5))) for _ in range(s)])
    edges = list(g.edges)
    for i, v in enumerate(g.vertices):
        k = rng.choice((2, -3))
        ends = (v, f"p{i}") if rng.random() < 0.5 else (f"p{i}", v)
        edges.append(Edge(f"f{i}", *ends, *rng.choice(((k, 1), (1, k), (-1, -1)))))
    return GbsGraph(g.vertices + tuple(f"p{i}" for i in range(s)), tuple(edges))


def _ladder(rng, rungs):
    """Two rails joined by rungs; rail labels are mostly index 1."""
    edges = []
    for side in "uw":
        for i in range(rungs - 1):
            labels = rng.choice((1, 2)), rng.choice((1, -1, 3))
            edges.append(Edge(f"{side}{i}", f"{side}{i}", f"{side}{i + 1}", *labels))
    edges += [Edge(f"r{i}", f"u{i}", f"w{i}", rng.choice((1, 2)), 1) for i in range(rungs)]
    verts = tuple(f"u{i}" for i in range(rungs)) + tuple(f"w{i}" for i in range(rungs))
    return GbsGraph(verts, tuple(edges))


def _reference_corpus():
    rng = random.Random(0xB41D)
    graphs = [random_graph(rng) for _ in range(300)]
    graphs += [random_graph(rng, max_vertices=12, max_label=3, extra_edges=5) for _ in range(100)]
    graphs += [_pendant_cycle(rng, s) for s in (1, 2, 3, 8, 20)]
    graphs += [_ladder(rng, r) for r in (1, 2, 5, 12)]
    return graphs


def test_bridges_match_reference():
    for g in _reference_corpus():
        assert bridges(g) == _ref_bridges(g)


def test_reduce_matches_reference():
    for g in _reference_corpus():
        assert reduce_graph(g) == _ref_reduce(g)


def test_bridges_match_networkx():
    nx = pytest.importorskip("networkx")
    for g in _reference_corpus():
        h = nx.MultiGraph()
        h.add_nodes_from(g.vertices)
        for e in g.edges:
            h.add_edge(e.src, e.dst, key=e.id)
        expected = {next(iter(h[u][v])) for u, v in nx.bridges(h)}
        assert bridges(g) == expected


def test_bridges_long_path_without_recursion():
    n = 20_000
    verts = tuple(f"v{i}" for i in range(n))
    edges = tuple(Edge(f"e{i}", verts[i], verts[i + 1], 2, 3) for i in range(n - 1))
    assert bridges(GbsGraph(verts, edges)) == {e.id for e in edges}


def test_reduce_pendant_cycle_collapses_every_pendant():
    rng = random.Random(7)
    s = 2000
    g = cycle_graph([(1, 1)] * (s - 1) + [(2, 3)])
    pendants = tuple(
        Edge(f"f{i}", v, f"p{i}", rng.choice((2, 3)), 1) for i, v in enumerate(g.vertices)
    )
    r = reduce_graph(GbsGraph(g.vertices + tuple(f"p{i}" for i in range(s)), g.edges + pendants))
    assert r == g

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from gbsep import (
    Edge,
    GbsGraph,
    bs_graph,
    build_isocratic_witness,
    factorize,
    is_isocratic,
    linalg,
    subdivide_loops,
)


def theta_graph(labels):
    """Two vertices joined by len(labels) parallel edges."""
    edges = tuple(
        Edge(f"e{i}", "v1", "v2", l0, l1) for i, (l0, l1) in enumerate(labels, 1)
    )
    return GbsGraph(("v1", "v2"), edges)


def cycle_graph(labels):
    """Single cycle v0 -> v1 -> ... -> v0 with the given (l0, l1) labels."""
    s = len(labels)
    verts = tuple(f"v{i}" for i in range(s))
    edges = tuple(
        Edge(f"e{i}", verts[i], verts[(i + 1) % s], l0, l1)
        for i, (l0, l1) in enumerate(labels)
    )
    return GbsGraph(verts, edges)


def weighted_graph(rng: random.Random, verts, pairs):
    """A graph on the vertex pairs, balanced by random vertex weights x_v
    in {2, 3}: the edge s -> t carries (c x_t, c x_s) up to sign, with c in
    {1, 2}.  No label is +-1, so reduction collapses nothing."""
    x = {v: rng.choice((2, 3)) for v in verts}
    edges = []
    for i, (s, t) in enumerate(pairs):
        c = rng.randint(1, 2)
        edges.append(Edge(f"e{i}", s, t, c * x[t] * rng.choice((1, -1)), c * x[s] * rng.choice((1, -1))))
    return GbsGraph(tuple(verts), tuple(edges))


def ladder_graph(rng: random.Random, rungs: int):
    """A balanced ladder on 2 * rungs vertices: two rails and the rungs."""
    us, ws = [f"u{i}" for i in range(rungs)], [f"w{i}" for i in range(rungs)]
    pairs = [(a[i], a[i + 1]) for a in (us, ws) for i in range(rungs - 1)] + list(zip(us, ws))
    return weighted_graph(rng, us + ws, pairs)


def tree_with_chords(rng: random.Random, n: int, chords: int = 3):
    """A balanced random tree on n >= 2 vertices plus a few chords."""
    verts = [f"v{i}" for i in range(n)]
    pairs = [(verts[rng.randrange(i)], verts[i]) for i in range(1, n)]
    pairs += [tuple(rng.sample(verts, 2)) for _ in range(chords)]
    return weighted_graph(rng, verts, pairs)


def random_graph(rng: random.Random, max_vertices=6, max_label=9, extra_edges=3):
    """Random connected labelled graph: a random tree plus a few chords
    (loops and parallel edges allowed)."""
    nv = rng.randint(1, max_vertices)
    verts = [f"v{i}" for i in range(nv)]
    edges = []

    def lab():
        return rng.randint(1, max_label) * rng.choice([1, -1])

    for i in range(1, nv):
        j = rng.randrange(i)
        edges.append(Edge(f"e{len(edges)}", verts[j], verts[i], lab(), lab()))
    for _ in range(rng.randint(0, extra_edges)):
        a, b = rng.choice(verts), rng.choice(verts)
        edges.append(Edge(f"e{len(edges)}", a, b, lab(), lab()))
    return GbsGraph(tuple(verts), tuple(edges))


def witness_cases(bound: int):
    """Both isocratic witnesses of BS(n, m) for the isocratic, non-coprime,
    unequal pairs with 2 <= n, m < bound, then the reversed-edge two-cycle
    and the two-cycle that forces exponent transport."""
    cases = []
    for n in range(2, bound):
        for m in range(2, bound):
            g_nm = math.gcd(n, m)
            if n == m or g_nm == 1 or not is_isocratic(n, m):
                continue
            g = subdivide_loops(bs_graph(n, m))
            q = min(factorize(g_nm))
            p = min(factorize(n * m // g_nm // g_nm))
            cases += [(g, build_isocratic_witness(g, p, q)), (g, build_isocratic_witness(g, q, q))]
    g = GbsGraph(("v0", "v1"), (Edge("e1", "v1", "v0", 1, 10), Edge("e2", "v1", "v0", 1, 6)))
    cases.append((g, build_isocratic_witness(g, 3, 2)))
    g = cycle_graph([(2, 7), (3, 3)])
    cases.append((g, build_isocratic_witness(g, 7, 3)))
    return cases


def dense(m: linalg.Matrix) -> np.ndarray:
    """A linalg.Matrix as an exact numpy array of Python ints."""
    return np.array(m.tolist(), dtype=object).reshape(m.shape)


def det_int(a) -> int:
    """Exact integer determinant via fraction-free Gaussian elimination."""
    m = [[int(x) for x in row] for row in a]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def euler_consistent(rep) -> bool:
    """h0 - h1 + h2 equals the alternating sum of a report's fibre terms."""
    lhs = rep.h0 - rep.h1 + rep.h2
    rhs = sum(a - b for a, b in zip(rep.vertex_h0, rep.vertex_h1)) - sum(
        a - b for a, b in zip(rep.edge_h0, rep.edge_h1)
    )
    return lhs == rhs


@pytest.fixture
def rng():
    return random.Random(0x5EED5)

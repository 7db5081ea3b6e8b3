"""Labelled graphs encoding GBS groups, and the combinatorics on them.

A GBS group is described by a finite connected graph whose edges carry a
pair of nonzero integers (lambda0, lambda1): the signed exponents of the
edge-group generator inside the source and target vertex groups.  The
loop shorthand ``bs n m`` stores lambda0 = m and lambda1 = n, so that the
loop relator reads t a^m t^-1 = a^n.

All classification logic works with the unsigned indices |lambda|; signs
are kept because presentations and quotient certificates need them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import nu_p


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class Edge:
    id: str
    src: str
    dst: str
    lambda0: int  # signed image exponent at src
    lambda1: int  # signed image exponent at dst

    def __post_init__(self):
        if self.lambda0 == 0 or self.lambda1 == 0:
            raise GraphError(f"edge {self.id}: label must be nonzero")

    @property
    def i0(self) -> int:
        """Unsigned inclusion index at the source."""
        return abs(self.lambda0)

    @property
    def i1(self) -> int:
        """Unsigned inclusion index at the target."""
        return abs(self.lambda1)

    @property
    def is_loop(self) -> bool:
        return self.src == self.dst


@dataclass(frozen=True)
class GbsGraph:
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    # indexes built once: edge id -> Edge, and vertex -> its incident edges
    # in stored edge order (a loop appears once)
    _by_id: dict = field(init=False, repr=False, compare=False)
    _incident: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.vertices:
            raise GraphError("graph must be nonempty")
        incident: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        if len(incident) != len(self.vertices):
            raise GraphError("duplicate vertex ids")
        by_id = {e.id: e for e in self.edges}
        if len(by_id) != len(self.edges):
            raise GraphError("duplicate edge ids")
        for e in self.edges:
            if e.src not in incident or e.dst not in incident:
                raise GraphError(f"edge {e.id}: unknown vertex reference")
            incident[e.src].append(e)
            if not e.is_loop:
                incident[e.dst].append(e)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_incident", {v: tuple(es) for v, es in incident.items()})
        if sum(1 for _ in tree_walk(self, None, self.vertices[0])) != len(self.vertices) - 1:
            raise GraphError("graph must be connected")

    def edge(self, eid: str) -> Edge:
        return self._by_id[eid]

    @property
    def betti(self) -> int:
        return len(self.edges) - len(self.vertices) + 1

    def incident(self, v: str) -> tuple[Edge, ...]:
        return self._incident[v]

    def degree(self, v: str) -> int:
        """Loop edges count twice."""
        return sum(1 + e.is_loop for e in self._incident[v])

    def is_cycle_graph(self) -> bool:
        """True iff the graph is a single cycle (a lone loop counts)."""
        return self.betti == 1 and all(self.degree(v) == 2 for v in self.vertices)


def tree_walk(g: GbsGraph, tree, root: str):
    """Breadth-first walk from ``root`` over the edges whose ids are in
    ``tree`` (every edge when ``tree`` is None), scanning each vertex's
    edges in stored order.  Yields (vertex, edge, forward) once for every
    vertex reached besides the root: ``edge`` is the edge it was reached
    by, crossed from src to dst iff ``forward``."""
    seen = {root}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for e in g._incident[v]:
            if tree is not None and e.id not in tree:
                continue
            if e.src == v and e.dst not in seen:
                w, forward = e.dst, True
            elif e.dst == v and e.src not in seen:
                w, forward = e.src, False
            else:
                continue
            seen.add(w)
            queue.append(w)
            yield w, e, forward


def bs_graph(n: int, m: int) -> GbsGraph:
    """The single-loop graph of BS(n, m) = <a, t | a^n = t a^m t^-1>."""
    if n == 0 or m == 0:
        raise GraphError("BS labels must be nonzero")
    return GbsGraph(("v1",), (Edge("e1", "v1", "v1", m, n),))


def parse_graph(text: str) -> GbsGraph:
    """Parse the line-oriented input format.

    Directives (one per line, ``#`` starts a comment):
        vertex <name>
        edge <name> <src> <dst> <lambda0> <lambda1>
        loop <name> <v> <lambda0> <lambda1>
        bs <n> <m>          (whole-file shorthand)
    """
    vertices: list[str] = []
    edges: list[Edge] = []
    saw_bs = saw_other = False
    bs_args = (0, 0)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, args = parts[0].lower(), parts[1:]
        try:
            if kind == "vertex":
                (name,) = args
                vertices.append(name)
                saw_other = True
            elif kind == "edge":
                name, src, dst, l0, l1 = args
                edges.append(Edge(name, src, dst, int(l0), int(l1)))
                saw_other = True
            elif kind == "loop":
                name, v, l0, l1 = args
                edges.append(Edge(name, v, v, int(l0), int(l1)))
                saw_other = True
            elif kind == "bs":
                n, m = (int(a) for a in args)
                saw_bs = True
                bs_args = (n, m)
            else:
                raise GraphError(f"unknown directive {kind!r}")
        except (ValueError, GraphError) as exc:
            raise GraphError(f"line {lineno}: {exc}") from exc
    if saw_bs:
        if saw_other:
            raise GraphError("'bs' shorthand cannot be mixed with other directives")
        return bs_graph(*bs_args)
    return GbsGraph(tuple(vertices), tuple(edges))


def bridges(g: GbsGraph) -> set[str]:
    """Edge ids of all cut edges (= edges lying in every spanning tree).

    One iterative lowlink search (Tarjan, IPL 2(6), 1974): the tree edge
    into w is a bridge iff no edge from w's subtree reaches above w.  The
    parent edge is skipped by id, so parallel edges are never bridges.
    """
    root = g.vertices[0]
    disc = {root: 0}
    low = {root: 0}
    out = set()
    stack = [(root, None, iter(g._incident[root]))]
    while stack:
        v, via, edges = stack[-1]
        for e in edges:
            if e.id == via:
                continue
            w = e.dst if e.src == v else e.src
            if w not in disc:
                disc[w] = low[w] = len(disc)
                stack.append((w, e.id, iter(g._incident[w])))
                break
            low[v] = min(low[v], disc[w])
        else:
            stack.pop()
            if stack:
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] > disc[u]:
                    out.add(via)
    return out


def reduce_graph(g: GbsGraph) -> GbsGraph:
    """Collapse bridges with an inclusion index of 1 until none remain.

    Collapsing e with |lambda0| = 1 merges src into dst: every other edge
    endpoint at src moves to dst, its signed label mu becoming
    mu * lambda1(e) * sign(lambda0(e)).  The fundamental group is
    unchanged.  Only bridges are collapsed; collapsing a non-bridge
    index-1 edge would alter the cycle structure.

    Contracting a bridge leaves every other edge's bridge status alone
    and only multiplies labels, so an edge that cannot be collapsed never
    becomes collapsible: one pass in stored order collapses the same
    edges, in the same order, as restarting from the first edge after
    every collapse.
    """
    cut = bridges(g)
    # a merged vertex points at the vertex it merged into, with the factor
    # its edge endpoints picked up (path-compressed, relative to the root)
    parent = {v: v for v in g.vertices}
    factor = {v: 1 for v in g.vertices}

    def find(v: str) -> str:
        path = []
        while parent[v] != v:
            path.append(v)
            v = parent[v]
        for u in reversed(path):
            if parent[u] != v:
                factor[u] *= factor[parent[u]]
                parent[u] = v
        return v

    def current(e: Edge) -> Edge:
        src, dst = find(e.src), find(e.dst)
        return Edge(e.id, src, dst, e.lambda0 * factor[e.src], e.lambda1 * factor[e.dst])

    kept = []
    for e in g.edges:
        c = current(e)
        if e.id not in cut or (c.i0 != 1 and c.i1 != 1):
            kept.append(e)
        elif c.i0 == 1:
            parent[c.src], factor[c.src] = c.dst, c.lambda1 * (1 if c.lambda0 > 0 else -1)
        else:
            parent[c.dst], factor[c.dst] = c.src, c.lambda0 * (1 if c.lambda1 > 0 else -1)
    if len(kept) == len(g.edges):
        return g
    return GbsGraph(
        tuple(v for v in g.vertices if parent[v] == v), tuple(current(e) for e in kept)
    )


def subdivide_loops(g: GbsGraph) -> GbsGraph:
    """Replace each loop at v by a midpoint vertex and two edges.

    A loop (l0, l1) at v becomes v -> v' with labels (l0, 1) and
    v' -> v with labels (1, l1); both inclusions at v' are the identity,
    so the fundamental group and all augmentation products are unchanged.
    """
    vertices = list(g.vertices)
    edges = []
    taken = set(g.vertices)
    for e in g.edges:
        if not e.is_loop:
            edges.append(e)
            continue
        mid = f"{e.src}_{e.id}_mid"
        while mid in taken:
            mid += "_"
        taken.add(mid)
        vertices.append(mid)
        edges.append(Edge(f"{e.id}a", e.src, mid, e.lambda0, 1))
        edges.append(Edge(f"{e.id}b", mid, e.src, 1, e.lambda1))
    return GbsGraph(tuple(vertices), tuple(edges))


def spanning_tree(g: GbsGraph) -> set[str]:
    """Deterministic BFS spanning tree (edge id set), rooted at the first vertex."""
    return {e.id for _, e, _ in tree_walk(g, None, g.vertices[0])}


def _check_tree(g: GbsGraph, tree: set[str]) -> None:
    unknown = sorted(t for t in tree if t not in g._by_id)
    if unknown:
        raise GraphError(f"unknown tree edge ids: {', '.join(unknown)}")
    reached = sum(1 for _ in tree_walk(g, tree, g.vertices[0]))
    if len(tree) != len(g.vertices) - 1 or reached != len(tree):
        raise GraphError("not a spanning tree")


def tree_path(g: GbsGraph, tree: set[str], a: str, b: str) -> list[tuple[Edge, bool]]:
    """The tree geodesic from a to b as (edge, traversed-forward) steps."""
    parent: dict[str, tuple[Edge, bool]] = {}
    if a != b:
        for v, e, fwd in tree_walk(g, tree, a):
            parent[v] = (e, fwd)
            if v == b:
                break
    path = []
    v = b
    while v != a:
        e, fwd = parent[v]
        path.append((e, fwd))
        v = e.src if fwd else e.dst
    path.reverse()
    return path


# An oriented cycle is a list of (edge id, forward flag) steps forming a
# closed walk; a loop edge is a cycle of length 1.
OrientedCycle = tuple[tuple[str, bool], ...]


def cycle_basis(g: GbsGraph, tree: set[str]) -> list[OrientedCycle]:
    """One fundamental cycle per non-tree edge: the edge, then the tree
    geodesic from its head back to its tail.  Count = |E| - |V| + 1."""
    _check_tree(g, tree)
    return [_fundamental_cycle(g, tree, e) for e in g.edges if e.id not in tree]


def _fundamental_cycle(g: GbsGraph, tree: set[str], e: Edge) -> OrientedCycle:
    path = tree_path(g, tree, e.dst, e.src)
    return ((e.id, True),) + tuple((f.id, fwd) for f, fwd in path)


def augmentation_products(g: GbsGraph, cycle: OrientedCycle) -> tuple[int, int]:
    """(n, m) = (prod of source indices, prod of target indices) along the
    cycle; a step against the stored edge orientation contributes with the
    indices swapped.  Both outputs are positive."""
    n = m = 1
    for eid, fwd in cycle:
        e = g.edge(eid)
        if fwd:
            n *= e.i0
            m *= e.i1
        else:
            n *= e.i1
            m *= e.i0
    return n, m


@dataclass(frozen=True)
class EpsilonTable:
    """The power-counting function v -> sum of nu_p(i0) - nu_p(i1) along
    the tree geodesic from the base, edges reoriented away from the base."""

    prime: int
    base: str
    tree: frozenset[str]
    values: dict[str, int]

    def min_vertex(self, vertices) -> str:
        """Smallest-id minimizer (determinism: any minimizer works)."""
        lo = min(self.values[v] for v in vertices)
        return min(v for v in vertices if self.values[v] == lo)

    def rebased(self, w: str) -> "EpsilonTable":
        shift = self.values[w]
        return EpsilonTable(
            self.prime, w, self.tree, {v: x - shift for v, x in self.values.items()}
        )


def epsilon_table(g: GbsGraph, tree: set[str], p: int, w: str) -> EpsilonTable:
    """Compute the epsilon function on all vertices relative to (tree, p, w)."""
    if w not in g.vertices:
        raise GraphError(f"unknown base vertex {w!r}")
    _check_tree(g, tree)
    values = {w: 0}
    for v, e, fwd in tree_walk(g, tree, w):
        # edges reoriented away from the base: a backward step swaps indices
        near, far = (e.i0, e.i1) if fwd else (e.i1, e.i0)
        values[v] = values[e.src if fwd else e.dst] + nu_p(near, p) - nu_p(far, p)
    return EpsilonTable(p, w, frozenset(tree), values)


def vertex_gen(v: str) -> str:
    return f"a_{v}"


def stable_letter(eid: str) -> str:
    return f"t_{eid}"


# A relator is a word: a tuple of (generator name, exponent) pairs.
Word = tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class Presentation:
    """Canonical presentation of the GBS group relative to a spanning tree.

    One generator a_v per vertex, one stable letter t_e per non-tree edge,
    one relator per edge:

        tree edge:      a_src^l0 = a_dst^l1
        non-tree edge:  t_e a_src^l0 t_e^-1 = a_dst^l1
    """

    vertex_generators: tuple[str, ...]
    stable_letters: tuple[str, ...]
    relators: tuple[Word, ...]

    @property
    def generators(self) -> tuple[str, ...]:
        return self.vertex_generators + self.stable_letters


def canonical_presentation(g: GbsGraph, tree: set[str]) -> Presentation:
    _check_tree(g, tree)
    relators = []
    stables = []
    for e in g.edges:
        a0, a1 = vertex_gen(e.src), vertex_gen(e.dst)
        if e.id in tree:
            relators.append(((a0, e.lambda0), (a1, -e.lambda1)))
        else:
            t = stable_letter(e.id)
            stables.append(t)
            relators.append(((t, 1), (a0, e.lambda0), (t, -1), (a1, -e.lambda1)))
    return Presentation(
        tuple(vertex_gen(v) for v in g.vertices), tuple(stables), tuple(relators)
    )


def balance_potential(g: GbsGraph, tree: set[str], w: str):
    """Multiplicative potential test for |n| = |m| on every cycle.

    potential[v] is the product of i1/i0 along the tree geodesic from w
    (edges reoriented away from w).  The graph is balanced iff every
    non-tree edge closes at ratio 1; both sides of the condition are
    homomorphisms on the cycle space, so fundamental cycles suffice.

    Returns (potential, balanced, witness) with witness an offending
    fundamental cycle or None.
    """
    _check_tree(g, tree)
    pot: dict[str, Fraction] = {w: Fraction(1)}
    for v, e, fwd in tree_walk(g, tree, w):
        near, far = (e.i0, e.i1) if fwd else (e.i1, e.i0)
        pot[v] = pot[e.src if fwd else e.dst] * Fraction(far, near)
    for e in g.edges:
        if e.id not in tree and pot[e.src] * Fraction(e.i1, e.i0) != pot[e.dst]:
            return pot, False, _fundamental_cycle(g, tree, e)
    return pot, True, None


def the_cycle(g: GbsGraph) -> OrientedCycle:
    """The unique cycle of a betti-1 graph, oriented by the fundamental
    cycle of the BFS spanning tree."""
    if g.betti != 1:
        raise GraphError("graph does not have exactly one cycle")
    [cyc] = cycle_basis(g, spanning_tree(g))
    return cyc

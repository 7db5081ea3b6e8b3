"""Mayer-Vietoris cohomology of a GBS group with finite prime-field coefficients.

For an infinite cyclic fibre with generator acting by an invertible matrix
``w``, first cohomology is the coinvariant space M/(w-1)M and zeroth
cohomology is the fixed space ker(w-1).  The middle map of the long exact
sequence is assembled block-wise from norm elements; its corank in degree
one computes H^2 of the fundamental group, since the vertex fibres have
cohomological dimension one.

The profinite variant zeroes every fibre term whose coefficient prime
falls outside the licensed topology; it refuses regimes the underlying
theory does not cover.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .arith import PrimeSet, is_isocratic, is_prime, isocracy_locus, nu_p
from .graphs import (
    Edge,
    GbsGraph,
    Presentation,
    augmentation_products,
    balance_potential,
    canonical_presentation,
    epsilon_table,
    spanning_tree,
    stable_letter,
    the_cycle,
    tree_walk,
    vertex_gen,
)


class ModuleError(ValueError):
    pass


class RegimeError(RuntimeError):
    """The profinite computation was requested outside a licensed regime."""


@dataclass(frozen=True)
class FpModule:
    """A finite-dimensional F_p vector space with an action of each
    presentation generator by an invertible matrix.  Generators absent
    from ``actions`` act as the identity."""

    prime: int
    dim: int
    actions: dict

    def __post_init__(self):
        if not is_prime(self.prime):
            raise ModuleError(f"{self.prime} is not prime")
        norm = {}
        for gen, mat in self.actions.items():
            a = linalg.mod(mat, self.prime)
            if a.shape != (self.dim, self.dim):
                raise ModuleError(f"action of {gen} has wrong shape")
            if linalg.rank(a, self.prime) != self.dim:
                raise ModuleError(f"action of {gen} is singular mod {self.prime}")
            norm[gen] = a
        object.__setattr__(self, "actions", norm)

    def action(self, gen: str) -> np.ndarray:
        mat = self.actions.get(gen)
        if mat is None:
            return linalg.identity(self.dim, self.prime)
        return mat

    def word_action(self, word) -> np.ndarray:
        out = linalg.identity(self.dim, self.prime)
        for gen, exp in word:
            out = out @ linalg.mat_pow(self.action(gen), exp, self.prime) % self.prime
        return out

    def to_json(self) -> dict:
        return {
            "prime": self.prime,
            "dim": self.dim,
            "actions": {g: [[int(x) for x in row] for row in m] for g, m in self.actions.items()},
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FpModule":
        return cls(int(doc["prime"]), int(doc["dim"]), dict(doc.get("actions", {})))


def validate_module(m: FpModule, pres: Presentation) -> None:
    """Check that every relator acts as the identity; raise naming the
    first violated relator otherwise."""
    for gen in m.actions:
        if gen not in pres.generators:
            raise ModuleError(f"unknown generator {gen!r}")
    eye = linalg.identity(m.dim, m.prime)
    for rel in pres.relators:
        if not np.array_equal(m.word_action(rel), eye):
            word = " ".join(f"{g}^{e}" for g, e in rel)
            raise ModuleError(f"relator not satisfied by module action: {word}")


def coinvariants(omega: np.ndarray, p: int):
    """Quotient M/(omega - 1)M by explicit complement basis.

    Returns (dim, proj, lift): ``proj`` maps M onto quotient coordinates,
    ``lift`` embeds them back as representatives; proj @ lift = identity.
    Pivots are chosen lowest-index-first for reproducibility.
    """
    d = omega.shape[0]
    diff = (omega - linalg.identity(d, p)) % p
    # row-reduce the transpose: rows span the image of (omega - 1)
    R, pivots = linalg.rref(diff.T, p)
    free = [c for c in range(d) if c not in pivots]
    # reduce each standard vector modulo the image, then read off the
    # free coordinates
    proj_full = linalg.identity(d, p)
    for r, c in enumerate(pivots):
        proj_full = (proj_full - np.outer(proj_full[:, c], R[r])) % p
    proj = proj_full.T[free, :] % p if free else np.zeros((0, d), dtype=np.int64)
    lift = np.zeros((d, len(free)), dtype=np.int64)
    for k, c in enumerate(free):
        lift[c, k] = 1
    return len(free), proj, lift


def norm_element(a: np.ndarray, exponent: int, p: int) -> np.ndarray:
    """The operator N with N(a - 1) = a^exponent - 1.

    For exponent k > 0 this is 1 + a + ... + a^(k-1); for k < 0 it is
    -(a^k + ... + a^-1), which has the same number of terms.
    """
    if exponent == 0:
        raise ValueError("norm element undefined for exponent 0")
    d = a.shape[0]
    out = np.zeros((d, d), dtype=np.int64)
    if exponent > 0:
        term = linalg.identity(d, p)
        step = a
        rng = range(exponent)
    else:
        term = linalg.mat_pow(a, -1, p)
        step = term
        rng = range(-exponent)
    acc = linalg.identity(d, p)
    for _ in rng:
        if exponent > 0:
            out = (out + acc) % p
            acc = acc @ a % p
        else:
            acc = acc @ step % p
            out = (out + acc) % p
    if exponent < 0:
        out = (-out) % p
    return out


def _edge_action(g: GbsGraph, m: FpModule, e) -> np.ndarray:
    """Action of the edge-group generator, via its target-side embedding."""
    return linalg.mat_pow(m.action(vertex_gen(e.dst)), e.lambda1, m.prime)


def assemble_hbar(g: GbsGraph, tree: set[str], m: FpModule):
    """The degree-one Mayer-Vietoris map as a single F_p matrix.

    Block (e, v) of the map from the direct sum of vertex coinvariant
    spaces to the direct sum of edge coinvariant spaces is

        + N(a_dst, lambda1)            if v = dst(e)
        - T_e . N(a_src, lambda0)      if v = src(e)

    projected into the edge quotient; T_e is the stable-letter action
    (identity on tree edges) and a loop contributes both terms to the
    same block.  With all relevant actions trivial on the quotients this
    degenerates to the scalar matrix with entries -+i0 and +-i1.

    Returns (matrix, vertex_data, edge_data) where the data lists hold
    (name, dim, proj, lift) per fibre in graph order.
    """
    p = m.prime
    pres = canonical_presentation(g, tree)
    validate_module(m, pres)
    vdata = []
    for v in g.vertices:
        a = m.action(vertex_gen(v))
        dim, proj, lift = coinvariants(a, p)
        vdata.append((v, dim, proj, lift))
    edata = []
    for e in g.edges:
        b = _edge_action(g, m, e)
        dim, proj, lift = coinvariants(b, p)
        edata.append((e.id, dim, proj, lift))
    rows = sum(d for _, d, _, _ in edata)
    cols = sum(d for _, d, _, _ in vdata)
    hbar = np.zeros((rows, cols), dtype=np.int64)
    r0 = 0
    for e, (_, edim, eproj, _) in zip(g.edges, edata):
        t_mat = (
            linalg.identity(m.dim, p)
            if e.id in tree
            else m.action(stable_letter(e.id))
        )
        c0 = 0
        for v, (_, vdim, _, vlift) in zip(g.vertices, vdata):
            block = np.zeros((m.dim, m.dim), dtype=np.int64)
            if v == e.dst:
                block = (block + norm_element(m.action(vertex_gen(e.dst)), e.lambda1, p)) % p
            if v == e.src:
                neg = t_mat @ norm_element(m.action(vertex_gen(e.src)), e.lambda0, p) % p
                block = (block - neg) % p
            if block.any():
                hbar[r0 : r0 + edim, c0 : c0 + vdim] = eproj @ block @ vlift % p
            c0 += vdim
        r0 += edim
    return hbar, vdata, edata


def _assemble_degree_zero(g: GbsGraph, tree: set[str], m: FpModule):
    """Fixed-space restriction map in degree zero, plus fibre dimensions."""
    p = m.prime
    vfix = []
    for v in g.vertices:
        k = linalg.nullspace(
            (m.action(vertex_gen(v)) - linalg.identity(m.dim, p)) % p, p
        )
        vfix.append((v, k))
    efix = []
    for e in g.edges:
        k = linalg.nullspace((_edge_action(g, m, e) - linalg.identity(m.dim, p)) % p, p)
        efix.append((e.id, k))
    rows = sum(k.shape[1] for _, k in efix)
    cols = sum(k.shape[1] for _, k in vfix)
    h0map = np.zeros((rows, cols), dtype=np.int64)
    r0 = 0
    for e, (_, ek) in zip(g.edges, efix):
        t_mat = (
            linalg.identity(m.dim, p)
            if e.id in tree
            else m.action(stable_letter(e.id))
        )
        c0 = 0
        for v, (_, vk) in zip(g.vertices, vfix):
            block = np.zeros((m.dim, vk.shape[1]), dtype=np.int64)
            if v == e.dst:
                block = (block + vk) % p
            if v == e.src:
                block = (block - t_mat @ vk) % p
            if block.any():
                # the value lies in the edge fixed space; express it there
                h0map[r0 : r0 + ek.shape[1], c0 : c0 + vk.shape[1]] = linalg.solve(
                    ek, block, p
                )
            c0 += vk.shape[1]
        r0 += ek.shape[1]
    vdims = [k.shape[1] for _, k in vfix]
    edims = [k.shape[1] for _, k in efix]
    return h0map, vdims, edims


@dataclass(frozen=True)
class CohomologyReport:
    h0: int
    h1: int
    h2: int
    side: str  # "abstract" | "profinite"
    prime_support: PrimeSet
    vertex_h0: tuple[int, ...]
    vertex_h1: tuple[int, ...]
    edge_h0: tuple[int, ...]
    edge_h1: tuple[int, ...]

    def euler_consistent(self) -> bool:
        lhs = self.h0 - self.h1 + self.h2
        rhs = sum(a - b for a, b in zip(self.vertex_h0, self.vertex_h1)) - sum(
            a - b for a, b in zip(self.edge_h0, self.edge_h1)
        )
        return lhs == rhs

    def to_json(self) -> dict:
        return {
            "h0": self.h0,
            "h1": self.h1,
            "h2": self.h2,
            "side": self.side,
            "prime_support": self.prime_support.to_json(),
        }


def cohomology_abstract(g: GbsGraph, tree: set[str], m: FpModule) -> CohomologyReport:
    """H^0, H^1, H^2 of the GBS group with coefficients in ``m``.

    H^2 is the cokernel of the degree-one map (the sequence terminates
    there as every fibre has cohomological dimension one); H^1 combines
    the kernel of that map with the cokernel of the degree-zero map.
    """
    hbar, vdata, edata = assemble_hbar(g, tree, m)
    h0map, v0dims, e0dims = _assemble_degree_zero(g, tree, m)
    r1 = linalg.rank(hbar, m.prime)
    r0 = linalg.rank(h0map, m.prime)
    v1dims = [d for _, d, _, _ in vdata]
    e1dims = [d for _, d, _, _ in edata]
    h2 = sum(e1dims) - r1
    h1 = (sum(v1dims) - r1) + (sum(e0dims) - r0)
    h0 = sum(v0dims) - r0
    report = CohomologyReport(
        h0,
        h1,
        h2,
        "abstract",
        PrimeSet.finite([m.prime]),
        tuple(v0dims),
        tuple(v1dims),
        tuple(e0dims),
        tuple(e1dims),
    )
    assert report.euler_consistent()
    return report


def _licensed_topology(g: GbsGraph, tree: set[str]) -> PrimeSet:
    """The fibre topology the theory pins down for this graph, or raise."""
    _, balanced, _ = balance_potential(g, tree, g.vertices[0])
    if balanced:
        return PrimeSet.all_primes()
    if g.is_cycle_graph():
        n, m = augmentation_products(g, the_cycle(g))
        if not is_isocratic(n, m):
            raise RegimeError("profinite side has torsion; cd infinite")
        return isocracy_locus(n, m)
    raise RegimeError(
        "regime not covered: induced fibre topology unknown for unbalanced "
        "graphs that are not a single cycle"
    )


def cohomology_profinite(
    g: GbsGraph, tree: set[str], m: FpModule, topology: PrimeSet
) -> CohomologyReport:
    """Profinite-side cohomology in the two licensed regimes.

    Regime (i): balanced graph, full profinite topology on all fibres.
    Regime (ii): single isocratic cycle, full pro-isocracy topology.
    Outside these, raise rather than guess.  Every fibre term whose
    coefficient prime lies outside the topology is replaced by zero
    before assembling the maps.
    """
    licensed = _licensed_topology(g, tree)
    if topology != licensed:
        raise RegimeError(
            f"regime not covered: requested topology {topology} but the "
            f"licensed fibre topology is {licensed}"
        )
    if m.prime in topology:
        abstract = cohomology_abstract(g, tree, m)
        return CohomologyReport(
            abstract.h0,
            abstract.h1,
            abstract.h2,
            "profinite",
            topology,
            abstract.vertex_h0,
            abstract.vertex_h1,
            abstract.edge_h0,
            abstract.edge_h1,
        )
    # coefficient order coprime to every fibre: all fibre terms vanish
    pres = canonical_presentation(g, tree)
    validate_module(m, pres)
    nv, ne = len(g.vertices), len(g.edges)
    return CohomologyReport(
        0, 0, 0, "profinite", topology, (0,) * nv, (0,) * nv, (0,) * ne, (0,) * ne
    )


def _cyclic_permutation(d: int, p: int) -> np.ndarray:
    perm = np.zeros((d, d), dtype=np.int64)
    for i in range(d):
        perm[(i + 1) % d, i] = 1
    return perm % p


def build_isocratic_witness(g: GbsGraph, p: int, q: int) -> FpModule:
    """Witness module for a single-cycle GBS group with isocratic,
    non-coprime augmentation products: F_p^q with a cyclic permutation
    acting through the vertices where the q-power-counting function is
    minimal.

    Unit powers of the permutation are transported along the q-free edges
    of the minimising set so that every relator is satisfied; abstract
    H^2 of the result is nonzero by a dimension count, while the
    pro-isocracy computation sees nothing whenever p leaves the locus.

    The construction runs on a copy whose edges all point the way the
    cycle is walked.  Vertex actions satisfy a relator in either
    orientation and stable letters act trivially, so the module is
    validated against the original graph.
    """
    if not (is_prime(p) and is_prime(q)):
        raise ValueError("p and q must be prime")
    if not g.is_cycle_graph() or any(e.is_loop for e in g.edges):
        raise ValueError("witness construction needs a loop-free cycle graph; subdivide first")
    cycle = the_cycle(g)
    n, m = augmentation_products(g, cycle)
    if not is_isocratic(n, m):
        raise ValueError("augmentation products are not isocratic")
    if (n * m) % p != 0:
        raise ValueError(f"{p} does not divide the product of augmentation products")
    if n % q or m % q:
        raise ValueError(f"{q} does not divide gcd of augmentation products")
    backward = {eid for eid, fwd in cycle if not fwd}
    h = GbsGraph(
        g.vertices,
        tuple(
            Edge(e.id, e.dst, e.src, e.lambda1, e.lambda0) if e.id in backward else e
            for e in g.edges
        ),
    )
    tree = spanning_tree(g)
    eps = epsilon_table(h, tree, q, h.vertices[0])
    lo = min(eps.values.values())
    minimisers = {v for v, x in eps.values.items() if x == lo}
    if not any(e.src in minimisers and e.i0 % q == 0 for e in h.edges):
        raise ValueError("internal error: minimising set admits no q-divisible outgoing edge")
    # transport unit exponents along q-free edges inside the minimising set;
    # they form a forest, as some edge of the cycle is q-divisible
    exponent = {v: 0 for v in h.vertices}
    free = {
        e.id
        for e in h.edges
        if e.src in minimisers and e.dst in minimisers and e.i0 % q and e.i1 % q
    }
    todo = set(minimisers)
    while todo:
        start = min(todo)
        exponent[start] = 1
        todo.discard(start)
        for y, e, fwd in tree_walk(h, free, start):
            if fwd:
                exponent[y] = pow(e.lambda1 % q, -1, q) * e.lambda0 * exponent[e.src] % q
            else:
                exponent[y] = pow(e.lambda0 % q, -1, q) * e.lambda1 * exponent[e.dst] % q
            todo.discard(y)
    alpha = _cyclic_permutation(q, p)
    actions = {}
    for v in g.vertices:
        if exponent[v]:
            actions[vertex_gen(v)] = linalg.mat_pow(alpha, exponent[v], p)
    module = FpModule(p, q, actions)
    validate_module(module, canonical_presentation(g, tree))
    return module


def build_leaf_witness(g: GbsGraph, q: int) -> FpModule:
    """Witness module for a reduced betti-one graph that is not a pure
    cycle: a cyclic permutation at a leaf whose edge index exceeds one,
    identity elsewhere.  Abstract H^2 is nonzero because edge and vertex
    counts agree while the leaf coinvariants drop dimension.
    """
    if not is_prime(q):
        raise ValueError("q must be prime")
    if g.betti != 1:
        raise ValueError("leaf witness needs a graph with exactly one cycle")
    if g.is_cycle_graph():
        raise ValueError("graph is a pure cycle; use the isocratic witness instead")
    leaf = None
    saw_unreduced = False
    for v in g.vertices:
        if g.degree(v) != 1:
            continue
        [e] = g.incident(v)
        index = e.i1 if e.dst == v else e.i0
        if index == 1:
            saw_unreduced = True
            continue
        leaf = (v, index)
        break
    if leaf is None:
        if saw_unreduced:
            raise ValueError("leaf edge has index 1; reduce the graph first")
        raise ValueError("graph has no leaf")
    v, d = leaf
    module = FpModule(q, d, {vertex_gen(v): _cyclic_permutation(d, q)})
    validate_module(module, canonical_presentation(g, spanning_tree(g)))
    return module

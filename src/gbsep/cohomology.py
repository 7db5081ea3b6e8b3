"""Mayer-Vietoris cohomology of a GBS group with finite prime-field coefficients.

For an infinite cyclic fibre with generator acting by an invertible matrix
``w``, first cohomology is the coinvariant space M/(w-1)M and zeroth
cohomology is the fixed space ker(w-1).  The middle map of the long exact
sequence is assembled block-wise from norm elements; its corank in degree
one computes H^2 of the fundamental group, since the vertex fibres have
cohomological dimension one.

Every module gbsep builds is a permutation module (M e_j = e_img[j]),
whose cohomology depends only on orbits (K. S. Brown, *Cohomology of
Groups*, III.6), so its maps are read off cycles with no elimination: a
fibre acting by s has one fixed vector and one coinvariant per cycle of
s; a cycle C of s splits into g = gcd(|C|, lambda) cycles of s^lambda,
those of C[0], ..., C[g-1]; and in the coinvariants of s^lambda,
N(s, lambda) sends a point of C to lambda/g times each of their classes.

Both maps come from one assembly, and the profinite side is derived
from the abstract report.  When the coefficient prime p lies outside the
licensed fibre topology, each fibre is pro-prime-to-p: its degree-one
terms vanish while its fixed space does not, so H^2 is zero and H^0, H^1
agree with the abstract side, as they do for every finite module (Serre,
*Galois Cohomology*, I 2.6).  Regimes the underlying theory does not
cover are refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import accumulate
from math import gcd

from . import linalg
from .arith import PSI_13, PrimeSet, is_isocratic, is_prime, isocracy_locus, nu_p
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
    from ``actions`` act as the identity.  Actions may be given as nested
    rows of integers; they are stored as sparse ``linalg.Matrix`` values,
    and ``perms`` maps each acting generator to its images (a e_j =
    e_img[j]) if every action is a permutation matrix, else is None."""

    prime: int
    dim: int
    actions: dict
    perms: dict | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.dim, int) or isinstance(self.dim, bool) or self.dim < 0:
            raise ModuleError(f"dimension {self.dim!r} is not a nonnegative integer")
        if not isinstance(self.prime, int) or isinstance(self.prime, bool):
            raise ModuleError(f"prime {self.prime!r} is not an integer")
        if not is_prime(self.prime):
            raise ModuleError(f"{self.prime} is not prime")
        norm, perms = {}, {}
        for gen, mat in self.actions.items():
            try:
                a = linalg.matrix(mat, self.prime)
            except ValueError:
                a = None
            if a is None or a.shape != (self.dim, self.dim):
                raise ModuleError(f"action of {gen} has wrong shape")
            # a permutation matrix holds a lone 1 in each row, in distinct columns
            img = {j: i for i, r in enumerate(a.rows) for j, x in r.items() if len(r) == 1 and x == 1}
            perms[gen] = [img[j] for j in range(self.dim)] if len(img) == self.dim else None
            if perms[gen] is None and linalg.rank(a, self.prime) != self.dim:
                raise ModuleError(f"action of {gen} is singular mod {self.prime}")
            norm[gen] = a
        object.__setattr__(self, "actions", norm)
        object.__setattr__(self, "perms", None if None in perms.values() else perms)

    def action(self, gen: str) -> linalg.Matrix:
        mat = self.actions.get(gen)
        if mat is None:
            return linalg.identity(self.dim)
        return mat

    def word_action(self, word) -> linalg.Matrix:
        """The matrix of a word; letters without an action are skipped."""
        out = linalg.identity(self.dim)
        for gen, exp in word:
            if gen in self.actions:
                power = linalg.mat_pow(self.actions[gen], exp, self.prime)
                out = linalg.mul(out, power, self.prime)
        return out

    def to_json(self) -> dict:
        return {
            "prime": self.prime,
            "dim": self.dim,
            "actions": {g: m.tolist() for g, m in self.actions.items()},
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FpModule":
        """A module given from outside; its prime must lie below PSI_13,
        where is_prime is proven.  Modules gbsep builds take their primes
        from factorize, which trusts is_prime at any size."""
        prime = doc["prime"]
        if isinstance(prime, int) and prime >= PSI_13:
            raise ModuleError(f"prime {prime} is not below psi_13 = {PSI_13}, the bound of proven primality")
        return cls(prime, doc["dim"], dict(doc.get("actions", {})))


def _cycles(img: list[int]) -> list[list[int]]:
    """The cycles of img, each from its largest point on, ordered by that
    point as the matrix path orders fixed vectors and coinvariants."""
    seen, out = [False] * len(img), []
    for j in reversed(range(len(img))):
        cycle = []
        while not seen[j]:
            seen[j] = True
            cycle.append(j)
            j = img[j]
        if cycle:
            out.append(cycle)
    return out[::-1]


def _perm_pow(img: list[int], k: int) -> list[int]:
    """img composed with itself k times, any integer k, in O(len(img))."""
    out = [0] * len(img)
    for cycle in _cycles(img):
        for i, j in enumerate(cycle):
            out[j] = cycle[(i + k) % len(cycle)]
    return out


def validate_module(m: FpModule, pres: Presentation) -> None:
    """Check that every relator acts as the identity; raise naming the
    first violated relator otherwise.  Permutations compose as such."""
    for gen in m.actions:
        if gen not in pres.generators:
            raise ModuleError(f"unknown generator {gen!r}")
    for rel in pres.relators:
        if m.perms is None:
            ok = m.word_action(rel) == linalg.identity(m.dim)
        else:
            out = list(range(m.dim))
            for gen, exp in rel:
                if gen in m.perms:
                    out = [out[j] for j in _perm_pow(m.perms[gen], exp)]
            ok = out == list(range(m.dim))
        if not ok:
            word = " ".join(f"{g}^{e}" for g, e in rel)
            raise ModuleError(f"relator not satisfied by module action: {word}")


def coinvariants(omega: linalg.Matrix, p: int):
    """Quotient M/(omega - 1)M by explicit complement basis.

    Returns (dim, proj, lift): ``proj`` maps M onto quotient coordinates,
    ``lift`` embeds them back as representatives; proj @ lift = identity.
    The coordinates are the free columns of the reduced echelon form of
    the image of omega - 1, lowest index first.
    """
    d = omega.cols
    # row-reduce the transpose: rows span the image of (omega - 1)
    R, pivots = linalg.rref(linalg.transpose(linalg.add(omega, linalg.identity(d), p, -1)), p)
    taken = set(pivots)
    free = [c for c in range(d) if c not in taken]
    index = {f: k for k, f in enumerate(free)}
    # e_f reduces to itself; e_c for a pivot c reduces to e_c - R[c's row]
    proj = linalg.zeros(len(free), d)
    for f, k in index.items():
        proj.rows[k][f] = 1
    for r, c in enumerate(pivots):
        for f, x in R.rows[r].items():
            if f != c:
                proj.rows[index[f]][c] = -x % p
    lift = linalg.zeros(d, len(free))
    for f, k in index.items():
        lift.rows[f] = {k: 1}
    return len(free), proj, lift


def norm_element(a: linalg.Matrix, exponent: int, p: int, x: linalg.Matrix):
    """(a^exponent, N x) for the operator N with N(a - 1) = a^exponent - 1.

    For exponent k > 0, N is 1 + a + ... + a^(k-1); for k < 0 it is
    -(a^k + ... + a^-1) = -a^k * N_|k|.  N_|k| x is built by doubling over
    the bits of |k|, from N_2j = N_j (1 + a^j) and N_(j+1) = 1 + a N_j,
    applied to the columns of x only; the powers a^j it needs end at
    a^|k|, so the power comes with the norm.  It costs O(log |k|) matrix
    products, not |k|, and never forms the d x d norm unless x is the
    identity.
    """
    if exponent == 0:
        raise ValueError("norm element undefined for exponent 0")
    power = linalg.identity(a.cols)  # a^j
    out = linalg.zeros(*x.shape)  # N_j x
    for bit in bin(abs(exponent))[2:]:
        out = linalg.add(out, linalg.mul(power, out, p), p)
        power = linalg.mul(power, power, p)
        if bit == "1":
            out = linalg.add(x, linalg.mul(a, out, p), p)
            power = linalg.mul(power, a, p)
    if exponent < 0:
        power = linalg.inverse(power, p)
        out = linalg.add(linalg.zeros(*x.shape), linalg.mul(power, out, p), p, -1)
    return power, out


def _fibre(a: linalg.Matrix, p: int):
    """Fixed space (basis columns) and coinvariants (proj, lift) of an
    infinite cyclic fibre acting by ``a``.

    The two come from separate eliminations, and by rank-nullity they
    have the same dimension; a mismatch raises.
    """
    fix = linalg.nullspace(linalg.add(a, linalg.identity(a.cols), p, -1), p)
    dim, proj, lift = coinvariants(a, p)
    if fix.cols != dim:
        raise RuntimeError(
            "internal error: a fibre's fixed space and coinvariants differ in dimension"
        )
    return fix, proj, lift


def assemble_maps(g: GbsGraph, tree: set[str], m: FpModule):
    """Both Mayer-Vietoris maps from the vertex fibres to the edge fibres,
    built in one pass over the edges.

    Degree zero runs between fixed spaces, degree one between coinvariant
    spaces.  Edge e writes only its blocks at dst(e) and src(e):

        degree 0:  + inclusion            at dst,   - T_e                     at src
        degree 1:  + N(a_dst, lambda1)    at dst,   - T_e . N(a_src, lambda0) at src

    each expressed in the edge fibre's coordinates; T_e is the
    stable-letter action (identity on tree edges) and a loop adds both
    terms into one block.  The norms are applied to the vertex lift
    columns only, and the edge action a_dst^lambda1 comes from the same
    doubling as N(a_dst, lambda1).  With all relevant actions trivial the
    degree-one map is the scalar matrix with entries -+i0 and +-i1.

    For a permutation module (M e_j = e_img[j]) the blocks come from
    cycles, with t = a_dst^lambda1: each cycle C of a_dst writes +1 and
    lambda1/g, g = gcd(|C|, lambda1), at the t-cycles of C[r], r < g; each
    cycle C of a_src writes -1 and -lambda0/g' at those of T_e(C[r]),
    r < g' = gcd(|C|, lambda0).  An edge costs O(dim), whatever its labels.

    Returns (h0map, hbar, vertex_dims, edge_dims) with the maps as sparse
    ``linalg.Matrix`` values; a fibre's fixed space and coinvariants have
    the same dimension, so one list per side gives the blocks of both
    maps, in graph order.
    """
    p = m.prime
    validate_module(m, canonical_presentation(g, tree))
    if m.perms is not None:
        return _assemble_on_cycles(g, tree, m)
    act = {v: m.action(vertex_gen(v)) for v in g.vertices}
    vert = {v: _fibre(act[v], p) for v in g.vertices}
    vdims = [vert[v][0].cols for v in g.vertices]
    col = dict(zip(g.vertices, accumulate([0] + vdims)))
    h0rows: list[dict[int, int]] = []
    hbar_rows: list[dict[int, int]] = []
    edims = []
    for e in g.edges:
        t = None if e.id in tree else m.action(stable_letter(e.id))
        action, dst_norm = norm_element(act[e.dst], e.lambda1, p, vert[e.dst][2])
        efix, eproj, _ = _fibre(action, p)
        _, src_norm = norm_element(act[e.src], e.lambda0, p, vert[e.src][2])
        src_fix = vert[e.src][0]
        if t is not None:
            src_fix, src_norm = linalg.mul(t, src_fix, p), linalg.mul(t, src_norm, p)
        zero = {e.dst: vert[e.dst][0]}
        one = {e.dst: dst_norm}
        zero[e.src] = linalg.add(zero.get(e.src, linalg.zeros(*src_fix.shape)), src_fix, p, -1)
        one[e.src] = linalg.add(one.get(e.src, linalg.zeros(*src_norm.shape)), src_norm, p, -1)
        k = efix.cols
        h0block = [{} for _ in range(k)]
        hbar_block = [{} for _ in range(k)]
        for v in zero:
            if any(zero[v].rows):
                # the value lies in the edge fixed space; express it there
                _write(h0block, linalg.solve(efix, zero[v], p), col[v])
            if any(one[v].rows):
                _write(hbar_block, linalg.mul(eproj, one[v], p), col[v])
        h0rows += h0block
        hbar_rows += hbar_block
        edims.append(k)
    cols = sum(vdims)
    return linalg.Matrix(h0rows, cols), linalg.Matrix(hbar_rows, cols), vdims, edims


def _write(rows: list[dict[int, int]], block: linalg.Matrix, offset: int) -> None:
    for row, part in zip(rows, block.rows):
        row.update((offset + j, x) for j, x in part.items())


def _assemble_on_cycles(g: GbsGraph, tree: set[str], m: FpModule):
    """``assemble_maps`` for a permutation module, entry for entry.  Both
    fibre dimensions count the same cycles, so, unlike ``_fibre``, it
    needs no check that they agree."""
    p, ident = m.prime, list(range(m.dim))
    perm = {v: m.perms.get(vertex_gen(v), ident) for v in g.vertices}
    cycles = {v: _cycles(perm[v]) for v in g.vertices}
    vdims = [len(cycles[v]) for v in g.vertices]
    col = dict(zip(g.vertices, accumulate([0] + vdims)))
    h0rows, hbar_rows, edims = [], [], []
    for e in g.edges:
        sub = _cycles(_perm_pow(perm[e.dst], e.lambda1))
        orbit = {j: k for k, cycle in enumerate(sub) for j in cycle}
        t = ident if e.id in tree else m.perms.get(stable_letter(e.id), ident)
        h0block, hbar_block = [{} for _ in sub], [{} for _ in sub]
        for v, lam, sign, move in ((e.dst, e.lambda1, 1, ident), (e.src, e.lambda0, -1, t)):
            for c, cycle in enumerate(cycles[v], col[v]):
                split = gcd(len(cycle), lam)
                for j in cycle[:split]:
                    k = orbit[move[j]]
                    h0block[k][c] = h0block[k].get(c, 0) + sign
                    hbar_block[k][c] = hbar_block[k].get(c, 0) + sign * lam // split
        h0rows += ({c: x % p for c, x in row.items() if x % p} for row in h0block)
        hbar_rows += ({c: x % p for c, x in row.items() if x % p} for row in hbar_block)
        edims.append(len(sub))
    cols = sum(vdims)
    return linalg.Matrix(h0rows, cols), linalg.Matrix(hbar_rows, cols), vdims, edims


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

    def on_profinite_side(self, g: GbsGraph, tree: set[str]) -> "CohomologyReport":
        """The profinite report for the graph this abstract report was
        computed on, derived without new elimination under the fibre
        topology L = ``licensed_topology(g, tree)``.

        For the module's prime p in L every term agrees.  Outside it each
        fibre is pro-prime-to-p, so only the degree-one fibre terms vanish:
        h2 = 0, the degree-zero rank r0 = sum(vertex_h0) - h0 stays, and
        h1 = sum(edge_h0) - r0.  Degrees 0 and 1 then agree with the
        abstract side, as they must for every finite module (Serre,
        *Galois Cohomology*, I 2.6).
        """
        if self.side != "abstract":
            raise ValueError("the profinite report is derived from an abstract one")
        topology = licensed_topology(g, tree)
        (p,) = self.prime_support.exceptions
        if p in topology:
            return replace(self, side="profinite", prime_support=topology)
        r0 = sum(self.vertex_h0) - self.h0
        return replace(
            self,
            h1=sum(self.edge_h0) - r0,
            h2=0,
            side="profinite",
            prime_support=topology,
            vertex_h1=(0,) * len(self.vertex_h1),
            edge_h1=(0,) * len(self.edge_h1),
        )

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
    h0map, hbar, vdims, edims = assemble_maps(g, tree, m)
    r0 = linalg.rank(h0map, m.prime)
    r1 = linalg.rank(hbar, m.prime)
    v, e = tuple(vdims), tuple(edims)
    return CohomologyReport(
        sum(v) - r0,
        (sum(v) - r1) + (sum(e) - r0),
        sum(e) - r1,
        "abstract",
        PrimeSet.finite([m.prime]),
        v,
        v,
        e,
        e,
    )


def licensed_topology(g: GbsGraph, tree: set[str]) -> PrimeSet:
    """The fibre topology the theory pins down for this graph, or raise
    RegimeError.

    Regime (i): balanced graph, full profinite topology on all fibres.
    Regime (ii): single isocratic cycle, full pro-isocracy topology.
    """
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


def cohomology_profinite(g: GbsGraph, tree: set[str], m: FpModule) -> CohomologyReport:
    """Profinite-side cohomology in the two licensed regimes of
    ``licensed_topology``; outside them, raise rather than guess."""
    licensed_topology(g, tree)  # refuse before any elimination
    return cohomology_abstract(g, tree, m).on_profinite_side(g, tree)


def _cyclic_permutation(d: int) -> linalg.Matrix:
    """The d-cycle sending basis vector i to i + 1 mod d."""
    return linalg.Matrix([{(i - 1) % d: 1} for i in range(d)], d)


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
    alpha = _cyclic_permutation(q)
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
    module = FpModule(q, d, {vertex_gen(v): _cyclic_permutation(d)})
    validate_module(module, canonical_presentation(g, spanning_tree(g)))
    return module

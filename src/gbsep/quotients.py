"""Explicit finite quotients into holomorphs of cyclic p-groups.

A quotient certificate maps every presentation generator to a pair
(c, u): the translation part c modulo N = p^l and a unit u acting by
multiplication, i.e. an element of C_N x| Aut(C_N) with multiplication
(c1, u1)(c2, u2) = (c1 + u1 c2, u1 u2).  Verification is plain modular
arithmetic over the relators, so a certificate can be re-checked without
trusting the construction that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import is_isocratic, is_prime, isocracy_locus, nu_p, p_free_part
from .graphs import (
    GbsGraph,
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


class QuotientError(ValueError):
    pass


Element = tuple[int, int]  # (residue, unit) mod the ambient modulus


def hol_mul(x: Element, y: Element, modulus: int) -> Element:
    c1, u1 = x
    c2, u2 = y
    return ((c1 + u1 * c2) % modulus, (u1 * u2) % modulus)


def hol_inv(x: Element, modulus: int) -> Element:
    c, u = x
    if modulus == 1:
        return (0, 0)
    uinv = pow(u, -1, modulus)
    return ((-uinv * c) % modulus, uinv)


def hol_pow(x: Element, k: int, modulus: int) -> Element:
    if k < 0:
        x = hol_inv(x, modulus)
        k = -k
    out = (0, 1)
    base = x
    while k:
        if k & 1:
            out = hol_mul(out, base, modulus)
        base = hol_mul(base, base, modulus)
        k >>= 1
    return (out[0] % modulus, out[1] % modulus)


def hol_order(x: Element, modulus: int) -> int:
    if modulus == 1:
        return 1
    ident = (0, 1 % modulus)
    acc = (x[0] % modulus, x[1] % modulus)
    order = 1
    cap = modulus * modulus
    while acc != ident:
        acc = hol_mul(acc, x, modulus)
        order += 1
        if order > cap:
            raise QuotientError("element order exceeds group order bound")
    return order


@dataclass(frozen=True)
class QuotientCert:
    """A verified homomorphism into C_N x| Aut(C_N).

    ``epsilon`` stores the rebased power-counting values used during
    construction (None for the torsion certificates onto C_p, where the
    order formula does not apply), and ``tree`` the spanning tree whose
    canonical presentation the generator images refer to.
    """

    modulus: int
    prime: int
    images: dict
    claimed_orders: dict
    tree: tuple
    kind: str  # "cycle" | "balanced" | "torsion"
    base_vertex: str | None = None
    epsilon: dict | None = None
    target: str | None = None
    target_order: int | None = None

    def to_json(self) -> dict:
        return {
            "modulus": self.modulus,
            "prime": self.prime,
            "images": {g: [c, u] for g, (c, u) in sorted(self.images.items())},
            "claimed_orders": dict(sorted(self.claimed_orders.items())),
            "tree": sorted(self.tree),
            "kind": self.kind,
            "base_vertex": self.base_vertex,
            "epsilon": dict(sorted(self.epsilon.items())) if self.epsilon else None,
            "target": self.target,
            "target_order": self.target_order,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "QuotientCert":
        return cls(
            modulus=int(doc["modulus"]),
            prime=int(doc["prime"]),
            images={g: (int(c), int(u)) for g, (c, u) in doc["images"].items()},
            claimed_orders={v: int(o) for v, o in doc["claimed_orders"].items()},
            tree=tuple(doc["tree"]),
            kind=doc["kind"],
            base_vertex=doc.get("base_vertex"),
            epsilon={v: int(x) for v, x in doc["epsilon"].items()}
            if doc.get("epsilon")
            else None,
            target=doc.get("target"),
            target_order=doc.get("target_order"),
        )


def _rebased_epsilon(g: GbsGraph, tree: set[str], p: int):
    """Epsilon table rebased at its smallest-id minimiser, so all values
    are nonnegative and the base vertex realises the smallest image order."""
    eps = epsilon_table(g, tree, p, g.vertices[0])
    w = eps.min_vertex(g.vertices)
    return eps.rebased(w)


def _vertex_images(g: GbsGraph, tree: set[str], p: int, modulus: int, eps):
    """Images (p^eps(v) c_v, 1) via the unit-transport recursion over the
    tree: moving from a settled vertex z across a tree edge to y,
    c_y = (p-free part at y)^-1 (p-free part at z) c_z."""
    w = eps.base
    c = {w: 1 % modulus}
    images = {vertex_gen(w): (p ** eps.values[w] * c[w] % modulus, 1 % modulus)}
    for y, e, fwd in tree_walk(g, tree, w):
        z, ly, lz = (e.src, e.lambda1, e.lambda0) if fwd else (e.dst, e.lambda0, e.lambda1)
        # signed p-free parts: the relator equates the signed labels
        ay = p_free_part(ly, p) * (1 if ly > 0 else -1)
        az = p_free_part(lz, p) * (1 if lz > 0 else -1)
        inv = pow(ay, -1, modulus) if modulus > 1 else 0
        c[y] = inv * az * c[z] % modulus
        images[vertex_gen(y)] = (p ** eps.values[y] * c[y] % modulus, 1 % modulus)
    return images


def _solve_unit(x0: int, x1: int, p: int, modulus: int) -> int:
    """A unit u with u * x0 == x1 mod p^l, given both sides have equal
    p-valuation (which the balance/isocracy hypotheses guarantee)."""
    if modulus == 1:
        return 0
    a, b = x0 % modulus, x1 % modulus
    if a == 0 and b == 0:
        return 1
    if a == 0 or b == 0:
        raise QuotientError("stable-letter equation has sides of unequal order")
    ga, gb = nu_p(a, p), nu_p(b, p)
    if ga != gb:
        raise QuotientError("stable-letter equation has sides of unequal order")
    return (b // p**ga) * pow(a // p**ga, -1, modulus) % modulus


def construct_cycle_quotient(
    g: GbsGraph,
    p: int,
    k: int,
    target_vertex: str | None = None,
    target_edge: str | None = None,
) -> QuotientCert:
    """Quotient of a betti-one GBS group realising image order exactly p^k
    on the target fibre, for p in the isocracy locus of the cycle.

    The modulus is p^(k + eps(v) + b) with b the p-valuation of the
    source index when the target is an edge; vertex generators land in
    the translation subgroup, the lone stable letter in the unit part.
    """
    if not is_prime(p):
        raise QuotientError(f"{p} is not prime")
    if k < 0:
        raise QuotientError("k must be nonnegative")
    if any(e.is_loop for e in g.edges):
        raise QuotientError("subdivide loops first")
    if g.betti != 1:
        raise QuotientError("graph must contain exactly one cycle")
    if (target_vertex is None) == (target_edge is None):
        raise QuotientError("specify exactly one of target_vertex, target_edge")
    n, m = augmentation_products(g, the_cycle(g))
    if not is_isocratic(n, m):
        raise QuotientError("cycle is not isocratic")
    if p not in isocracy_locus(n, m):
        raise QuotientError(f"{p} is not in the isocracy locus of ({n}, {m})")
    if target_edge is not None:
        e = g.edge(target_edge)
        v, b = e.src, nu_p(e.i0, p)
        target = f"edge:{target_edge}"
    else:
        if target_vertex not in g.vertices:
            raise QuotientError(f"unknown vertex {target_vertex!r}")
        v, b = target_vertex, 0
        target = f"vertex:{target_vertex}"
    tree = spanning_tree(g)
    eps = _rebased_epsilon(g, tree, p)
    modulus = p ** (k + eps.values[v] + b)
    images = _vertex_images(g, tree, p, modulus, eps)
    for e in g.edges:
        if e.id in tree:
            continue
        x0 = images[vertex_gen(e.src)][0] * e.lambda0
        x1 = images[vertex_gen(e.dst)][0] * e.lambda1
        images[stable_letter(e.id)] = (0, _solve_unit(x0, x1, p, modulus))
    orders = {v_: hol_order(images[vertex_gen(v_)], modulus) for v_ in g.vertices}
    cert = QuotientCert(
        modulus=modulus,
        prime=p,
        images=images,
        claimed_orders=orders,
        tree=tuple(sorted(tree)),
        kind="cycle",
        base_vertex=eps.base,
        epsilon=dict(eps.values),
        target=target,
        target_order=p**k,
    )
    _require_valid(g, tree, cert)
    return cert


def construct_balanced_quotient(g: GbsGraph, v: str, p: int, k: int) -> QuotientCert:
    """Quotient of a balanced GBS group with image of the fibre at ``v``
    cyclic of order exactly p^k and every vertex image inside the
    translation subgroup.  Each stable letter is sent to the unit solving
    its edge equation, which balance makes solvable."""
    if not is_prime(p):
        raise QuotientError(f"{p} is not prime")
    if k < 0:
        raise QuotientError("k must be nonnegative")
    if v not in g.vertices:
        raise QuotientError(f"unknown vertex {v!r}")
    if any(e.is_loop for e in g.edges):
        raise QuotientError("subdivide loops first")
    tree = spanning_tree(g)
    _, balanced, witness = balance_potential(g, tree, g.vertices[0])
    if not balanced:
        raise QuotientError(f"graph is unbalanced; witness cycle {witness}")
    eps = _rebased_epsilon(g, tree, p)
    modulus = p ** (k + eps.values[v])
    images = _vertex_images(g, tree, p, modulus, eps)
    for e in g.edges:
        if e.id in tree:
            continue
        x0 = images[vertex_gen(e.src)][0] * e.lambda0
        x1 = images[vertex_gen(e.dst)][0] * e.lambda1
        images[stable_letter(e.id)] = (0, _solve_unit(x0, x1, p, modulus))
    orders = {v_: hol_order(images[vertex_gen(v_)], modulus) for v_ in g.vertices}
    cert = QuotientCert(
        modulus=modulus,
        prime=p,
        images=images,
        claimed_orders=orders,
        tree=tuple(sorted(tree)),
        kind="balanced",
        base_vertex=eps.base,
        epsilon=dict(eps.values),
        target=f"vertex:{v}",
        target_order=p**k,
    )
    _require_valid(g, tree, cert)
    return cert


def construct_nonisocratic_p_quotient(g: GbsGraph, p: int) -> QuotientCert:
    """Torsion witness for a cycle whose augmentation products carry the
    prime p with unequal nonzero valuations: a surjection of part of the
    vertex set onto C_p, everything else (stable letter included) to zero.

    The support is a maximal arc whose internal edges are p-free, whose
    outgoing edge has p-divisible source index and whose incoming edge
    has p-divisible target index; such an arc always exists.
    """
    if not is_prime(p):
        raise QuotientError(f"{p} is not prime")
    if not g.is_cycle_graph() or any(e.is_loop for e in g.edges):
        raise QuotientError("construction needs a loop-free pure cycle; subdivide first")
    n, m = augmentation_products(g, the_cycle(g))
    if nu_p(n, p) == 0 or nu_p(m, p) == 0 or nu_p(n, p) == nu_p(m, p):
        raise QuotientError(f"products ({n}, {m}) are isocratic at {p}")
    cyc = the_cycle(g)
    s = len(cyc)
    # walk the cycle: step i runs tail[i] -> tail[i+1] with signed labels
    # out (at the tail) and inc (at the head)
    tails, outs, incs, eids = [], [], [], []
    for eid, fwd in cyc:
        e = g.edge(eid)
        tails.append(e.src if fwd else e.dst)
        outs.append(e.lambda0 if fwd else e.lambda1)
        incs.append(e.lambda1 if fwd else e.lambda0)
        eids.append(eid)
    internal = [outs[i] % p != 0 and incs[i] % p != 0 for i in range(s)]
    chosen = None
    for start in range(s):
        # arc starting at vertex `start`: incoming edge is step start-1
        if internal[(start - 1) % s]:
            continue
        end = start
        while internal[end % s]:
            end += 1
        leaving = end % s
        entering = (start - 1) % s
        if outs[leaving] % p == 0 and incs[entering] % p == 0:
            chosen = (start, end)
            break
    if chosen is None:
        raise QuotientError("no admissible arc found")  # unreachable when p | gcd
    start, end = chosen
    x = {v: 0 for v in g.vertices}
    x[tails[start % s]] = 1
    for i in range(start, end):
        head = tails[(i + 1) % s]
        x[head] = pow(incs[i % s] % p, -1, p) * outs[i % s] * x[tails[i % s]] % p
    tree = spanning_tree(g)
    images = {vertex_gen(v): (x[v], 1) for v in g.vertices}
    for e in g.edges:
        if e.id not in tree:
            images[stable_letter(e.id)] = (0, 1)
    orders = {v: (p if x[v] else 1) for v in g.vertices}
    cert = QuotientCert(
        modulus=p,
        prime=p,
        images=images,
        claimed_orders=orders,
        tree=tuple(sorted(tree)),
        kind="torsion",
        base_vertex=None,
        epsilon=None,
        target=None,
        target_order=p,
    )
    _require_valid(g, tree, cert)
    return cert


def verify_cert(g: GbsGraph, tree: set[str], cert: QuotientCert) -> dict:
    """Re-check a certificate: relator evaluation in the holomorph, exact
    image orders, and the power-counting order formula where it applies.

    Never raises on a bad certificate; reports failure instead.
    """
    pres = canonical_presentation(g, tree)
    if set(cert.images) != set(pres.generators):
        return {
            "valid": False,
            "orders": {},
            "order_formula_ok": False,
            "failing_relator": "generator set mismatch",
        }
    N = cert.modulus
    failing = None
    for rel in pres.relators:
        ident = (0, 1 % N)
        acc = ident
        for gen, exp in rel:
            acc = hol_mul(acc, hol_pow(cert.images[gen], exp, N), N)
        if acc != ident:
            failing = " ".join(f"{g_}^{e_}" for g_, e_ in rel)
            break
    orders = {v: hol_order(cert.images[vertex_gen(v)], N) for v in g.vertices}
    valid = failing is None and orders == cert.claimed_orders
    formula_ok = True
    if cert.epsilon is not None:
        l = nu_p(N, cert.prime) if N > 1 else 0
        for v in g.vertices:
            expected = cert.prime ** max(l - cert.epsilon[v], 0)
            if orders[v] != expected:
                formula_ok = False
    return {
        "valid": valid,
        "orders": orders,
        "order_formula_ok": formula_ok,
        "failing_relator": failing,
    }


def _require_valid(g: GbsGraph, tree: set[str], cert: QuotientCert) -> None:
    report = verify_cert(g, tree, cert)
    if not report["valid"]:
        raise QuotientError(
            f"internal error: constructed certificate fails verification "
            f"({report['failing_relator']})"
        )

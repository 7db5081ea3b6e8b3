"""Explicit finite quotients into holomorphs of cyclic p-groups.

A quotient certificate maps every presentation generator to a pair
(c, u): the translation part c modulo N = p^l and a unit u acting by
multiplication, i.e. an element of C_N x| Aut(C_N) with multiplication
(c1, u1)(c2, u2) = (c1 + u1 c2, u1 u2).  Verification is plain modular
arithmetic over the relators, so a certificate can be re-checked without
trusting the construction that produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import factorize, is_isocratic, is_prime, nu_p, p_free_part, unit_order
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


def hol_order(x: Element, modulus: int, p: int) -> int:
    """Order of x = (c, u) in C_N x| Aut(C_N), N = modulus = p^l.

    With r the multiplicative order of u, x^r = (s, 1) is a translation
    of order N / gcd(s, N), so x has order r * N / gcd(s, N).  When
    u = 1, x is itself a translation and needs no product.  Otherwise r
    comes from phi(N) = p^(l-1) (p - 1): factoring p - 1 by Pollard rho
    (slow only when p - 1 has two large prime factors), then one modular
    power per prime stripped and O(log N) products for x^r.  Raises
    QuotientError when u is not a unit mod N, or, for u != 1, when N is
    not a power of the prime p.
    """
    if modulus < 1:
        raise QuotientError(f"modulus {modulus} is not positive")
    if modulus == 1:
        return 1
    u = x[1] % modulus
    if math.gcd(u, modulus) != 1:
        raise QuotientError(f"unit part {x[1]} is not invertible mod {modulus}")
    if u == 1:
        return modulus // math.gcd(x[0], modulus)
    l = nu_p(modulus, p) if is_prime(p) else 0  # p^0 = 1 != modulus fails below
    if p**l != modulus:
        raise QuotientError(f"modulus {modulus} is not a power of the prime {p}")
    r = unit_order(u, modulus, p ** (l - 1) * (p - 1), [*factorize(p - 1), p])
    return r * modulus // math.gcd(hol_pow(x, r, modulus)[0], modulus)


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


def _translation_cert(
    g: GbsGraph, tree: set[str], p: int, k: int, l: int, eps, kind: str, target: str
) -> QuotientCert:
    """The verified certificate modulo p^l with every vertex image in the
    translation subgroup and each stable letter sent to the unit solving
    its edge equation."""
    modulus = p**l
    images = _vertex_images(g, tree, p, modulus, eps)
    for e in g.edges:
        if e.id in tree:
            continue
        x0 = images[vertex_gen(e.src)][0] * e.lambda0
        x1 = images[vertex_gen(e.dst)][0] * e.lambda1
        images[stable_letter(e.id)] = (0, _solve_unit(x0, x1, p, modulus))
    orders = {v: hol_order(images[vertex_gen(v)], modulus, p) for v in g.vertices}
    cert = QuotientCert(
        modulus=modulus,
        prime=p,
        images=images,
        claimed_orders=orders,
        tree=tuple(sorted(tree)),
        kind=kind,
        base_vertex=eps.base,
        epsilon=dict(eps.values),
        target=target,
        target_order=p**k,
    )
    _require_valid(g, tree, cert)
    return cert


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
    if nu_p(n, p) != nu_p(m, p):
        raise QuotientError(f"{p} is not in the isocracy locus of ({n}, {m})")
    if target_edge is not None:
        try:
            e = g.edge(target_edge)
        except KeyError:
            raise QuotientError(f"unknown edge {target_edge!r}") from None
        v, b = e.src, nu_p(e.i0, p)
        target = f"edge:{target_edge}"
    else:
        if target_vertex not in g.vertices:
            raise QuotientError(f"unknown vertex {target_vertex!r}")
        v, b = target_vertex, 0
        target = f"vertex:{target_vertex}"
    tree = spanning_tree(g)
    eps = _rebased_epsilon(g, tree, p)
    return _translation_cert(g, tree, p, k, k + eps.values[v] + b, eps, "cycle", target)


def construct_balanced_quotient(g: GbsGraph, v: str, p: int, k: int) -> QuotientCert:
    """Quotient of a balanced GBS group with image of the fibre at ``v``
    cyclic of order exactly p^k and every vertex image inside the
    translation subgroup.  Each stable letter is sent to the unit solving
    its edge equation, which balance makes solvable."""
    if v not in g.vertices:
        raise QuotientError(f"unknown vertex {v!r}")
    if not is_prime(p):
        raise QuotientError(f"{p} is not prime")
    if k < 0:
        raise QuotientError("k must be nonnegative")
    if any(e.is_loop for e in g.edges):
        raise QuotientError("subdivide loops first")
    tree = spanning_tree(g)
    _, balanced, witness = balance_potential(g, tree, g.vertices[0])
    if not balanced:
        raise QuotientError(f"graph is unbalanced; witness cycle {witness}")
    eps = _rebased_epsilon(g, tree, p)
    return _translation_cert(g, tree, p, k, k + eps.values[v], eps, "balanced", f"vertex:{v}")


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
    image orders, the target claim (see target_failure), and the
    power-counting order formula where it applies.

    Reports a bad certificate instead of raising.  Before any relator is
    evaluated it fails a modulus that is not a power p^l of the stated
    prime p, and an image whose unit part is not invertible mod N; after
    a failing relator no order is computed.  Costs O(log |a|) products
    per relator letter x^a and, per vertex generator, none when its unit
    part is 1 (as in every certificate gbsep builds) and otherwise what
    hol_order costs, which includes factoring p - 1.
    """
    pres = canonical_presentation(g, tree)
    N, p = cert.modulus, cert.prime
    l = nu_p(N, p) if N >= 1 and is_prime(p) else -1
    if set(cert.images) != set(pres.generators):
        failing = "generator set mismatch"
    elif l < 0 or p**l != N:
        failing = f"modulus {N} is not a power of the prime {p}"
    else:
        failing = next(
            (
                f"{gen}: unit part {cert.images[gen][1]} is not invertible mod {N}"
                for gen in pres.generators
                if math.gcd(cert.images[gen][1], N) != 1
            ),
            None,
        )
    if failing is None:
        for rel in pres.relators:
            ident = (0, 1 % N)
            acc = ident
            for gen, exp in rel:
                acc = hol_mul(acc, hol_pow(cert.images[gen], exp, N), N)
            if acc != ident:
                failing = " ".join(f"{g_}^{e_}" for g_, e_ in rel)
                break
    if failing is not None:
        return {"valid": False, "orders": {}, "order_formula_ok": False, "failing_relator": failing}
    orders = {v: hol_order(cert.images[vertex_gen(v)], N, p) for v in g.vertices}
    formula_ok = True
    if cert.epsilon is not None:
        if not set(g.vertices) <= set(cert.epsilon):
            formula_ok = False
        else:
            cap = 2 * N.bit_length()  # every order is below N^2 <= 2^cap
            for v in g.vertices:
                e = max(l - cert.epsilon[v], 0)
                if e >= cap or orders[v] != p**e:
                    formula_ok = False
    valid, failing = orders == cert.claimed_orders, None
    if valid:
        failing = target_failure(g, cert, orders)
        valid = failing is None
    return {
        "valid": valid,
        "orders": orders,
        "order_formula_ok": formula_ok,
        "failing_relator": failing,
    }


def target_failure(g: GbsGraph, cert: QuotientCert, orders: dict) -> str | None:
    """Why the certificate's target claim fails, or None if it holds, given
    the vertex image orders of a report in which every relator holds.

    ``vertex:v`` claims that a_v has image order ``target_order``,
    ``edge:e`` claims it of a_src^lambda0, and no target (the torsion
    certificates onto C_p) claims it of some vertex.  The target order
    must be a power of the prime; a certificate without a target order
    claims nothing.
    """
    target, want, N, p = cert.target, cert.target_order, cert.modulus, cert.prime
    if want is None:
        return None if target is None else f"target {target} has no target order"
    if not isinstance(want, int) or want < 1 or p ** nu_p(want, p) != want:
        return f"target order {want} is not a power of the prime {p}"
    if target is None:
        return None if want in orders.values() else f"no vertex image has the target order {want}"
    kind, _, name = target.partition(":")
    if kind == "vertex":
        if name not in orders:
            return f"unknown target vertex {name!r}"
        got = orders[name]
    elif kind == "edge":
        try:
            e = g.edge(name)
        except KeyError:
            return f"unknown target edge {name!r}"
        got = hol_order(hol_pow(cert.images[vertex_gen(e.src)], e.lambda0, N), N, p)
    else:
        return f"unknown target {target!r}"
    return None if got == want else f"target {target} has image order {got}, not {want}"


def _require_valid(g: GbsGraph, tree: set[str], cert: QuotientCert) -> None:
    report = verify_cert(g, tree, cert)
    if not report["valid"]:
        raise QuotientError(
            f"internal error: constructed certificate fails verification "
            f"({report['failing_relator']})"
        )

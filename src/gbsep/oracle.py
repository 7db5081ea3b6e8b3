"""Brute-force ground truth: exhaustive homomorphism searches into small
finite groups.

Two target families.  Symmetric groups of low degree catch arbitrary
(including non-metabelian) quotients; holomorph-style metacyclic
solutions reach deep prime-power orders cheaply.  Both report the set of
achievable image orders per generator, which is what the predicted
induced topology constrains.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .arith import _isocracy_split, factorize, nu_p
from .graphs import GbsGraph, Presentation, augmentation_products, the_cycle


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class OrderSpectrum:
    """Achieved image orders per generator for an exhaustive search."""

    family: str  # "permutation" | "metacyclic"
    orders: dict  # generator name -> frozenset of achieved orders
    bound: dict  # {"degree": d} or {"n_cap": N}
    exhaustive: bool

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "orders": {g: sorted(o) for g, o in sorted(self.orders.items())},
            "bound": dict(self.bound),
            "exhaustive": self.exhaustive,
        }


# ---------------------------------------------------------------------------
# permutation machinery

Perm = tuple[int, ...]


def _perm_mul(a: Perm, b: Perm) -> Perm:
    """(a then b) as functions acting on the left: (ab)(i) = a(b(i))."""
    return tuple(a[b[i]] for i in range(len(a)))


def _perm_inv(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def _perm_pow(a: Perm, k: int) -> Perm:
    d = len(a)
    if k < 0:
        a, k = _perm_inv(a), -k
    out = tuple(range(d))
    while k:
        if k & 1:
            out = _perm_mul(out, a)
        a = _perm_mul(a, a)
        k >>= 1
    return out


def _perm_order(a: Perm) -> int:
    d = len(a)
    seen = [False] * d
    order = 1
    for i in range(d):
        if seen[i]:
            continue
        length, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = a[j]
            length += 1
        order = math.lcm(order, length)
    return order


def _partitions(d: int):
    """All partitions of d as nonincreasing tuples."""
    if d == 0:
        yield ()
        return
    for first in range(d, 0, -1):
        for rest in _partitions(d - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def _class_representative(partition: tuple[int, ...]) -> Perm:
    out: list[int] = []
    start = 0
    for length in partition:
        out.extend([start + (i + 1) % length for i in range(length)])
        start += length
    return tuple(out)


def enumerate_perm_quotients(pres: Presentation, d: int) -> OrderSpectrum:
    """Exhaustive search for relator-satisfying pairs in S_d.

    The first generator runs over conjugacy-class representatives only
    (order spectra are conjugation-invariant), the second over all of
    S_d.  Complete within the degree bound.
    """
    gens = pres.generators
    if len(gens) > 2:
        raise OracleError("use metacyclic oracle or reduce")
    if d > 7:
        raise OracleError("degree bound is 7")
    achieved: dict[str, set[int]] = {g: set() for g in gens}
    reps = [_class_representative(pt) for pt in _partitions(d)]
    if len(gens) == 1:
        for a in reps:
            if all(
                _perm_order(_perm_pow(a, sum(e for _, e in rel))) == 1
                for rel in pres.relators
            ):
                achieved[gens[0]].add(_perm_order(a))
    else:
        first, second = gens
        everything = [tuple(p) for p in itertools.permutations(range(d))]
        for a in reps:
            for t in everything:
                assign = {first: a, second: t}
                ok = True
                for rel in pres.relators:
                    acc = tuple(range(d))
                    for gen, exp in rel:
                        acc = _perm_mul(acc, _perm_pow(assign[gen], exp))
                    if acc != tuple(range(d)):
                        ok = False
                        break
                if ok:
                    achieved[first].add(_perm_order(a))
                    achieved[second].add(_perm_order(t))
    return OrderSpectrum(
        family="permutation",
        orders={g: frozenset(o) for g, o in achieved.items()},
        bound={"degree": d},
        exhaustive=True,
    )


# ---------------------------------------------------------------------------
# metacyclic search


def metacyclic_solutions(n: int, m: int, N: int) -> set[tuple[int, int, int]]:
    """All (N, x, u) with u a unit mod N and u * (m x) == n x mod N."""
    out = set()
    units = [u for u in range(1, N + 1) if math.gcd(u, N) == 1]
    for x in range(N):
        a, b = n * x % N, m * x % N
        for u in units:
            if u * b % N == a:
                out.add((N, x, u % N))
    return out


def enumerate_metacyclic_quotients(n: int, m: int, N_cap: int) -> OrderSpectrum:
    """Orders achievable in quotients a -> x in C_N, t -> a unit u, over
    all moduli N <= N_cap.  The defining relation a^n = t a^m t^-1
    becomes n x == u (m x) mod N; the recorded order of a is the additive
    order of x, that of t the multiplicative order of u."""
    if n == 0 or m == 0:
        raise OracleError("labels must be nonzero")
    a_orders: set[int] = set()
    t_orders: set[int] = set()
    for N in range(1, N_cap + 1):
        units = [u for u in range(1, N + 1) if math.gcd(u, N) == 1]
        unit_order = {}
        for x in range(N):
            a, b = n * x % N, m * x % N
            for u in units:
                if u * b % N == a:
                    a_orders.add(N // math.gcd(x, N) if x else 1)
                    u = u % N
                    if u not in unit_order:
                        acc, o = u, 1
                        while acc != 1 % N:
                            acc = acc * u % N
                            o += 1
                        unit_order[u] = o
                    t_orders.add(unit_order[u])
    return OrderSpectrum(
        family="metacyclic",
        orders={"a": frozenset(a_orders), "t": frozenset(t_orders)},
        bound={"n_cap": N_cap},
        exhaustive=True,
    )


# ---------------------------------------------------------------------------
# prediction check


def check_topology_prediction(g: GbsGraph, spectrum: OrderSpectrum, predicted, bound: int) -> dict:
    """Compare an exhaustive spectrum against a predicted prime set.

    Soundness: no achieved fibre order is divisible by a prime outside
    ``predicted``, except for torsion primes (dividing both augmentation
    products with unequal valuations), where the achieved valuation must
    not exceed min(nu_p(n), nu_p(m)) -- conjugate powers of the fibre
    generator force that cap in every finite quotient.  Completeness:
    reports which p^k <= bound with p in predicted were realised.
    """
    if not spectrum.exhaustive:
        raise OracleError("spectrum is not exhaustive")
    n, m = augmentation_products(g, the_cycle(g))
    g, d = _isocracy_split(n, m)
    torsion_cap = {
        p: min(nu_p(n, p), nu_p(m, p)) for p in factorize(math.gcd(g, d))
    }
    fibre_orders: set[int] = set()
    for gen, orders in spectrum.orders.items():
        if gen.startswith("a"):
            fibre_orders |= set(orders)
    violations = []
    for o in sorted(fibre_orders):
        for p in factorize(o) if o > 1 else ():
            if p in torsion_cap:
                if nu_p(o, p) > torsion_cap[p]:
                    violations.append(
                        f"order {o}: nu_{p} exceeds torsion cap {torsion_cap[p]}"
                    )
            elif p not in predicted:
                violations.append(f"order {o} divisible by excluded prime {p}")
    realized = {}
    for p in sorted({q for o in fibre_orders for q in (factorize(o) if o > 1 else ())}):
        if p in predicted:
            ks = []
            pk = p
            while pk <= bound:
                if any(o % pk == 0 for o in fibre_orders):
                    ks.append(pk)
                pk *= p
            realized[p] = ks
    torsion_hits = {
        p: max((nu_p(o, p) for o in fibre_orders if o % p == 0), default=0)
        for p in torsion_cap
    }
    return {
        "sound": not violations,
        "violations": violations,
        "realized": realized,
        "torsion_achieved": torsion_hits,
        "torsion_cap": torsion_cap,
    }

"""Ground truth by exhaustive search: every homomorphism into small finite
groups, tried one candidate at a time or accounted for by class.

Two target families.  Symmetric groups of low degree catch arbitrary
(including non-metabelian) quotients; holomorph-style metacyclic
solutions reach deep prime-power orders cheaply.  Both report the set of
achievable image orders per generator, which is what the predicted
induced topology constrains.

Both searches stay exhaustive.  The permutation search checks class
representatives times all of S_d, p(d) * d! candidates, walking each
relator point by point.  The metacyclic spectrum has a closed form in the
labels, read off one sieve up to the modulus cap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .arith import _isocracy_split, factorize, nu_p
from .graphs import GbsGraph, Presentation, augmentation_products, the_cycle


class OracleError(ValueError):
    pass


# The metacyclic sieve and spectrum hold one entry per modulus, and the
# prediction check factors every order, so time, memory and output grow
# with the cap's magnitude; the --ncap contract refuses more than 2,000.
MAX_N_CAP = 2000


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


def _cycles(a: Perm) -> list[list[int]]:
    """The cycles of a, each listed from its least point in the order a visits."""
    seen, out = [False] * len(a), []
    for i in range(len(a)):
        if not seen[i]:
            cycle, j = [], i
            while not seen[j]:
                seen[j] = True
                cycle.append(j)
                j = a[j]
            out.append(cycle)
    return out


def _perm_pow(a: Perm, k: int) -> Perm:
    """a^k for any integer k in O(d): each point moves k steps along its cycle."""
    if k == -1:  # one inversion pass, about 2.2x faster at degrees 6 and 7
        return tuple(map(a.index, range(len(a))))
    out = [0] * len(a)
    for cycle in _cycles(a):
        for i, x in enumerate(cycle):
            out[x] = cycle[(i + k) % len(cycle)]
    return tuple(out)


def _perm_order(a: Perm) -> int:
    return math.lcm(*(len(c) for c in _cycles(a)))


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
    S_d.  Complete within the degree bound.  Each relator power is made
    once per call (t^1 is t, t^-1 one inversion pass) and per
    representative; a relator is walked point by point along its factor
    columns, stopping at the first point that moves.  Orders are
    computed only for the survivors.
    """
    gens = pres.generators
    if len(gens) > 2:
        raise OracleError("use metacyclic oracle or reduce")
    if d > 7:
        raise OracleError("degree bound is 7")
    if d < 1:
        raise OracleError(f"degree {d} is below 1")
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
        everything = list(itertools.permutations(range(d)))
        # a word acts on the left, so its last letter moves a point first
        words = [rel[::-1] for rel in pres.relators]
        t_pows = {1: everything}  # t^1 is t itself
        for e in {e for word in words for gen, e in word if gen == second} - {1}:
            t_pows[e] = [_perm_pow(t, e) for t in everything]
        hit_t: set[int] = set()  # indices into everything
        for a in reps:
            a_pows = {e: _perm_pow(a, e) for word in words for gen, e in word if gen == first}
            alive = range(len(everything))
            for word in words:
                columns = [itertools.repeat(a_pows[e]) if gen == first else map(t_pows[e].__getitem__, alive)
                           for gen, e in word]
                survivors = []
                for i, factors in zip(alive, zip(*columns)):
                    for x in range(d):
                        y = x
                        for f in factors:
                            y = f[y]
                        if y != x:
                            break
                    else:
                        survivors.append(i)
                alive = survivors
            if alive:
                hit_t.update(alive)
                achieved[first].add(_perm_order(a))
        achieved[second] = {_perm_order(everything[i]) for i in hit_t}
    return OrderSpectrum(
        family="permutation",
        orders={g: frozenset(o) for g, o in achieved.items()},
        bound={"degree": d},
        exhaustive=True,
    )


# ---------------------------------------------------------------------------
# metacyclic search


def _carmichael_up_to(cap: int) -> list[int]:
    """lambda(N), the exponent of (Z/N)^x, for N = 0 .. cap by a sieve of least
    primes: lambda(p^k r) = lcm(lambda(p^k), lambda(r)) for p prime to r."""
    least = list(range(cap + 1))
    for p in range(math.isqrt(cap), 1, -1):  # the last p to write is the least divisor, a prime
        least[p * p :: p] = [p] * len(range(p * p, cap + 1, p))
    lam = [1] * (cap + 1)
    for N in range(2, cap + 1):
        p, r, pk = least[N], N, 1
        while r % p == 0:
            r, pk = r // p, pk * p
        lam[N] = math.lcm(lam[r], pk // 4 if p == 2 and pk >= 8 else pk // p * (p - 1))
    return lam


def enumerate_metacyclic_quotients(n: int, m: int, N_cap: int) -> OrderSpectrum:
    """Orders achievable in quotients a -> x in C_N, t -> a unit u, over
    all moduli N <= N_cap.  The defining relation a^n = t a^m t^-1
    becomes n x == u (m x) mod N; the recorded order of a is the additive
    order of x, that of t the multiplicative order of u.

    Both sets have a closed form; no unit or residue is tried.  Orders of
    a: for x of order o the relation says o | u m - n.  Units mod N map
    onto units mod o, and some unit v mod o has v m == n mod o exactly
    when g = gcd(m, o) equals gcd(n, o) (v keeps gcd(m, o); conversely
    n/g and m/g are then units mod o/g).  Every such o <= N_cap occurs,
    with N = o.  Orders of t: x = 0 solves with every unit, so they are
    the element orders of (Z/N)^x for N <= N_cap, the divisors of its
    exponent lambda(N), as in any finite abelian group.  Refuses a cap
    below 1 or above MAX_N_CAP.
    """
    if n == 0 or m == 0:
        raise OracleError("labels must be nonzero")
    if N_cap < 1:
        raise OracleError(f"modulus cap {N_cap} is below 1")
    if N_cap > MAX_N_CAP:
        raise OracleError(f"modulus cap {N_cap} is above {MAX_N_CAP}")
    exponents = set(_carmichael_up_to(N_cap))
    orders = range(1, N_cap + 1)
    return OrderSpectrum(
        family="metacyclic",
        orders={"a": frozenset(o for o in orders if math.gcd(n, o) == math.gcd(m, o)),
                "t": frozenset(r for r in orders if not exponents.isdisjoint(range(r, N_cap + 1, r)))},
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

"""Ground truth by exhaustive search: every homomorphism into small finite
groups, tried one candidate at a time or accounted for by class.

Two target families.  Symmetric groups of low degree catch arbitrary
(including non-metabelian) quotients; holomorph-style metacyclic
solutions reach deep prime-power orders cheaply.  Both report the set of
achievable image orders per generator, which is what the predicted
induced topology constrains.

Both searches stay exhaustive.  The permutation search tries class
representatives times all of S_d, with every relator power computed once
per call, and checks a relator point by point: it costs about
p(d) * d! relator checks, most stopping at the first point.  The
metacyclic search groups the solutions (N, x, u) by the additive order of
x, which decides the relation, so it costs sum over N <= cap of
phi(N) * (number of divisors of N) residue checks plus one unit order per
unit, instead of sum of N * phi(N) products.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .arith import _isocracy_split, factorize, nu_p, primes_up_to, unit_order
from .graphs import GbsGraph, Presentation, augmentation_products, the_cycle


class OracleError(ValueError):
    pass


# The metacyclic search grows about as the cap squared: a few seconds at
# 2,000, so a larger cap is refused rather than left to run for hours.
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
    seen = [False] * len(a)
    out = []
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


def _fixes_every_point(factors: list[Perm]) -> bool:
    """Whether the product of factors, applied in list order, is the
    identity: follow one point at a time and stop at the first that moves."""
    for x in range(len(factors[0])):
        y = x
        for f in factors:
            y = f[y]
        if y != x:
            return False
    return True


def enumerate_perm_quotients(pres: Presentation, d: int) -> OrderSpectrum:
    """Exhaustive search for relator-satisfying pairs in S_d.

    The first generator runs over conjugacy-class representatives only
    (order spectra are conjugation-invariant), the second over all of
    S_d.  Complete within the degree bound.  Every power a relator needs
    is computed once per call for each element of S_d and once per
    representative; a relator is then checked point by point.
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
        t_exps = {e for word in words for gen, e in word if gen == second}
        t_pows = {e: [_perm_pow(t, e) for t in everything] for e in t_exps}
        hit_t: set[int] = set()  # indices into everything
        for a in reps:
            a_pows = {e: _perm_pow(a, e) for word in words for gen, e in word if gen == first}
            found = False
            for i in range(len(everything)):
                for word in words:
                    if not _fixes_every_point([a_pows[e] if gen == first else t_pows[e][i] for gen, e in word]):
                        break
                else:
                    hit_t.add(i)
                    found = True
            if found:
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


def _solving_units(n: int, m: int, N: int, units: list[int]) -> dict[int, list[int]]:
    """For each divisor o of N, the units u with u (m x) == n x mod N for
    the x of additive order o.  With o = N / gcd(x, N) that holds exactly
    when o divides u m - n, whichever x of that order is taken."""
    return {o: [u for u in units if (u * m - n) % o == 0] for o in range(1, N + 1) if N % o == 0}


def enumerate_metacyclic_quotients(n: int, m: int, N_cap: int) -> OrderSpectrum:
    """Orders achievable in quotients a -> x in C_N, t -> a unit u, over
    all moduli N <= N_cap.  The defining relation a^n = t a^m t^-1
    becomes n x == u (m x) mod N; the recorded order of a is the additive
    order of x, that of t the multiplicative order of u.

    Every solution (N, x, u) is accounted for, grouped by the order of x
    (see _solving_units), so each N costs one pass over its divisors and
    units, not over x.  A unit order is phi(N) stripped of primes.
    Refuses a cap below 1 or above MAX_N_CAP.
    """
    if n == 0 or m == 0:
        raise OracleError("labels must be nonzero")
    if N_cap < 1:
        raise OracleError(f"modulus cap {N_cap} is below 1")
    if N_cap > MAX_N_CAP:
        raise OracleError(f"modulus cap {N_cap} is above {MAX_N_CAP}")
    small_primes = primes_up_to(N_cap)
    a_orders: set[int] = set()
    t_orders: set[int] = set()
    for N in range(1, N_cap + 1):
        units = [u for u in range(1, N + 1) if math.gcd(u, N) == 1]
        phi = len(units)
        phi_primes = [q for q in small_primes if phi % q == 0]
        solved: set[int] = set()
        for o, solving in _solving_units(n, m, N, units).items():
            if solving:
                a_orders.add(o)
                solved.update(solving)
        t_orders.update(unit_order(u, N, phi, phi_primes) for u in solved)
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

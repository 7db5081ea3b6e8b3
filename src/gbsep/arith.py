"""Exact integer arithmetic: valuations, factorization, isocracy, prime sets.

Everything here is arbitrary-precision.  Edge labels in real inputs are
small, but products along long cycles are not, so nothing assumes fixed
width.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field


def nu_p(x: int, p: int) -> int:
    """p-adic valuation of x: the largest k with p**k dividing x.

    The sign of x is ignored.  Raises ValueError for x == 0, where the
    valuation is undefined.
    """
    if x == 0:
        raise ValueError("valuation undefined at zero")
    x = abs(x)
    k = 0
    while x % p == 0:
        x //= p
        k += 1
    return k


def p_free_part(x: int, p: int) -> int:
    """|x| with all factors of p removed."""
    return abs(x) // p ** nu_p(x, p)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases 2 ... 41.

    Exact for n below psi_13 = 3,317,044,064,679,887,385,961,981, the
    least strong pseudoprime to all thirteen bases (Sorenson and Webster
    2015, arXiv:1509.00864).  Above that bound a True means only
    "probable prime".
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, by sieve."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(math.isqrt(bound)) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, s in enumerate(sieve) if s]


def _pollard_rho(n: int, rng: random.Random) -> int:
    """One nontrivial factor of composite odd n."""
    while True:
        c = rng.randrange(1, n)
        f = lambda x: (x * x + c) % n
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = f(x)
            y = f(f(y))
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, by integer Newton steps from above."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _perfect_power(n: int) -> tuple[int, int] | None:
    """(r, k) with r**k == n and k a prime, or None if n is no such power."""
    for k in primes_up_to(n.bit_length()):
        r = _iroot(n, k)
        if r**k == n:
            return r, k
    return None


def factorize(x: int) -> dict[int, int]:
    """Prime factorization of |x| as {prime: multiplicity}.

    Trial division up to 10**4; beyond that a perfect power r**k is taken
    apart by an integer root and anything else by Pollard rho.  Raises on
    x == 0.  A factor above is_prime's proven bound is a probable prime.
    """
    if x == 0:
        raise ValueError("cannot factor zero")
    x = abs(x)
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while x % p == 0:
            out[p] = out.get(p, 0) + 1
            x //= p
    d = 7
    while d * d <= x and d < 10_000:
        while x % d == 0:
            out[d] = out.get(d, 0) + 1
            x //= d
        d += 2
    if x > 1:
        rng = random.Random(0x5EED)
        stack = [(x, 1)]  # (cofactor, multiplicity)
        while stack:
            n, e = stack.pop()
            if is_prime(n):
                out[n] = out.get(n, 0) + e
                continue
            power = _perfect_power(n)
            if power:
                r, k = power
                stack.append((r, e * k))
                continue
            d = _pollard_rho(n, rng)
            stack.append((d, e))
            stack.append((n // d, e))
    return out


def unit_order(u: int, modulus: int, r: int, primes) -> int:
    """Multiplicative order of the unit u mod modulus, given a multiple r
    of it (phi(modulus), say) and every prime of r: strip each prime
    while u's power stays at one."""
    for q in primes:
        while r % q == 0 and pow(u, r // q, modulus) == 1:
            r //= q
    return r


def _isocracy_split(n: int, m: int) -> tuple[int, int]:
    """(g, d) with g = gcd(n, m) and d = (|n|/g) * (|m|/g).

    For p | g one of n/g, m/g is prime to p and the other has valuation
    |nu_p(n) - nu_p(m)|; a prime off g divides at most one of n, m.  So
    the primes of d are exactly the primes with nu_p(n) != nu_p(m), and
    those among them that divide both n and m are the primes of gcd(g, d).
    """
    if n == 0 or m == 0:
        raise ValueError("isocracy undefined at zero")
    g = math.gcd(n, m)
    return g, abs(n) // g * (abs(m) // g)


def is_isocratic(n: int, m: int) -> bool:
    """True iff every prime dividing both n and m divides them with equal power.

    Coprime pairs are vacuously isocratic.  Signs are ignored.  With
    g = gcd(n, m) and d = n*m/g^2 the pair is isocratic iff gcd(g, d) = 1:
    three gcds and no factoring.
    """
    g, d = _isocracy_split(n, m)
    return math.gcd(g, d) == 1


@dataclass(frozen=True)
class PrimeSet:
    """A finite or cofinite set of primes with decidable membership.

    ``exceptions`` is the sorted list of members (finite) or non-members
    (cofinite).  Cofinite sets are the faithful finite representation of
    loci of the form "all primes except those dividing a given product".
    """

    kind: str  # "finite" | "cofinite"
    exceptions: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in ("finite", "cofinite"):
            raise ValueError(f"bad PrimeSet kind {self.kind!r}")
        exc = tuple(sorted(set(self.exceptions)))
        for p in exc:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "exceptions", exc)

    def __contains__(self, p: int) -> bool:
        if self.kind == "finite":
            return p in self.exceptions
        return p not in self.exceptions

    @classmethod
    def all_primes(cls) -> "PrimeSet":
        return cls("cofinite", ())

    @classmethod
    def finite(cls, primes) -> "PrimeSet":
        return cls("finite", tuple(primes))

    @classmethod
    def cofinite(cls, excluded) -> "PrimeSet":
        return cls("cofinite", tuple(excluded))

    def to_json(self) -> dict:
        return {"kind": self.kind, "exceptions": list(self.exceptions)}

    @classmethod
    def from_json(cls, doc: dict) -> "PrimeSet":
        return cls(doc["kind"], tuple(doc["exceptions"]))


def isocracy_locus(n: int, m: int) -> PrimeSet:
    """The cofinite set of primes p with nu_p(n) == nu_p(m).

    The exception list is exactly the set of primes dividing n*m with
    unequal valuations on the two sides, which are the primes of
    d = n*m/gcd(n, m)^2.  Only d is factored, so equal products cost no
    factoring at all.  Membership of one prime needs no locus: compare
    nu_p(n) with nu_p(m).
    """
    _, d = _isocracy_split(n, m)
    return PrimeSet.cofinite(factorize(d))

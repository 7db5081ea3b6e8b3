from __future__ import annotations

import math
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbsep.arith import (
    PrimeSet,
    _isocracy_split,
    factorize,
    is_isocratic,
    is_prime,
    isocracy_locus,
    nu_p,
    p_free_part,
    primes_up_to,
    unit_order,
)


def test_nu_p_basics():
    assert nu_p(12, 2) == 2
    assert nu_p(12, 3) == 1
    assert nu_p(12, 5) == 0
    assert nu_p(-8, 2) == 3
    with pytest.raises(ValueError):
        nu_p(0, 2)


def test_p_free_part():
    assert p_free_part(12, 2) == 3
    assert p_free_part(-12, 2) == 3
    assert p_free_part(7, 2) == 7


@given(st.integers(min_value=1, max_value=10**6), st.sampled_from([2, 3, 5, 7, 11]))
def test_valuation_decomposition(x, p):
    assert x == p ** nu_p(x, p) * p_free_part(x, p)
    assert p_free_part(x, p) % p != 0


def test_is_prime_small():
    known = set(primes_up_to(200))
    for n in range(200):
        assert is_prime(n) == (n in known)


def test_is_prime_large():
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


def test_is_prime_rejects_psi12():
    # psi_12 = 399165290221 * 798330580441 passes every prime base up to
    # 37; base 41 witnesses it composite
    a, b = 399165290221, 798330580441
    assert a * b == 318665857834031151167461
    assert is_prime(a) and is_prime(b)
    assert not is_prime(a * b)
    assert factorize(a * b) == {a: 1, b: 1}


@given(st.integers(min_value=2, max_value=10**9))
def test_factorize_reconstructs(x):
    f = factorize(x)
    assert math.prod(p**k for p, k in f.items()) == x
    for p in f:
        assert is_prime(p)


@pytest.mark.parametrize("k", [2, 3, 4, 7])
def test_factorize_large_prime_powers_fast(k):
    p = 2147483659
    start = time.perf_counter()
    assert factorize(p**k) == {p: k}
    assert time.perf_counter() - start < 0.05


def test_factorize_mixed_perfect_powers():
    p, q = 2147483659, 4294967311
    assert factorize((p * q) ** 6) == {p: 6, q: 6}
    assert factorize(12 * (p**2 * q**3) ** 2) == {2: 2, 3: 1, p: 4, q: 6}


_FACTOR_POOL = [2, 3, 7, 10007, 65537, 1000003, 2147483659, 4294967311]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(_FACTOR_POOL), st.integers(1, 7)), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=10**6),
)
def test_factorize_matches_sympy(powers, cofactor):
    sympy = pytest.importorskip("sympy")
    x = cofactor * math.prod(p**k for p, k in powers)
    assert factorize(x) == sympy.factorint(x)


def test_unit_order_matches_stepping():
    for N in range(2, 120):
        units = [u for u in range(1, N) if math.gcd(u, N) == 1]
        primes = factorize(len(units))
        for u in units:
            step, acc = 1, u
            while acc != 1:
                acc, step = acc * u % N, step + 1
            assert unit_order(u, N, len(units), primes) == step


def test_is_isocratic_examples():
    assert is_isocratic(2, 3)  # coprime, vacuous
    assert not is_isocratic(2, 4)
    assert is_isocratic(6, 10)
    assert is_isocratic(-6, 10)
    assert not is_isocratic(12, 18)
    with pytest.raises(ValueError):
        is_isocratic(0, 4)


def test_isocracy_locus_examples():
    loc = isocracy_locus(2, 3)
    assert loc.kind == "cofinite" and loc.exceptions == (2, 3)
    loc = isocracy_locus(6, 10)
    assert loc.exceptions == (3, 5)
    assert 2 in loc and 7 in loc and 3 not in loc and 5 not in loc


@given(
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=1, max_value=500),
    st.sampled_from(primes_up_to(50)),
)
def test_locus_membership_matches_valuations(n, m, p):
    assert (p in isocracy_locus(n, m)) == (nu_p(n, p) == nu_p(m, p))


def test_primeset_membership_and_json():
    fin = PrimeSet.finite([5, 3])
    assert fin.exceptions == (3, 5)
    assert 3 in fin and 7 not in fin
    cof = PrimeSet.cofinite([2])
    assert 2 not in cof and 3 in cof
    for ps in (fin, cof):
        assert PrimeSet.from_json(ps.to_json()) == ps
    with pytest.raises(ValueError):
        PrimeSet.finite([4])
    with pytest.raises(ValueError):
        PrimeSet("open", ())


def test_all_primes():
    assert 97 in PrimeSet.all_primes()
    assert PrimeSet.all_primes().kind == "cofinite"


# small primes, and two above 2**31 that Pollard rho must find in
# isocracy_locus; powers of the large ones stay low to keep rho quick
_POOL = (2, 3, 5, 7, 11, 2147483659, 4294967311)


def _pool_factorize(x):
    """Trial division by _POOL; every test pair is built from it."""
    x, out = abs(x), {}
    for p in _POOL:
        while x % p == 0:
            out[p] = out.get(p, 0) + 1
            x //= p
    assert x == 1
    return out


# Factoring references: the bodies is_isocratic, isocracy_locus and the
# prime picks of classify._classify_cycle had before they moved to gcds,
# with factorize swapped for _pool_factorize.


def _ref_is_isocratic(n, m):
    g = math.gcd(n, m)
    for p in _pool_factorize(g) if g > 1 else ():
        if nu_p(n, p) != nu_p(m, p):
            return False
    return True


def _ref_isocracy_locus(n, m):
    return PrimeSet.cofinite([p for p in _pool_factorize(n * m) if nu_p(n, p) != nu_p(m, p)])


def _ref_named_primes(n, m):
    """(non-isocratic p, isocratic q, isocratic p), None where undefined.

    The last two are picked only for isocratic pairs."""
    g = math.gcd(n, m)
    shared = _pool_factorize(g) if g > 1 else {}
    unequal = [q for q in shared if nu_p(n, q) != nu_p(m, q)]
    one_side = [q for q in _pool_factorize(n * m) if (n % q == 0) != (m % q == 0)]
    return (
        min(unequal, default=None),
        min(shared, default=None),
        min(one_side, default=None),
    )


def _named_primes(n, m):
    """The same picks from gcds: the primes of gcd(g, d), g and d."""
    g, d = _isocracy_split(n, m)
    return tuple(
        min(_pool_factorize(x), default=None) for x in (math.gcd(g, d), g, d)
    )


@st.composite
def signed_pairs(draw):
    """Nonzero (n, m) over _POOL: shared primes with equal or unequal
    powers, prime powers, n = m up to sign, and coprime pairs."""
    shape = draw(st.sampled_from(["any", "equal", "coprime", "prime power"]))
    primes = draw(st.lists(st.sampled_from(_POOL), max_size=3, unique=True))
    n = m = 1
    for p in primes:
        top = 3 if p < 100 else 2
        a = draw(st.integers(0, top))
        b = draw(st.integers(0, top))
        if shape == "coprime":
            b = 0 if draw(st.booleans()) else b
            a = 0 if b else a
        n *= p**a
        m *= p**b
    if shape == "equal":
        m = n
    elif shape == "prime power":
        p = draw(st.sampled_from(_POOL))
        top = 4 if p < 100 else 2
        n, m = p ** draw(st.integers(1, top)), p ** draw(st.integers(0, top))
    return n * draw(st.sampled_from([1, -1])), m * draw(st.sampled_from([1, -1]))


@settings(max_examples=100, deadline=None)
@given(signed_pairs())
@example((12, 18))
@example((6, 10))
@example((2147483659 * 3, 2147483659**2 * 3))
@example((-(4294967311 * 5), 4294967311 * 5))
def test_gcd_isocracy_matches_factoring(pair):
    n, m = pair
    assert is_isocratic(n, m) == _ref_is_isocratic(n, m)
    locus = isocracy_locus(n, m)
    assert locus == _ref_isocracy_locus(n, m)
    for p in (*_POOL, 13):
        assert (p in locus) == (nu_p(n, p) == nu_p(m, p))
    named, ref = _named_primes(n, m), _ref_named_primes(n, m)
    assert named[0] == ref[0]
    if is_isocratic(n, m):
        assert named == ref


def test_isocracy_split():
    assert _isocracy_split(12, -18) == (6, 6)
    assert _isocracy_split(-5, 5) == (5, 1)
    assert _isocracy_split(4, 9) == (1, 36)
    with pytest.raises(ValueError):
        _isocracy_split(3, 0)


def test_equal_products_factor_nothing(monkeypatch):
    import gbsep.arith as arith

    def refuse(x):
        raise AssertionError(f"factorize({x}) called")

    monkeypatch.setattr(arith, "factorize", refuse)
    a, b = 62604139033, 67977912641  # 36-bit primes
    assert is_isocratic(a * b, -a * b)
    assert is_isocratic(a * a * b, a * b * b) is False
    assert is_isocratic(a, b)

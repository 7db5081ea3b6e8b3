from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gbsep.arith import (
    PrimeSet,
    factorize,
    is_isocratic,
    is_prime,
    isocracy_locus,
    nu_p,
    p_free_part,
    primes_up_to,
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
    assert loc.is_cofinite and loc.exceptions == (2, 3)
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
    assert PrimeSet.all_primes().is_cofinite

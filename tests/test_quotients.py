from __future__ import annotations

import dataclasses
import math
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import cycle_graph, theta_graph
from gbsep import (
    GbsGraph,
    QuotientCert,
    QuotientError,
    bs_graph,
    classify_bs,
    construct_balanced_quotient,
    construct_cycle_quotient,
    construct_nonisocratic_p_quotient,
    is_isocratic,
    isocracy_locus,
    self_audit,
    subdivide_loops,
    verify_cert,
)
from gbsep.arith import is_prime
from gbsep.quotients import hol_inv, hol_mul, hol_order, hol_pow


def test_holomorph_arithmetic():
    N = 25
    x, y = (3, 7), (2, 4)
    assert hol_mul(x, y, N) == ((3 + 7 * 2) % N, (7 * 4) % N)
    assert hol_mul(x, hol_inv(x, N), N) == (0, 1)
    assert hol_pow(x, 0, N) == (0, 1)
    assert hol_mul(hol_pow(x, 3, N), hol_pow(x, -3, N), N) == (0, 1)
    assert hol_order((1, 1), N, 5) == 25
    assert hol_order((0, 7), N, 5) == 4  # 7 has order 4 mod 25


def test_bs23_worked_instance():
    g = subdivide_loops(bs_graph(2, 3))
    cert = construct_cycle_quotient(g, 5, 2, target_vertex="v1")
    assert cert.modulus == 25
    assert cert.images["a_v1"] == (1, 1)
    # the closing unit solves 3u = 2 mod 25
    (_, u) = cert.images["t_e1b"]
    assert 3 * u % 25 == 2 and u == 9
    assert cert.claimed_orders["v1"] == 25
    rep = verify_cert(g, set(cert.tree), cert)
    assert rep["valid"] and rep["order_formula_ok"]


def test_cycle_quotient_k_zero():
    g = subdivide_loops(bs_graph(2, 3))
    cert = construct_cycle_quotient(g, 5, 0, target_vertex="v1")
    assert cert.claimed_orders["v1"] == 1
    assert verify_cert(g, set(cert.tree), cert)["valid"]


def test_cycle_quotient_edge_target():
    g = subdivide_loops(bs_graph(6, 10))
    locus = isocracy_locus(6, 10)
    assert 2 in locus
    cert = construct_cycle_quotient(g, 2, 1, target_edge="e1a")
    rep = verify_cert(g, set(cert.tree), cert)
    assert rep["valid"] and rep["order_formula_ok"]


def test_cycle_quotient_refusals():
    g = subdivide_loops(bs_graph(2, 3))
    with pytest.raises(QuotientError, match="isocracy locus"):
        construct_cycle_quotient(g, 2, 1, target_vertex="v1")
    with pytest.raises(QuotientError, match="prime"):
        construct_cycle_quotient(g, 6, 1, target_vertex="v1")
    with pytest.raises(QuotientError, match="exactly one"):
        construct_cycle_quotient(g, 5, 1)
    with pytest.raises(QuotientError, match="unknown edge 'e9'"):
        construct_cycle_quotient(g, 5, 1, target_edge="e9")
    with pytest.raises(QuotientError, match="subdivide"):
        construct_cycle_quotient(bs_graph(2, 3), 5, 1, target_vertex="v1")
    g24 = subdivide_loops(bs_graph(2, 4))
    with pytest.raises(QuotientError, match="not isocratic"):
        construct_cycle_quotient(g24, 3, 1, target_vertex="v1")


def test_balanced_quotient_theta():
    theta = theta_graph([(2, 2)] * 3)
    cert = construct_balanced_quotient(theta, "v1", 3, 2)
    assert cert.claimed_orders["v1"] == 9
    rep = verify_cert(theta, set(cert.tree), cert)
    assert rep["valid"] and rep["order_formula_ok"]
    with pytest.raises(QuotientError, match="unknown vertex"):
        construct_balanced_quotient(theta, "nope", 3, 2)


def test_balanced_quotient_rejects_unbalanced():
    skew = theta_graph([(2, 2), (2, 2), (2, 3)])
    with pytest.raises(QuotientError, match="unbalanced"):
        construct_balanced_quotient(skew, "v1", 2, 1)


def test_torsion_quotient_bs24():
    g = subdivide_loops(bs_graph(2, 4))
    cert = construct_nonisocratic_p_quotient(g, 2)
    assert cert.modulus == 2 and cert.kind == "torsion"
    assert cert.images["a_v1"] == (1, 1)
    assert max(cert.claimed_orders.values()) == 2
    assert verify_cert(g, set(cert.tree), cert)["valid"]


def test_torsion_quotient_bs12_2():
    g = subdivide_loops(bs_graph(12, 2))
    cert = construct_nonisocratic_p_quotient(g, 2)
    assert verify_cert(g, set(cert.tree), cert)["valid"]
    assert 2 in cert.claimed_orders.values()


def test_torsion_quotient_rejects_isocratic():
    g = subdivide_loops(bs_graph(6, 10))
    with pytest.raises(QuotientError, match="isocratic"):
        construct_nonisocratic_p_quotient(g, 2)


def test_torsion_quotient_longer_cycle():
    # products (2*3, 3*4) = (6, 12): nu_2 unequal, both nonzero
    g = cycle_graph([(2, 3), (3, 4)])
    cert = construct_nonisocratic_p_quotient(g, 2)
    assert verify_cert(g, set(cert.tree), cert)["valid"]


def test_cert_json_roundtrip():
    g = subdivide_loops(bs_graph(2, 3))
    cert = construct_cycle_quotient(g, 5, 2, target_vertex="v1")
    back = QuotientCert.from_json(cert.to_json())
    assert back.modulus == cert.modulus
    assert back.images == cert.images
    assert back.epsilon == cert.epsilon
    assert verify_cert(g, set(back.tree), back)["valid"]


def test_verify_rejects_tampering():
    g = subdivide_loops(bs_graph(2, 3))
    cert = construct_cycle_quotient(g, 5, 1, target_vertex="v1")
    doc = cert.to_json()
    doc["images"]["a_v1"] = [2, 1]
    tampered = QuotientCert.from_json(doc)
    assert not verify_cert(g, set(tampered.tree), tampered)["valid"]


def test_signed_labels_random_cycles(rng):
    done = 0
    while done < 40:
        s = rng.randint(2, 4)
        labels = [
            (rng.randint(1, 9) * rng.choice([1, -1]), rng.randint(1, 9) * rng.choice([1, -1]))
            for _ in range(s)
        ]
        g = cycle_graph(labels)
        from gbsep import augmentation_products, the_cycle

        n, m = augmentation_products(g, the_cycle(g))
        if not is_isocratic(n, m):
            cand = [
                p
                for p in (2, 3, 5, 7)
                if n % p == 0 and m % p == 0
            ]
            from gbsep.arith import nu_p

            cand = [p for p in cand if nu_p(n, p) != nu_p(m, p)]
            cert = construct_nonisocratic_p_quotient(g, cand[0])
            assert verify_cert(g, set(cert.tree), cert)["valid"]
        else:
            locus = isocracy_locus(n, m)
            p = next(q for q in (2, 3, 5, 7, 11, 13) if q in locus)
            cert = construct_cycle_quotient(g, p, 2, target_vertex=g.vertices[0])
            rep = verify_cert(g, set(cert.tree), cert)
            assert rep["valid"] and rep["order_formula_ok"]
        done += 1


# -- hol_order against the stepping loop it replaced --------------------------


def _stepping_order(x, modulus):
    """Reference order: multiply by x until the identity, up to N^2 steps."""
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


def _units(modulus):
    """Every element (c, u) of C_N x| Aut(C_N)."""
    return [
        (c, u) for u in range(modulus) if math.gcd(u, modulus) == 1 for c in range(modulus)
    ]


def _stepped_orders(modulus):
    """Orders of all elements by the stepping loop, walking each cyclic
    subgroup once: when x has order n, x^j has order n / gcd(j, n)."""
    orders = {}
    for x in _units(modulus):
        if x in orders:
            continue
        powers, acc = [x], x
        while acc != (0, 1):
            acc = hol_mul(acc, x, modulus)
            powers.append(acc)
        n = len(powers)
        for j, y in enumerate(powers, 1):
            orders.setdefault(y, n // math.gcd(j, n))
    return orders


def _prime_powers(bound):
    """(p, l, p^l) for every prime power 1 < p^l <= bound."""
    return [
        (p, l, p**l)
        for p in range(2, bound + 1)
        if is_prime(p)
        for l in range(1, bound.bit_length())
        if p**l <= bound
    ]


def test_hol_order_matches_stepping_every_prime_power_to_60():
    # primes and the higher powers 4, 8, ..., 49, with units u != 1
    assert hol_order((3, 5), 1, 7) == 1
    for p, _, modulus in _prime_powers(60):
        for x in _units(modulus):
            assert hol_order(x, modulus, p) == _stepping_order(x, modulus), (x, modulus)


@pytest.mark.parametrize("p, l", [(2, 7), (3, 5), (5, 3), (7, 3)])
def test_hol_order_matches_stepping_prime_powers(p, l):
    modulus = p**l
    orders = _stepped_orders(modulus)
    assert len(orders) == len(_units(modulus))
    for x, n in orders.items():
        assert hol_order(x, modulus, p) == n, (x, modulus)
    sample = random.Random(modulus).sample(sorted(orders), 50)
    assert all(_stepping_order(x, modulus) == orders[x] for x in sample)


def _prime_divisors(n):
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    return out | ({n} if n > 1 else set())


@given(st.sampled_from(_prime_powers(10**4)), st.integers(), st.integers())
def test_hol_order_is_the_order(power, c, u):
    p, _, modulus = power
    x = (c, u)
    if u % p == 0:
        with pytest.raises(QuotientError, match="not invertible"):
            hol_order(x, modulus, p)
        return
    n = hol_order(x, modulus, p)
    ident = (0, 1)
    assert hol_pow(x, n, modulus) == ident
    for q in _prime_divisors(n):
        assert hol_pow(x, n // q, modulus) != ident


def test_hol_order_rejects_non_units_at_once():
    for p, _, modulus in _prime_powers(60):
        for u in range(0, modulus, p):
            for c in (0, 1, modulus - 1):
                with pytest.raises(QuotientError, match="not invertible"):
                    hol_order((c, u), modulus, p)
    t0 = time.perf_counter()
    with pytest.raises(QuotientError, match="not invertible"):
        hol_order((1, 1009), 1009**2, 1009)
    assert time.perf_counter() - t0 < 1.0
    with pytest.raises(QuotientError, match="not positive"):
        hol_order((1, 1), 0, 2)
    assert hol_order((5, 0), 1, 2) == 1


def test_hol_order_needs_a_prime_power_modulus_for_units():
    # translations need no phi(N), so p is not consulted
    assert hol_order((2, 1), 36, 6) == 18
    for modulus, p in [(36, 6), (25, 7), (25, 1), (12, 2), (9, 9)]:
        with pytest.raises(QuotientError, match="not a power of the prime"):
            hol_order((1, 5 if modulus % 5 else 7), modulus, p)


def test_hol_order_large_modulus():
    N = 1009**3
    assert hol_order((1, 1), N, 1009) == N
    assert hol_order((1009, 1), N, 1009) == 1009**2
    # 1 + 1009 has order 1009^2 mod 1009^3; with c = 1 the translation
    # part s = ((1 + 1009)^(1009^2) - 1) / 1009 has valuation 2
    assert hol_order((0, 1 + 1009), N, 1009) == 1009**2
    assert hol_order((1, 1 + 1009), N, 1009) == 1009**3


def test_hol_order_factors_only_p_minus_1():
    # P is an 89-bit prime with P - 1 = 2 * 3 * 5 * 17 * 23 * 89 * 353 *
    # 397 * 683 * 2113 * 2931542417; factoring N = P^2 itself would take
    # Pollard rho about 2^44 steps
    P = 2**89 - 1
    t0 = time.perf_counter()
    assert hol_order((0, P**2 - 1), P**2, P) == 2
    assert hol_order((0, P - 1), P**2, P) == 2 * P
    # 2 has order 89 mod P and 89 P mod P^2, since 2^89 = P + 1
    assert hol_order((1, 2), P**2, P) == 89 * P
    assert time.perf_counter() - t0 < 1.0
    x, ident = (1, 2), (0, 1)
    assert hol_pow(x, 89 * P, P**2) == ident
    assert hol_pow(x, 89, P**2) != ident and hol_pow(x, P, P**2) != ident


# -- verify_cert on malformed certificates -------------------------------------


def _tampered(p, k, **changes):
    g = subdivide_loops(bs_graph(2, 3))
    doc = construct_cycle_quotient(g, p, k, target_vertex="v1").to_json()
    for key, value in changes.items():
        if key in ("modulus", "prime"):
            doc[key] = value
        elif key == "epsilon":
            doc["epsilon"].update(value)
        else:
            doc["images"][key] = value
    return g, QuotientCert.from_json(doc)


@pytest.mark.parametrize(
    "p, k, gen, image",
    [
        (5, 1, "t_e1b", [0, 5]),
        (5, 1, "a_v1", [1, 5]),
        (1009, 2, "a_v1", [1, 1009]),
        (1009, 2, "t_e1b", [0, 0]),
    ],
)
def test_verify_reports_non_unit_image(p, k, gen, image):
    g, cert = _tampered(p, k, **{gen: image})
    t0 = time.perf_counter()
    rep = verify_cert(g, set(cert.tree), cert)
    assert time.perf_counter() - t0 < 1.0
    assert rep == {
        "valid": False,
        "orders": {},
        "order_formula_ok": False,
        "failing_relator": f"{gen}: unit part {image[1]} is not invertible mod {p ** k}",
    }


@pytest.mark.parametrize(
    "changes",
    [
        {"modulus": 0},
        {"modulus": -25},
        {"modulus": 50},
        {"prime": 1},
        {"prime": 0},
        {"prime": 7},
        {"modulus": 36, "prime": 6},
    ],
)
def test_verify_reports_modulus_not_a_prime_power(changes):
    g, cert = _tampered(5, 2, **changes)
    rep = verify_cert(g, set(cert.tree), cert)
    assert rep == {
        "valid": False,
        "orders": {},
        "order_formula_ok": False,
        "failing_relator": f"modulus {cert.modulus} is not a power of the prime {cert.prime}",
    }


def test_verify_computes_no_order_after_a_failing_relator():
    # a legitimate certificate at a 121-bit prime P = 2ab + 1 with a, b
    # 60-bit primes, so factoring P - 1 would take Pollard rho about 2^30
    # steps; tampered to a unit part u != 1, the relators fail first
    a, b = 965332480657837951, 962520965718444029
    P = 2 * a * b + 1
    g, cert = _tampered(P, 2, a_v1=[1, 2])
    t0 = time.perf_counter()
    rep = verify_cert(g, set(cert.tree), cert)
    assert time.perf_counter() - t0 < 1.0
    assert not rep["valid"] and rep["orders"] == {} and rep["failing_relator"]


def test_verify_unit_image_order():
    # one vertex, no relators: any unit image is a homomorphism, and its
    # order needs only P - 1 factored, not N = P^2
    g = GbsGraph(("v0",), ())
    P = 2**89 - 1
    cert = QuotientCert(
        modulus=P**2,
        prime=P,
        images={"a_v0": (1, 2)},
        claimed_orders={"v0": 89 * P},
        tree=(),
        kind="balanced",
    )
    t0 = time.perf_counter()
    rep = verify_cert(g, set(), cert)
    assert time.perf_counter() - t0 < 1.0
    assert rep["valid"] and rep["orders"] == {"v0": 89 * P}


@pytest.mark.parametrize(
    "changes",
    [{"epsilon": {"v1": -(10**9)}}, {"epsilon": {"v1": 7}}],
)
def test_verify_reports_bad_order_formula_data(changes):
    g, cert = _tampered(5, 2, **changes)
    rep = verify_cert(g, set(cert.tree), cert)
    assert rep["valid"] and not rep["order_formula_ok"]


def test_verify_reports_missing_epsilon():
    g = subdivide_loops(bs_graph(2, 3))
    doc = construct_cycle_quotient(g, 5, 2, target_vertex="v1").to_json()
    del doc["epsilon"]["v1"]
    rep = verify_cert(g, set(doc["tree"]), QuotientCert.from_json(doc))
    assert rep["valid"] and not rep["order_formula_ok"]


# -- target claims -------------------------------------------------------------

# changes to the first certificate of classify_bs(2, 3): modulus 25 at the
# prime 5, target vertex:v1 of order 25, tree edge e1a = v1 -> v1_e1_mid
# with labels (3, 1), so a_v1^3 has order 25 too
TARGET_TAMPERS = [
    ({"target_order": 125}, "target vertex:v1 has image order 25, not 125"),
    ({"target": "edge:e1a", "target_order": 5}, "target edge:e1a has image order 25, not 5"),
    ({"target_order": 50}, "target order 50 is not a power of the prime 5"),
    ({"target_order": 0}, "target order 0 is not a power of the prime 5"),
    ({"target": "vertex:nonexistent"}, "unknown target vertex 'nonexistent'"),
    ({"target": "edge:nonexistent"}, "unknown target edge 'nonexistent'"),
    ({"target": "v1"}, "unknown target 'v1'"),
    ({"target": None, "target_order": 125}, "no vertex image has the target order 125"),
    ({"target_order": None}, "target vertex:v1 has no target order"),
]


@pytest.mark.parametrize("changes, reason", TARGET_TAMPERS)
def test_verify_checks_the_target_claim(changes, reason):
    g = subdivide_loops(bs_graph(2, 3))
    cert = construct_cycle_quotient(g, 5, 2, target_vertex="v1")
    assert verify_cert(g, set(cert.tree), cert)["valid"]
    rep = verify_cert(g, set(cert.tree), dataclasses.replace(cert, **changes))
    assert not rep["valid"] and rep["failing_relator"] == reason


@pytest.mark.parametrize("changes", [changes for changes, _ in TARGET_TAMPERS])
def test_self_audit_checks_the_target_claim(changes):
    verdict = classify_bs(2, 3)
    first, *rest = verdict.certificates
    assert first.cert.to_json()["target"] == "vertex:v1" and self_audit(verdict)
    tampered = dataclasses.replace(first, cert=dataclasses.replace(first.cert, **changes))
    assert not self_audit(dataclasses.replace(verdict, certificates=(tampered, *rest)))


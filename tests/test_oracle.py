from __future__ import annotations

import functools
import itertools
import math
import time

import numpy as np
import pytest

from gbsep import (
    Edge,
    GbsGraph,
    OracleError,
    OrderSpectrum,
    bs_graph,
    canonical_presentation,
    check_topology_prediction,
    enumerate_metacyclic_quotients,
    enumerate_perm_quotients,
    isocracy_locus,
    spanning_tree,
)
from gbsep.arith import factorize
from gbsep.oracle import MAX_N_CAP, _class_representative, _partitions, _perm_order


def loop_presentation(n, m):
    return canonical_presentation(bs_graph(n, m), set())


def edge_presentation(l0, l1):
    """Two vertices joined by one edge: generators a_v0, a_v1."""
    g = GbsGraph(("v0", "v1"), (Edge("e0", "v0", "v1", l0, l1),))
    return canonical_presentation(g, spanning_tree(g))


# -- brute-force references: every candidate composed or tried in full -------
# Both run the whole candidate set at once as the rows of one array.


def _stepped_powers(rows, k):
    """Each row (a permutation) to the power k, by |k| compositions."""
    step = rows if k >= 0 else np.argsort(rows, axis=1)
    out = np.broadcast_to(np.arange(rows.shape[1]), rows.shape)
    for _ in range(abs(k)):
        out = np.take_along_axis(step, out, axis=1)
    return out


def reference_perm_spectrum(pres, d):
    """Every relator composed in full and compared with the identity, for
    class representatives times all of S_d."""
    gens = pres.generators
    everything = np.array(list(itertools.permutations(range(d))))
    orders = np.array([_perm_order(t) for t in itertools.permutations(range(d))])
    identity = np.arange(d)
    achieved = {g: set() for g in gens}
    for a in [_class_representative(pt) for pt in _partitions(d)]:
        assign = dict(zip(gens, (np.tile(a, (len(everything), 1)), everything)))
        ok = np.ones(len(everything), dtype=bool)
        for rel in pres.relators:
            acc = np.broadcast_to(identity, everything.shape)
            for gen, e in rel:
                acc = np.take_along_axis(acc, _stepped_powers(assign[gen], e), axis=1)
            ok &= (acc == identity).all(axis=1)
        if ok.any():
            achieved[gens[0]].add(_perm_order(a))
        if len(gens) == 2:
            achieved[gens[1]] |= set(orders[ok].tolist())
    return OrderSpectrum("permutation", {g: frozenset(o) for g, o in achieved.items()}, {"degree": d}, True)


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


@functools.cache
def _stepped_unit_order(u, N):
    acc, o = u, 1
    while acc != 1 % N:
        acc = acc * u % N
        o += 1
    return o


def reference_metacyclic_orders(n, m, N_cap):
    """[(a orders, t orders) of the solutions mod N] for N = 1 .. N_cap:
    every (x, u) pair tried, as in metacyclic_solutions, and unit orders by
    stepping."""
    out = []
    for N in range(1, N_cap + 1):
        x = np.arange(N)
        units = np.array([u for u in range(1, N + 1) if math.gcd(u, N) == 1])
        solves = (units[:, None] * (m * x % N) - n * x) % N == 0  # rows u, columns x
        out.append(
            (
                {N // math.gcd(int(v), N) for v in x[solves.any(axis=0)]},
                {_stepped_unit_order(int(u) % N, N) for u in units[solves.any(axis=1)]},
            )
        )
    return out


def reference_metacyclic_spectrum(per_modulus, N_cap):
    a_orders = set().union(*(a for a, _ in per_modulus[:N_cap]))
    t_orders = set().union(*(t for _, t in per_modulus[:N_cap]))
    return OrderSpectrum(
        "metacyclic", {"a": frozenset(a_orders), "t": frozenset(t_orders)}, {"n_cap": N_cap}, True
    )


LABELS = [x for x in range(-8, 13) if x]


@pytest.mark.parametrize("d", range(1, 6))
def test_perm_matches_reference_on_bs_grid(d):
    for n in LABELS:
        for m in LABELS:
            pres = loop_presentation(n, m)
            assert enumerate_perm_quotients(pres, d) == reference_perm_spectrum(pres, d), (n, m)


@pytest.mark.parametrize("d", range(3, 6))
def test_perm_matches_reference_on_tree_edges(d):
    for l0 in [x for x in range(-6, 7) if x]:
        for l1 in [x for x in range(-6, 7) if x]:
            pres = edge_presentation(l0, l1)
            assert enumerate_perm_quotients(pres, d) == reference_perm_spectrum(pres, d), (l0, l1)


def test_perm_matches_reference_at_degree_6():
    pres = loop_presentation(4, -6)
    spectrum = enumerate_perm_quotients(pres, 6)
    assert spectrum == reference_perm_spectrum(pres, 6)
    assert spectrum.orders["a_v1"] == {1, 2, 5}


@pytest.mark.parametrize(
    "pres",
    # loops use t^1 and t^-1 only; an edge with |lambda_1| >= 2 powers the
    # second generator by a general exponent
    [loop_presentation(9, 10), loop_presentation(12, 12), loop_presentation(-11, 12), edge_presentation(6, -4)],
    ids=["loop-9-10", "loop-12-12", "loop--11-12", "edge-6--4"],
)
def test_perm_matches_reference_at_degree_6_on_benchmark_labels(pres):
    assert enumerate_perm_quotients(pres, 6) == reference_perm_spectrum(pres, 6)


@pytest.mark.parametrize("n", [x for x in range(-12, 13) if x])
def test_metacyclic_matches_reference_on_grid(n):
    for m in [x for x in range(-12, 13) if x]:
        per_modulus = reference_metacyclic_orders(n, m, 70)
        for cap in (40, 70):
            expect = reference_metacyclic_spectrum(per_modulus, cap)
            assert enumerate_metacyclic_quotients(n, m, cap) == expect, (m, cap)


def _carmichael(N):
    """The exponent of (Z/N)^x: every divisor of it is a unit order mod N."""
    out = 1
    for p, k in factorize(N).items():
        out = math.lcm(out, 2 ** (k - 2) if p == 2 and k >= 3 else p ** (k - 1) * (p - 1))
    return out


def _divisors(e):
    return {r for r in range(1, e + 1) if e % r == 0}


@pytest.mark.parametrize("n, m", [(2, 3), (4, -6), (-5, 7), (6, 10), (1, 1), (-9, -9)])
def test_closed_forms_match_solutions(n, m):
    # the two facts enumerate_metacyclic_quotients rests on, modulus by modulus
    for N in range(1, 61):
        solutions = metacyclic_solutions(n, m, N)
        hit = {N // math.gcd(x, N) for _, x, _ in solutions}
        assert hit == {o for o in _divisors(N) if math.gcd(n, o) == math.gcd(m, o)}, N
        units = [u % N for u in range(1, N + 1) if math.gcd(u, N) == 1]
        assert {_stepped_unit_order(u, N) for _, _, u in solutions} == _divisors(_carmichael(N)), N
        assert {_stepped_unit_order(u, N) for u in units} == _divisors(_carmichael(N)), N


@pytest.mark.parametrize("n, m", [(2, 3), (-4, 6), (12, 12)])
def test_metacyclic_max_cap_under_a_second(n, m):
    start = time.perf_counter()
    spectrum = enumerate_metacyclic_quotients(n, m, MAX_N_CAP)
    assert time.perf_counter() - start < 1.0
    assert spectrum.orders["a"] == {o for o in range(1, MAX_N_CAP + 1) if math.gcd(n, o) == math.gcd(m, o)}
    exponents = {_carmichael(N) for N in range(1, MAX_N_CAP + 1)}
    assert spectrum.orders["t"] == set().union(*map(_divisors, exponents))


def test_perm_degree_7_under_a_second():
    start = time.perf_counter()
    spectrum = enumerate_perm_quotients(loop_presentation(11, 12), 7)
    assert time.perf_counter() - start < 1.0
    assert spectrum.orders == {"a_v1": {1, 5, 7}, "t_e1": {1, 2, 3, 4, 5, 6, 7, 10, 12}}


def test_metacyclic_cap_400_under_a_second():
    start = time.perf_counter()
    spectrum = enumerate_metacyclic_quotients(2, 3, 400)
    assert time.perf_counter() - start < 1.0
    # x of order o solves the relation for some unit iff gcd(2, o) == gcd(3, o)
    assert spectrum.orders["a"] == {o for o in range(1, 401) if math.gcd(o, 6) == 1}
    exponents = {_carmichael(N) for N in range(1, 401)}
    assert spectrum.orders["t"] == {r for e in exponents for r in range(1, e + 1) if e % r == 0}


def test_metacyclic_cap_1_is_the_trivial_quotient():
    # C_1 and its one unit: both images have order 1
    assert enumerate_metacyclic_quotients(-4, 6, 1).orders == {"a": {1}, "t": {1}}


@pytest.mark.parametrize("d", [0, -1])
def test_perm_rejects_degree_below_one(d):
    with pytest.raises(OracleError, match="below 1"):
        enumerate_perm_quotients(loop_presentation(2, 3), d)


@pytest.mark.parametrize("cap", [0, -3])
def test_metacyclic_rejects_cap_below_one(cap):
    with pytest.raises(OracleError, match="below 1"):
        enumerate_metacyclic_quotients(2, 3, cap)


@pytest.mark.parametrize("n, m", [(0, 3), (2, 0)])
def test_metacyclic_rejects_one_zero_label(n, m):
    # either zero label is refused, not only both
    with pytest.raises(OracleError, match="nonzero"):
        enumerate_metacyclic_quotients(n, m, 10)


def test_partitions_count():
    # partition numbers p(1..7) = 1, 2, 3, 5, 7, 11, 15
    for d, expect in zip(range(1, 8), (1, 2, 3, 5, 7, 11, 15)):
        assert len(list(_partitions(d))) == expect


def test_perm_order():
    assert _perm_order((1, 2, 0, 4, 3)) == 6  # 3-cycle x 2-cycle


def test_perm_bs23():
    spectrum = enumerate_perm_quotients(loop_presentation(2, 3), 6)
    orders = spectrum.orders["a_v1"]
    assert spectrum.exhaustive
    assert 1 in orders and 5 in orders
    assert all(o % 2 and o % 3 for o in orders)


def test_perm_bs24_realizes_torsion():
    spectrum = enumerate_perm_quotients(loop_presentation(2, 4), 5)
    assert 2 in spectrum.orders["a_v1"]


def test_perm_bs11_unconstrained():
    spectrum = enumerate_perm_quotients(loop_presentation(1, 1), 3)
    assert spectrum.orders["a_v1"] == frozenset({1, 2, 3})


def test_perm_rejects_many_generators():
    from conftest import theta_graph
    from gbsep import spanning_tree

    theta = theta_graph([(2, 2)] * 3)
    pres = canonical_presentation(theta, spanning_tree(theta))
    with pytest.raises(OracleError, match="metacyclic oracle or reduce"):
        enumerate_perm_quotients(pres, 4)


def test_metacyclic_bs23():
    spectrum = enumerate_metacyclic_quotients(2, 3, 30)
    orders = spectrum.orders["a"]
    assert {1, 5, 7, 25}.issubset(orders)
    assert all(o % 2 and o % 3 for o in orders)


def test_metacyclic_solution_witnesses():
    assert (7, 3, 3) in metacyclic_solutions(2, 3, 7)  # 3*(3*3) = 27 = 2*3 + ... mod 7
    assert any(u == 9 for (_, x, u) in metacyclic_solutions(2, 3, 25) if x == 1)


def test_metacyclic_bs11_all_admissible():
    sols = metacyclic_solutions(1, 1, 6)
    # every residue is admissible with the trivial unit
    assert {(6, x, 1) for x in range(6)}.issubset(sols)


def test_prediction_check_bs23():
    g = bs_graph(2, 3)
    spectrum = enumerate_metacyclic_quotients(2, 3, 60)
    rep = check_topology_prediction(g, spectrum, isocracy_locus(2, 3), 60)
    assert rep["sound"] and not rep["violations"]
    assert rep["realized"][5] == [5, 25]
    assert 7 in rep["realized"]


def test_prediction_check_torsion_cap():
    g = bs_graph(2, 4)
    spectrum = enumerate_perm_quotients(loop_presentation(2, 4), 5)
    rep = check_topology_prediction(g, spectrum, isocracy_locus(2, 4), 120)
    assert rep["sound"]
    assert rep["torsion_cap"] == {2: 1}
    assert rep["torsion_achieved"][2] == 1


def test_prediction_check_bs610():
    g = bs_graph(6, 10)
    spectrum = enumerate_metacyclic_quotients(6, 10, 60)
    rep = check_topology_prediction(g, spectrum, isocracy_locus(6, 10), 60)
    assert rep["sound"]
    assert all(o % 3 and o % 5 for o in spectrum.orders["a"])


def test_prediction_realized_powers_divide_an_order():
    # 5 and 25 divide an order and 125 divides none; an order of 1 or 2
    # would count every power if the test were a remainder of 1 or a
    # quotient of 0
    from gbsep import OrderSpectrum

    spectrum = OrderSpectrum("permutation", {"a": frozenset({1, 2, 10, 25})}, {"degree": 25}, True)
    rep = check_topology_prediction(bs_graph(2, 3), spectrum, isocracy_locus(2, 3), 125)
    assert rep["realized"] == {5: [5, 25]}


def test_prediction_requires_exhaustive():
    from gbsep import OrderSpectrum

    fake = OrderSpectrum("metacyclic", {"a": frozenset({1})}, {"n_cap": 5}, False)
    with pytest.raises(OracleError, match="exhaustive"):
        check_topology_prediction(bs_graph(2, 3), fake, isocracy_locus(2, 3), 5)


def test_spectrum_json():
    spectrum = enumerate_metacyclic_quotients(2, 3, 10)
    doc = spectrum.to_json()
    assert doc["family"] == "metacyclic"
    assert doc["orders"]["a"] == sorted(spectrum.orders["a"])
    assert doc["exhaustive"] is True

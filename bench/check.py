"""Independent checks of gbsep outputs.

Nothing here imports gbsep.  Valuations, primality, graph reduction, the
balance walk, holomorph arithmetic and linear algebra mod p are the
checker's own, so a fault in gbsep cannot pass by agreeing with itself.

Graphs are plain dicts ``{"vertices": [...], "edges": [[id, src, dst,
l0, l1], ...]}``: the format of certificate JSON and of the benchmark's
generated inputs.  Every check raises ``CheckError`` on a wrong output.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

import numpy as np


class CheckError(AssertionError):
    pass


def require(cond, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


# -- arithmetic ---------------------------------------------------------------


def valuation(x: int, p: int) -> int:
    x, k = abs(x), 0
    while x % p == 0:
        x //= p
        k += 1
    return k


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases (exact below 3.3e24)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    require(n < 3 * 10**24, f"{n} is beyond the checker's exact primality range")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def small_prime_factors(x: int) -> list[int]:
    """Prime divisors of a small positive x, by trial division."""
    out, d = [], 2
    while d * d <= x:
        if x % d == 0:
            out.append(d)
            while x % d == 0:
                x //= d
        d += 1
    if x > 1:
        out.append(x)
    return out


def isocratic(n: int, m: int) -> bool:
    """Every prime of gcd(n, m) divides n and m equally often.

    With g = gcd(n, m), a prime dividing g more often in n than in m
    divides both g and n/g, so no factoring is needed."""
    g = math.gcd(n, m)
    return math.gcd(n // g, g) == 1 and math.gcd(m // g, g) == 1


def is_power_of(x: int, p: int) -> bool:
    return x >= 1 and p ** valuation(x, p) == x


# -- graphs -------------------------------------------------------------------


def betti(graph) -> int:
    return len(graph["edges"]) - len(graph["vertices"]) + 1


def bfs_tree(graph) -> set[str]:
    """BFS spanning tree from the first vertex, scanning edges in stored
    order and skipping loops: the tree gbsep's canonical presentation of
    a module certificate refers to."""
    adj = {v: [] for v in graph["vertices"]}
    for eid, s, t, _, _ in graph["edges"]:
        if s != t:
            adj[s].append((eid, t))
            adj[t].append((eid, s))
    root = graph["vertices"][0]
    seen, tree, queue = {root}, set(), deque([root])
    while queue:
        v = queue.popleft()
        for eid, w in adj[v]:
            if w not in seen:
                seen.add(w)
                tree.add(eid)
                queue.append(w)
    return tree


def _check_spanning_tree(graph, tree: set[str]) -> None:
    ids = {e[0] for e in graph["edges"]}
    require(tree <= ids, "tree names unknown edges")
    require(len(tree) == len(graph["vertices"]) - 1, "tree has the wrong size")
    parent = {v: v for v in graph["vertices"]}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for eid, s, t, _, _ in graph["edges"]:
        if eid in tree:
            a, b = find(s), find(t)
            require(a != b, "tree contains a cycle")
            parent[a] = b


def _bridges(vertices, edges: dict) -> set[str]:
    """Cut edges by one iterative lowlink DFS (parallel edges are kept
    apart by id, loops never cut)."""
    adj = {v: [] for v in vertices}
    for eid, (s, t, _, _) in edges.items():
        if s != t:
            adj[s].append((t, eid))
            adj[t].append((s, eid))
    disc, low, out = {}, {}, set()
    for root in vertices:
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        stack = [(root, None, iter(adj[root]))]
        while stack:
            v, via, it = stack[-1]
            for w, eid in it:
                if eid == via:
                    continue
                if w in disc:
                    low[v] = min(low[v], disc[w])
                else:
                    disc[w] = low[w] = len(disc)
                    stack.append((w, eid, iter(adj[w])))
                    break
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] > disc[u]:
                        out.add(via)
    return out


def reduce_graph(graph):
    """Collapse bridges with an index-1 end until none is left.

    Merging the index-1 end into the other end scales that end's other
    labels by the far label.  Contracting a bridge leaves every other
    edge's bridge status alone and indices only grow, so one worklist of
    the initial bridges suffices."""
    vertices = set(graph["vertices"])
    edges = {e[0]: list(e[1:]) for e in graph["edges"]}
    inc = {v: set() for v in vertices}
    for eid, (s, t, _, _) in edges.items():
        inc[s].add(eid)
        inc[t].add(eid)
    for eid in _bridges(graph["vertices"], edges):
        s, t, l0, l1 = edges[eid]
        if abs(l0) == 1:
            gone, keep, scale = s, t, l1 * (1 if l0 > 0 else -1)
        elif abs(l1) == 1:
            gone, keep, scale = t, s, l0 * (1 if l1 > 0 else -1)
        else:
            continue
        del edges[eid]
        inc[s].discard(eid)
        inc[t].discard(eid)
        for f in inc.pop(gone):
            fs, ft, f0, f1 = edges[f]
            if fs == gone:
                fs, f0 = keep, f0 * scale
            if ft == gone:
                ft, f1 = keep, f1 * scale
            edges[f] = [fs, ft, f0, f1]
            inc[keep].add(f)
        vertices.discard(gone)
    return {
        "vertices": sorted(vertices),
        "edges": [[eid, *rest] for eid, rest in edges.items()],
    }


def is_pure_cycle(graph) -> bool:
    deg = {v: 0 for v in graph["vertices"]}
    for _, s, t, _, _ in graph["edges"]:
        deg[s] += 1
        deg[t] += 1
    return betti(graph) == 1 and all(d == 2 for d in deg.values())


def cycle_products(graph, steps=None) -> tuple[int, int]:
    """(n, m): products of the indices at the tail and at the head of each
    step around a closed walk; the walk defaults to the graph's one cycle."""
    edges = {e[0]: e for e in graph["edges"]}
    if steps is None:
        steps = _walk_cycle(graph)
    n = m = 1
    at = None
    for eid, fwd in steps:
        _, s, t, l0, l1 = edges[eid]
        tail, head, out, inc = (s, t, l0, l1) if fwd else (t, s, l1, l0)
        require(at is None or at == tail, "cycle steps do not join up")
        at = head
        n, m = n * abs(out), m * abs(inc)
    start = edges[steps[0][0]]
    require(at == (start[1] if steps[0][1] else start[2]), "cycle does not close")
    return n, m


def _walk_cycle(graph):
    start = graph["edges"][0]
    steps, used, v = [(start[0], True)], {start[0]}, start[2]
    while v != start[1]:
        for eid, s, t, _, _ in graph["edges"]:
            if eid not in used and v in (s, t):
                fwd = s == v
                steps.append((eid, fwd))
                used.add(eid)
                v = t if fwd else s
                break
    return steps


def is_balanced(graph) -> bool:
    """Multiplicative potential along a spanning forest: balanced iff every
    edge closes at ratio one."""
    adj = {v: [] for v in graph["vertices"]}
    for e in graph["edges"]:
        adj[e[1]].append(e)
        adj[e[2]].append(e)
    root = graph["vertices"][0]
    pot = {root: Fraction(1)}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for _, s, t, l0, l1 in adj[v]:
            if s == v and t not in pot:
                pot[t] = pot[v] * Fraction(abs(l1), abs(l0))
                queue.append(t)
            elif t == v and s not in pot:
                pot[s] = pot[v] * Fraction(abs(l0), abs(l1))
                queue.append(s)
    return all(pot[s] * abs(l1) == pot[t] * abs(l0) for _, s, t, l0, l1 in graph["edges"])


def expected_verdict(graph) -> dict:
    """separable, cd_abstract, cd_profinite and, where the case name is
    pinned down by the README's trichotomy, the case."""
    r = reduce_graph(graph)
    if not r["edges"]:
        return {"separable": True, "cd_abstract": 1, "cd_profinite": 1, "case": "TreeDegenerate"}
    if is_pure_cycle(r):
        n, m = cycle_products(r)
        if math.gcd(n, m) == 1 or n == m:
            return {"separable": True, "cd_abstract": 2, "cd_profinite": 2, "case": "CycleCoprime"}
        if not isocratic(n, m):
            return {"separable": False, "cd_abstract": 2, "cd_profinite": "infinite", "case": "NonIsocratic"}
        return {"separable": False, "cd_abstract": 2, "cd_profinite": 2, "case": "IsocraticNotCoprime"}
    if is_balanced(r):
        return {"separable": True, "cd_abstract": 2, "cd_profinite": 2, "case": "Balanced"}
    # the name of this case is not part of the check
    return {"separable": False, "cd_abstract": 2, "cd_profinite": "unknown", "case": None}


def relators(graph, tree: set[str]):
    """The canonical presentation's relators as (generator, exponent) words:
    a_s^l0 a_d^-l1 on tree edges, t_e a_s^l0 t_e^-1 a_d^-l1 elsewhere."""
    out = []
    for eid, s, t, l0, l1 in graph["edges"]:
        if eid in tree:
            out.append(((f"a_{s}", l0), (f"a_{t}", -l1)))
        else:
            te = f"t_{eid}"
            out.append(((te, 1), (f"a_{s}", l0), (te, -1), (f"a_{t}", -l1)))
    return out


def generators(graph, tree: set[str]) -> list[str]:
    return [f"a_{v}" for v in graph["vertices"]] + [
        f"t_{e[0]}" for e in graph["edges"] if e[0] not in tree
    ]


# -- holomorph quotients ------------------------------------------------------


def _hol_mul(x, y, n):
    return ((x[0] + x[1] * y[0]) % n, x[1] * y[1] % n)


def _hol_pow(x, k, n):
    if k < 0:
        uinv = pow(x[1], -1, n)
        x, k = ((-uinv * x[0]) % n, uinv), -k
    out = (0, 1)
    while k:
        if k & 1:
            out = _hol_mul(out, x, n)
        x = _hol_mul(x, x, n)
        k >>= 1
    return out


def check_quotient(graph, cert: dict, want_prime=None, want_k=None) -> None:
    """A holomorph quotient certificate: every relator evaluates to the
    identity, every vertex image is a translation whose order N/gcd(c, N)
    is the claimed one, and the target fibre has order p^k."""
    N, p = cert["modulus"], cert["prime"]
    require(is_prime(p), f"certificate prime {p} is not prime")
    require(N > 1 and is_power_of(N, p), f"modulus {N} is not a power of {p}")
    if want_prime is not None:
        require(p == want_prime, f"prime {p}, asked for {want_prime}")
    tree = set(cert["tree"])
    _check_spanning_tree(graph, tree)
    images = {g: (int(c), int(u)) for g, (c, u) in cert["images"].items()}
    require(set(images) == set(generators(graph, tree)), "generator set mismatch")
    for g, (c, u) in images.items():
        require(0 <= c < N and 0 < u < N and math.gcd(u, N) == 1, f"bad image of {g}")
    ident = (0, 1)
    for rel in relators(graph, tree):
        acc = ident
        for g, e in rel:
            acc = _hol_mul(acc, _hol_pow(images[g], e, N), N)
        require(acc == ident, f"relator {rel} is not satisfied")
    orders = {}
    for v in graph["vertices"]:
        c, u = images[f"a_{v}"]
        require(u == 1, f"vertex image of {v} is not a translation")
        orders[v] = N // math.gcd(c, N)
    require(orders == {v: int(o) for v, o in cert["claimed_orders"].items()}, "claimed orders differ")
    target, order = cert.get("target"), cert["target_order"]
    require(is_power_of(order, p), f"target order {order} is not a power of {p}")
    if want_k is not None:
        require(order == p**want_k, f"target order {order}, asked for {p}^{want_k}")
    if target is None:
        require(cert["kind"] == "torsion" and N == p == order, "torsion certificate is not onto C_p")
        require(p in orders.values(), "no fibre maps onto C_p")
    elif target.startswith("vertex:"):
        require(orders[target[7:]] == order, f"target {target} has order {orders[target[7:]]}")
    else:
        require(target.startswith("edge:"), f"unknown target {target}")
        _, s, _, l0, _ = next(e for e in graph["edges"] if e[0] == target[5:])
        c = images[f"a_{s}"][0] * l0
        require(N // math.gcd(c, N) == order, f"target {target} has the wrong order")
    if cert.get("epsilon"):
        l = valuation(N, p)
        for v in graph["vertices"]:
            require(orders[v] == p ** max(l - cert["epsilon"][v], 0), "order formula fails")
    if cert["kind"] == "cycle":
        n, m = cycle_products(graph)
        require(valuation(n, p) == valuation(m, p), f"{p} is outside the isocracy locus")
    elif cert["kind"] == "balanced":
        require(is_balanced(graph), "balanced certificate on an unbalanced graph")
    else:
        require(cert["kind"] == "torsion", f"unknown certificate kind {cert['kind']}")
        n, m = cycle_products(graph)
        a, b = valuation(n, p), valuation(m, p)
        require(a and b and a != b, f"torsion certificate at {p} on an isocratic cycle")


# -- F_p modules --------------------------------------------------------------


def _dtype(p: int, d: int):
    return np.int64 if d * (p - 1) ** 2 < 2**62 else object


def rank_mod(a: np.ndarray, p: int) -> int:
    a = a.copy() % p
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        a[r + 1 :] = (a[r + 1 :] - np.outer(a[r + 1 :, c], a[r])) % p
        r += 1
    return r


def _inverse_mod(a: np.ndarray, p: int) -> np.ndarray:
    d = a.shape[0]
    aug = np.hstack([a % p, np.eye(d, dtype=a.dtype)])
    for c in range(d):
        nz = np.flatnonzero(aug[c:, c])
        require(nz.size > 0, "module action is singular")
        i = c + int(nz[0])
        if i != c:
            aug[[c, i]] = aug[[i, c]]
        aug[c] = aug[c] * pow(int(aug[c, c]), -1, p) % p
        col = aug[:, c].copy()
        col[c] = 0
        aug = (aug - np.outer(col, aug[c])) % p
    return aug[:, d:]


def _pow_and_sum(a: np.ndarray, k: int, p: int):
    """(a^k, 1 + a + ... + a^(k-1)) mod p for k >= 0, by doubling."""
    d = a.shape[0]
    power = np.eye(d, dtype=a.dtype)
    total = np.zeros((d, d), dtype=a.dtype)
    for bit in bin(k)[2:]:
        total = (total + power @ total) % p
        power = power @ power % p
        if bit == "1":
            total = (total + power) % p
            power = power @ a % p
    return power, total


def module_cohomology(graph, module: dict, tree: set[str]) -> tuple[int, int, int]:
    """(h0, h1, h2) from the cochain complex M -> M^gens -> M^rels of the
    presentation 2-complex, which is aspherical for a GBS group.

    d1 is the Fox-derivative matrix: the letter x^e at prefix P adds
    P (1 + x + ... + x^(e-1)) for e > 0 and -P x^-1 (1 + ... + x^-(|e|-1))
    for e < 0 to the block of x.  Each relator must also act trivially."""
    p, d = int(module["prime"]), int(module["dim"])
    require(is_prime(p), f"module prime {p} is not prime")
    dt = _dtype(p, d)
    eye = np.eye(d, dtype=dt)
    gens = generators(graph, tree)
    acts = {g: np.array(m, dtype=dt).reshape(d, d) % p for g, m in module.get("actions", {}).items()}
    require(set(acts) <= set(gens), "module acts by an unknown generator")
    col = {g: i for i, g in enumerate(gens)}
    rels = relators(graph, tree)
    inverses = {}
    d1 = np.zeros((len(rels) * d, len(gens) * d), dtype=dt)
    for i, rel in enumerate(rels):
        prefix = eye
        for g, e in rel:
            a = acts.get(g, eye)
            if e < 0:
                if g not in inverses:
                    inverses[g] = _inverse_mod(a, p)
                power, total = _pow_and_sum(inverses[g], -e, p)
                fox = (-(inverses[g] @ total)) % p
            else:
                power, total = _pow_and_sum(a, e, p)
                fox = total
            j = col[g]
            block = d1[i * d : (i + 1) * d, j * d : (j + 1) * d]
            block[:] = (block + prefix @ fox) % p
            prefix = prefix @ power % p
        require(np.array_equal(prefix, eye), f"relator {rel} does not act trivially")
    d0 = np.vstack([(acts.get(g, eye) - eye) % p for g in gens])
    require(not ((d1 @ d0) % p).any(), "d1 d0 is not zero")
    r0, r1 = rank_mod(d0, p), rank_mod(d1, p)
    h0 = d - r0
    h1 = len(gens) * d - r1 - r0
    h2 = len(rels) * d - r1
    return h0, h1, h2


def _fixed_dim(module: dict) -> int:
    """Dimension of the space fixed by every generator, eliminated apart
    from the cochain complex."""
    p, d = int(module["prime"]), int(module["dim"])
    mats = [np.array(m, dtype=_dtype(p, d)).reshape(d, d) for m in module.get("actions", {}).values()]
    if not mats:
        return d
    stacked = np.vstack([(m - np.eye(d, dtype=m.dtype)) % p for m in mats])
    return d - rank_mod(stacked, p)


def licensed_primes(graph):
    """Membership test for the fibre topology of the profinite side, or
    None where the theory pins none down."""
    if is_balanced(graph):
        return lambda p: True
    if is_pure_cycle(graph):
        n, m = cycle_products(graph)
        if isocratic(n, m):
            return lambda p: valuation(n, p) == valuation(m, p)
    return None


def check_module(graph, module: dict, claims: dict) -> None:
    h0, h1, h2 = module_cohomology(graph, module, bfs_tree(graph))
    require(h0 - h1 + h2 == 0, f"Euler characteristic {h0 - h1 + h2} is not 0")
    require(h0 == _fixed_dim(module), "h0 is not the dimension of the fixed space")
    require(h2 >= claims.get("h2_abstract_ge", 0), f"abstract h2 = {h2} below the claim")
    if "h2_profinite" in claims or "h2_profinite_ge" in claims:
        licensed = licensed_primes(graph)
        require(licensed is not None, "profinite claim outside the licensed regimes")
        prof = h2 if licensed(int(module["prime"])) else 0
        if "h2_profinite" in claims:
            require(prof == claims["h2_profinite"], f"profinite h2 = {prof}, claimed {claims['h2_profinite']}")
        require(prof >= claims.get("h2_profinite_ge", 0), "profinite h2 below the claim")


# -- verdicts -----------------------------------------------------------------


EVIDENCE = {
    "TreeDegenerate": set(),
    "CycleCoprime": {"quotient"},
    "Balanced": {"quotient"},
    "NonIsocratic": {"quotient"},
    "IsocraticNotCoprime": {"module", "quotient"},
    None: {"module", "unbalance"},
}


def check_verdict(doc: dict, graph, expect: dict | None = None) -> None:
    """A verdict document (``Verdict.to_json()`` plus ``self_audit``)
    against the input graph.  ``expect`` holds values known by
    construction; they must agree with the computed ones."""
    want = expected_verdict(graph)
    if expect is not None:
        require(all(want[k] == v for k, v in expect.items()), f"construction {expect} vs computed {want}")
    for key in ("separable", "cd_abstract", "cd_profinite"):
        require(doc[key] == want[key], f"{key} = {doc[key]!r}, expected {want[key]!r}")
    if want["case"] is not None:
        require(doc["case"] == want["case"], f"case {doc['case']}, expected {want['case']}")
    require(doc["self_audit"] is True, "self_audit is not True")
    kinds = {c["kind"] for c in doc["certificates"]}
    require(kinds == EVIDENCE[want["case"]], f"certificate kinds {sorted(kinds)}")
    for c in doc["certificates"]:
        g = c["graph"]
        require(betti(g) == betti(graph), "certificate graph has another first Betti number")
        if c["kind"] == "quotient":
            check_quotient(g, c["quotient"])
        elif c["kind"] == "module":
            check_module(g, c["module"], c["claims"])
        else:
            n, m = cycle_products(g, [(eid, fwd) for eid, fwd in c["claims"]["cycle"]])
            require(n != m, "unbalance certificate names a balanced cycle")


def check_spectrum(doc: dict, n: int, m: int, bound: dict) -> None:
    """An oracle order spectrum for BS(n, m): no fibre order carries a
    prime off the isocracy locus, torsion primes stay within
    min(nu_p(n), nu_p(m)), and metacyclic searches realise every prime
    power up to the cap whose prime divides neither label."""
    require(doc["exhaustive"] is True and doc["bound"] == bound, "search bound or exhaustiveness differ")
    fibre = set()
    for gen, orders in doc["orders"].items():
        require(1 in orders, f"trivial image missing for {gen}")
        if gen.startswith("a"):
            fibre |= set(orders)
    for o in fibre:
        for p in small_prime_factors(o):
            a, b = valuation(n, p), valuation(m, p)
            if a and b and a != b:
                require(valuation(o, p) <= min(a, b), f"order {o} breaks the torsion cap at {p}")
            else:
                require(a == b, f"order {o} carries {p}, outside the isocracy locus")
    if "n_cap" in bound:
        for p in range(2, bound["n_cap"] + 1):
            if n % p and m % p and is_prime(p):
                q = p
                while q <= bound["n_cap"]:
                    require(q in fibre, f"order {q} is not realised")
                    q *= p

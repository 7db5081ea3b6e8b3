"""Inputs and operations of the four workloads.

Every workload is a list of passes; a pass is a fixed list of operations
built from the run's seed.  Passes repeat the same families and sizes;
random graphs and random primes are drawn afresh for each pass, and every
graph is renamed with its vertex and edge orders shuffled, so no whole
input reaches the program twice in a run.
An operation is a timed call plus an untimed check of its output by
``check.py``, which shares no code with gbsep.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import check
import gbsep
from gbsep import cli
from gbsep.graphs import canonical_presentation


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    prepare: Callable[[], None] | None = None  # untimed, just before run


# -- graph specs --------------------------------------------------------------
# A spec is the checker's graph format: {"vertices": [...], "edges": [[id,
# src, dst, l0, l1], ...]}.


def to_graph(spec) -> gbsep.GbsGraph:
    return gbsep.GbsGraph(tuple(spec["vertices"]), tuple(gbsep.Edge(*e) for e in spec["edges"]))


def to_text(spec) -> str:
    lines = [f"vertex {v}" for v in spec["vertices"]]
    for eid, s, t, l0, l1 in spec["edges"]:
        lines.append(f"loop {eid} {s} {l0} {l1}" if s == t else f"edge {eid} {s} {t} {l0} {l1}")
    return "\n".join(lines) + "\n"


def disguise(spec, rng: random.Random, tag: str):
    """Rename vertices and edges and shuffle both orders.  Edges keep their
    orientation: reversing edges of an isocratic cycle trips a fault in
    build_isocratic_witness (see CHANGES.md)."""
    vs = list(spec["vertices"])
    rng.shuffle(vs)
    name = {v: f"{tag}v{i}" for i, v in enumerate(vs)}
    es = list(spec["edges"])
    rng.shuffle(es)
    edges = [[f"{tag}e{i}", name[s], name[t], l0, l1] for i, (_, s, t, l0, l1) in enumerate(es)]
    return {"vertices": [name[v] for v in vs], "edges": edges}


def loop_spec(n: int, m: int):
    """BS(n, m) as the loop gbsep's ``bs n m`` shorthand stores."""
    return {"vertices": ["v1"], "edges": [["e1", "v1", "v1", m, n]]}


def cycle_spec(labels):
    s = len(labels)
    return {
        "vertices": [f"v{i}" for i in range(s)],
        "edges": [[f"e{i}", f"v{i}", f"v{(i + 1) % s}", a, b] for i, (a, b) in enumerate(labels)],
    }


def _signed(rng, x):
    return x if rng.random() < 0.5 else -x


def random_graph(rng: random.Random, max_vertices=6, max_label=9, extra_edges=3):
    """A random tree plus a few chords (loops and parallel edges allowed);
    the shape of the test suite's random graphs."""
    nv = rng.randint(1, max_vertices)
    verts = [f"v{i}" for i in range(nv)]
    edges = []

    def lab():
        return _signed(rng, rng.randint(1, max_label))

    for i in range(1, nv):
        edges.append([f"e{len(edges)}", verts[rng.randrange(i)], verts[i], lab(), lab()])
    for _ in range(rng.randint(0, extra_edges)):
        edges.append([f"e{len(edges)}", rng.choice(verts), rng.choice(verts), lab(), lab()])
    return {"vertices": verts, "edges": edges}


def _verdict_doc(verdict, audit):
    doc = verdict.to_json()
    doc["self_audit"] = audit
    return doc


def classify_op(kind, spec, expect=None) -> Op:
    """classify_gbs + self_audit on the graph of a spec."""
    g = to_graph(spec)

    def run():
        v = gbsep.classify_gbs(g)
        return v, gbsep.self_audit(v)

    return Op(kind, run, lambda out: check.check_verdict(_verdict_doc(*out), spec, expect))


# -- cli_corpus ---------------------------------------------------------------

CORPUS_RANDOM = 200
BS_RANGE = range(1, 31)
LEAF_INDEX_CAP = 30


def left_out(spec) -> bool:
    """Random graphs the corpus leaves out, because of two faults that
    CHANGES.md records: the graph reduces to an isocratic, non-coprime
    cycle whose edges do not all point the same way round (the witness
    construction can fail an internal assertion), or the reduced graph
    has a leaf whose index exceeds LEAF_INDEX_CAP (the leaf witness is a
    dense module of that dimension, 30 s at 336)."""
    r = check.reduce_graph(spec)
    degree = {v: 0 for v in r["vertices"]}
    for _, s, t, _, _ in r["edges"]:
        degree[s] += 1
        degree[t] += 1
    for _, s, t, l0, l1 in r["edges"]:
        if (degree[s] == 1 and abs(l0) > LEAF_INDEX_CAP) or (degree[t] == 1 and abs(l1) > LEAF_INDEX_CAP):
            return True
    if not r["edges"] or not check.is_pure_cycle(r):
        return False
    n, m = check.cycle_products(r)
    coherent = sorted(e[1] for e in r["edges"]) == sorted(r["vertices"])
    return not coherent and check.isocratic(n, m) and n != m and math.gcd(n, m) > 1


def cli_corpus(rng: random.Random, passes: int, workdir: str, tracer=None, warm=False):
    """Each pass: CORPUS_RANDOM fresh random graphs and all of BS(n, m),
    1 <= n, m <= 30, renamed.  Each graph is written to the input file
    just before its timed call.  The file lives in memory (memfd), so
    disk writes and their flushes add no noise; where memfd is missing it
    is a file in ``workdir``."""
    bs = [loop_spec(n, m) for n in BS_RANGE for m in BS_RANGE]
    if warm:
        bs = rng.sample(bs, 20)
    if hasattr(os, "memfd_create"):
        fd = os.memfd_create("gbsep-input")
        path = f"/proc/self/fd/{fd}"
    else:
        path = os.path.join(workdir, "input.gbs")
        fd = os.open(path, os.O_RDWR | os.O_CREAT)
    out = []
    for i in range(passes):
        corpus = []
        while len(corpus) < (20 if warm else CORPUS_RANDOM):
            spec = random_graph(rng)
            if not left_out(spec):
                corpus.append(spec)
        ops = [_cli_op("cli random", fd, path, disguise(g, rng, f"{'w' * warm}c{i}"), tracer) for g in corpus]
        ops += [_cli_op("cli bs", fd, path, disguise(g, rng, f"{'w' * warm}c{i}"), tracer) for g in bs]
        out.append(ops)
    return out


def _cli_op(kind, fd, path, spec, tracer) -> Op:
    data = to_text(spec).encode()

    def prepare():
        os.ftruncate(fd, 0)
        os.pwrite(fd, data, 0)

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["classify", path, "--json"])
        text = buf.getvalue()
        if tracer is not None:
            tracer.add("cli.output_bytes", len(text))
        return code, text

    def verify(out):
        code, text = out
        check.require(code == 0, f"exit code {code}")
        check.check_verdict(json.loads(text), spec)

    return Op(kind, run, verify, prepare)


# -- large_graphs -------------------------------------------------------------


def pendant_cycle(rng, s: int):
    """A cycle of s vertices, each with one pendant edge of index 1 at the
    leaf.  Four cycle edges carry (2|3, 5|7), the rest (1, 1), so the
    reduced cycle has coprime products and every such graph costs the
    same to classify."""
    labels = [(1, 1)] * s
    for i in rng.sample(range(s), 4):
        labels[i] = (rng.choice((2, 3)), rng.choice((5, 7)))
    spec = cycle_spec([(_signed(rng, a), _signed(rng, b)) for a, b in labels])
    for i in range(s):
        spec["vertices"].append(f"p{i}")
        spec["edges"].append([f"f{i}", f"v{i}", f"p{i}", _signed(rng, rng.randint(2, 3)), _signed(rng, 1)])
    return spec


def ladder(rng, rungs: int, broken: bool):
    """A ladder balanced by vertex weights x_v: the edge s -> t carries
    (c x_t, c x_s).  ``broken`` scales the middle rung's label by 5."""
    us = [f"u{i}" for i in range(rungs)]
    ws = [f"w{i}" for i in range(rungs)]
    x = {v: rng.randint(1, 3) for v in us + ws}
    pairs = [(us[i], us[i + 1]) for i in range(rungs - 1)]
    pairs += [(ws[i], ws[i + 1]) for i in range(rungs - 1)]
    pairs += list(zip(us, ws))
    edges = []
    for k, (s, t) in enumerate(pairs):
        c = rng.randint(1, 2)
        edges.append([f"e{k}", s, t, _signed(rng, c * x[t]), _signed(rng, c * x[s])])
    if broken:
        edges[-1 - rungs // 2][4] *= 5
    return {"vertices": us + ws, "edges": edges}


def theta(rng, k: int, broken: bool):
    """k parallel edges with labels (2c, 3c); ``broken`` reverses one ratio."""
    edges = []
    for i in range(k):
        c = rng.randint(1, 3)
        edges.append([f"e{i}", "a", "b", _signed(rng, 2 * c), _signed(rng, 3 * c)])
    if broken:
        e = edges[rng.randrange(k)]
        e[3], e[4] = e[4], e[3]
    return {"vertices": ["a", "b"], "edges": edges}


def tree_with_chords(rng, n: int):
    """A random tree on n vertices, most edges labelled (1, 1), plus two to
    four chords."""
    verts = [f"v{i}" for i in range(n)]

    def lab():
        return _signed(rng, rng.randint(2, 3))

    edges = []
    for i in range(1, n):
        # (1, 1) tree edges collapse without rescaling anything, so labels
        # stay small however many of them merge
        l0, l1 = (_signed(rng, 1), _signed(rng, 1)) if rng.random() < 0.7 else (lab(), lab())
        edges.append([f"e{i}", verts[rng.randrange(i)], verts[i], l0, l1])
    for _ in range(rng.randint(2, 4)):
        a, b = rng.sample(verts, 2)
        edges.append([f"e{len(edges)}", a, b, _signed(rng, rng.randint(1, 3)), _signed(rng, rng.randint(1, 3))])
    return {"vertices": verts, "edges": edges}


def large_graphs(rng: random.Random, passes: int, workdir=None, tracer=None, warm=False):
    """Each pass: the same families and sizes, with fresh labels and shapes."""
    out = []
    for i in range(passes):
        if warm:
            specs = [("pendant_cycle s=10", pendant_cycle(rng, 10)), ("ladder r=4", ladder(rng, 4, False)),
                     ("broken_ladder r=4", ladder(rng, 4, True)), ("theta k=8", theta(rng, 8, False)),
                     ("tree n=20", tree_with_chords(rng, 20))]
        else:
            specs = [(f"pendant_cycle s={s}", pendant_cycle(rng, s)) for s in (25, 45, 60)]
            # four broken_ladder r=20 per pass hold the median and two
            # ladder r=22 the p90 tail, each inside a cluster of operations
            # that cost about the same, rather than between two kinds
            specs += [(f"ladder r={r}", ladder(rng, r, False)) for r in (10, 16, 22, 22)]
            specs += [(f"broken_ladder r={r}", ladder(rng, r, True)) for r in (20, 20, 20, 20, 30, 40)]
            specs += [(f"{'broken_' * b}theta k={k}", theta(rng, k, b)) for k in (60, 120) for b in (False, True)]
            specs += [(f"tree n={n}", tree_with_chords(rng, n)) for n in (20, 30, 40, 80)]
        out.append([classify_op(kind, disguise(base, rng, f"{'w' * warm}g{i}")) for kind, base in specs])
    return out


# -- large_labels -------------------------------------------------------------


def _prime(rng, bits: int, taken: set) -> int:
    while True:
        x = rng.randrange(2 ** (bits - 1), 2**bits) | 1
        if x not in taken and check.is_prime(x):
            taken.add(x)
            return x


ISO = {"separable": False, "cd_profinite": 2, "case": "IsocraticNotCoprime"}
SEP = {"separable": True, "cd_profinite": 2, "case": "CycleCoprime"}
TORSION = {"separable": False, "cd_profinite": "infinite", "case": "NonIsocratic"}

LABEL_BS_POWERS = range(5)  # BS(6r, 10r), r = 7^j
# BS(2q, 3q); four of q = 17 per pass hold the median inside a cluster of
# operations that cost about the same, rather than on the rising costs of
# the kinds around it
LABEL_WITNESS_Q = (5, 7, 11, 13, 17, 17, 17, 17, 19, 23, 29, 31, 37, 41, 43, 47)
# prime sizes of the coprime, equal-product and non-isocratic loops; one
# 32-bit equal-product loop per pass costs about a second in factorize
COPRIME_BITS = (16, 20, 24, 28)
EQUAL_BITS = (16, 20, 24, 28, 32)
TORSION_BITS = (16, 20, 24, 32)


def large_labels(rng: random.Random, passes: int, workdir=None, tracer=None, warm=False):
    powers = range(3) if warm else LABEL_BS_POWERS
    qs = LABEL_WITNESS_Q[:3] if warm else LABEL_WITNESS_Q
    cut = 2 if warm else None
    loops: set = set()  # (n, m) given to classify_bs so far
    out = []
    for i in range(passes):
        taken: set = set()
        ops = []

        def add(kind, n, m, expect):
            ops.append(_label_op(rng, kind, n, m, expect, f"{'w' * warm}l{i}", None if warm else loops))

        for j in powers:
            add(f"bs6r10r r=7^{j}", 6 * 7**j, 10 * 7**j, ISO)
        for q in qs:
            add(f"bs2q3q q={q}", 2 * q, 3 * q, ISO)
        for b in COPRIME_BITS[:cut]:
            a, c, d, e = (_prime(rng, b, taken) for _ in range(4))
            add(f"coprime {b}-bit", a * c, d * e, SEP)
        for b in EQUAL_BITS[:cut]:
            a, c = _prime(rng, b, taken), _prime(rng, b, taken)
            add(f"equal {b}-bit", a * c, a * c, SEP)
        for b in TORSION_BITS[:cut]:
            # a small torsion prime t keeps the C_t certificate cheap
            a, c, d = (_prime(rng, b, taken) for _ in range(3))
            t = rng.choice((2, 3, 5, 7, 11, 13))
            add(f"torsion {b}-bit", t * t * a * c, t * a * d, TORSION)
        out.append(ops)
    return out


def _label_op(rng, kind, n, m, expect, tag, loops) -> Op:
    """BS(n, m) with fresh signs and orientation: through classify_bs on
    the loop when that signed pair is new to the run, otherwise through
    classify_gbs on the two-vertex cycle (m, 1), (1, n) that subdividing
    the loop gives, renamed."""
    n, m = _signed(rng, n), _signed(rng, m)
    if rng.random() < 0.5:
        n, m = m, n
    if loops is None or (n, m) in loops or rng.random() < 0.5:
        spec = disguise(cycle_spec([(m, _signed(rng, 1)), (_signed(rng, 1), n)]), rng, tag)
        return classify_op(kind, spec, expect)
    loops.add((n, m))
    spec = loop_spec(n, m)

    def run():
        v = gbsep.classify_bs(n, m)
        return v, gbsep.self_audit(v)

    return Op(kind, run, lambda out: check.check_verdict(_verdict_doc(*out), spec, expect))


# -- quotient_certs -----------------------------------------------------------

# (p, k) of the cycle-quotient writers: moduli p^k from 10^3 to 10^6
CYCLE_PK = ((2, 10), (31, 2), (37, 2), (11, 3), (3, 7), (7, 4), (13, 3), (101, 2), (23, 3), (211, 2),
            (47, 3), (503, 2), (1009, 2))
BALANCED_PK = ((5, 5), (17, 3), (307, 2))
TORSION_P = (1009, 10007, 100003)
# Operation costs in this workload spread evenly over four decades, so a
# percentile between two kinds jumps between them from run to run.  The
# repeated kinds place the median among three cap-60 searches, the 101^2
# readers and the 17^3 writers (the cheap 37^2, 11^3 and 3^7 writers and
# readers sit below them), and the p90 tail among three degree-6 searches
# and the 503^2 writers.
METACYCLIC_CAPS = (60, 60, 60, 120, 200)
PERM_DEGREES = (5, 6, 6, 6)


def _coprime_to(rng, p, hi=12):
    while True:
        x = rng.randint(1, hi)
        if x % p:
            return _signed(rng, x)


def _cycle_writer_spec(rng, p):
    """A two-vertex cycle with labels prime to p and isocratic products,
    so every power-counting value is 0 and the modulus is p^k."""
    while True:
        labels = [(_coprime_to(rng, p), _coprime_to(rng, p)) for _ in range(2)]
        spec = cycle_spec(labels)
        if check.isocratic(*check.cycle_products(spec)):
            return spec


def _balanced_writer_spec(rng, p):
    """Three parallel edges with one label ratio, all labels prime to p."""
    a, b = _coprime_to(rng, p, 5), _coprime_to(rng, p, 5)
    edges = []
    for i in range(3):
        c = _coprime_to(rng, p, 4)
        edges.append([f"e{i}", "v0", "v1", a * c, b * c])
    return {"vertices": ["v0", "v1"], "edges": edges}


def _torsion_writer_spec(rng, p):
    """A two-vertex cycle with products (p^2 a, p b), a and b prime to p."""
    a, b = _coprime_to(rng, p), _coprime_to(rng, p)
    return cycle_spec([(_signed(rng, p * p * a), _signed(rng, 1)), (_signed(rng, 1), _signed(rng, p * b))])


def quotient_certs(rng: random.Random, passes: int, workdir=None, tracer=None, warm=False):
    cycle_pk = CYCLE_PK[:3] if warm else CYCLE_PK
    balanced_pk = BALANCED_PK[:1] if warm else BALANCED_PK
    torsion_p = TORSION_P[:1] if warm else TORSION_P
    caps = METACYCLIC_CAPS[:1] if warm else METACYCLIC_CAPS
    degrees = PERM_DEGREES[:1] if warm else PERM_DEGREES
    # a metacyclic pair repeats only after 12 passes; permutation searches
    # use labels of four bits, whose powers cost alike, and repeat a pair
    # (under new names) only after four passes
    small = range(13, 15) if warm else range(1, 9)
    pairs = [(n, m) for n in small for m in small]
    rng.shuffle(pairs)
    wide = range(17, 19) if warm else range(9, 13)
    perm_pairs = [(n, m) for n in wide for m in wide]
    rng.shuffle(perm_pairs)
    out = []
    for i in range(passes):
        tag = f"{'w' * warm}q{i}"
        ops = []
        for p, k in cycle_pk:
            spec = disguise(_cycle_writer_spec(rng, p), rng, tag)
            target = spec["vertices"][0]
            ops += _writer_and_reader(
                f"cycle {p}^{k}", spec, p, k,
                lambda g, p=p, k=k, v=target: gbsep.construct_cycle_quotient(g, p, k, target_vertex=v),
            )
        for p, k in balanced_pk:
            spec = disguise(_balanced_writer_spec(rng, p), rng, tag)
            target = spec["vertices"][0]
            ops += _writer_and_reader(
                f"balanced {p}^{k}", spec, p, k,
                lambda g, p=p, k=k, v=target: gbsep.construct_balanced_quotient(g, v, p, k),
            )
        for p in torsion_p:
            spec = disguise(_torsion_writer_spec(rng, p), rng, tag)
            ops += _writer_and_reader(
                f"torsion {p}", spec, p, 1, lambda g, p=p: gbsep.construct_nonisocratic_p_quotient(g, p)
            )
        for j, cap in enumerate(caps):
            n, m = pairs[(len(caps) * i + j) % len(pairs)]
            ops.append(_metacyclic_op(n, m, cap))
        for j, d in enumerate(degrees):
            n, m = perm_pairs[(len(degrees) * i + j) % len(perm_pairs)]
            ops.append(_perm_op(rng, n, m, d, tag))
        out.append(ops)
    return out


def _writer_and_reader(kind, spec, p, k, construct):
    """A constructor call, then verify_cert on its certificate after a JSON
    round trip made outside the timed call."""
    g = to_graph(spec)
    box = {}

    def check_writer(cert):
        doc = cert.to_json()
        check.check_quotient(spec, doc, want_prime=p, want_k=k)
        box["cert"] = gbsep.QuotientCert.from_json(json.loads(json.dumps(doc)))

    def read():
        cert = box.pop("cert")
        return cert, gbsep.verify_cert(g, set(cert.tree), cert)

    def check_reader(out):
        cert, report = out
        check.require(report["valid"] and report["order_formula_ok"], f"verify_cert rejects a sound certificate: {report}")
        check.require(report["orders"] == cert.claimed_orders, "verify_cert orders differ from the claims")

    return [Op(f"{kind} writer", lambda: construct(g), check_writer), Op(f"{kind} reader", read, check_reader)]


def _metacyclic_op(n, m, cap) -> Op:
    return Op(
        f"metacyclic cap={cap}",
        lambda: gbsep.enumerate_metacyclic_quotients(n, m, cap),
        lambda s: check.check_spectrum(s.to_json(), n, m, {"n_cap": cap}),
    )


def _perm_op(rng, n, m, d, tag) -> Op:
    spec = disguise(loop_spec(n, m), rng, tag)
    g = to_graph(spec)
    pres = canonical_presentation(g, gbsep.spanning_tree(g))
    _, _, _, l0, l1 = spec["edges"][0]
    return Op(
        f"perm degree={d}",
        lambda: gbsep.enumerate_perm_quotients(pres, d),
        lambda s: check.check_spectrum(s.to_json(), l1, l0, {"degree": d}),
    )


# seconds one pass takes on a 2-core x86 sandbox (Xeon, 2.0 GHz); a run
# does round(--seconds / PASS_SECONDS) whole passes
PASS_SECONDS = {"cli_corpus": 5.2, "large_graphs": 2.2, "large_labels": 4.0, "quotient_certs": 4.7}

WORKLOADS = {
    "cli_corpus": cli_corpus,
    "large_graphs": large_graphs,
    "large_labels": large_labels,
    "quotient_certs": quotient_certs,
}

"""Pinned outputs on fixed corpora: a change to the arithmetic underneath
must leave every verdict, certificate and cohomology group as it was.

The hashes were computed with the dense int64 linear algebra that the
sparse F_p version replaced; every prime here is small enough for int64
to have been exact.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from conftest import random_graph, witness_cases
from gbsep import FpModule, classify_bs, classify_gbs, cohomology_abstract, self_audit, spanning_tree
from gbsep.graphs import stable_letter

# Balanced verdicts are hashed apart from the rest, so a declared change
# to the Balanced certificate re-pins one hash and leaves the other alone.
VERDICT_HASH = "2cdaeee6fd6d6e0ddafba68d154f595f478e99fe11e90eddba130e89cb95bc4c"
BALANCED_VERDICT_HASH = "ac0df474d7b7cb5064c953a895c3ec1b7470e92b5f00141e3b4335ebaec5ba72"
COHOMOLOGY_HASH = "baa13827e8719584b60ec6799120105a9e24728dc97159206cf6450e98bcd536"


def verdict_corpus():
    """BS(n, m) for nonzero n, m in -14..14, then 1,500 random graphs."""
    for n in range(-14, 15):
        for m in range(-14, 15):
            if n and m:
                yield classify_bs(n, m)
    rng = random.Random(7)
    for _ in range(1500):
        yield classify_gbs(random_graph(rng, max_vertices=5))


def module_corpus():
    """2,010 (graph, module) pairs: 300 random graphs, each with the
    trivial module at 2, 3, 5, 7 and two modules whose stable letters act
    by random scalars; then both isocratic witnesses of every qualifying
    BS(n, m) with 2 <= n, m < 30, and two two-cycles."""
    rng = random.Random(11)
    for _ in range(300):
        g = random_graph(rng, max_vertices=5)
        tree = spanning_tree(g)
        for p in (2, 3, 5, 7):
            yield g, FpModule(p, 1, {})
        for _ in range(2):
            p, d = rng.choice([2, 3, 5, 7]), rng.randint(1, 2)
            # with trivial vertex actions any stable-letter action satisfies the relators
            actions = {}
            for e in g.edges:
                if e.id not in tree:
                    c = rng.randrange(1, p)
                    actions[stable_letter(e.id)] = [[c * (i == j) for j in range(d)] for i in range(d)]
            yield g, FpModule(p, d, actions)
    yield from witness_cases(30)


def _sha(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item.encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def verdict_rows() -> dict[bool, list[str]]:
    """Each corpus verdict's JSON and audit result, keyed by whether it is Balanced."""
    rows = {False: [], True: []}
    for v in verdict_corpus():
        rows[v.case == "Balanced"].append(json.dumps(v.to_json(), sort_keys=True) + str(self_audit(v)))
    return rows


def test_verdicts_byte_identical(verdict_rows):
    rows = verdict_rows[False]
    assert len(rows) == 2002
    assert _sha(rows) == VERDICT_HASH


def test_balanced_verdicts_byte_identical(verdict_rows):
    rows = verdict_rows[True]
    assert len(rows) == 282
    assert _sha(rows) == BALANCED_VERDICT_HASH


def test_cohomology_identical():
    rows = []
    for g, m in module_corpus():
        r = cohomology_abstract(g, spanning_tree(g), m)
        rows.append(json.dumps([r.h0, r.h1, r.h2, r.vertex_h0, r.vertex_h1, r.edge_h0, r.edge_h1]))
    assert len(rows) == 2010
    assert _sha(rows) == COHOMOLOGY_HASH

"""The separability trichotomy for GBS groups, with attached certificates.

For a single cycle with augmentation products (n, m) exactly one of
three cases holds: coprime-or-equal (separable, both cohomological
dimensions 2), isocratic but neither coprime nor equal (not separable,
profinite dimension still 2), or non-isocratic (not separable, the
completion has torsion and infinite cohomological dimension).  General
graphs reduce to the cycle case, the balanced case, or an unbalanced
remainder certified on the abstract side only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .arith import _isocracy_split, factorize, is_isocratic, is_prime, nu_p
from .cohomology import (
    FpModule,
    build_isocratic_witness,
    build_leaf_witness,
    cohomology_abstract,
)
from .graphs import (
    GbsGraph,
    augmentation_products,
    balance_potential,
    bs_graph,
    cycle_basis,
    epsilon_table,
    reduce_graph,
    spanning_tree,
    subdivide_loops,
    the_cycle,
)
from .quotients import (
    QuotientCert,
    construct_balanced_quotient,
    construct_cycle_quotient,
    construct_nonisocratic_p_quotient,
    verify_cert,
)

CASES = (
    "CycleCoprime",
    "Balanced",
    "IsocraticNotCoprime",
    "NonIsocratic",
    "TreeDegenerate",
)

SEPARABLE_CASES = {"CycleCoprime", "Balanced", "TreeDegenerate"}


def _graph_json(g: GbsGraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [[e.id, e.src, e.dst, e.lambda0, e.lambda1] for e in g.edges],
    }


@dataclass(frozen=True)
class Certificate:
    """One attached piece of evidence.

    kind "quotient" carries a QuotientCert; kind "module" carries an
    FpModule with claims about its second cohomology on one or both
    sides; kind "unbalance" carries an offending fundamental cycle.
    ``graph`` is the working graph (reduced, loops subdivided) the
    evidence refers to.
    """

    kind: str
    graph: GbsGraph
    cert: QuotientCert | None = None
    module: FpModule | None = None
    claims: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        doc = {"kind": self.kind, "graph": _graph_json(self.graph), "claims": dict(self.claims)}
        if self.cert is not None:
            doc["quotient"] = self.cert.to_json()
        if self.module is not None:
            doc["module"] = self.module.to_json()
        return doc


@dataclass(frozen=True)
class Verdict:
    separable: bool
    case: str
    cd_abstract: int
    cd_profinite: int | str  # 1, 2, "infinite", or "unknown"
    certificates: tuple[Certificate, ...]
    notes: str

    def __post_init__(self):
        if self.case not in CASES:
            raise ValueError(f"unknown case {self.case!r}")
        if self.separable != (self.case in SEPARABLE_CASES):
            raise ValueError("separability flag inconsistent with case")
        if (self.cd_profinite == "infinite") != (self.case == "NonIsocratic"):
            raise ValueError("infinite profinite dimension iff the non-isocratic case")

    def to_json(self) -> dict:
        return {
            "separable": self.separable,
            "case": self.case,
            "cd_abstract": self.cd_abstract,
            "cd_profinite": self.cd_profinite,
            "certificates": [c.to_json() for c in self.certificates],
            "notes": self.notes,
        }


def classify_bs(n: int, m: int) -> Verdict:
    """Trichotomy for the one-loop group <a, t | a^n = t a^m t^-1>."""
    if n == 0 or m == 0:
        raise ValueError("labels must be nonzero")
    return classify_gbs(bs_graph(n, m))


def classify_gbs(g: GbsGraph) -> Verdict:
    r = reduce_graph(g)
    if not r.edges:
        return Verdict(
            separable=True,
            case="TreeDegenerate",
            cd_abstract=1,
            cd_profinite=1,
            certificates=(),
            notes="graph collapses to a single vertex; the group is infinite "
            "cyclic, which is separable of dimension one on both sides",
        )
    if r.is_cycle_graph():
        return _classify_cycle(r)
    return _classify_general(r)


def _primes():
    """Every prime in increasing order, with no ceiling."""
    return (p for p in itertools.count(2) if is_prime(p))


def _small_locus_primes(n: int, m: int, count: int) -> list[int]:
    """The ``count`` least primes p with nu_p(n) == nu_p(m); every prime
    dividing neither qualifies, so about log2|n*m| + count primes are tried."""
    return list(itertools.islice((p for p in _primes() if nu_p(n, p) == nu_p(m, p)), count))


def _classify_cycle(r: GbsGraph) -> Verdict:
    work = subdivide_loops(r)
    n, m = augmentation_products(work, the_cycle(work))
    g, d = _isocracy_split(n, m)
    if g == 1 or n == m:
        certs = []
        for p in _small_locus_primes(n, m, 2):
            cert = construct_cycle_quotient(
                work, p, 2, target_vertex=min(work.vertices)
            )
            certs.append(Certificate("quotient", work, cert=cert))
        reason = "coprime augmentation products" if g == 1 else (
            "equal augmentation products"
        )
        return Verdict(
            separable=True,
            case="CycleCoprime",
            cd_abstract=2,
            cd_profinite=2,
            certificates=tuple(certs),
            notes=f"cycle with products ({n}, {m}): {reason}; the fibres "
            "carry the full pro-isocracy topology and cohomology matches in "
            "dimension two",
        )
    if math.gcd(g, d) != 1:
        p = min(factorize(math.gcd(g, d)))
        cert = construct_nonisocratic_p_quotient(work, p)
        return Verdict(
            separable=False,
            case="NonIsocratic",
            cd_abstract=2,
            cd_profinite="infinite",
            certificates=(Certificate("quotient", work, cert=cert),),
            notes=f"cycle with products ({n}, {m}): the prime {p} divides "
            "both with unequal multiplicity, so the completion has "
            f"{p}-torsion and infinite cohomological dimension",
        )
    # isocratic, a common factor, unequal products
    q = min(factorize(g))
    p = min(factorize(d))
    witness = build_isocratic_witness(work, p, q)
    certs = [
        Certificate(
            "module",
            work,
            module=witness,
            claims={"h2_abstract_ge": 1, "h2_profinite": 0},
        ),
        Certificate(
            "module",
            work,
            module=build_isocratic_witness(work, q, q),
            claims={"h2_abstract_ge": 1, "h2_profinite_ge": 1},
        ),
        Certificate(
            "quotient",
            work,
            cert=construct_cycle_quotient(work, q, 1, target_vertex=min(work.vertices)),
        ),
    ]
    return Verdict(
        separable=False,
        case="IsocraticNotCoprime",
        cd_abstract=2,
        cd_profinite=2,
        certificates=tuple(certs),
        notes=f"cycle with products ({n}, {m}): isocratic with common factor "
        f"but unequal products; the F_{p} witness module has nonzero "
        "abstract H^2 that the pro-isocracy side cannot see",
    )


def _classify_general(r: GbsGraph) -> Verdict:
    tree = spanning_tree(r)
    _, balanced, witness_cycle = balance_potential(r, tree, r.vertices[0])
    if balanced:
        # one certificate at the largest modulus: each a_v has image order
        # 2^(1 + max eps - eps(v)), even, and the target w order exactly 2
        work = subdivide_loops(r)
        eps = epsilon_table(work, spanning_tree(work), 2, work.vertices[0]).values
        w = max(work.vertices, key=eps.__getitem__)
        cert = construct_balanced_quotient(work, w, 2, 1)
        return Verdict(
            separable=True,
            case="Balanced",
            cd_abstract=2,
            cd_profinite=2,
            certificates=(Certificate("quotient", work, cert=cert),),
            notes="every cycle has equal augmentation products, so the group "
            "induces the full profinite topology on its vertex groups and "
            "cohomology matches in dimension two",
        )
    torsion_notes = []
    for cyc in cycle_basis(r, tree):
        cn, cm = augmentation_products(r, cyc)
        if not is_isocratic(cn, cm):
            torsion_notes.append(
                f"fundamental cycle through {cyc[0][0]} has non-isocratic "
                f"products ({cn}, {cm})"
            )
            break
    if r.betti == 1:
        witness = build_leaf_witness(r, 2)
        module_cert = Certificate(
            "module", r, module=witness, claims={"h2_abstract_ge": 1}
        )
    else:
        indices = math.prod(e.i0 * e.i1 for e in r.edges)
        q = next(p for p in _primes() if indices % p)
        witness = FpModule(q, 1, {})
        module_cert = Certificate(
            "module", r, module=witness, claims={"h2_abstract_ge": r.betti - 1}
        )
    notes = (
        "unbalanced graph that is not a single cycle: the induced topology "
        "on some vertex group is not the full profinite topology, and the "
        "attached module has nonvanishing abstract H^2; the profinite "
        "dimension is not determined here"
    )
    if torsion_notes:
        notes += "; torsion pathway: " + "; ".join(torsion_notes)
    unbalance = Certificate(
        "unbalance", r, claims={"cycle": [list(step) for step in witness_cycle]}
    )
    return Verdict(
        separable=False,
        case="IsocraticNotCoprime",
        cd_abstract=2,
        cd_profinite="unknown",
        certificates=(module_cert, unbalance),
        notes=notes,
    )


def self_audit(verdict: Verdict) -> bool:
    """Re-verify every attached certificate; True iff all of them pass."""
    for c in verdict.certificates:
        if c.kind == "quotient":
            report = verify_cert(c.graph, set(c.cert.tree), c.cert)
            if not report["valid"] or not report["order_formula_ok"]:
                return False
        elif c.kind == "module":
            tree = spanning_tree(c.graph)
            abstract = cohomology_abstract(c.graph, tree, c.module)
            if abstract.h2 < c.claims.get("h2_abstract_ge", 0):
                return False
            if "h2_profinite" in c.claims or "h2_profinite_ge" in c.claims:
                prof = abstract.on_profinite_side(c.graph, tree)
                if "h2_profinite" in c.claims and prof.h2 != c.claims["h2_profinite"]:
                    return False
                if prof.h2 < c.claims.get("h2_profinite_ge", 0):
                    return False
        elif c.kind == "unbalance":
            cyc = tuple((eid, fwd) for eid, fwd in c.claims["cycle"])
            cn, cm = augmentation_products(c.graph, cyc)
            if cn == cm:
                return False
        else:
            return False
    return True

"""Command-line front end.

Subcommands: classify, cohomology, quotient, oracle, epsilon.  Input is
a graph description file or the ``--bs n m`` shorthand.  Exit codes:
0 success, 1 input error, 2 principled refusal (the requested profinite
computation lies outside the licensed regimes).
"""

from __future__ import annotations

import argparse
import json
import sys

from .arith import isocracy_locus, nu_p
from .classify import classify_gbs, self_audit
from .cohomology import (
    FpModule,
    ModuleError,
    RegimeError,
    cohomology_abstract,
    cohomology_profinite,
)
from .graphs import (
    GbsGraph,
    GraphError,
    augmentation_products,
    bs_graph,
    canonical_presentation,
    epsilon_table,
    parse_graph,
    spanning_tree,
    subdivide_loops,
    the_cycle,
)
from .oracle import (
    OracleError,
    check_topology_prediction,
    enumerate_metacyclic_quotients,
    enumerate_perm_quotients,
)
from .quotients import (
    QuotientError,
    construct_balanced_quotient,
    construct_cycle_quotient,
    construct_nonisocratic_p_quotient,
)


def _load_graph(args) -> GbsGraph:
    if args.bs is not None:
        return bs_graph(args.bs[0], args.bs[1])
    if args.input is None:
        raise GraphError("no input: give a file or --bs n m")
    with open(args.input) as fh:
        return parse_graph(fh.read())


def _emit(doc: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        _emit_text(doc)


def _emit_text(doc, indent: str = "") -> None:
    for key, value in doc.items():
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _emit_text(value, indent + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{indent}{key}: ({len(value)} entries)")
            for item in value:
                _emit_text(item, indent + "  ")
                print()
        else:
            print(f"{indent}{key}: {value}")


def _cmd_classify(args) -> int:
    verdict = classify_gbs(_load_graph(args))
    doc = verdict.to_json()
    doc["self_audit"] = self_audit(verdict)
    if not args.json:
        doc["certificates"] = [
            {"kind": c["kind"], "claims": c.get("claims", {})}
            for c in doc["certificates"]
        ]
    _emit(doc, args.json)
    return 0


def _cmd_cohomology(args) -> int:
    g = _load_graph(args)
    with open(args.module) as fh:
        module = FpModule.from_json(json.load(fh))
    tree = spanning_tree(g)
    if args.side == "profinite":
        doc = {"profinite": cohomology_profinite(g, tree, module).to_json()}
    else:
        abstract = cohomology_abstract(g, tree, module)
        doc = {"abstract": abstract.to_json()}
        if args.side == "both":
            try:
                doc["profinite"] = abstract.on_profinite_side(g, tree).to_json()
            except RegimeError as exc:
                doc["profinite"] = {"refused": str(exc)}
    _emit(doc, args.json)
    return 0


def _cmd_quotient(args) -> int:
    g = subdivide_loops(_load_graph(args))
    kind = args.kind
    if kind == "auto":
        if g.is_cycle_graph():
            n, m = augmentation_products(g, the_cycle(g))
            a, b = nu_p(n, args.p), nu_p(m, args.p)
            kind = "torsion" if (a and b and a != b) else "cycle"
        else:
            kind = "balanced"
    if kind == "cycle":
        cert = construct_cycle_quotient(
            g, args.p, args.k, target_vertex=args.vertex, target_edge=args.edge
        )
    elif kind == "torsion":
        if args.vertex or args.edge or args.k != 1:
            raise QuotientError("a torsion quotient takes no --vertex, --edge or -k")
        cert = construct_nonisocratic_p_quotient(g, args.p)
    else:
        if args.edge:
            raise QuotientError("a balanced quotient targets a vertex; --edge is for cycles")
        vertex = args.vertex or g.vertices[0]
        cert = construct_balanced_quotient(g, vertex, args.p, args.k)
    _emit(cert.to_json(), args.json)
    return 0


def _cmd_oracle(args) -> int:
    g = _load_graph(args)
    doc = {}
    spectra = []
    if args.degree is not None:
        pres = canonical_presentation(g, spanning_tree(g))
        spectrum = enumerate_perm_quotients(pres, args.degree)
        doc["permutation"] = spectrum.to_json()
        spectra.append(spectrum)
    if args.ncap is not None:
        if len(g.edges) != 1 or not g.edges[0].is_loop:
            raise OracleError("metacyclic search needs a single-loop input")
        e = g.edges[0]
        spectrum = enumerate_metacyclic_quotients(e.lambda1, e.lambda0, args.ncap)
        doc["metacyclic"] = spectrum.to_json()
        spectra.append(spectrum)
    if not spectra:
        raise OracleError("give --degree and/or --ncap")
    if g.betti == 1:
        n, m = augmentation_products(g, the_cycle(g))
        predicted = isocracy_locus(n, m)
        bound = args.ncap or 720
        doc["prediction"] = {
            "predicted_locus": predicted.to_json(),
            "checks": [
                check_topology_prediction(g, s, predicted, bound) for s in spectra
            ],
        }
    _emit(doc, args.json)
    return 0


def _cmd_epsilon(args) -> int:
    g = _load_graph(args)
    tree = set(args.tree.split(",")) if args.tree else spanning_tree(g)
    base = args.base or g.vertices[0]
    table = epsilon_table(g, tree, args.p, base)
    _emit(
        {
            "prime": table.prime,
            "base": table.base,
            "tree": sorted(table.tree),
            "values": dict(sorted(table.values.items())),
        },
        args.json,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbsep",
        description="Separability and profinite cohomology of GBS groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("input", nargs="?", help="graph description file")
        sp.add_argument("--bs", nargs=2, type=int, metavar=("N", "M"), help="loop shorthand BS(n, m)")
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    sp = sub.add_parser("classify", help="run the separability trichotomy")
    common(sp)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("cohomology", help="cohomology with module coefficients")
    common(sp)
    sp.add_argument("--module", required=True, help="module JSON file")
    sp.add_argument("--side", choices=("abstract", "profinite", "both"), default="both")
    sp.set_defaults(func=_cmd_cohomology)

    sp = sub.add_parser("quotient", help="construct a holomorph quotient certificate")
    common(sp)
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("-k", type=int, default=1)
    sp.add_argument("--vertex")
    sp.add_argument("--edge")
    sp.add_argument("--kind", choices=("auto", "cycle", "balanced", "torsion"), default="auto")
    sp.set_defaults(func=_cmd_quotient)

    sp = sub.add_parser("oracle", help="exhaustive quotient search")
    common(sp)
    sp.add_argument("--degree", type=int, help="permutation search degree")
    sp.add_argument("--ncap", type=int, help="metacyclic modulus cap")
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("epsilon", help="power-counting table")
    common(sp)
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("--base")
    sp.add_argument("--tree", help="comma-separated tree edge ids")
    sp.set_defaults(func=_cmd_epsilon)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RegimeError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (GraphError, QuotientError, OracleError, ModuleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer metrics from run-time wrappers around gbsep's functions.

A timed wrapper records a span; a function's self time is its span minus
the spans of the timed functions it calls.  A counting wrapper only
counts calls, because the functions it wraps (``GbsGraph.edge``,
``is_prime``, ``tree_path``) run up to millions of times per run.
``hol_mul`` runs tens of millions of times, so even a counter would
swamp ``hol_order``'s self time: its calls are worked out instead, from
``hol_order``'s results and ``hol_pow``'s exponents.
Every gbsep module that imported a function with ``from .x import y``
holds its own reference, so a wrapper replaces the function under every
name in every gbsep module that refers to it.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MODULES = ("gbsep", "gbsep.arith", "gbsep.graphs", "gbsep.linalg", "gbsep.cohomology",
           "gbsep.quotients", "gbsep.oracle", "gbsep.classify", "gbsep.cli")

# metric prefix -> the functions whose spans it sums
TIMED = {
    "cli.main": ["cli.main"],
    "graphs.parse_graph": ["graphs.parse_graph"],
    "classify.classify_gbs": ["classify.classify_gbs"],
    "classify.self_audit": ["classify.self_audit"],
    "graphs.reduce_graph": ["graphs.reduce_graph"],
    "graphs.bridges": ["graphs.bridges"],
    "graphs.spanning_tree": ["graphs.spanning_tree"],
    "graphs.cycle_basis": ["graphs.cycle_basis"],
    "graphs.balance_potential": ["graphs.balance_potential"],
    "graphs.epsilon_table": ["graphs.epsilon_table"],
    "graphs.canonical_presentation": ["graphs.canonical_presentation"],
    "arith.factorize": ["arith.factorize"],
    "arith.isocracy_locus": ["arith.isocracy_locus"],
    "quotients.construct": [
        "quotients.construct_cycle_quotient",
        "quotients.construct_balanced_quotient",
        "quotients.construct_nonisocratic_p_quotient",
    ],
    "quotients.verify_cert": ["quotients.verify_cert"],
    "quotients.hol_order": ["quotients.hol_order"],
    "cohomology.build_witness": ["cohomology.build_isocratic_witness", "cohomology.build_leaf_witness"],
    "cohomology.cohomology_abstract": ["cohomology.cohomology_abstract"],
    "cohomology.cohomology_profinite": ["cohomology.cohomology_profinite"],
    "cohomology.norm_element": ["cohomology.norm_element"],
    "linalg.rref": ["linalg.rref"],
    "linalg.mat_pow": ["linalg.mat_pow"],
    "oracle.enumerate_perm_quotients": ["oracle.enumerate_perm_quotients"],
    "oracle.enumerate_metacyclic_quotients": ["oracle.enumerate_metacyclic_quotients"],
}

COUNTED = ["graphs.tree_path", "arith.is_prime"]

def _partitions(d: int) -> int:
    """Number of partitions of d (conjugacy classes of S_d)."""
    ways = [1] + [0] * d
    for part in range(1, d + 1):
        for total in range(part, d + 1):
            ways[total] += ways[total - part]
    return ways[d]


def _candidates(fn_name, args) -> int:
    """Assignments an oracle search examines, computed from its arguments:
    class representatives times all of S_d for a two-generator
    presentation, and every (x, unit) pair for each modulus up to the cap."""
    if fn_name == "oracle.enumerate_perm_quotients":
        pres, d = args
        return _partitions(d) * (math.factorial(d) if len(pres.generators) == 2 else 1)
    cap = args[2]
    return sum(n * sum(1 for u in range(1, n + 1) if math.gcd(u, n) == 1) for n in range(1, cap + 1))


class Tracer:
    def __init__(self):
        self.values = defaultdict(int)
        self._stack: list[float] = []

    def add(self, name: str, value) -> None:
        self.values[name] += value

    def reset(self) -> None:
        self.values.clear()

    def metrics(self) -> dict:
        """Every per_layer metric that BENCHMARK.json lists, in its order."""
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            per_layer = json.load(fh)["per_layer"]
        return {m["name"]: {"value": self.values.get(m["name"], 0), "unit": m["unit"]} for m in per_layer}

    def _after(self, fn_name):
        """What a timed wrapper notes from a call's arguments and result."""
        values = self.values
        if fn_name == "arith.factorize":
            return lambda args, out: self.add("arith.factorize.input_bits", abs(args[0]).bit_length())
        if fn_name == "cohomology.norm_element":
            return lambda args, out: self.add("cohomology.norm_element.terms", abs(args[1]))
        if fn_name == "cohomology.cohomology_abstract":
            def note_dim(args, out):
                values["cohomology.module_dim.max"] = max(values["cohomology.module_dim.max"], args[2].dim)
            return note_dim
        if fn_name == "linalg.rref":
            return lambda args, out: self.add("linalg.rref.cells", out[0].shape[0] * out[0].shape[1] * len(out[1]))
        if fn_name == "quotients.hol_order":
            # one hol_mul per step past the first power
            return lambda args, out: self.add("quotients.hol_mul.calls", out - 1)
        if fn_name == "classify.classify_gbs":
            return lambda args, out: self.add("classify.certificates", len(out.certificates))
        if fn_name.startswith("oracle."):
            return lambda args, out: self.add("oracle.candidates", _candidates(fn_name, args))
        return None

    def _timed(self, metric, fn_name, fn):
        stack, values, perf = self._stack, self.values, time.perf_counter
        after = self._after(fn_name)
        calls, self_s = f"{metric}.calls", f"{metric}.self_s"

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                span = perf() - t0
                values[calls] += 1
                values[self_s] += span - stack.pop()
                if stack:
                    stack[-1] += span
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _counted(self, key, fn):
        values = self.values

        def wrapper(*args, **kwargs):
            values[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hol_pow(self, fn):
        """Count hol_pow's products without wrapping hol_mul: one squaring
        per bit of |k| and one product per set bit, plus the product that
        verify_cert, hol_pow's only caller, makes with the result."""
        values = self.values

        def wrapper(x, k, modulus):
            k_abs = abs(k)
            values["quotients.hol_mul.calls"] += k_abs.bit_length() + k_abs.bit_count() + 1
            return fn(x, k, modulus)

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]

        def replace(name, make):
            mod, attr = name.split(".")
            original = getattr(importlib.import_module(f"gbsep.{mod}"), attr)
            wrapper = make(original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

        for metric, names in TIMED.items():
            for name in names:
                replace(name, lambda fn, metric=metric, name=name: self._timed(metric, name, fn))
        for metric in COUNTED:
            replace(metric, lambda fn, metric=metric: self._counted(f"{metric}.calls", fn))
        replace("quotients.hol_pow", self._hol_pow)
        graph_cls = importlib.import_module("gbsep.graphs").GbsGraph
        graph_cls.__post_init__ = self._counted("graphs.GbsGraph.constructed", graph_cls.__post_init__)
        graph_cls.edge = self._counted("graphs.GbsGraph.edge.calls", graph_cls.edge)

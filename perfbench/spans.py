"""Spans around the program's public functions, installed from outside.

The modules of ``tracehom`` import each other's functions by name, so a
function is wrapped in every module namespace (and on its class) that
binds it.  Each span records its name, its parent span, start and end
time and, for some functions, a count of the work it was handed.  Spans
stay in memory; ``layer_metrics`` turns them into per-layer numbers
after the timed pass.
"""

import sys
import time
from functools import wraps

#: span name -> (module, attribute path, work counter or None).  A work
#: counter maps (args, result) to {counter name: amount}.
TARGETS = {
    "alphabet.validate": ("alphabet", "IndependenceAlphabet.__init__", None),
    "alphabet.cliques": ("alphabet", "enumerate_cliques",
                         lambda args, out: {"listed": len(out)}),
    "msets.validate": ("msets", "PointedMSet.__init__", None),
    "msets.conditions": ("msets", "check_conditions", None),
    "msets.iso": ("msets", "iso_check", None),
    "chains.basis": ("chains", "enumerate_basis", None),
    "chains.boundary": ("chains", "boundary_matrix",
                        lambda args, out: {"nnz": len(out.entries)}),
    "chains.build": ("chains", "build_complex", None),
    "chains.homology": ("chains", "homology", None),
    "simplicial.complex": ("simplicial", "clique_complex", None),
    "simplicial.boundary": ("simplicial",
                            "SimplicialComplex.boundary_matrix", None),
    "simplicial.flagify": ("simplicial", "barycentric_flagification", None),
    "intlinalg.snf": ("intlinalg", "smith_normal_form", lambda args, out: {
        "nnz": len(args[0].entries),
        # cells of the dense copy handed to the kernel; empty and zero
        # matrices never reach it
        "cells": args[0].rows * args[0].cols if args[0].entries else 0}),
    "intlinalg.to_rows": ("intlinalg", "IntegerMatrix.to_rows", None),
    "intlinalg.matmul": ("intlinalg", "IntegerMatrix.__matmul__", None),
    "intlinalg.pair": ("intlinalg", "homology_of_pair", None),
    "intlinalg.group": ("intlinalg", "AbelianGroup.__init__", None),
    "verify.split": ("verify", "check_lemma_split", None),
    "verify.power": ("verify", "check_prop_power", None),
    "verify.main": ("verify", "check_theorem_main", None),
    "verify.aug": ("verify", "check_theorem_aug", None),
    "verify.counterexample": ("verify", "counterexample_report", None),
}


class Tracer:
    """In-memory span recorder.

    ``spans`` holds (name, parent index or -1, start, end, work counts)
    in start order."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, counter=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end, None)
            if counter is not None:
                spans[index] = (name, parent, start, end, counter(args, out))
            return out

        return traced

    def install(self, package):
        """Wrap every TARGETS function wherever ``package`` binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for name, (module, path, counter) in TARGETS.items():
            owner = sys.modules[f"{package}.{module}"]
            attr = path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, counter)
            setattr(owner, attr, wrapper)
            if owner is sys.modules[f"{package}.{module}"]:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)


def aggregate(spans):
    """name -> {"calls", "total_s", "self_s", work counters...}.

    total_s leaves out spans nested inside a span of the same name, so
    recursion is not counted twice; self_s is a span's duration minus
    that of its direct children."""
    child = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for k, (name, parent, start, end, work) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                    "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += end - start - child[k]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][1]
        if ancestor < 0:
            row["total_s"] += end - start
        for key, amount in (work or {}).items():
            row[key] = row.get(key, 0) + amount
    return out


def _get(rows, name, key):
    return rows.get(name, {}).get(key, 0)


def layer_metrics(spans):
    """The per-layer metrics of one traced pass (overhead excluded)."""
    rows = aggregate(spans)
    verify_self = sum(_get(rows, n, "self_s") for n in rows
                      if n.startswith("verify."))
    return {
        "cli.self_s": _get(rows, "cli", "self_s"),
        "alphabet.validate_s": _get(rows, "alphabet.validate", "total_s"),
        "alphabet.cliques_s": _get(rows, "alphabet.cliques", "total_s"),
        "alphabet.cliques_calls": _get(rows, "alphabet.cliques", "calls"),
        "alphabet.cliques_listed": _get(rows, "alphabet.cliques", "listed"),
        "msets.validate_s": _get(rows, "msets.validate", "total_s"),
        "msets.conditions_s": _get(rows, "msets.conditions", "total_s"),
        "msets.iso_s": _get(rows, "msets.iso", "total_s"),
        "chains.basis_s": _get(rows, "chains.basis", "total_s"),
        "chains.boundary_s": _get(rows, "chains.boundary", "total_s"),
        "chains.boundary_nnz": _get(rows, "chains.boundary", "nnz"),
        "chains.build_self_s": _get(rows, "chains.build", "self_s"),
        "chains.homology_calls": _get(rows, "chains.homology", "calls"),
        "simplicial.complex_s": _get(rows, "simplicial.complex", "total_s"),
        "simplicial.boundary_s": _get(rows, "simplicial.boundary",
                                      "total_s"),
        "simplicial.flagify_s": _get(rows, "simplicial.flagify", "total_s"),
        "intlinalg.snf_s": _get(rows, "intlinalg.snf", "total_s"),
        "intlinalg.snf_calls": _get(rows, "intlinalg.snf", "calls"),
        "intlinalg.snf_cells": _get(rows, "intlinalg.snf", "cells"),
        "intlinalg.snf_nnz": _get(rows, "intlinalg.snf", "nnz"),
        "intlinalg.to_rows_s": _get(rows, "intlinalg.to_rows", "total_s"),
        "intlinalg.matmul_s": _get(rows, "intlinalg.matmul", "total_s"),
        "intlinalg.matmul_calls": _get(rows, "intlinalg.matmul", "calls"),
        "intlinalg.pair_self_s": _get(rows, "intlinalg.pair", "self_s"),
        "intlinalg.group_s": _get(rows, "intlinalg.group", "total_s"),
        "intlinalg.group_calls": _get(rows, "intlinalg.group", "calls"),
        "verify.self_s": verify_self,
    }

"""Per-layer tracing from outside the program.

The tracer wraps the public functions of each levitype layer and records a
span per call: name, start, end, parent span and query id.  A wrapped name
is patched in every levitype module that holds it (``engine`` and ``cli``
import ``hermitian_levi_matrix`` from ``levi``, for example), and methods
are patched on their class.  ``uninstall`` restores every original.

Series operations (the ``jets`` layer) run millions of times in a traced
run, so their spans are folded into one aggregate per (query, parent span,
name) instead of one record each; every other layer keeps one record per
call.
Self time is a span's duration minus the time covered by its child spans.
A call made while a span of the same name is open on top of the stack is
not a span of its own: ``a - b`` is one ``jets.add`` although it negates
and adds.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

LAYERS = ("jets", "linalg", "geometry", "disks", "levi", "engine", "parser",
          "cli")

# (span name, module, attribute) for module-level functions.
FUNCTIONS = (
    ("linalg.solve_affine", "linalg", "solve_affine"),
    ("linalg.real_symmetric_signature", "linalg", "real_symmetric_signature"),
    ("geometry.project_to_complex_tangent", "geometry",
     "project_to_complex_tangent"),
    ("geometry.complex_tangent_basis", "geometry", "complex_tangent_basis"),
    ("geometry.covariant_derivative", "geometry", "covariant_derivative"),
    ("geometry.field_jet", "geometry", "field_jet"),
    ("geometry.recenter", "geometry", "recenter"),
    ("disks.propagate_cr_jet", "disks", "propagate_cr_jet"),
    ("disks.compose_phi_u", "disks", "compose_phi_u"),
    ("levi.hermitian_levi_matrix", "levi", "hermitian_levi_matrix"),
    ("levi.classify_point", "levi", "classify_point"),
    ("levi.higher_levi", "levi", "higher_levi"),
    ("engine.type_search", "engine", "type_search"),
    ("engine.cross_validate", "engine", "cross_validate"),
    ("engine.commutation_defect", "engine", "commutation_defect"),
    ("engine.realize_field_from_disk", "engine", "realize_field_from_disk"),
    ("engine.scan_type", "engine", "scan_type"),
    ("parser.parse_expression", "parser", "parse_expression"),
    ("cli.run_command", "cli", "run_command"),
)

# (span name, module, class, method).
METHODS = (
    ("jets.mul", "jets", "TruncatedSeries", "__mul__"),
    ("jets.add", "jets", "TruncatedSeries", "__add__"),
    ("jets.add", "jets", "TruncatedSeries", "__sub__"),
    ("jets.add", "jets", "TruncatedSeries", "__neg__"),
    ("jets.partial", "jets", "TruncatedSeries", "partial"),
    ("jets.compose", "jets", "TruncatedSeries", "compose"),
    ("jets.truncate", "jets", "TruncatedSeries", "truncate"),
    ("jets.inverse", "jets", "TruncatedSeries", "inverse"),
    ("jets.shift", "jets", "TruncatedSeries", "shift"),
    ("geometry.ACStructure", "geometry", "ACStructure", "__init__"),
    ("geometry.ACStructure.apply", "geometry", "ACStructure", "apply"),
)

SPAN_NAMES = tuple(dict.fromkeys(
    [name for name, *_ in METHODS] + [name for name, *_ in FUNCTIONS]))

# Functions whose inputs are fingerprinted to measure repeated work.
DISTINCT = ("levi.hermitian_levi_matrix", "disks.propagate_cr_jet")


def _series_key(s):
    return (s.num_vars, s.cap, tuple(s.terms()))


def _levi_key(args, kwargs):
    m, j = args[0], args[1]
    return (_series_key(m.phi),
            tuple(_series_key(e) for row in j.entries for e in row))


def _transport_key(args, kwargs):
    derivs = tuple(tuple(v) for v in args[0])
    j = args[1]
    order = args[2] if len(args) > 2 else kwargs.get("order")
    if order is None:
        order = len(derivs)
    derivs = derivs[:order]
    zero = tuple(0 for _ in range(2 * j.n))
    derivs += (zero,) * (order - len(derivs))
    return (derivs, id(j), order)


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self):
        self.stack = []        # open frames: [span id, name, child time]
        self.spans = []        # (id, parent, name, query, start, end)
        self.kernel = {}       # (query, parent, name) -> [calls, total, self]
        self.stats = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self.counts = {"jets.mul.pairs": 0, "jets.mul.terms_out": 0,
                       "linalg.solve_affine.cells": 0,
                       "linalg.solve_affine.inconsistent": 0}
        self.distinct_calls = {name: 0 for name in DISTINCT}
        self.distinct_inputs = {name: 0 for name in DISTINCT}
        self._seen = {name: set() for name in DISTINCT}
        self._keep = []        # structures referenced by id() in a query
        self.query = 0
        self._next = 1
        self._patches = []

    # -- queries

    def begin_query(self, query_id):
        self.query = query_id

    def end_query(self):
        for name, seen in self._seen.items():
            self.distinct_inputs[name] += len(seen)
            seen.clear()
        self._keep.clear()

    # -- wrapping

    def wrap(self, name, fn):
        tracer = self
        kernel = name.startswith("jets.")
        count = {
            "jets.mul": tracer._count_mul,
            "linalg.solve_affine": tracer._count_solve,
        }.get(name)
        key = {
            "levi.hermitian_levi_matrix": _levi_key,
            "disks.propagate_cr_jet": _transport_key,
        }.get(name)

        def traced(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            sid = tracer._next
            tracer._next += 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                total = end - start
                own = total - frame[2]
                st = tracer.stats[name]
                st[0] += 1
                st[1] += total
                st[2] += own
                if stack:
                    stack[-1][2] += total
                if kernel:
                    agg = tracer.kernel.setdefault(
                        (tracer.query, parent, name), [0, 0.0, 0.0])
                    agg[0] += 1
                    agg[1] += total
                    agg[2] += own
                else:
                    tracer.spans.append(
                        (sid, parent, name, tracer.query, start, end))
            if count is not None:
                count(args, result)
            if key is not None:
                tracer.distinct_calls[name] += 1
                tracer._seen[name].add(key(args, kwargs))
                if name == "disks.propagate_cr_jet":
                    tracer._keep.append(args[1])
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_mul(self, args, result):
        a, b = args
        size_b = len(b._terms) if hasattr(b, "_terms") else 1
        self.counts["jets.mul.pairs"] += len(a._terms) * size_b
        if hasattr(result, "_terms"):
            self.counts["jets.mul.terms_out"] += len(result._terms)

    def _count_solve(self, args, result):
        a = args[0]
        self.counts["linalg.solve_affine.cells"] += \
            len(a) * (len(a[0]) if a else 0)
        if not result.consistent:
            self.counts["linalg.solve_affine.inconsistent"] += 1

    # -- patching

    def install(self, package="levitype"):
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == package
                                         or k.startswith(package + "."))]
        for name, mod, attr in FUNCTIONS:
            orig = getattr(sys.modules[f"{package}.{mod}"], attr)
            wrapped = self.wrap(name, orig)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._patches.append((module, key, orig))
                        setattr(module, key, wrapped)
        for name, mod, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"{package}.{mod}"], cls_name)
            orig = cls.__dict__[attr]
            self._patches.append((cls, attr, orig))
            setattr(cls, attr, self.wrap(name, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results

    def metrics(self, rounds, scale=1.0):
        """Per-layer metrics, each a per-round average over ``rounds``.

        Times are multiplied by ``scale``, the run's factor to the
        reference machine speed.
        """
        out = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name in SPAN_NAMES:
            calls, total, own = self.stats[name]
            out[f"{name}.calls"] = (calls / rounds, "count")
            out[f"{name}.self_s"] = (own * scale / rounds, "s")
            out[f"{name}.total_s"] = (total * scale / rounds, "s")
            layer_self[name.split(".")[0]] += own
        for name, value in self.counts.items():
            out[name] = (value / rounds, "count")
        for name in DISTINCT:
            calls = self.distinct_calls[name]
            frac = self.distinct_inputs[name] / calls if calls else 0.0
            out[f"{name}.distinct_frac"] = (frac, "ratio")
        for layer, own in layer_self.items():
            out[f"{layer}.self_s"] = (own * scale / rounds, "s")
        return out

    def write(self, path, header):
        """One JSON header line, then one line per span and kernel aggregate."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, parent, name, query, start, end in self.spans:
                fh.write(json.dumps({"span": sid, "parent": parent,
                                     "name": name, "query": query,
                                     "start": start, "end": end}) + "\n")
            for (query, parent, name), (calls, total, own) in \
                    self.kernel.items():
                fh.write(json.dumps({"kernel": name, "parent": parent,
                                     "query": query, "calls": calls,
                                     "total_s": total, "self_s": own}) + "\n")

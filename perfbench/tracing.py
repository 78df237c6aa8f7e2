"""Spans recorded from outside the package, around calls into each layer.

A ``Tracer`` replaces public functions of the package with wrappers that
record a span per call: name, start, end, parent span, and a count read
from the return value.  A function is replaced in every loaded ``mwbs``
module that binds it, so names brought in with ``from X import f`` are
wrapped where they are called.  Nothing is replaced outside ``active()``,
and leaving it restores every attribute.  Spans stay in memory until
``summary`` reduces them and ``write`` stores them.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager
from time import perf_counter


def _table_count(table):
    return (len(table.costs), len(table.costs) - table.costs.count(None))


# (span name, module, attribute, count read from the return value)
FUNCTIONS = (
    ("plane.decode", "plane", "decode_instance", lambda inst: inst.graph.edge_count),
    ("plane.subgraph", "plane", "subgraph_by_edges", None),
    ("plane.certify", "plane", "make_solution", None),
    ("plane.encode", "plane", "canonical_json", None),
    ("kernel.solve", "kernel", "solve_subexponential", None),
    ("kernel.reduce", "kernel", "reduce_to_simple", lambda red: len(red.trace)),
    ("decomposition.build", "decomposition", "build_sphere_cut",
     lambda dec: dec.declared_width),
    ("decomposition.validate", "decomposition", "validate_decomposition", None),
    ("dp.solve", "dp", "solve_dp", None),
    ("dp.leaf", "dp", "leaf_table", None),
    ("dp.join", "dp", "join_tables", _table_count),
    ("oracle.star", "oracle", "star_solve", None),
    ("eptas.run", "eptas", "eptas_max", None),
    ("eptas.run", "eptas", "eptas_min", None),
    ("eptas.split", "eptas", "split_layer_graphs", None),
)

# (span name, module, class, method)
METHODS = (
    ("decomposition.boundary", "decomposition", "RootedDecomposition", "boundary"),
    ("plane.encode", "plane", "Solution", "document"),
)


class Tracer:
    def __init__(self, m):
        self.spans: list[list] = []     # [name, start, end, parent, count]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        for name, mod, attr, count in FUNCTIONS:
            original = getattr(getattr(m, mod), attr)
            wrapper = self._wrap(name, original, count)
            for module in _package_modules():
                for key, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, key, original, wrapper))
        for name, mod, cls_name, attr in METHODS:
            cls = getattr(getattr(m, mod), cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original, self._wrap(name, original, None)))

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                span[1] = start
                stack.pop()
            if count is not None:
                span[4] = count(result)
            return result

        return wrapper

    @contextmanager
    def active(self):
        """Wrap every target for the duration of the block."""
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _wrapper in self._patches:
                setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str):
        """A span recorded by the benchmark itself, such as one whole op."""
        spans, stack = self.spans, self._stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
        stack.append(len(spans))
        spans.append(span)
        span[1] = perf_counter()
        try:
            yield
        finally:
            span[2] = perf_counter()
            stack.pop()

    def patched_attributes(self) -> list[tuple[object, str]]:
        return [(owner, attr) for owner, attr, _o, _w in self._patches]

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, and the counts
        read from return values; plus per-parent call counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _count in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for k, (name, start, end, parent, count) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                        "counts": [], "parents": {}})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[k]
            if count is not None:
                row["counts"].append(count)
            pname = self.spans[parent][0] if parent >= 0 else None
            prow = row["parents"].setdefault(pname, {"calls": 0, "total_s": 0.0})
            prow["calls"] += 1
            prow["total_s"] += end - start
        return out

    def write(self, path):
        """Store every span, one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "mwbs" or name.startswith("mwbs."))]

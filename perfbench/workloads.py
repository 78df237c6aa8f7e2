"""Workload pools, the timed operations, and the checks on their outputs.

A workload is a fixed pool of generated instances whose exact optima are
recorded in ``golden.json``; ``make_golden.py`` writes that file and is the
only place that decides which candidate instances enter a pool.  The
timed operation of every workload starts from the instance JSON text and
ends with the canonical solution JSON text, calling the package only
through module attributes so that a tracer can wrap them.

The package is not imported at module level: ``import_mwbs`` imports it
afresh, which the benchmark times as part of its set-up.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import sys
import types
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = Path(__file__).resolve().parent / "golden.json"

MODULES = ("plane", "decomposition", "dp", "kernel", "eptas", "oracle",
           "generate", "errors")

# the m <= 14 corpus scan of tests/conftest.py::instance_stream
_CORPUS_BIASES = ("1/2", "1/4", "3/4", "1/10")

# five runs per instance keep the pool size odd; see TAIL_PCT in run.py
EPTAS_RUNS = (("max", "1/2"), ("max", "1/3"), ("max", "1/4"), ("min", "1/2"), ("min", "1/3"))


class OpFailure(Exception):
    """An operation returned, but its output is wrong."""


def import_mwbs() -> types.SimpleNamespace:
    """Import the package from this checkout's ``src``, dropping any copy
    already imported, and return its modules by short name."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "mwbs" or n.startswith("mwbs.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {name: importlib.import_module(f"mwbs.{name}") for name in MODULES}
    origin = Path(mods["plane"].__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"mwbs imported from {origin}, not from {SRC}")
    return types.SimpleNamespace(**mods)


# ---------------------------------------------------------------------
# candidate generator parameters per workload

def _gen(n, seed, bias="1/2", density="triangulation", sparse_p="1/2"):
    return {"kind": "gen", "n": n, "seed": seed, "bias": bias,
            "density": density, "sparse_p": sparse_p}


def candidates(workload: str, m) -> list[dict]:
    """Generator parameters of the instances a workload may use, in pool
    order.  ``make_golden.py`` keeps those whose optimum it can certify."""
    if workload == "tri-frontier":
        return [_gen(24, s) for s in range(15)]
    if workload == "corpus-dp":
        return _corpus_scan(m, 35)
    if workload == "planted-large":
        return [{"kind": "planted", "n": n, "seed": s, "stars": 12}
                for s, n in enumerate((400, 500, 600, 700, 800))]
    if workload == "eptas":
        return [_gen(40, s, density="sparse") for s in range(7)]
    raise KeyError(workload)


def _corpus_scan(m, count: int) -> list[dict]:
    out = []
    seed = 0
    while len(out) < count:
        n = 4 + (seed % 5)
        bias = _CORPUS_BIASES[seed % 4]
        if seed % 3 == 0:
            params = _gen(min(n, 6), seed, bias)
        else:
            params = _gen(n, seed, bias, "sparse", "1/2")
        seed += 1
        g = generate(m, params).graph
        if g.is_connected() and 4 <= g.edge_count <= 14:
            out.append(params)
    return out


def generate(m, params: dict):
    if params["kind"] == "planted":
        return m.generate.planted_star_instance(params["n"], params["seed"],
                                                params["stars"])
    return m.generate.gen_instance(m.generate.GenParams(
        n=params["n"], seed=params["seed"],
        orientation_bias=Fraction(params["bias"]),
        density=params["density"], sparse_p=Fraction(params["sparse_p"])))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------
# pools

class PoolItem:
    """One timed operation: an instance document, how to solve it, and
    the recorded exact optimum of the instance."""

    def __init__(self, text: str, golden: dict, run: tuple[str, str] | None):
        self.text = text
        self.golden = golden
        self.run = run            # (variant, epsilon) for the eptas workload
        self.instance = None      # decoded lazily, outside timed regions

    @property
    def label(self) -> str:
        p = self.golden["params"]
        tail = f" eptas-{self.run[0]} eps={self.run[1]}" if self.run else ""
        return f"{p['kind']} n={p['n']} seed={p['seed']}{tail}"


def load_golden() -> dict:
    with open(GOLDEN, "r", encoding="utf-8") as f:
        return json.load(f)


def build_pool(workload: str, m, golden: dict) -> list[PoolItem]:
    """Generate the workload's instance documents from the golden entries
    and check that they are byte for byte the documents the optima were
    recorded for."""
    entries = golden["workloads"][workload]
    pool = []
    for entry in entries:
        text = m.plane.encode_instance(generate(m, entry["params"]))
        if digest(text) != entry["sha256"]:
            raise RuntimeError(
                f"{workload}: generated instance {entry['params']} differs from "
                "the one in golden.json; run perfbench/make_golden.py")
        runs = EPTAS_RUNS if workload == "eptas" else (None,)
        pool.extend(PoolItem(text, entry, run) for run in runs)
    return pool


# ---------------------------------------------------------------------
# timed operations: instance JSON text -> canonical solution JSON text

def _encode(m, solution) -> str:
    return m.plane.canonical_json(solution.document())


def op_subexp(m, item: PoolItem) -> str:
    instance = m.plane.decode_instance(item.text)
    return _encode(m, m.kernel.solve_subexponential(instance))


def op_dp_three_roots(m, item: PoolItem) -> str:
    """The ``mwbs solve --method dp`` path, with the decomposition solver
    run at three root leaves per component; the three optima must agree."""
    instance = m.plane.decode_instance(item.text)
    kept = set()
    for _verts, comp_edges in instance.graph.components():
        if not comp_edges:
            continue
        sub, _vids, eids = m.plane.subgraph_by_edges(instance, comp_edges)
        if m.oracle.is_star(sub.graph) is not None or sub.graph.edge_count < 2:
            sol = m.oracle.star_solve(sub)
        else:
            dec = m.decomposition.build_sphere_cut(sub.graph)
            leaves = sorted(dec.leaf_map)
            sol = m.dp.solve_dp(sub, dec, leaves[0])
            for root in (leaves[len(leaves) // 2], leaves[-1]):
                other = m.dp.solve_dp(sub, dec, root)
                if other.deleted_weight != sol.deleted_weight:
                    raise OpFailure(f"root {root} gives another optimum")
        kept.update(eids[j] for j in sol.kept_edges)
    return _encode(m, m.plane.make_solution(instance, kept, "dp"))


def op_eptas(m, item: PoolItem) -> str:
    """The ``mwbs eptas`` path, reduced to the solution document."""
    instance = m.plane.decode_instance(item.text)
    variant, eps = item.run
    if variant == "max":
        solution, _report = m.eptas.eptas_max(instance, Fraction(eps))
    else:
        deleted, _cost, _report = m.eptas.eptas_min(instance, Fraction(eps))
        kept = set(range(instance.graph.edge_count)) - deleted
        solution = m.plane.make_solution(instance, kept, "eptas-min")
    return _encode(m, solution)


OPS = {
    "tri-frontier": op_subexp,
    "corpus-dp": op_dp_three_roots,
    "planted-large": op_subexp,
    "eptas": op_eptas,
}


# ---------------------------------------------------------------------
# checks, run outside the timed region

def check(m, item: PoolItem, doc_text: str) -> float:
    """Re-check a solution document as ``mwbs validate --solution`` does,
    then compare it with the recorded optimum.  Returns the relative gap
    to the optimum (0 for the exact workloads); raises OpFailure."""
    if item.instance is None:
        item.instance = m.plane.decode_instance(item.text)
    instance = item.instance
    sol = json.loads(doc_text)
    recheck = m.plane.make_solution(instance, set(sol["kept"]), sol["method"])
    fmt = m.plane.format_weight
    if (fmt(recheck.kept_weight) != sol["kept_weight"]
            or fmt(recheck.deleted_weight) != sol["deleted_weight"]
            or list(recheck.certificate) != sol["certificate"]):
        raise OpFailure(f"{item.label}: solution document does not re-check")
    kept = Fraction(sol["kept_weight"])
    deleted = Fraction(sol["deleted_weight"])
    opt_kept = Fraction(item.golden["kept_weight"])
    opt_deleted = Fraction(item.golden["deleted_weight"])
    if item.run is None:
        if kept != opt_kept:
            raise OpFailure(f"{item.label}: kept {kept}, optimum {opt_kept}")
        return 0.0
    variant, eps = item.run
    if variant == "max":
        t = math.ceil(1 / Fraction(eps))
        if not (1 - Fraction(1, t)) * opt_kept <= kept <= opt_kept:
            raise OpFailure(f"{item.label}: kept {kept} outside the guarantee "
                            f"for optimum {opt_kept}")
        return float((opt_kept - kept) / opt_kept) if opt_kept else 0.0
    t = math.ceil(2 / Fraction(eps))
    if not opt_deleted <= deleted <= (1 + Fraction(2, t)) * opt_deleted:
        raise OpFailure(f"{item.label}: deleted {deleted} outside the guarantee "
                        f"for optimum {opt_deleted}")
    return float((deleted - opt_deleted) / opt_deleted) if opt_deleted else 0.0

"""Record the exact optima of every workload pool in ``golden.json``.

Run from the root of the repository:

    python3 perfbench/make_golden.py

Corpus instances (at most 14 edges) get their optimum from the exhaustive
oracle.  Larger instances are recorded only when two solvers agree
exactly: ``solve_subexponential``, and the normal form solved component by
component with ``solve_dp`` over a greedy-sweep decomposition rooted at
its highest leaf (stars included, which the pipeline hands to
``star_solve``).  A candidate on which they disagree is left out of the
pool and reported.
"""

from __future__ import annotations

import json
import sys

from workloads import GOLDEN, candidates, digest, generate, import_mwbs

WORKLOADS = ("tri-frontier", "corpus-dp", "planted-large", "eptas")


def greedy_dp_solution(m, instance):
    red = m.kernel.reduce_to_simple(instance)
    kept = set()
    for _verts, comp_edges in red.instance.graph.components():
        if not comp_edges:
            continue
        sub, _vids, eids = m.plane.subgraph_by_edges(red.instance, comp_edges)
        if sub.graph.edge_count < 2:
            kept.update(eids)          # a lone edge is bimodal
            continue
        dec = m.decomposition.build_sphere_cut(sub.graph, "greedy-sweep")
        sol = m.dp.solve_dp(sub, dec, max(dec.leaf_map))
        kept.update(eids[j] for j in sol.kept_edges)
    return m.plane.make_solution(instance, red.lift(kept), "greedy-dp")


def optimum(m, workload: str, instance):
    """The certified optimum as a Solution, or None when the two solvers
    disagree."""
    if workload == "corpus-dp":
        return m.oracle.brute_force_mwbs(instance), "oracle"
    a = m.kernel.solve_subexponential(instance)
    b = greedy_dp_solution(m, instance)
    if a.kept_weight != b.kept_weight:
        return None, f"subexp {a.kept_weight} != greedy-dp {b.kept_weight}"
    return a, "subexp=greedy-dp"


def main() -> int:
    m = import_mwbs()
    fmt = m.plane.format_weight
    out = {"workloads": {}}
    for workload in WORKLOADS:
        entries = []
        for params in candidates(workload, m):
            instance = generate(m, params)
            sol, how = optimum(m, workload, instance)
            if sol is None:
                print(f"{workload} {params}: left out, {how}", file=sys.stderr)
                continue
            entries.append({
                "params": params,
                "sha256": digest(m.plane.encode_instance(instance)),
                "edges": instance.graph.edge_count,
                "bad_vertices": len(instance.graph.bad_vertices()),
                "kept_weight": fmt(sol.kept_weight),
                "deleted_weight": fmt(sol.deleted_weight),
                "certified_by": how,
            })
            print(f"{workload} n={params['n']} seed={params['seed']}: "
                  f"optimum {fmt(sol.kept_weight)} ({how})", file=sys.stderr)
        out["workloads"][workload] = entries
    with open(GOLDEN, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The mwbs benchmark: seeded workloads solved end to end, checked against
recorded optima, with per-layer times from a separate traced run.

    python3 perfbench/run.py --workload tri-frontier --seed 0 --seconds 20 --trace 0

One process, one thread, closed loop: the next op starts only after the
previous one returned and was checked.  An op runs from the instance JSON
text to the canonical solution JSON text.  Every run solves whole passes
over the workload's pool, each pass in an order drawn from ``--seed``,
until ``--seconds`` have passed and the tail percentile has at least ten
samples beyond it.  Times are reported in reference seconds (see
speed.py): scaled by the machine's speed, measured by a fixed reference
unit run between the timed calls.  The last line of standard output is
one JSON object: with ``--trace 0`` it holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a run in which every op is solved
once plain and once traced, and the two solution documents must be
identical.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import statistics
import sys
from time import perf_counter

from speed import REF_UNIT_S, SpeedMeter
from tracing import Tracer
from workloads import OPS, ROOT, OpFailure, build_pool, check, import_mwbs, load_golden

# Percentile reported as solve_s_tail.  A run is k whole passes over a pool
# of P ops, so its sorted times fall into P groups of k copies, one group
# per pool op.  P is odd and P * pct / 100 ends in or near .5, so both the
# median and this percentile land in the middle of one group, on a typical
# copy of one op, and not on the edge between two groups, where one slow or
# fast copy would move it.  On tri-frontier, p70 fell on the group of an op
# whose median time is 2.5% from the next one's, so their copies mixed and
# the tail spread by 11% across ten runs; p77 (15 * 0.77 = 11.55) falls on
# an op 1.8 times slower than the one below it and 1.5 times faster than
# the one above.
TAIL_PCT = {"tri-frontier": 77, "corpus-dp": 90, "planted-large": 70, "eptas": 90}
TAIL_BEYOND = 10
OP_CAP_S = 30                 # wall-time cap of one op, via SIGALRM
HARD_STOP = 3                 # stop mid-pass after this many times --seconds
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 1.0             # repeat cheap set-ups until this much time is spent
SETUP_MAX_REPEATS = 15
TRACE_DIR = ROOT / ".perfbench_out"


class OpTimeout(Exception):
    """An op passed its wall-time cap."""


def _on_alarm(_signum, _frame):
    raise OpTimeout()


def setup(workload: str):
    """Import the package, generate the workload's instance documents and
    load the golden optima; return the modules, the pool and the time."""
    start = perf_counter()
    m = import_mwbs()
    pool = build_pool(workload, m, load_golden())
    return m, pool, perf_counter() - start


def run_op(m, fn, item):
    """Run one op under the wall-time cap; return (document or None,
    seconds, failure kind or None)."""
    signal.alarm(OP_CAP_S)
    start = perf_counter()
    try:
        return fn(m, item), perf_counter() - start, None
    except OpTimeout:
        kind = "timeout"
    except OpFailure:
        kind = "wrong"
    except m.errors.Error:
        kind = "error"
    except Exception:   # an untyped exception is a result to count, not to stop on
        kind = "crash"
    finally:
        signal.alarm(0)
    return None, perf_counter() - start, kind


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def measure(workload, seed, seconds, trace):
    setups, setup_speed = [], SpeedMeter()
    while (len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_MIN_S) \
            and len(setups) < SETUP_MAX_REPEATS:
        m, pool, took = setup(workload)
        setups.append(took)
        setup_speed.after(took)
    fn = OPS[workload]
    tracer = Tracer(m) if trace else None
    rng = random.Random(seed)
    signal.signal(signal.SIGALRM, _on_alarm)

    speed = SpeedMeter()
    times, plain_s, traced_s, gaps = [], 0.0, 0.0, []
    op_s = []       # plain op seconds, one per attempted op (untraced runs)
    failures = {"wrong": 0, "error": 0, "crash": 0, "timeout": 0}
    attempted = passes = 0
    start = perf_counter()
    deadline, hard = start + seconds, start + HARD_STOP * seconds

    def enough():
        if perf_counter() < deadline:
            return False
        return trace or len(times) * (100 - TAIL_PCT[workload]) >= 100 * TAIL_BEYOND

    while not enough() and perf_counter() < hard:
        for item in rng.sample(pool, len(pool)):
            if perf_counter() >= hard:
                break
            attempted += 1
            busy_from = perf_counter()
            if trace:
                # alternate which of the two solves goes first
                docs = {}
                for traced in ((False, True) if attempted % 2 else (True, False)):
                    if traced:
                        with tracer.active(), tracer.span("op"):
                            docs[True], took_traced, kind = run_op(m, fn, item)
                        traced_s += took_traced
                    else:
                        docs[False], took, kind = run_op(m, fn, item)
                        plain_s += took
                    if kind:
                        break
                if not kind and docs[True] != docs[False]:
                    print(f"traced and plain solution documents differ: {item.label}")
                    kind = "wrong"
                doc = docs.get(False)
            else:
                doc, took, kind = run_op(m, fn, item)
                plain_s += took
                op_s.append(took)
            speed.after(perf_counter() - busy_from)
            if not kind:
                try:
                    gaps.append(check(m, item, doc))
                except OpFailure as exc:
                    print(f"wrong: {exc}")
                    kind = "wrong"
            if kind:
                failures[kind] += 1
                print(f"{kind}: {item.label}")
            else:
                times.append((took, attempted - 1))   # with its speed sample
        else:
            passes += 1
    elapsed = perf_counter() - start

    failed = sum(failures.values())
    print(f"{workload} seed {seed}: {attempted} ops ({passes} whole passes over "
          f"{len(pool)} ops) in {elapsed:.1f} s; failed {failed} {failures}; "
          f"set-up x{len(setups)}")
    if len(times) < 2:
        raise SystemExit("fewer than two ops completed")
    scale = REF_UNIT_S / speed.unit_s
    print(f"reference unit {speed.unit_s * 1e3:.4f} ms on average "
          f"(x{scale:.3f} to reference seconds); wall: {len(times) / plain_s:.3f} "
          f"ops/s, median op {statistics.median(t for t, _ in times):.4f} s, "
          f"median set-up {statistics.median(setups):.4f} s")
    if trace:
        metrics = layer_metrics(tracer, len(times), plain_s, traced_s, gaps,
                                failed / attempted, scale, speed.unit_s)
        tracer.write(TRACE_DIR / f"trace-{workload}-seed{seed}.jsonl")
    else:
        scales = speed.scales()
        ref_times = [t * scales[i] for t, i in times]
        pct = TAIL_PCT[workload]
        tail = percentile(ref_times, pct)
        beyond = sum(1 for t in ref_times if t > tail)
        print(f"solve_s_tail is p{pct} of {len(times)} ops, {beyond} beyond it")
        metrics = {
            "setup_s": (statistics.median(
                t * k for t, k in zip(setups, setup_speed.scales())), "s"),
            "solves_per_s": (len(times) / sum(t * k for t, k in zip(op_s, scales)), "1/s"),
            "solve_s_p50": (statistics.median(ref_times), "s"),
            "solve_s_tail": (tail, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def layer_metrics(tracer, ops, plain_s, traced_s, gaps, failed_ratio, scale,
                  unit_s):
    """Per-op means of the traced spans, keyed by the names in
    BENCHMARK.json; times in reference seconds."""
    rows = tracer.summary()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": [], "parents": {}}

    def row(name):
        return rows.get(name, empty)

    def self_s(name):
        return row(name)["self_s"] * scale / ops

    def calls(name, parent=None):
        r = row(name)
        n = r["calls"] if parent is None else r["parents"].get(parent, {}).get("calls", 0)
        return n / ops

    joins = row("dp.join")["counts"]
    entries = sum(c[0] for c in joins)
    widths = [w for w in row("decomposition.build")["counts"] if w is not None]
    dp_solves = row("dp.solve")["calls"]
    star_comps = calls("oracle.star", "kernel.solve")
    dp_comps = calls("dp.solve", "kernel.solve")
    out = {
        "dp.join_s": (self_s("dp.join"), "s/op"),
        "dp.join_calls": (calls("dp.join"), "count/op"),
        "dp.table_entries": (entries / ops, "count/op"),
        "dp.feasible_ratio": (sum(c[1] for c in joins) / entries if entries else 0.0, "ratio"),
        "dp.leaf_s": (self_s("dp.leaf"), "s/op"),
        "dp.solve_self_s": (self_s("dp.solve"), "s/op"),
        "dp.solve_calls": (calls("dp.solve"), "count/op"),
        "decomposition.build_s": (self_s("decomposition.build"), "s/op"),
        "decomposition.build_calls": (calls("decomposition.build"), "count/op"),
        "decomposition.width_max": (max(widths, default=0), "count"),
        "decomposition.width_sum": (sum(widths) / ops, "count/op"),
        "decomposition.validate_s": (self_s("decomposition.validate"), "s/op"),
        "decomposition.validate_per_dp_solve": (
            row("decomposition.validate")["calls"] / dp_solves if dp_solves else 0.0, "ratio"),
        "decomposition.boundary_s": (self_s("decomposition.boundary"), "s/op"),
        "kernel.reduce_s": (self_s("kernel.reduce"), "s/op"),
        "kernel.rules_fired": (sum(row("kernel.reduce")["counts"]) / ops, "count/op"),
        "kernel.components": (star_comps + dp_comps, "count/op"),
        "kernel.star_components": (star_comps, "count/op"),
        "kernel.dp_components": (dp_comps, "count/op"),
        "kernel.solve_self_s": (self_s("kernel.solve"), "s/op"),
        "oracle.star_s": (self_s("oracle.star"), "s/op"),
        "oracle.star_calls": (calls("oracle.star"), "count/op"),
        "plane.decode_s": (self_s("plane.decode"), "s/op"),
        "plane.subgraph_s": (self_s("plane.subgraph"), "s/op"),
        "plane.certify_s": (self_s("plane.certify"), "s/op"),
        "plane.encode_s": (self_s("plane.encode"), "s/op"),
        "plane.edges": (sum(row("plane.decode")["counts"]) / ops, "count/op"),
        "eptas.subexp_calls": (calls("kernel.solve", "eptas.run"), "count/op"),
        "eptas.subexp_s": (row("kernel.solve")["parents"].get("eptas.run", {})
                           .get("total_s", 0.0) * scale / ops, "s/op"),
        "eptas.split_s": (self_s("eptas.split"), "s/op"),
        "eptas.self_s": (self_s("eptas.run"), "s/op"),
        "eptas.approx_gap": (max(gaps, default=0.0), "ratio"),
        "op.self_s": (self_s("op"), "s/op"),
        "trace.op_s": (row("op")["total_s"] * scale / ops, "s/op"),
        "trace.overhead_ratio": (plain_s / traced_s, "ratio"),
        "failed_ratio": (failed_ratio, "ratio"),
        "machine.ref_unit_s": (unit_s, "s"),
    }
    total = row("op")["total_s"]
    shares = sorted(((r["self_s"] / total, name) for name, r in rows.items()), reverse=True)
    print("self-time shares: " + ", ".join(f"{name} {share:.1%}" for share, name in shares))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(OPS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

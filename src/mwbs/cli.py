"""Command-line interface.

One verb per artifact: gen, validate, stats, decomp build/validate,
solve, kernelize, compress, eptas max/min, bench.  All documents are the
canonical JSON formats of the library; exit status is 0 on success, 1 on
validation failure or infeasibility, 2 on usage errors.  ``validate``
also reads the reports of ``kernelize`` and ``eptas``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import eptas, kernel, oracle
from .decomposition import (
    build_sphere_cut,
    decomposition_from_document,
    validate_decomposition,
)
from .dp import solve_dp
from .errors import Error, FormatError
from .generate import GenParams, gen_instance
from .plane import (
    Instance,
    component_instances,
    decode_instance,
    encode_instance,
    canonical_json,
    cut_exponent,
    excerpt,
    format_weight,
    instance_document,
    instance_from_document,
    make_solution,
    parse_json,
)


def _fraction(text: str) -> Fraction:
    if cut_exponent(text) != text:
        raise argparse.ArgumentTypeError(f"exponent too long: {excerpt(text)}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None


def _load_json(path: str):
    return parse_json(_read(path), path)


def _emit(text: str, out: str | None):
    if out:
        try:
            with open(out, "w", encoding="utf-8") as f:
                f.write(text + "\n")
        except OSError as exc:
            raise FormatError(f"cannot write {out}: {exc}") from None
    else:
        print(text)


def _load_instance(path: str) -> Instance:
    return decode_instance(_read(path))


def _nested(doc, key: str):
    """A report's ``key`` object, or the document itself when it has none."""
    return doc[key] if isinstance(doc, dict) and isinstance(doc.get(key), dict) else doc


def _load_solution(path: str) -> dict:
    doc = _nested(_load_json(path), "solution")
    if not isinstance(doc, dict):
        raise FormatError("solution document must be a JSON object")
    for key in ("kept", "kept_weight", "deleted_weight"):
        if key not in doc:
            raise FormatError(f"solution document lacks {key!r}")
    kept = doc["kept"]
    if not isinstance(kept, list) or any(type(e) is not int for e in kept):
        raise FormatError("solution kept must be a list of edge ids")
    if not isinstance(doc.get("certificate", []), list):
        raise FormatError("solution certificate must be a list")
    return doc


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mwbs",
                                description="maximum weighted bimodal subgraph toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a seeded random instance")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--bias", type=_fraction, default=Fraction(1, 2),
                   help="orientation bias in [0,1]")
    g.add_argument("--wmin", type=_fraction, default=Fraction(1))
    g.add_argument("--wmax", type=_fraction, default=Fraction(9))
    g.add_argument("--density", choices=["triangulation", "sparse"],
                   default="triangulation")
    g.add_argument("--p", type=_fraction, default=Fraction(1, 2),
                   help="chord keep probability for sparse")
    g.add_argument("--out")

    v = sub.add_parser("validate", help="validate an instance document or kernelize report")
    v.add_argument("file")
    v.add_argument("--solution", help="solution document or eptas report to check")

    s = sub.add_parser("stats", help="bad vertices, wedges and sections")
    s.add_argument("file")

    d = sub.add_parser("decomp", help="branch decompositions")
    dsub = d.add_subparsers(dest="decomp_command", required=True)
    db = dsub.add_parser("build")
    db.add_argument("file")
    db.add_argument("--out")
    dv = dsub.add_parser("validate")
    dv.add_argument("file")
    dv.add_argument("decomposition")

    so = sub.add_parser("solve", help="solve an instance")
    so.add_argument("file")
    so.add_argument("--method", choices=["oracle", "dp", "subexp"], default="subexp")
    so.add_argument("--decomposition", help="imported decomposition for --method dp")
    so.add_argument("--out")

    k = sub.add_parser("kernelize", help="reduce to the simple normal form")
    k.add_argument("file")
    k.add_argument("--out")

    c = sub.add_parser("compress", help="compress to all-or-nothing cut classes")
    c.add_argument("file")
    c.add_argument("--no-shrink", action="store_true",
                   help="stop before the class-shrinking rules")
    c.add_argument("--out")

    e = sub.add_parser("eptas", help="approximation schemes")
    e.add_argument("variant", choices=["max", "min"])
    e.add_argument("file")
    e.add_argument("--epsilon", required=True)
    e.add_argument("--out")

    b = sub.add_parser("bench", help="benchmark the solvers on a seeded suite")
    b.add_argument("--suite", choices=["small", "medium"], default="small")
    b.add_argument("--check-oracle", action="store_true")
    b.add_argument("--out")
    return p


def _cmd_gen(args) -> int:
    params = GenParams(n=args.n, seed=args.seed, orientation_bias=args.bias,
                       weight_lo=args.wmin, weight_hi=args.wmax,
                       density=args.density, sparse_p=args.p)
    _emit(encode_instance(gen_instance(params)), args.out)
    return 0


def _cmd_validate(args) -> int:
    instance = instance_from_document(_nested(parse_json(_read(args.file)), "instance"))
    if args.solution:
        sol = _load_solution(args.solution)
        check = make_solution(instance, set(sol["kept"]), sol.get("method", "unknown"))
    result = {"ok": True, "vertices": instance.graph.vertex_count,
              "edges": instance.graph.edge_count,
              "faces": len(instance.graph.faces),
              "bad_vertices": instance.graph.bad_vertices()}
    if args.solution:
        mismatches = []
        if format_weight(check.kept_weight) != sol["kept_weight"]:
            mismatches.append("kept_weight")
        if format_weight(check.deleted_weight) != sol["deleted_weight"]:
            mismatches.append("deleted_weight")
        if list(check.certificate) != list(sol.get("certificate", [])):
            mismatches.append("certificate")
        if mismatches:
            print(json.dumps({"ok": False, "error": "solution mismatch",
                              "fields": mismatches}))
            return 1
        result["solution_ok"] = True
    print(json.dumps(result))
    return 0


def _cmd_stats(args) -> int:
    instance = _load_instance(args.file)
    g = instance.graph
    bad = g.bad_vertices()
    sections = {}
    for v in bad:
        sections[str(v)] = [
            {"start": s.start, "length": s.length, "cyclic": s.cyclic}
            for s in g.good_edge_sections(v)
        ]
    doc = {
        "vertices": g.vertex_count,
        "edges": g.edge_count,
        "total_weight": format_weight(instance.total_weight),
        "b": len(bad),
        "bad_vertices": bad,
        "wedge_counts": [len(g.wedges(v)) for v in range(g.vertex_count)],
        "sections": sections,
    }
    print(canonical_json(doc))
    return 0


def _cmd_decomp(args) -> int:
    instance = _load_instance(args.file)
    if args.decomp_command == "build":
        dec = build_sphere_cut(instance.graph)
        doc = dec.document()
        doc["width"] = dec.declared_width
        _emit(canonical_json(doc), args.out)
        return 0
    dec = decomposition_from_document(_load_json(args.decomposition))
    report = validate_decomposition(instance.graph, dec)
    print(json.dumps({"ok": report.ok, "width": report.width,
                      "violations": report.violations}))
    return 0 if report.ok else 1


def _solution_for_method(instance: Instance, method: str, dec_doc=None):
    if method == "oracle":
        return oracle.brute_force_mwbs(instance)
    if method == "dp":
        if dec_doc is None:
            return kernel.solve_subexponential(instance, "dp")
        dec = decomposition_from_document(dec_doc)
        parts = list(component_instances(instance))
        if len(parts) != 1:
            raise Error("imported decompositions require a connected instance with edges")
        ((sub, eids),) = parts
        kept = {eids[j] for j in solve_dp(sub, dec).kept_edges}
        return make_solution(instance, kept, "dp")
    return kernel.solve_subexponential(instance)


def _cmd_solve(args) -> int:
    instance = _load_instance(args.file)
    dec_doc = _load_json(args.decomposition) if args.decomposition else None
    solution = _solution_for_method(instance, args.method, dec_doc)
    _emit(canonical_json(solution.document()), args.out)
    return 0


def _cmd_kernelize(args) -> int:
    instance = _load_instance(args.file)
    red = kernel.reduce_to_simple(instance)
    doc = {
        "instance": instance_document(red.instance),
        "base_kept_weight": format_weight(red.base_kept_weight),
        "orig_edge_ids": list(red.orig_edge_ids),
        "banked_edges": list(red.banked_edges),
    }
    _emit(canonical_json(doc), args.out)
    return 0


def _cmd_compress(args) -> int:
    instance = _load_instance(args.file)
    cut = kernel.to_cut_instance(instance)
    if not args.no_shrink:
        cut = kernel.shrink_cut_instance(cut)
    _emit(canonical_json(cut.document()), args.out)
    return 0


def _cmd_eptas(args) -> int:
    instance = _load_instance(args.file)
    if args.variant == "max":
        solution, report = eptas.eptas_max(instance, args.epsilon)
        report["solution"] = solution.document()
    else:
        solution, report = eptas._eptas_min(instance, args.epsilon)
        report["deleted"] = sorted(set(range(instance.graph.edge_count)) - solution.kept_edges)
        report["deleted_weight"] = format_weight(solution.deleted_weight)
        report["solution"] = solution.document()
    _emit(canonical_json(report), args.out)
    return 0


_SUITES = {
    "small": [(4, 11), (5, 12), (5, 13), (6, 14), (6, 15), (7, 16), (6, 17), (5, 18)],
    "medium": [(8, 21), (10, 22), (12, 23), (14, 24)],
}


def _cmd_bench(args) -> int:
    rows = ["instance,method,value,deleted,width,b,millis"]
    failures = 0
    for n, seed in _SUITES[args.suite]:
        instance = gen_instance(GenParams(n=n, seed=seed, density="sparse"))
        name = f"gen-n{n}-s{seed}"
        b = len(instance.graph.bad_vertices())
        results = {}
        methods = ["dp", "subexp"]
        if instance.graph.edge_count <= 16:
            methods.insert(0, "oracle")
        dec = build_sphere_cut(instance.graph)
        for method in methods:
            t0 = time.perf_counter()
            if method == "dp":
                sol, width = solve_dp(instance, dec), dec.declared_width
            else:
                sol, width = _solution_for_method(instance, method), ""
            millis = int(1000 * (time.perf_counter() - t0))
            results[method] = sol
            rows.append(f"{name},{method},{sol.kept_weight},{sol.deleted_weight},"
                        f"{width},{b},{millis}")
        if args.check_oracle:
            want = results["oracle" if "oracle" in results else "dp"].kept_weight
            for method, sol in results.items():
                if sol.kept_weight != want:
                    failures += 1
    _emit("\n".join(rows), args.out)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "solve" and args.decomposition and args.method != "dp":
        parser.error("--decomposition requires --method dp")
    handlers = {
        "gen": _cmd_gen,
        "validate": _cmd_validate,
        "stats": _cmd_stats,
        "decomp": _cmd_decomp,
        "solve": _cmd_solve,
        "kernelize": _cmd_kernelize,
        "compress": _cmd_compress,
        "eptas": _cmd_eptas,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except (Error, MemoryError) as exc:
        error = "out of memory" if isinstance(exc, MemoryError) else str(exc)
        print(json.dumps({"ok": False, "error": error}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

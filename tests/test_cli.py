"""Command-line surface, run in process."""

import hashlib
import json
import time

import pytest

from mwbs import cli, dp, eptas, kernel, oracle, plane
from mwbs.cli import main
from mwbs.generate import GenParams, gen_instance, planted_star_instance
from mwbs.kernel import shrink_cut_instance, to_cut_instance
from mwbs.plane import encode_instance

from test_eptas import run_capped
from test_plane import k5_document, star4_instance
from test_robustness import one_edge_document


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_validate_solve_roundtrip(tmp_path, capsys):
    inst_file = tmp_path / "inst.json"
    code, _ = run(capsys, "gen", "--n", "6", "--seed", "3",
                  "--density", "sparse", "--out", str(inst_file))
    assert code == 0
    code, out = run(capsys, "validate", str(inst_file))
    assert code == 0 and json.loads(out)["ok"]

    sol_file = tmp_path / "sol.json"
    code, _ = run(capsys, "solve", str(inst_file), "--out", str(sol_file))
    assert code == 0
    sol = json.loads(sol_file.read_text())
    assert sol["method"] == "subexp"
    assert all(c <= 2 for c in sol["certificate"])

    code, out = run(capsys, "validate", str(inst_file), "--solution", str(sol_file))
    assert code == 0 and json.loads(out)["solution_ok"]

    # tampered solution is rejected
    sol["kept_weight"] = "1/1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(sol))
    code, out = run(capsys, "validate", str(inst_file), "--solution", str(bad))
    assert code == 1
    assert json.loads(out) == {"ok": False, "error": "solution mismatch",
                               "fields": ["kept_weight"]}


def test_solve_bimodal_instance_reports_zero_deleted(tmp_path, capsys):
    from test_plane import triangle_instance
    f = tmp_path / "tri.json"
    f.write_text(encode_instance(triangle_instance()))
    code, out = run(capsys, "solve", str(f))
    assert code == 0
    assert json.loads(out)["deleted_weight"] == "0/1"


def test_default_solve_runs_no_oracle(tmp_path, capsys, monkeypatch):
    """A plain ``mwbs solve`` is the subexponential solver, even on an
    instance small enough for the exhaustive oracle (gen n=8 seed 1
    sparse, 14 edges); ``--method oracle`` still reaches it."""
    f = tmp_path / "inst.json"
    f.write_text(encode_instance(gen_instance(GenParams(n=8, seed=1, density="sparse"))))
    calls = []
    real = oracle.brute_force_mwbs
    monkeypatch.setattr(oracle, "brute_force_mwbs",
                        lambda instance: calls.append(instance) or real(instance))
    code, out = run(capsys, "solve", str(f))
    assert code == 0 and json.loads(out)["method"] == "subexp" and not calls
    code, out = run(capsys, "solve", str(f), "--method", "oracle")
    assert code == 0 and json.loads(out)["method"] == "oracle" and len(calls) == 1
    with pytest.raises(SystemExit):
        main(["solve", str(f), "--method", "auto"])


def test_validate_k5_fails(tmp_path, capsys):
    f = tmp_path / "k5.json"
    f.write_text(json.dumps(k5_document()))
    code, error = run_failing(capsys, "validate", str(f))
    assert code == 1
    assert "Euler" in error


def test_stats(tmp_path, capsys):
    f = tmp_path / "star.json"
    f.write_text(encode_instance(star4_instance()))
    code, out = run(capsys, "stats", str(f))
    assert code == 0
    doc = json.loads(out)
    assert doc["b"] == 1 and doc["bad_vertices"] == [0]
    assert doc["wedge_counts"][0] == 4
    assert doc["sections"]["0"][0]["cyclic"] is True


def test_decomp_build_and_validate(tmp_path, capsys):
    inst_file = tmp_path / "inst.json"
    run(capsys, "gen", "--n", "6", "--seed", "1", "--out", str(inst_file))
    dec_file = tmp_path / "dec.json"
    code, _ = run(capsys, "decomp", "build", str(inst_file), "--out", str(dec_file))
    assert code == 0
    doc = json.loads(dec_file.read_text())
    assert doc["width"] >= 1
    code, out = run(capsys, "decomp", "validate", str(inst_file), str(dec_file))
    assert code == 0 and json.loads(out) == {"ok": True, "width": doc["width"],
                                             "violations": []}
    with pytest.raises(SystemExit) as exc:
        main(["decomp", "build", str(inst_file), "--strategy", "greedy-sweep"])
    assert exc.value.code == 2


def test_solve_with_imported_decomposition(tmp_path, capsys):
    inst_file = tmp_path / "inst.json"
    run(capsys, "gen", "--n", "5", "--seed", "9", "--out", str(inst_file))
    dec_file = tmp_path / "dec.json"
    run(capsys, "decomp", "build", str(inst_file), "--out", str(dec_file))
    code, out = run(capsys, "solve", str(inst_file), "--method", "dp",
                    "--decomposition", str(dec_file))
    assert code == 0
    dp_doc = json.loads(out)
    code, out = run(capsys, "solve", str(inst_file), "--method", "oracle")
    assert json.loads(out)["kept_weight"] == dp_doc["kept_weight"]
    # any other method would ignore the decomposition, so it is a usage error
    for method in ([], ["--method", "subexp"], ["--method", "oracle"]):
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(inst_file), *method, "--decomposition", str(dec_file)])
        assert exc.value.code == 2
        assert "--decomposition requires --method dp" in capsys.readouterr().err


def test_one_edge_instance_with_imported_decomposition(tmp_path, capsys):
    """``decomp build`` writes the degenerate two-node tree for one edge,
    and ``solve --method dp`` with it keeps the edge; a tree that fails
    validation is still refused."""
    inst_file = tmp_path / "one.json"
    inst_file.write_text(json.dumps(one_edge_document()))
    dec_file = tmp_path / "dec.json"
    run(capsys, "decomp", "build", str(inst_file), "--out", str(dec_file))
    assert json.loads(dec_file.read_text()) == {"arcs": [[0, 1]], "leaf_map": {"0": 0},
                                                "nodes": 2, "width": 2}
    sol_file = tmp_path / "sol.json"
    code, _ = run(capsys, "solve", str(inst_file), "--method", "dp",
                  "--decomposition", str(dec_file), "--out", str(sol_file))
    assert code == 0
    assert json.loads(sol_file.read_text()) == {
        "certificate": [0, 0], "deleted_weight": "0/1", "kept": [0],
        "kept_weight": "1/1", "method": "dp"}
    code, out = run(capsys, "validate", str(inst_file), "--solution", str(sol_file))
    assert code == 0 and json.loads(out)["solution_ok"] is True
    dec_file.write_text(json.dumps({"arcs": [[0, 1], [1, 2]], "leaf_map": {"0": 0},
                                    "nodes": 3}))
    code, error = run_failing(capsys, "solve", str(inst_file), "--method", "dp",
                              "--decomposition", str(dec_file))
    assert code == 1 and error.startswith("invalid decomposition")


def test_dp_method_solves_each_component(tmp_path, capsys):
    from test_robustness import two_component_instance
    inst, a, b = two_component_instance()
    f = tmp_path / "two.json"
    f.write_text(encode_instance(inst))
    code, out = run(capsys, "solve", str(f), "--method", "dp")
    assert code == 0
    code, want = run(capsys, "solve", str(f), "--method", "oracle")
    assert json.loads(out)["kept_weight"] == json.loads(want)["kept_weight"]
    dec_file = tmp_path / "dec.json"
    a_file = tmp_path / "a.json"
    a_file.write_text(encode_instance(a))
    run(capsys, "decomp", "build", str(a_file), "--out", str(dec_file))
    code, error = run_failing(capsys, "solve", str(f), "--method", "dp",
                              "--decomposition", str(dec_file))
    assert code == 1 and "connected" in error


def test_dp_method_reduces_first(tmp_path, capsys, monkeypatch):
    """Without an imported tree, ``--method dp`` solves the components of
    the normal form, as ``subexp`` does; on the unreduced triangulation
    the tables would not fit in memory."""
    f = tmp_path / "tri.json"
    f.write_text(encode_instance(gen_instance(GenParams(n=40, seed=0))))
    reduce, solve = kernel.reduce_to_simple, kernel.solve_components
    reduced = []

    def recording_reduce(instance):
        red = reduce(instance)
        reduced.append(red.instance)
        return red

    def solve_reduced_only(instance, solved=None):
        assert any(instance is r for r in reduced), "components of an unreduced instance"
        return solve(instance, solved)

    monkeypatch.setattr(kernel, "reduce_to_simple", recording_reduce)
    monkeypatch.setattr(kernel, "solve_components", solve_reduced_only)
    code, out = run(capsys, "solve", str(f), "--method", "dp")
    assert code == 0 and json.loads(out)["method"] == "dp"
    code, want = run(capsys, "solve", str(f), "--method", "subexp")
    assert json.loads(out)["kept_weight"] == json.loads(want)["kept_weight"] == "29287/60"


def test_decomp_validate_refuses_a_truncated_id(tmp_path, capsys):
    inst_file = star_file(tmp_path)
    dec_file = tmp_path / "dec.json"
    run(capsys, "decomp", "build", str(inst_file), "--out", str(dec_file))
    doc = json.loads(dec_file.read_text())
    doc["nodes"] += 0.5
    dec_file.write_text(json.dumps(doc))
    code, error = run_failing(capsys, "decomp", "validate", str(inst_file), str(dec_file))
    assert code == 1 and "not an integer" in error


@pytest.mark.parametrize("argv", [
    ("decomp", "validate", "{instance}", "{dec}"),
    ("solve", "{instance}", "--method", "dp", "--decomposition", "{dec}"),
])
def test_non_canonical_leaf_key_exits_1(tmp_path, capsys, argv):
    """A 19th ``leaf_map`` entry ``"00"`` beside ``"0"`` is refused, not
    folded into node 0."""
    inst_file = tmp_path / "small.json"
    run(capsys, "gen", "--n", "8", "--seed", "1", "--out", str(inst_file))
    dec_file = tmp_path / "dec.json"
    run(capsys, "decomp", "build", str(inst_file), "--out", str(dec_file))
    doc = json.loads(dec_file.read_text())
    doc["leaf_map"]["00"] = doc["leaf_map"]["0"]
    dec_file.write_text(json.dumps(doc))
    names = {"instance": str(inst_file), "dec": str(dec_file)}
    code, error = run_failing(capsys, *(a.format(**names) for a in argv))
    assert code == 1 and "leaf_map key '00' is not a canonical decimal string" in error


def test_decomp_validate_reports_every_broken_arc(tmp_path, capsys):
    from test_decomposition import TWO_BROKEN_ARCS, star_instance
    inst_file = tmp_path / "star6.json"
    inst_file.write_text(encode_instance(star_instance(6)))
    dec_file = tmp_path / "dec.json"
    dec_file.write_text(json.dumps(TWO_BROKEN_ARCS.document()))
    code, out = run(capsys, "decomp", "validate", str(inst_file), str(dec_file))
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False and len(doc["violations"]) == 2
    assert all("not contiguous" in v for v in doc["violations"])


def test_kernelize_and_compress(tmp_path, capsys):
    f = tmp_path / "star.json"
    f.write_text(encode_instance(star4_instance()))
    code, out = run(capsys, "kernelize", str(f))
    assert code == 0
    doc = json.loads(out)
    assert doc["base_kept_weight"] == "0/1"
    assert sorted(doc) == ["banked_edges", "base_kept_weight", "instance", "orig_edge_ids"]
    cut = to_cut_instance(star4_instance())
    for argv, want in ((("compress", str(f)), shrink_cut_instance(cut).document()),
                       (("compress", str(f), "--no-shrink"), cut.document())):
        code, out = run(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        for key in ("classes", "pairs", "base_kept_weight"):
            assert doc[key] == json.loads(json.dumps(want[key])), (argv, key)
    assert all(len(c) <= 2 for c in doc["classes"])


def test_kernelize_output_is_pinned(tmp_path, capsys):
    # recorded with the full-rescan reduction (rescan_reduce in test_kernel.py)
    f = tmp_path / "planted.json"
    f.write_text(encode_instance(planted_star_instance(300, 7, 8)))
    code, out = run(capsys, "kernelize", str(f))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "dfb11a560aa0f4555660b109ee4f233cdd734c8f15814e357f8bcee4ddb5ac83"


def test_kernelize_a_kernel(tmp_path, capsys):
    """``mwbs kernelize`` on a normal form prints it back with identity ids
    and nothing banked, the document recorded when the reduction still
    copied an instance on which no rule fires."""
    f = tmp_path / "sparse.json"
    f.write_text(encode_instance(gen_instance(GenParams(n=40, seed=0, density="sparse"))))
    code, out = run(capsys, "kernelize", str(f))
    assert code == 0
    normal = json.loads(out)["instance"]
    k = tmp_path / "kernel.json"
    k.write_text(json.dumps(normal))
    code, out = run(capsys, "kernelize", str(k))
    assert code == 0
    assert json.loads(out) == {"instance": normal, "base_kept_weight": "0/1",
                               "orig_edge_ids": list(range(len(normal["edges"]))),
                               "banked_edges": []}
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "026160032bde189cd7e9e5c3aef0df2da22e661d3419e8dedeb6830b6f98c1af"


def test_eptas_commands(tmp_path, capsys):
    f = tmp_path / "star.json"
    f.write_text(encode_instance(star4_instance()))
    code, out = run(capsys, "eptas", "max", str(f), "--epsilon", "1/2")
    assert code == 0
    doc = json.loads(out)
    assert doc["solution"]["kept_weight"] == "3/1"
    code, out = run(capsys, "eptas", "min", str(f), "--epsilon", "1/2")
    assert code == 0
    doc = json.loads(out)
    assert doc["deleted_weight"] == "1/1"


@pytest.mark.parametrize("variant", ["max", "min"])
def test_validate_reads_an_eptas_report(tmp_path, capsys, variant):
    """``mwbs validate --solution`` checks the solution that an eptas
    report nests under "solution", and refuses it once tampered with."""
    f = tmp_path / "gen.json"
    f.write_text(encode_instance(gen_instance(GenParams(n=12, seed=2, density="sparse"))))
    report = tmp_path / "eptas.json"
    code, _ = run(capsys, "eptas", variant, str(f), "--epsilon", "1/2", "--out", str(report))
    assert code == 0
    code, out = run(capsys, "validate", str(f), "--solution", str(report))
    assert code == 0 and json.loads(out)["solution_ok"]
    doc = json.loads(report.read_text())
    doc["solution"]["deleted_weight"] = "1000/1"
    report.write_text(json.dumps(doc))
    code, out = run(capsys, "validate", str(f), "--solution", str(report))
    assert code == 1 and json.loads(out)["fields"] == ["deleted_weight"]


def test_validate_reads_a_kernelize_report(tmp_path, capsys):
    """``mwbs validate`` checks the normal form that a kernelize report
    nests under "instance"."""
    f = tmp_path / "gen.json"
    f.write_text(encode_instance(gen_instance(GenParams(n=12, seed=2))))
    report = tmp_path / "k.json"
    code, _ = run(capsys, "kernelize", str(f), "--out", str(report))
    assert code == 0
    normal = json.loads(report.read_text())["instance"]
    code, out = run(capsys, "validate", str(report))
    doc = json.loads(out)
    assert code == 0 and doc["ok"]
    assert (doc["vertices"], doc["edges"]) == (normal["vertices"], len(normal["edges"]))


def test_out_of_memory_is_a_json_error(tmp_path, capsys, monkeypatch):
    """A solve that runs out of memory ends in the JSON error on standard
    error and exit status 1, not a traceback."""
    def exhausted(*_args):
        raise MemoryError

    monkeypatch.setattr(kernel, "solve_subexponential", exhausted)
    code, error = run_failing(capsys, "solve", str(star_file(tmp_path)))
    assert (code, error) == (1, "out of memory")


def test_eptas_min_certifies_once(tmp_path, capsys, monkeypatch):
    """``mwbs eptas min`` prints the solution that its shifting loop
    certified, where it used to certify the same deleted set again: one
    ``make_solution`` call fewer on sparse n=40 seed 0 at eps 1/2, and the
    same document, recorded when it certified twice.  The other 7 calls
    are the 4 ``solve_subexponential`` certificates and 3 of the 4 of
    their table-solved components: one repeats an earlier one, so it is
    neither solved nor certified again.  The 7 star components are not
    certified."""
    calls = []
    real = plane.make_solution

    def counted(*args):
        calls.append(args[2])
        return real(*args)

    for mod in (cli, dp, eptas, kernel, oracle):
        monkeypatch.setattr(mod, "make_solution", counted)
    f = tmp_path / "gen.json"
    f.write_text(encode_instance(gen_instance(GenParams(n=40, seed=0, density="sparse"))))
    code, out = run(capsys, "eptas", "min", str(f), "--epsilon", "1/2")
    assert code == 0
    assert (len(calls), calls.count("eptas-min")) == (8, 1)
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "318d880a1f5e5d65e8736fe100b28f3d00373a8421c443ee4313e339f136a5bd"


@pytest.mark.parametrize("variant", ["max", "min"])
def test_eptas_epsilon_too_long_exits_1(tmp_path, capsys, variant):
    """eps = 1e-5000 has a denominator of 5001 digits, more than the
    interpreter prints: refused before the shifting loop runs."""
    f = tmp_path / "gen.json"
    f.write_text(encode_instance(gen_instance(GenParams(n=40, seed=0, density="sparse"))))
    code, error = run_failing(capsys, "eptas", variant, str(f), "--epsilon", "1e-5000")
    assert code == 1 and error.startswith("epsilon has a denominator of more than ")


@pytest.mark.parametrize("variant", ["max", "min"])
def test_eptas_epsilon_refused_from_its_text(tmp_path, capsys, variant):
    """An epsilon with a long decimal exponent is refused at once, with the
    message its value would get (1e-10000000 took 9.6 s to convert, and
    1e99999999 did not end), and one that is no number exits 1 as well."""
    f = tmp_path / "gen.json"
    f.write_text(encode_instance(gen_instance(GenParams(n=40, seed=0, density="sparse"))))
    for eps, text in (("1e-10000000", "epsilon has a denominator of more than "),
                      ("1e99999999", "epsilon must satisfy 0 < eps <= 1"),
                      ("-1e-99999999", "epsilon must satisfy 0 < eps <= 1"),
                      ("abc", "epsilon 'abc' is not a number")):
        start = time.perf_counter()
        code, error = run_failing(capsys, "eptas", variant, str(f), f"--epsilon={eps}")
        assert time.perf_counter() - start < 5
        assert code == 1 and error.startswith(text)


def test_gen_unprintable_weights_exit_1(capsys):
    """Weights of 5001 digits are more than the interpreter prints, and so
    is a range of 5001-digit denominators, which holds no small rational."""
    code, error = run_failing(capsys, "gen", "--n", "4", "--wmin", "1e5000",
                              "--wmax", "1e5000")
    assert code == 1 and error.startswith("weight_hi allows weights of more than ")
    code, error = run_failing(capsys, "gen", "--n", "4", "--wmin", "1e-5000",
                              "--wmax", "1e-5000")
    assert code == 1 and error.startswith("weight range [")
    assert error.endswith("] contains no small rational") and len(error) < 200


def test_eptas_tiny_epsilon(tmp_path, capsys):
    """eps = 1/10**9 asks for a shift width of 10**9 (2 * 10**9 for min);
    both variants still answer with a JSON document, under a 1 GB cap."""
    f = tmp_path / "gen.json"
    code, _ = run(capsys, "gen", "--n", "8", "--seed", "3", "--density", "sparse",
                  "--out", str(f))
    assert code == 0
    for variant in ("max", "min"):
        proc = run_capped(["-m", "mwbs.cli", "eptas", variant, str(f),
                           "--epsilon", "1/1000000000"])
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["shift_width"] == 10**9 * (1 if variant == "max" else 2)
        assert all(c <= 2 for c in doc["solution"]["certificate"])


def test_bench_csv(capsys, monkeypatch):
    """Every row of the small suite agrees with the oracle.  The dp row
    times the table solver on the unreduced instance, over the one tree
    the bench builds for it, and reports that tree's width."""
    trees = []
    real = cli.solve_dp

    def spy(instance, dec):
        trees.append(dec)
        return real(instance, dec)

    monkeypatch.setattr(cli, "solve_dp", spy)
    code, out = run(capsys, "bench", "--suite", "small", "--check-oracle")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "instance,method,value,deleted,width,b,millis"
    oracle_rows = {}
    for line in lines[1:]:
        name, method, value = line.split(",")[:3]
        if method == "oracle":
            oracle_rows[name] = value
    widths = []
    for line in lines[1:]:
        name, method, value, _deleted, width = line.split(",")[:5]
        assert value == oracle_rows[name]
        if method == "dp":
            widths.append(int(width))
    assert len(trees) == len(cli._SUITES["small"])
    assert widths == [dec.declared_width for dec in trees]


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--method", "nonsense", "x.json"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--n", "5", "--bias", "x"])
    assert exc.value.code == 2
    assert "argument --bias: not a rational: 'x'" in capsys.readouterr().err
    for flag in ("--bias", "--wmin", "--wmax", "--p"):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--n", "5", flag, "1e99999999"])
        assert exc.value.code == 2
        assert f"argument {flag}: exponent too long: '1e99999999'" in capsys.readouterr().err


def test_malformed_file_exits_1(tmp_path, capsys):
    f = tmp_path / "broken.json"
    f.write_text("{not json")
    code, _ = run(capsys, "stats", str(f))
    assert code == 1


def run_failing(capsys, *argv):
    """Exit status and the JSON error document, which every verb prints on
    standard error, leaving standard output empty."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    doc = json.loads(captured.err)
    assert doc["ok"] is False
    return code, doc["error"]


def star_file(tmp_path):
    f = tmp_path / "star.json"
    f.write_text(encode_instance(star4_instance()))
    return f


@pytest.mark.parametrize("damage", [
    lambda sol: sol.pop("kept_weight"),
    lambda sol: sol.update(kept="0,1"),
    lambda sol: sol.update(certificate=2),
], ids=["no-kept-weight", "kept-not-a-list", "certificate-not-a-list"])
def test_malformed_solution_exits_1(tmp_path, capsys, damage):
    inst_file = star_file(tmp_path)
    sol_file = tmp_path / "sol.json"
    run(capsys, "solve", str(inst_file), "--out", str(sol_file))
    sol = json.loads(sol_file.read_text())
    damage(sol)
    sol_file.write_text(json.dumps(sol))
    code, error = run_failing(capsys, "validate", str(inst_file),
                              "--solution", str(sol_file))
    assert code == 1 and "solution" in error


def test_validate_refuses_a_list_and_a_wrong_certificate(tmp_path, capsys):
    """A solution that is a JSON list is malformed; one whose certificate
    differs from the recomputed one is a mismatch naming that field."""
    inst_file = star_file(tmp_path)
    sol_file = tmp_path / "sol.json"
    run(capsys, "solve", str(inst_file), "--out", str(sol_file))
    sol = json.loads(sol_file.read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([sol]))
    code, error = run_failing(capsys, "validate", str(inst_file), "--solution", str(bad))
    assert code == 1 and error == "solution document must be a JSON object"
    sol["certificate"] = [c + 1 for c in sol["certificate"]]
    bad.write_text(json.dumps(sol))
    code, out = run(capsys, "validate", str(inst_file), "--solution", str(bad))
    assert code == 1 and json.loads(out) == {"ok": False, "error": "solution mismatch",
                                             "fields": ["certificate"]}


@pytest.mark.parametrize("argv", [
    ("validate", "{instance}", "--solution", "{broken}"),
    ("decomp", "validate", "{instance}", "{broken}"),
    ("solve", "{instance}", "--method", "dp", "--decomposition", "{broken}"),
])
def test_malformed_side_document_exits_1(tmp_path, capsys, argv):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    names = {"instance": str(star_file(tmp_path)), "broken": str(broken)}
    code, error = run_failing(capsys, *(a.format(**names) for a in argv))
    assert code == 1 and "not valid JSON" in error


@pytest.mark.parametrize("verb", [("validate",), ("stats",), ("solve",),
                                  ("decomp", "build")])
def test_missing_input_file_exits_1(tmp_path, capsys, verb):
    missing = str(tmp_path / "absent.json")
    code, error = run_failing(capsys, *verb, missing)
    assert code == 1 and "absent.json" in error


@pytest.mark.parametrize("verb", ["gen", "solve"])
@pytest.mark.parametrize("target", ["missing-dir", "a-directory"])
def test_unwritable_output_exits_1(tmp_path, capsys, verb, target):
    """An ``--out`` path in a missing directory, or naming a directory, is
    a JSON error with exit 1, not a traceback."""
    out = tmp_path / "no-such-dir" / "x.json" if target == "missing-dir" else tmp_path
    argv = ("gen", "--n", "5") if verb == "gen" else ("solve", str(star_file(tmp_path)))
    code, error = run_failing(capsys, *argv, "--out", str(out))
    assert code == 1 and error.startswith(f"cannot write {out}: ")


def one_edge_text(weight="1/1", end="tail"):
    doc = one_edge_document()
    doc["edges"][0]["weight"] = weight
    doc["rotation"][0][0]["end"] = end
    return json.dumps(doc)


@pytest.mark.parametrize("text, expected", [
    ('{"vertices": ' + "1" * 5000 + ', "edges": [], "rotation": []}', "not valid JSON"),
    ("[" * 200_000, "not valid JSON"),
    (one_edge_text(weight="9" * 5000 + "/1"), "weight of 5002 characters"),
    (one_edge_text(end=["tail"]), "dart end must be 'tail' or 'head'"),
    (one_edge_text(end={"end": "tail"}), "dart end must be 'tail' or 'head'"),
], ids=["long-integer", "deep-nesting", "long-weight", "list-end", "dict-end"])
def test_malformed_instance_exits_1(tmp_path, capsys, text, expected):
    f = tmp_path / "inst.json"
    f.write_text(text)
    code, error = run_failing(capsys, "validate", str(f))
    assert code == 1 and expected in error and len(error) < 300


@pytest.mark.parametrize("text", ['{"nodes": ' + "7" * 5000 + "}", "[" * 200_000],
                         ids=["long-integer", "deep-nesting"])
def test_unparseable_side_document_exits_1(tmp_path, capsys, text):
    broken = tmp_path / "broken.json"
    broken.write_text(text)
    code, error = run_failing(capsys, "decomp", "validate", str(star_file(tmp_path)),
                              str(broken))
    assert code == 1 and "broken.json is not valid JSON" in error

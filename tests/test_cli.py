"""Command-line surface, run in process."""

import json

import pytest

from mwbs.cli import main
from mwbs.plane import encode_instance

from test_plane import k5_document, star4_instance


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
    code, _ = run(capsys, "solve", str(inst_file), "--method", "auto",
                  "--out", str(sol_file))
    assert code == 0
    sol = json.loads(sol_file.read_text())
    assert sol["method"] in ("oracle", "subexp")
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
    code, out = run(capsys, "solve", str(f), "--method", "auto")
    assert code == 0
    assert json.loads(out)["deleted_weight"] == "0/1"


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


def test_decomp_validate_refuses_a_truncated_id(tmp_path, capsys):
    inst_file = star_file(tmp_path)
    dec_file = tmp_path / "dec.json"
    run(capsys, "decomp", "build", str(inst_file), "--out", str(dec_file))
    doc = json.loads(dec_file.read_text())
    doc["nodes"] += 0.5
    dec_file.write_text(json.dumps(doc))
    code, error = run_failing(capsys, "decomp", "validate", str(inst_file), str(dec_file))
    assert code == 1 and "not an integer" in error


def test_kernelize_and_compress(tmp_path, capsys):
    f = tmp_path / "star.json"
    f.write_text(encode_instance(star4_instance()))
    code, out = run(capsys, "kernelize", str(f))
    assert code == 0
    doc = json.loads(out)
    assert doc["base_kept_weight"] == "0/1"
    assert sorted(doc) == ["banked_edges", "base_kept_weight", "instance", "orig_edge_ids"]
    code, out = run(capsys, "compress", str(f))
    assert code == 0
    doc = json.loads(out)
    assert all(len(c) <= 2 for c in doc["classes"])
    code, out = run(capsys, "compress", str(f), "--no-shrink")
    assert code == 0


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


def test_bench_csv(capsys):
    code, out = run(capsys, "bench", "--suite", "small", "--check-oracle")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "instance,method,value,deleted,width,b,millis"
    oracle_rows = {}
    for line in lines[1:]:
        name, method, value = line.split(",")[:3]
        if method == "oracle":
            oracle_rows[name] = value
    for line in lines[1:]:
        name, method, value = line.split(",")[:3]
        assert value == oracle_rows[name]


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--method", "nonsense", "x.json"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


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

"""Shifting-technique approximation schemes."""

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from mwbs import kernel
from mwbs.eptas import (
    _drop_cut,
    _eptas_min,
    bfs_layers,
    cut_residues,
    eptas_max,
    eptas_min,
    split_layer_graphs,
)
from mwbs.errors import EmbeddingError, FormatError
from mwbs.generate import GenParams, gen_instance
from mwbs.kernel import solve_subexponential
from mwbs.plane import (
    HEAD,
    TAIL,
    Instance,
    PlaneDigraph,
    Solution,
    canonical_json,
    dart,
    dart_direction,
    encode_instance,
    format_weight,
    subgraph_by_edges,
)

from oracles import shift_reference
from test_decomposition import side_by_side
from test_plane import star4_instance, triangle_instance


def residue_cut(g, t, i):
    """The edges of the connected graph ``g`` that residue i of shift width
    t cuts, in increasing order."""
    return [e for e, cut_by in enumerate(cut_residues(g.edges, bfs_layers(g), t))
            if cut_by == i]


class TestLayers:
    def test_no_vertex_refused(self):
        with pytest.raises(EmbeddingError, match="bfs_layers needs a graph with a vertex"):
            bfs_layers(PlaneDigraph(0, [], []))

    def test_single_vertex(self):
        assert bfs_layers(PlaneDigraph(1, [], [[]])) == (0,)

    def test_directed_path(self):
        edges = [(0, 1), (1, 2)]
        rot = [[dart(0, TAIL)], [dart(0, HEAD), dart(1, TAIL)], [dart(1, HEAD)]]
        assert bfs_layers(PlaneDigraph(3, edges, rot)) == (0, 1, 2)

    def test_no_edge_skips_a_layer(self, corpus_small):
        for inst in corpus_small[:40]:
            g = inst.graph
            layer_of = bfs_layers(g)
            for u, v in g.edges:
                assert abs(layer_of[u] - layer_of[v]) <= 1

    def test_boundary_sets_disjoint(self, corpus_small):
        """An edge joining layers j and j+1 is cut by residue j mod t and by
        no other; an edge inside one layer by none."""
        seen = Counter()
        for inst in corpus_small[:40]:
            g = inst.graph
            layer_of = bfs_layers(g)
            for t in (1, 2, 3, 4):
                cut_by = cut_residues(g.edges, layer_of, t)
                assert len(cut_by) == g.edge_count
                for (u, v), i in zip(g.edges, cut_by):
                    lo, hi = sorted((layer_of[u], layer_of[v]))
                    assert i == (lo % t if hi == lo + 1 else -1)
                    seen[i >= 0] += 1
        assert seen[True] and seen[False]


class TestEptasMax:
    def test_epsilon_validation(self):
        for eps in (0, Fraction(3, 2), "abc", float("nan"), None, "1/0", "1e-5000"):
            with pytest.raises(FormatError):
                eptas_max(triangle_instance(), eps)

    def test_long_epsilon_allowed_without_a_digit_limit(self):
        """A digit limit of 0 means none: eps = 1e-5000 is then accepted
        and printed in full."""
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            _sol, rep = eptas_max(triangle_instance(), "1e-5000")
        finally:
            sys.set_int_max_str_digits(limit)
        assert rep["epsilon"] == "1/1" + "0" * 5000

    def test_small_diameter_is_exact(self, corpus_small, oracle_of):
        hit = 0
        for inst in corpus_small[:40]:
            eps = Fraction(1, 4)
            t = math.ceil(1 / eps)
            if max(bfs_layers(inst.graph)) < t:
                sol, _rep = eptas_max(inst, eps)
                assert sol.kept_weight == oracle_of(inst).kept_weight
                hit += 1
        assert hit

    def test_epsilon_one_still_feasible(self, corpus_small):
        for inst in corpus_small[:15]:
            sol, rep = eptas_max(inst, 1)
            assert rep["shift_width"] == 1
            assert sol.kept_weight >= 0
            assert max(sol.certificate, default=0) <= 2

    def test_guarantee_on_slice(self, corpus_small, oracle_of):
        for inst in corpus_small[:40]:
            opt = oracle_of(inst).kept_weight
            for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 4)):
                sol, _rep = eptas_max(inst, eps)
                assert sol.kept_weight >= (1 - eps) * opt

    def test_every_residue_union_is_bimodal(self, corpus_small):
        for inst in corpus_small[:10]:
            g = inst.graph
            t = 2
            for i in range(t):
                cut = residue_cut(g, t, i)
                keep = [e for e in range(g.edge_count) if e not in cut]
                kept = set()
                if keep:
                    piece, _v, eids = subgraph_by_edges(inst, keep)
                    sol = solve_subexponential(piece)
                    kept = {eids[j] for j in sol.kept_edges}
                assert not g.bad_vertices(kept)


class TestSplitLayerGraphs:
    def test_single_band_is_whole_graph(self):
        """No cut, so the split graph is the graph itself."""
        inst = triangle_instance()
        split, edge_orig = split_layer_graphs(inst, residue_cut(inst.graph, 4, 2))
        assert split.graph.vertex_count == inst.graph.vertex_count
        assert split.graph.edges == inst.graph.edges
        assert split.graph.rotation == inst.graph.rotation
        assert split.weights == inst.weights
        assert edge_orig == tuple(range(inst.graph.edge_count))

    def test_boundary_edge_two_copies(self, corpus_small):
        """A cut edge gets two copies, or one when an end has degree one."""
        inst = corpus_small[1]
        g = inst.graph
        t = 2
        assert residue_cut(g, t, 0)
        pendant_cuts = 0
        for i in range(t):
            boundary = residue_cut(g, t, i)
            split, edge_orig = split_layer_graphs(inst, boundary)
            copies = Counter(edge_orig)
            for e in range(g.edge_count):
                whole = e not in boundary or min(g.degree(v) for v in g.edges[e]) == 1
                pendant_cuts += whole and e in boundary
                assert copies[e] == (1 if whole else 2)
                assert [split.weights[j] for j, o in enumerate(edge_orig) if o == e] \
                    == [inst.weights[e]] * copies[e]
        assert pendant_cuts == 1

    def test_real_vertex_rotations_preserved(self, corpus_small):
        for inst in corpus_small[:15]:
            g = inst.graph
            t = 2
            for i in range(t):
                split, edge_orig = split_layer_graphs(inst, residue_cut(g, t, i))
                sg = split.graph
                for v in range(sg.vertex_count):
                    if v >= g.vertex_count:
                        assert sg.degree(v) == 1
                        continue
                    got = [(edge_orig[d >> 1], dart_direction(d)) for d in sg.rotation[v]]
                    want = [(d >> 1, dart_direction(d)) for d in g.rotation[v]]
                    assert got == want

    def test_feasible_sets_restrict_to_bands(self, corpus_small, oracle_of):
        """An optimal deletion for the whole graph stays feasible in the
        split graph after copying."""
        for inst in corpus_small[:15]:
            g = inst.graph
            deleted = set(range(g.edge_count)) - oracle_of(inst).kept_edges
            t = 2
            for i in range(t):
                split, edge_orig = split_layer_graphs(inst, residue_cut(g, t, i))
                kept = {j for j, e in enumerate(edge_orig) if e not in deleted}
                assert not split.graph.bad_vertices(kept)

    def test_components_lie_in_one_band(self, corpus_small):
        """Each component of the split graph lies in one band, but for the
        degree-one ends of cut edges left whole."""
        sparse = gen_instance(GenParams(n=40, seed=0, density="sparse"))
        leaves_seen = 0
        for inst in corpus_small[:40] + [sparse]:
            g = inst.graph
            layer_of = bfs_layers(g)
            depth = max(layer_of) + 1
            for t in (1, 2, 3):
                for i in range(t):
                    cuts = range(i, depth - 1, t)
                    boundary = residue_cut(g, t, i)
                    leaves = {v for e in boundary for v in g.edges[e] if g.degree(v) == 1}
                    leaves_seen += len(leaves)
                    split, _edge_orig = split_layer_graphs(inst, boundary)
                    band = [sum(c < layer_of[v] for c in cuts)
                            for v in range(g.vertex_count)]
                    components = [[v for v in verts if v < g.vertex_count]
                                  for verts, _edges in split.graph.components()]
                    assert all(len({band[v] for v in verts if v not in leaves}) == 1
                               for verts in components)
                    assert len(set(band)) == len(cuts) + 1
        assert leaves_seen

    def test_residue_cutting_nothing_returns_the_instance(self, corpus_small):
        """A residue with no cut edge gives the input instance itself, with
        identity ids, to both schemes; one whose cut edges all have an end
        of degree one does so to the split."""
        inst = corpus_small[1]
        m = inst.graph.edge_count
        cut = residue_cut(inst.graph, 2, 1)
        assert not cut
        split, edge_orig = split_layer_graphs(inst, cut)
        assert split is inst and edge_orig == tuple(range(m))
        piece, eids = _drop_cut(inst, cut)
        assert piece is inst and list(eids) == list(range(m))

        path = Instance(PlaneDigraph(3, [(0, 1), (1, 2)],
                                     [[dart(0, TAIL)], [dart(0, HEAD), dart(1, TAIL)],
                                      [dart(1, HEAD)]]), (Fraction(1), Fraction(2)))
        cut = residue_cut(path.graph, 2, 1)
        assert cut == [1]
        split, edge_orig = split_layer_graphs(path, cut)
        assert split is path and edge_orig == (0, 1)
        piece, eids = _drop_cut(path, cut)
        assert piece.graph.edges == ((0, 1),) and list(eids) == [0]

    def test_edge_skipping_a_layer_refused(self):
        with pytest.raises(EmbeddingError, match="skips a layer"):
            cut_residues(triangle_instance().graph.edges, (0, 1, 2), 2)


class TestEptasMin:
    def test_epsilon_validation(self):
        for eps in (0, Fraction(3, 2), "abc", float("nan"), None, "1/0", "1e-5000"):
            with pytest.raises(FormatError):
                eptas_min(triangle_instance(), eps)

    def test_bimodal_costs_nothing(self):
        deleted, cost, _rep = eptas_min(triangle_instance(), Fraction(1, 2))
        assert cost == 0 and not deleted

    def test_alternating_star_costs_one(self):
        for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 4)):
            deleted, cost, _rep = eptas_min(star4_instance(), eps)
            assert cost == 1 and len(deleted) == 1

    def test_guarantee_and_feasibility(self, corpus_small, oracle_of):
        for inst in corpus_small[:40]:
            g = inst.graph
            opt_min = inst.total_weight - oracle_of(inst).kept_weight
            for eps in (Fraction(1), Fraction(1, 2)):
                deleted, cost, _rep = eptas_min(inst, eps)
                assert cost <= (1 + eps) * opt_min
                kept = set(range(g.edge_count)) - deleted
                assert not g.bad_vertices(kept)


def run_capped(args, stdin=""):
    """Run ``python args`` under a 1 GB address-space cap, so that a
    runaway allocation ends in a failed child, not a full host."""
    cap = 1 << 30
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, text=True,
        env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))


_TINY_EPSILON = """
import json, sys, time
from fractions import Fraction
from mwbs.eptas import eptas_max, eptas_min
from mwbs.plane import decode_instance
out = []
for text in json.load(sys.stdin):
    inst = decode_instance(text)
    start = time.perf_counter()
    sol, rep_max = eptas_max(inst, Fraction(1, 10**9))
    deleted, cost, rep_min = eptas_min(inst, Fraction(1, 10**9))
    out.append([time.perf_counter() - start, sol.document(), rep_max,
                sorted(deleted), str(cost), rep_min])
print(json.dumps(out))
"""


class TestShiftingLoop:
    def test_residues_past_the_deepest_layer_solved_once(self, corpus_small):
        """eps = 1/10**9 gives what eps = 1/L gives, L the layer count: no
        residue from L - 1 on cuts anything.  Each instance answers in well
        under a second, and the per-residue lists hold L entries."""
        instances = [gen_instance(GenParams(n=8, seed=3, density="sparse"))]
        instances += corpus_small[:5]
        proc = run_capped(["-c", _TINY_EPSILON],
                          json.dumps([encode_instance(i) for i in instances]))
        assert proc.returncode == 0, proc.stderr
        for inst, (secs, doc, rep_max, deleted, cost, rep_min) in zip(
                instances, json.loads(proc.stdout)):
            assert secs < 0.5
            depth = max(bfs_layers(inst.graph)) + 1
            sol, want_max = eptas_max(inst, Fraction(1, depth))
            assert doc == sol.document()
            for key in ("chosen_residues", "per_residue_kept"):
                assert rep_max[key] == want_max[key]
            assert len(rep_max["per_residue_kept"]) == depth
            want_deleted, want_cost, want_min = eptas_min(inst, Fraction(1, depth))
            assert deleted == sorted(want_deleted)
            assert cost == str(want_cost)
            assert rep_min["chosen_residues"] == want_min["chosen_residues"]
            assert rep_min["per_residue_cost"] == want_min["per_residue_cost"][:depth]

    def test_max_piece_checked_for_feasibility(self, monkeypatch):
        """A solver answer that is not bimodal once mapped back is refused
        per residue, in eptas_max as in eptas_min."""
        inst = star4_instance()

        def keep_all(piece, solved=None):
            return Solution(frozenset(range(piece.graph.edge_count)),
                            piece.total_weight, Fraction(0), "subexp", ())

        monkeypatch.setattr("mwbs.eptas.solve_subexponential", keep_all)
        with pytest.raises(EmbeddingError, match="mapped-back kept set is not feasible"):
            eptas_max(inst, Fraction(1, 2))
        with pytest.raises(EmbeddingError, match="mapped-back kept set is not feasible"):
            eptas_min(inst, Fraction(1, 2))

    def test_repeated_components_tabulated_once_per_call(self, monkeypatch):
        """Over the eptas pool (sparse n=40 seeds 0-6 at the benchmark's
        five runs), the cut kernels hold 130 table-solved components, and
        ``solve_dp`` runs for the 104 distinct ones of each call: with the
        call's dict withheld from the solver it runs for all 130."""
        calls = count_solve_dp(monkeypatch)

        def pool():
            calls.clear()
            for seed in range(7):
                inst = gen_instance(GenParams(n=40, seed=seed, density="sparse"))
                for eps in ("1/2", "1/3", "1/4"):
                    eptas_max(inst, Fraction(eps))
                for eps in ("1/2", "1/3"):
                    eptas_min(inst, Fraction(eps))
            return len(calls)

        assert pool() == 104
        real_subexp = solve_subexponential
        monkeypatch.setattr("mwbs.eptas.solve_subexponential",
                            lambda piece, solved=None: real_subexp(piece))
        assert pool() == 130

    def test_nothing_survives_a_call(self, monkeypatch):
        """The dict of solved components lives for one shifting call: a
        second call on the same instance tabulates as much as the first."""
        calls = count_solve_dp(monkeypatch)
        inst = gen_instance(GenParams(n=40, seed=0, density="sparse"))
        counts = []
        for _ in range(2):
            calls.clear()
            eptas_max(inst, Fraction(1, 4))
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_outputs_pinned(self, corpus_small):
        """eptas_max solution documents, and eptas_min deleted sets, costs
        and chosen residues, on the benchmark's eptas runs (sparse n=40,
        seeds 0-6) and the first 40 corpus instances at eps 1, 1/2 and 1/4.
        Recorded with one solve per band and a separate component loop per
        scheme; re-recorded when every component with at most one
        hub-to-hub edge moved to the flat-arc pass: 4 of the 275 outputs
        keep another set of the same weight."""
        runs = [("max", "1/2"), ("max", "1/3"), ("max", "1/4"), ("min", "1/2"), ("min", "1/3")]
        cases = [(gen_instance(GenParams(n=40, seed=s, density="sparse")), v, e)
                 for s in range(7) for v, e in runs]
        cases += [(inst, v, e) for inst in corpus_small[:40]
                  for e in ("1", "1/2", "1/4") for v in ("max", "min")]
        lines = []
        for inst, variant, eps in cases:
            if variant == "max":
                sol, _rep = eptas_max(inst, Fraction(eps))
                lines.append(canonical_json(sol.document()))
            else:
                deleted, cost, rep = eptas_min(inst, Fraction(eps))
                lines.append(canonical_json(
                    [sorted(deleted), format_weight(cost), rep["chosen_residues"]]))
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
            "0c30f4cd9089da6c96e9022c5084ab25d2bae39d58a274f2197d7cd3e2199cc6"


def count_solve_dp(monkeypatch):
    """A list that gets one entry per ``solve_dp`` call of the solver."""
    calls = []
    real = kernel.solve_dp

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(kernel, "solve_dp", counted)
    return calls


def disconnected_instance(corpus_small):
    """A sparse n=40 graph, a corpus graph, an isolated vertex and a
    triangle, side by side as one instance."""
    parts = [gen_instance(GenParams(n=40, seed=3, density="sparse")), corpus_small[7],
             Instance(PlaneDigraph(1, [], [[]]), ()), triangle_instance()]
    graph, weights = parts[0].graph, parts[0].weights
    for inst in parts[1:]:
        graph, weights = side_by_side(graph, inst.graph), weights + inst.weights
    return Instance(graph, weights)


class TestKernelShifting:
    """``eptas._shift`` cuts every residue from each component's normal
    form; ``shift_reference`` cuts it from the whole component, splitting
    every cut edge.  Both must give the same solution documents, per-residue
    values and chosen residues."""

    @staticmethod
    def assert_same(inst, variant, eps):
        if variant == "max":
            sol, rep = eptas_max(inst, eps)
            want, per_residue, chosen = shift_reference(
                inst, rep["shift_width"], False, "eptas-max")
            assert rep["per_residue_kept"] == [format_weight(w) for w in per_residue]
        else:
            sol, rep = _eptas_min(inst, eps)
            want, per_residue, chosen = shift_reference(
                inst, rep["shift_width"], True, "eptas-min")
            total = inst.total_weight
            assert rep["per_residue_cost"] == [format_weight(total - w) for w in per_residue]
        assert sol.document() == want.document()
        assert rep["chosen_residues"] == chosen

    def test_benchmark_runs(self):
        runs = [("max", "1/2"), ("max", "1/3"), ("max", "1/4"), ("min", "1/2"), ("min", "1/3")]
        for seed in range(7):
            inst = gen_instance(GenParams(n=40, seed=seed, density="sparse"))
            for variant, eps in runs:
                self.assert_same(inst, variant, Fraction(eps))

    def test_corpus(self, corpus_small):
        for inst in corpus_small[:40]:
            for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 4)):
                for variant in ("max", "min"):
                    self.assert_same(inst, variant, eps)

    def test_disconnected(self, corpus_small):
        inst = disconnected_instance(corpus_small)
        assert len(inst.graph.components()) == 4
        for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)):
            for variant in ("max", "min"):
                self.assert_same(inst, variant, eps)

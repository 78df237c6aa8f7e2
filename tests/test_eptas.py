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

from mwbs.eptas import (
    LayerDecomposition,
    bfs_layers,
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
    PlaneDigraph,
    Solution,
    canonical_json,
    dart,
    dart_direction,
    encode_instance,
    format_weight,
    subgraph_by_edges,
)

from test_plane import star4_instance, triangle_instance


class TestLayers:
    def test_single_vertex(self):
        g = PlaneDigraph(1, [], [[]])
        layers = bfs_layers(g)
        assert layers.layers == ((0,),)

    def test_directed_path(self):
        edges = [(0, 1), (1, 2)]
        rot = [[dart(0, TAIL)], [dart(0, HEAD), dart(1, TAIL)], [dart(1, HEAD)]]
        g = PlaneDigraph(3, edges, rot)
        layers = bfs_layers(g)
        assert layers.layers == ((0,), (1,), (2,))

    def test_no_edge_skips_a_layer(self, corpus_small):
        for inst in corpus_small[:40]:
            g = inst.graph
            layers = bfs_layers(g)
            for u, v in g.edges:
                assert abs(layers.layer_of[u] - layers.layer_of[v]) <= 1

    def test_boundary_sets_disjoint(self, corpus_small):
        inst = corpus_small[0]
        layers = bfs_layers(inst.graph)
        t = 3
        seen = set()
        for i in range(t):
            cut = layers.boundary_edges(inst.graph, t, i)
            assert not (cut & seen)
            seen |= cut


class TestEptasMax:
    def test_epsilon_validation(self):
        for eps in (0, Fraction(3, 2), "abc", float("nan"), None, "1/0"):
            with pytest.raises(FormatError):
                eptas_max(triangle_instance(), eps)

    def test_small_diameter_is_exact(self, corpus_small, oracle_of):
        hit = 0
        for inst in corpus_small[:40]:
            eps = Fraction(1, 4)
            t = math.ceil(1 / eps)
            layers = bfs_layers(inst.graph)
            if len(layers.layers) - 1 < t:
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
            layers = bfs_layers(g)
            t = 2
            for i in range(t):
                cut = layers.boundary_edges(g, t, i)
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
        layers = bfs_layers(inst.graph)
        split, edge_orig = split_layer_graphs(inst, layers, residue=2, t=4)
        assert split.graph.vertex_count == inst.graph.vertex_count
        assert split.graph.edges == inst.graph.edges
        assert split.graph.rotation == inst.graph.rotation
        assert split.weights == inst.weights
        assert edge_orig == tuple(range(inst.graph.edge_count))

    def test_boundary_edge_two_copies(self, corpus_small):
        inst = corpus_small[1]
        g = inst.graph
        layers = bfs_layers(g)
        t = 2
        assert layers.boundary_edges(g, t, 0)
        for i in range(t):
            split, edge_orig = split_layer_graphs(inst, layers, i, t)
            copies = Counter(edge_orig)
            boundary = layers.boundary_edges(g, t, i)
            for e in range(g.edge_count):
                assert copies[e] == (2 if e in boundary else 1)
                assert [split.weights[j] for j, o in enumerate(edge_orig) if o == e] \
                    == [inst.weights[e]] * copies[e]

    def test_real_vertex_rotations_preserved(self, corpus_small):
        for inst in corpus_small[:15]:
            g = inst.graph
            layers = bfs_layers(g)
            t = 2
            for i in range(t):
                split, edge_orig = split_layer_graphs(inst, layers, i, t)
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
            layers = bfs_layers(g)
            t = 2
            for i in range(t):
                split, edge_orig = split_layer_graphs(inst, layers, i, t)
                kept = {j for j, e in enumerate(edge_orig) if e not in deleted}
                assert not split.graph.bad_vertices(kept)

    def test_components_lie_in_one_band(self, corpus_small):
        sparse = gen_instance(GenParams(n=40, seed=0, density="sparse"))
        for inst in corpus_small[:40] + [sparse]:
            g = inst.graph
            layers = bfs_layers(g)
            depth = len(layers.layers)
            for t in (1, 2, 3):
                for i in range(t):
                    cuts = range(i, depth - 1, t)
                    split, _edge_orig = split_layer_graphs(inst, layers, i, t)
                    bands = [
                        {sum(c < layers.layer_of[v] for c in cuts)
                         for v in verts if v < g.vertex_count}
                        for verts, _edges in split.graph.components()]
                    assert all(len(b) == 1 for b in bands)
                    assert len(set().union(*bands)) == len(cuts) + 1

    def test_edge_skipping_a_layer_refused(self):
        inst = triangle_instance()
        layers = LayerDecomposition(((0,), (1,), (2,)), (0, 1, 2))
        with pytest.raises(EmbeddingError, match="skips a layer"):
            split_layer_graphs(inst, layers, 0, 2)


class TestEptasMin:
    def test_epsilon_validation(self):
        for eps in (0, Fraction(3, 2), "abc", float("nan"), None, "1/0"):
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
            depth = len(bfs_layers(inst.graph).layers)
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

        def keep_all(piece):
            return Solution(frozenset(range(piece.graph.edge_count)),
                            piece.total_weight, Fraction(0), "subexp", ())

        monkeypatch.setattr("mwbs.eptas.solve_subexponential", keep_all)
        with pytest.raises(EmbeddingError, match="mapped-back kept set is not feasible"):
            eptas_max(inst, Fraction(1, 2))
        with pytest.raises(EmbeddingError, match="mapped-back kept set is not feasible"):
            eptas_min(inst, Fraction(1, 2))

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

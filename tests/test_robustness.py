"""Adversarial and structural edge cases across the whole pipeline."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mwbs.decomposition import (
    SphereCutDecomposition,
    _greedy_sweep,
    _recursive_bisection,
    build_sphere_cut,
    decomposition_from_document,
    validate_decomposition,
)
from mwbs.dp import solve_dp
from mwbs.eptas import bfs_layers, eptas_max, eptas_min
from mwbs.errors import BuildError, DecompositionError, EmbeddingError, Error, FormatError
from mwbs.generate import GenParams, gen_instance, planted_star_instance
import mwbs.kernel as kernel
from mwbs.kernel import (reduce_to_simple, solve_components, solve_subexponential,
                         to_cut_instance)
from mwbs.oracle import brute_force_mwbs
from mwbs.plane import (
    HEAD,
    TAIL,
    Instance,
    PlaneDigraph,
    dart,
    decode_instance,
    encode_instance,
    instance_document,
    instance_from_document,
    make_solution,
)

from oracles import brute_force_cut
from test_plane import star4_instance, triangle_instance


def parallel_bundle(k, alternate=True, weights=None):
    """k parallel edges between two vertices, nested in the plane.

    With alternating directions both endpoints become bad for k >= 4."""
    edges = []
    rot0, rot1 = [], []
    for j in range(k):
        if alternate and j % 2:
            edges.append((1, 0))
            rot0.append(dart(j, HEAD))
            rot1.insert(0, dart(j, TAIL))
        else:
            edges.append((0, 1))
            rot0.append(dart(j, TAIL))
            rot1.insert(0, dart(j, HEAD))
    g = PlaneDigraph(2, edges, [rot0, rot1])
    return Instance(g, weights or tuple(Fraction(j + 1) for j in range(k)))


class TestParallelEdges:
    def test_bundle_is_valid_embedding(self):
        inst = parallel_bundle(5)
        assert len(inst.graph.faces) == 5   # 2 - 5 + 5 = 2

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_dp_matches_oracle_on_bundles(self, k):
        inst = parallel_bundle(k)
        want = brute_force_mwbs(inst)
        dec = build_sphere_cut(inst.graph)
        assert solve_dp(inst, dec).kept_weight == want.kept_weight
        assert solve_subexponential(inst).kept_weight == want.kept_weight

    def test_two_antiparallel_edges(self):
        inst = parallel_bundle(2)
        sol = solve_subexponential(inst)
        assert sol.deleted_weight == 0   # one in-dart, one out-dart each side

    def test_kernel_on_bundle(self):
        # both endpoints bad: every edge is bad-bad, classes are singletons
        inst = parallel_bundle(6)
        assert set(inst.graph.bad_vertices()) == {0, 1}
        cut = to_cut_instance(inst)
        assert all(len(c) == 1 for c in cut.classes)
        got = brute_force_cut(cut.instance, cut.classes)
        assert got.kept_weight + cut.base_kept_weight == \
            brute_force_mwbs(inst).kept_weight


def two_component_instance():
    a = gen_instance(GenParams(n=5, seed=11, density="sparse"))
    b = star4_instance()
    ga, gb = a.graph, b.graph
    off_v = ga.vertex_count
    off_e = ga.edge_count
    edges = list(ga.edges) + [(t + off_v, h + off_v) for t, h in gb.edges]
    rot = [list(r) for r in ga.rotation]
    rot += [[dart((d >> 1) + off_e, d & 1) for d in r] for r in gb.rotation]
    return (Instance(PlaneDigraph(ga.vertex_count + gb.vertex_count, edges, rot),
                     a.weights + b.weights), a, b)


class TestDisconnected:
    def test_subexp_splits_components(self):
        inst, a, b = two_component_instance()
        want = brute_force_mwbs(a).kept_weight + brute_force_mwbs(b).kept_weight
        assert solve_subexponential(inst).kept_weight == want

    def test_eptas_handles_components(self):
        inst, a, b = two_component_instance()
        opt = brute_force_mwbs(a).kept_weight + brute_force_mwbs(b).kept_weight
        sol, _rep = eptas_max(inst, Fraction(1, 2))
        assert sol.kept_weight >= Fraction(1, 2) * opt
        deleted, cost, _rep = eptas_min(inst, Fraction(1, 2))
        opt_min = inst.total_weight - opt
        assert cost <= Fraction(3, 2) * opt_min

    def test_one_component_solvers_refuse_it(self):
        """The builder, the table solver and the BFS layering take one
        component; each refuses the whole with its own type and text."""
        inst, _a, _b = two_component_instance()
        for call, error, text in (
                (lambda: build_sphere_cut(inst.graph), BuildError,
                 "decompose one connected component at a time"),
                (lambda: solve_dp(inst, SphereCutDecomposition(0, (), {})), DecompositionError,
                 "solve_dp expects a connected graph"),
                (lambda: bfs_layers(inst.graph, 0), EmbeddingError,
                 "bfs_layers needs a connected graph")):
            with pytest.raises(error) as info:
                call()
            assert type(info.value) is error and str(info.value) == text

    def test_roundtrip_document(self):
        inst, _a, _b = two_component_instance()
        text = encode_instance(inst)
        assert encode_instance(decode_instance(text)) == text


class TestIsolatedVertices:
    def test_reduction_removes_isolated(self):
        base = star4_instance()
        g = base.graph
        rot = [list(r) for r in g.rotation] + [[]]
        inst = Instance(PlaneDigraph(g.vertex_count + 1, g.edges, rot), base.weights)
        red = reduce_to_simple(inst)
        assert ("isolated", 5) in red.trace
        assert red.instance.graph.vertex_count == 5
        assert solve_subexponential(inst).kept_weight == 3


def one_edge_document(tail=0, head=1, edge_id=0, dart_edge=0, vertices=2):
    return {
        "vertices": vertices,
        "edges": [{"id": edge_id, "tail": tail, "head": head, "weight": "1/1"}],
        "rotation": [[{"edge": dart_edge, "end": "tail"}],
                     [{"edge": 0, "end": "head"}]],
    }


class TestBooleanIntegers:
    """JSON true/false are not integers, though Python's bool is an int."""

    @pytest.mark.parametrize("doc", [
        {"vertices": True, "edges": [], "rotation": [[]]},
        one_edge_document(edge_id=False, head=True),
        one_edge_document(tail=False),
        one_edge_document(dart_edge=False),
    ])
    def test_rejected_where_integers_are_expected(self, doc):
        plain = json.loads(json.dumps(doc).replace("true", "1").replace("false", "0"))
        assert decode_instance(json.dumps(plain)).graph.vertex_count >= 1
        with pytest.raises(FormatError):
            decode_instance(json.dumps(doc))


def _set_first(items, old, new):
    items[items.index(old)] = new


class TestDecompositionDocuments:
    """Node and edge ids are JSON integers; nothing is truncated or coerced."""

    @pytest.fixture
    def doc(self):
        return build_sphere_cut(triangle_instance().graph).document()

    def test_undamaged_document_validates(self, doc):
        dec = decomposition_from_document(json.loads(json.dumps(doc)))
        assert validate_decomposition(triangle_instance().graph, dec).ok

    @pytest.mark.parametrize("damage", [
        lambda doc: doc.update(nodes=doc["nodes"] + 0.7),
        lambda doc: doc.update(nodes=str(doc["nodes"])),
        lambda doc: _set_first(next(a for a in doc["arcs"] if 1 in a), 1, True),
        lambda doc: doc.update(leaf_map={k: v + 0.5 for k, v in doc["leaf_map"].items()}),
        lambda doc: doc.update(leaf_map={k: v == 1 for k, v in doc["leaf_map"].items()}),
        lambda doc: doc.update(leaf_map={"+" + k: v for k, v in doc["leaf_map"].items()}),
        lambda doc: doc.update(leaf_map={k + " ": v for k, v in doc["leaf_map"].items()}),
        lambda doc: doc.update(leaf_map=list(doc["leaf_map"].items())),
    ], ids=["float-nodes", "string-nodes", "boolean-arc-end", "float-leaf-edge",
            "boolean-leaf-edge", "signed-key", "padded-key", "leaf-map-not-an-object"])
    def test_rejected(self, doc, damage):
        damage(doc)
        with pytest.raises(DecompositionError, match="malformed decomposition"):
            decomposition_from_document(json.loads(json.dumps(doc)))

    def test_node_count_beyond_the_arcs_is_refused_before_allocating(self, doc):
        doc["nodes"] = 10 ** 12
        report = validate_decomposition(triangle_instance().graph,
                                        decomposition_from_document(doc))
        assert not report.ok and "arcs" in report.violations[0]


class TestExternalDecompositions:
    def cycle_instance(self, k):
        edges = [(j, (j + 1) % k) for j in range(k)]
        rot = [[dart(j, TAIL), dart((j - 1) % k, HEAD)] for j in range(k)]
        return Instance(PlaneDigraph(k, edges, rot), tuple(Fraction(1) for _ in edges))

    def test_hand_built_caterpillars_on_a_cycle(self):
        inst = self.cycle_instance(6)
        want = brute_force_mwbs(inst).kept_weight
        m = 6
        for order in (list(range(m)), list(reversed(range(m))),
                      [3, 4, 5, 0, 1, 2]):
            internal = [m + j for j in range(m - 2)]
            arcs = [(0, internal[0]), (1, internal[0])]
            for j in range(1, m - 2):
                arcs.append((internal[j - 1], internal[j]))
                arcs.append((j + 1, internal[j]))
            arcs.append((m - 1, internal[-1]))
            dec = SphereCutDecomposition(2 * m - 2, tuple(arcs),
                                         {j: order[j] for j in range(m)})
            report = validate_decomposition(inst.graph, dec)
            assert report.ok
            assert solve_dp(inst, dec).kept_weight == want

    def test_wider_valid_decomposition_still_exact(self, corpus_small, oracle_of):
        # a caterpillar in plain edge-id order is often wider than the
        # builder's; whenever it passes the validator the optimum must agree
        checked = 0
        for inst in corpus_small[:60]:
            m = inst.graph.edge_count
            internal = [m + j for j in range(m - 2)]
            arcs = [(0, internal[0]), (1, internal[0])]
            for j in range(1, m - 2):
                arcs.append((internal[j - 1], internal[j]))
                arcs.append((j + 1, internal[j]))
            arcs.append((m - 1, internal[-1]))
            dec = SphereCutDecomposition(2 * m - 2, tuple(arcs),
                                         {j: j for j in range(m)})
            report = validate_decomposition(inst.graph, dec)
            if not report.ok or report.width > 6:
                continue
            assert solve_dp(inst, dec).kept_weight == oracle_of(inst).kept_weight
            checked += 1
        assert checked > 5


def random_plane_multigraph(rng):
    """A seeded random plane multigraph on 2-7 vertices, mostly 2-4 with
    5-11 edges (denser graphs reach the table solver more often), else up
    to 13.  Each edge joins two random vertices in a random direction, its
    darts go to random positions of both rotations, and it is kept only
    where PlaneDigraph accepts the result (at most four tries), so
    parallel edges, shuffled rotations and disconnected graphs all occur.
    Weights are random rationals in [1/3, 9]."""
    n = rng.choice((2, 3, 3, 4, 4, 5, 6, 7))
    target = rng.randint(5, 11) if n <= 4 else rng.randint(1, 13)
    edges, rows = [], [[] for _ in range(n)]
    for _ in range(target):
        u, v = rng.sample(range(n), 2)
        e = len(edges)
        for _try in range(4):
            trial = [list(row) for row in rows]
            trial[u].insert(rng.randint(0, len(trial[u])), dart(e, TAIL))
            trial[v].insert(rng.randint(0, len(trial[v])), dart(e, HEAD))
            try:
                PlaneDigraph(n, edges + [(u, v)], trial)
            except EmbeddingError:
                continue
            edges.append((u, v))
            rows = trial
            break
    weights = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in edges)
    return Instance(PlaneDigraph(n, edges, rows), weights)


class TestAdversarialEmbeddings:
    def test_solvers_match_brute_force(self, monkeypatch):
        """600 random plane multigraphs: ``solve_subexponential``, and
        ``solve_dp`` on the built tree at every mapped root leaf of the
        connected ones, find the brute-force optimum; ``eptas_max`` and
        ``eptas_min`` at eps 1 and 1/2 keep their guarantees.  Counts
        the disconnected graphs, those with parallel edges and those whose
        pipeline hands a component to the table solver."""
        tabled = []
        real = kernel.solve_dp
        monkeypatch.setattr(kernel, "solve_dp",
                            lambda *args: tabled.append(1) or real(*args))
        rng = random.Random(24)
        disconnected = parallel = reached = roots = 0
        for _ in range(600):
            inst = random_plane_multigraph(rng)
            g = inst.graph
            opt = brute_force_mwbs(inst)
            before = len(tabled)
            assert solve_subexponential(inst).kept_weight == opt.kept_weight
            reached += len(tabled) > before
            parallel += len({frozenset(ends) for ends in g.edges}) < g.edge_count
            if not g.is_connected():
                disconnected += 1
            elif g.edge_count:
                dec = build_sphere_cut(g)
                for root in dec.leaf_map:
                    assert solve_dp(inst, dec, root).kept_weight == opt.kept_weight
                    roots += 1
            for eps in (Fraction(1), Fraction(1, 2)):
                assert eptas_max(inst, eps)[0].kept_weight >= (1 - eps) * opt.kept_weight
                assert eptas_min(inst, eps)[1] <= (1 + eps) * opt.deleted_weight
        assert disconnected >= 100 and parallel >= 450 and reached >= 75 and roots >= 3000, \
            (disconnected, parallel, reached, roots)


class TestLargerDifferential:
    def test_dp_vs_subexp_medium(self):
        """Two independent solution paths agree beyond oracle reach."""
        for seed in range(25, 41):
            inst = gen_instance(GenParams(n=9 + seed % 4, seed=seed,
                                          density="sparse", sparse_p=Fraction(1, 3)))
            g = inst.graph
            if not g.is_connected():
                continue
            dec = build_sphere_cut(g)
            if (dec.declared_width or 0) > 6:
                continue
            a = solve_dp(inst, dec)
            b = solve_subexponential(inst)
            assert a.kept_weight == b.kept_weight, seed

    def test_builders_survive_larger_triangulations(self):
        for seed in range(8):
            for n in (10, 16, 22):
                g = gen_instance(GenParams(n=n, seed=seed)).graph
                for build in (_greedy_sweep, _recursive_bisection):
                    assert validate_decomposition(g, build(g)).ok

    def test_planted_eptas_consistency(self):
        inst = planted_star_instance(120, 17, 5)
        exact = solve_subexponential(inst)
        opt_min = exact.deleted_weight
        for eps in (Fraction(1), Fraction(1, 2)):
            deleted, cost, _rep = eptas_min(inst, eps)
            assert cost <= (1 + eps) * opt_min
            sol, _rep = eptas_max(inst, eps)
            assert sol.kept_weight >= (1 - eps) * exact.kept_weight


def mutate(doc, kind, data):
    """Apply one mutation to an instance document in place: swap two darts
    at one vertex, flip one edge (tail and head, and both dart ends), or
    delete a nonempty edge subset (the rest renumbered densely, every
    vertex kept)."""
    if kind == "swap":
        row = data.draw(st.sampled_from([row for row in doc["rotation"] if len(row) >= 2]))
        i, j = data.draw(st.lists(st.integers(0, len(row) - 1),
                                  min_size=2, max_size=2, unique=True))
        row[i], row[j] = row[j], row[i]
    elif kind == "flip":
        e = data.draw(st.integers(0, len(doc["edges"]) - 1))
        edge = doc["edges"][e]
        edge["tail"], edge["head"] = edge["head"], edge["tail"]
        for row in doc["rotation"]:
            for d in row:
                if d["edge"] == e:
                    d["end"] = "head" if d["end"] == "tail" else "tail"
    else:
        m = len(doc["edges"])
        gone = data.draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=m))
        new_id = {e: k for k, e in enumerate(e for e in range(m) if e not in gone)}
        doc["edges"] = [dict(edge, id=new_id[edge["id"]])
                        for edge in doc["edges"] if edge["id"] not in gone]
        doc["rotation"] = [[dict(d, edge=new_id[d["edge"]]) for d in row
                            if d["edge"] not in gone] for row in doc["rotation"]]


class TestMutatedRotationSystems:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_refused_or_solved_exactly(self, corpus_small, data):
        """A mutated corpus document is either refused with a typed error
        when decoded, or the component solver, the oracle and the
        subexponential pipeline agree on its optimum."""
        inst = corpus_small[data.draw(st.integers(0, len(corpus_small) - 1))]
        doc = instance_document(inst)
        mutate(doc, data.draw(st.sampled_from(("swap", "flip", "delete"))), data)
        try:
            mutant = instance_from_document(doc)
        except Error:
            return
        want = brute_force_mwbs(mutant).kept_weight
        assert make_solution(mutant, solve_components(mutant), "dp").kept_weight == want
        assert solve_subexponential(mutant).kept_weight == want

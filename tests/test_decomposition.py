"""Builders, the builder policy, validator, documents, arc boundaries."""

import json
from fractions import Fraction

import pytest

from mwbs.decomposition import (
    ArcBoundary,
    RootedDecomposition,
    SphereCutDecomposition,
    _greedy_sweep,
    _recursive_bisection,
    build_sphere_cut,
    decomposition_from_document,
    middle_set,
    validate_decomposition,
)
from mwbs.errors import BuildError
from mwbs.generate import GenParams, gen_instance
from mwbs.kernel import reduce_to_simple
from mwbs.oracle import is_star
from mwbs.plane import HEAD, TAIL, PlaneDigraph, dart, subgraph_by_edges

from test_plane import star4_instance, triangle_instance


def connected_corpus(corpus, count=None):
    out = [inst for inst in corpus
           if inst.graph.is_connected() and inst.graph.edge_count >= 1]
    return out if count is None else out[:count]


class TestBuilders:
    def test_single_edge_degenerate(self):
        edges = [(0, 1)]
        rot = [[dart(0, TAIL)], [dart(0, HEAD)]]
        g = PlaneDigraph(2, edges, rot)
        dec = build_sphere_cut(g)
        assert dec.node_count == 2 and dec.declared_width == 2
        report = validate_decomposition(g, dec)
        assert report.ok and report.width == 2

    def test_triangle_width_two(self):
        g = triangle_instance().graph
        for build in (_greedy_sweep, _recursive_bisection):
            dec = build(g)
            report = validate_decomposition(g, dec)
            assert report.ok
            assert report.width == 2  # exhaustive: a triangle has branchwidth 2

    def test_triangle_branchwidth_exhaustive(self):
        """Every 3-leaf tree over the triangle's edges has width 2."""
        g = triangle_instance().graph
        import itertools
        widths = []
        for perm in itertools.permutations(range(3)):
            dec = SphereCutDecomposition(4, ((0, 3), (1, 3), (2, 3)),
                                         {j: perm[j] for j in range(3)})
            report = validate_decomposition(g, dec)
            assert report.ok
            widths.append(report.width)
        assert set(widths) == {2}

    def test_empty_graph_refused(self):
        g = PlaneDigraph(1, [], [[]])
        with pytest.raises(BuildError):
            build_sphere_cut(g)

    def test_corpus_all_valid(self, corpus_small):
        """Both builders' raw trees validate, and the policy keeps the
        greedy width up to 5 and the narrower of the two above."""
        for inst in connected_corpus(corpus_small):
            g = inst.graph
            greedy, bisection = (validate_decomposition(g, build(g))
                                 for build in (_greedy_sweep, _recursive_bisection))
            assert greedy.ok and bisection.ok, (greedy.violations, bisection.violations)
            dec = build_sphere_cut(g)
            assert validate_decomposition(g, dec).width == dec.declared_width
            want = greedy.width if greedy.width <= 5 else min(greedy.width, bisection.width)
            assert dec.declared_width == want


class TestBuilderPolicy:
    def test_greedy_kept_where_bisection_is_wider(self):
        """corpus-dp instance gen n=5 seed=1: greedy gives width 2 and
        recursive-bisection 3; at width <= 5 greedy is kept."""
        g = gen_instance(GenParams(n=5, seed=1, orientation_bias=Fraction(1, 4),
                                   density="sparse", sparse_p=Fraction(1, 2))).graph
        assert validate_decomposition(g, _greedy_sweep(g)).width == 2
        assert validate_decomposition(g, _recursive_bisection(g)).width == 3
        assert build_sphere_cut(g).declared_width == 2

    def test_bisection_kept_where_greedy_is_above_five(self):
        """The reduced non-star component of triangulation n=24 seed 11:
        greedy alone gives width 6, the policy returns width 5."""
        red = reduce_to_simple(gen_instance(GenParams(n=24, seed=11))).instance
        (sub,) = [sub for sub in (subgraph_by_edges(red, edges)[0]
                                  for _v, edges in red.graph.components() if edges)
                  if is_star(sub.graph) is None and sub.graph.edge_count >= 2]
        g = sub.graph
        assert validate_decomposition(g, _greedy_sweep(g)).width == 6
        dec = build_sphere_cut(g)
        assert dec.declared_width == 5
        assert validate_decomposition(g, dec).width == 5

    def test_bisection_failure_keeps_greedy(self, monkeypatch):
        import mwbs.decomposition as decomposition
        g = gen_instance(GenParams(n=24, seed=11)).graph

        def stuck(_graph):
            raise BuildError("no contiguous bipartition found")

        greedy = validate_decomposition(g, _greedy_sweep(g)).width
        assert greedy > 5
        monkeypatch.setattr(decomposition, "_recursive_bisection", stuck)
        assert build_sphere_cut(g).declared_width == greedy
        # an invalid tree is a builder fault: it is reported, not skipped
        monkeypatch.setattr(decomposition, "_recursive_bisection",
                            lambda graph: SphereCutDecomposition(2, ((0, 1),), {0: 0}))
        with pytest.raises(BuildError, match="invalid decomposition"):
            build_sphere_cut(g)

    def test_greedy_only_strategy(self):
        """The one pinned choice: greedy-sweep alone, as the benchmark's
        golden-file script uses it; any other name is refused."""
        red = reduce_to_simple(gen_instance(GenParams(n=24, seed=11))).instance
        g = max((subgraph_by_edges(red, edges)[0].graph
                 for _v, edges in red.graph.components() if edges),
                key=lambda graph: graph.edge_count)
        assert build_sphere_cut(g, "greedy-sweep").declared_width == 6
        for name in ("recursive-bisection", "auto"):
            with pytest.raises(BuildError):
                build_sphere_cut(g, name)


class TestValidator:
    def test_unknown_edge_in_leaf_map(self):
        g = triangle_instance().graph
        dec = SphereCutDecomposition(4, ((0, 3), (1, 3), (2, 3)),
                                     {0: 0, 1: 1, 2: 99})
        report = validate_decomposition(g, dec)
        assert not report.ok
        assert any("bijection" in v for v in report.violations)

    def test_out_of_range_nodes_rejected_not_crashed(self):
        g = triangle_instance().graph
        for arcs, nodes in ((((0, 9), (1, 3), (2, 3)), 4),
                            (((0, 3), (1, 3), (2, 2)), 4),
                            (((0, 3), (1, 3), (2, 3)), 3),
                            (((0, -1), (1, 3), (2, 3)), 4)):
            dec = SphereCutDecomposition(nodes, arcs, {0: 0, 1: 1, 2: 2})
            report = validate_decomposition(g, dec)
            assert not report.ok and report.violations

    def test_internal_degree_violation(self):
        g = gen_instance(GenParams(n=4, seed=1, density="sparse")).graph
        m = g.edge_count
        # a path tree: internal nodes of degree 2
        arcs = tuple((j, j + 1) for j in range(m))
        dec = SphereCutDecomposition(m + 1, arcs, {j: j for j in range(m)})
        report = validate_decomposition(g, dec)
        assert not report.ok

    def test_caterpillar_over_path_ok(self):
        edges = [(0, 1), (1, 2), (2, 3)]
        rot = [[dart(0, TAIL)], [dart(0, HEAD), dart(1, TAIL)],
               [dart(1, HEAD), dart(2, TAIL)], [dart(2, HEAD)]]
        g = PlaneDigraph(4, edges, rot)
        dec = SphereCutDecomposition(4, ((0, 3), (1, 3), (2, 3)), {0: 0, 1: 1, 2: 2})
        report = validate_decomposition(g, dec)
        assert report.ok and report.width == 2

    def test_interleaved_star_rejected(self):
        """Caterpillar absorbing opposite star edges first: the prefix
        {e0, e2} is not one run at the center, violating contiguity."""
        g = star4_instance().graph
        dec = SphereCutDecomposition(
            6, ((0, 4), (1, 4), (4, 5), (2, 5), (3, 5)),
            {0: 0, 1: 2, 2: 1, 3: 3})
        report = validate_decomposition(g, dec)
        assert not report.ok
        assert any("contiguous" in v for v in report.violations)

    def test_import_export_roundtrip(self, corpus_small):
        inst = connected_corpus(corpus_small, 1)[0]
        dec = build_sphere_cut(inst.graph)
        doc = json.loads(json.dumps(dec.document()))
        again = decomposition_from_document(doc)
        report = validate_decomposition(inst.graph, again)
        assert report.ok and report.width == dec.declared_width


class TestArcBoundary:
    def test_leaf_arc_mid_and_runs(self):
        g = triangle_instance().graph
        dec = build_sphere_cut(g)
        adj = dec.neighbors()
        root = min(dec.leaf_map)
        rooted = RootedDecomposition(g, dec, root)
        other_leaves = [u for u in dec.leaf_map if u != root]
        for leaf in other_leaves:
            b = rooted.boundary(leaf)
            assert b.arc == (leaf, adj[leaf][0])
            e = dec.leaf_map[leaf]
            t, h = g.edges[e]
            assert set(b.mid) == {t, h}
            for v in (t, h):
                start, length = b.runs[v]
                assert length == 1
                d = g.rotation[v][start]
                assert d >> 1 == e

    def test_root_adjacent_mid_matches_bipartition(self, corpus_small):
        for inst in connected_corpus(corpus_small, 30):
            g = inst.graph
            if g.edge_count < 2:
                continue
            dec = build_sphere_cut(g)
            root = min(dec.leaf_map)
            rooted = RootedDecomposition(g, dec, root)
            top = rooted.children[root][0]
            b = rooted.boundary(top)
            inside = set(range(g.edge_count)) - {dec.leaf_map[root]}
            assert list(b.mid) == middle_set(g, inside)

    def test_child_runs_tile_parent(self, corpus_small):
        for inst in connected_corpus(corpus_small, 30):
            g = inst.graph
            if g.edge_count < 3:
                continue
            dec = _recursive_bisection(g)    # balanced trees have two-child runs
            root = min(dec.leaf_map)
            rooted = RootedDecomposition(g, dec, root)
            bounds = {node: rooted.boundary(node) for node in rooted.post_order}
            for node in rooted.post_order:
                kids = rooted.children[node]
                if len(kids) != 2:
                    continue
                parent = bounds[node]
                for v in parent.mid:
                    runs = [bounds[k].runs[v] for k in kids if v in bounds[k].runs]
                    total = sum(length for _s, length in runs)
                    assert total == parent.runs[v][1]
                    starts = {s for s, _l in runs}
                    assert parent.runs[v][0] in starts

    def test_mid_two_ways_agree(self, corpus_small):
        """Bipartition intersection vs incremental dart bookkeeping."""
        for inst in connected_corpus(corpus_small, 20):
            g = inst.graph
            if g.edge_count < 2:
                continue
            dec = build_sphere_cut(g)
            root = min(dec.leaf_map)
            rooted = RootedDecomposition(g, dec, root)
            for node in rooted.post_order:
                inside = rooted.inside[node]
                # incremental bookkeeping: count darts per vertex
                darts_in = {}
                for e in inside:
                    for v in g.edges[e]:
                        darts_in[v] = darts_in.get(v, 0) + 1
                mid_inc = sorted(v for v, c in darts_in.items() if c < g.degree(v))
                assert mid_inc == middle_set(g, inside)
                assert mid_inc == list(rooted.boundary(node).mid)

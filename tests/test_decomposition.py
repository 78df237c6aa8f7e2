"""Builders, the builder policy, validator, documents, arc boundaries."""

import hashlib
import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import mwbs.decomposition as decomposition
from mwbs.decomposition import (
    ArcBoundary,
    RootedDecomposition,
    SphereCutDecomposition,
    _caterpillar,
    _greedy_sweep,
    _grow,
    _recursive_bisection,
    _skeleton,
    _split_checks,
    _split_cost,
    build_sphere_cut,
    decomposition_from_document,
    validate_decomposition,
)
from mwbs.configs import CLASS_MAPS
from mwbs.errors import BuildError, DecompositionError, EmbeddingError
from mwbs.generate import GenParams, gen_instance
from mwbs.dp import _demand, solve_dp
from mwbs.kernel import reduce_to_simple, solve_subexponential
from mwbs.oracle import brute_force_mwbs, is_star
from mwbs.plane import (
    HEAD,
    TAIL,
    Instance,
    PlaneDigraph,
    canonical_json,
    dart,
    instance_document,
    make_solution,
    subgraph_by_edges,
)

from oracles import check_view, join_split, reference_rooted, switch_prefix
from test_dp import double_star_instance, inside_sets, path_instance
from test_plane import star4_instance, triangle_instance


def flag_run(flags):
    """The run test on a flag per rotation position: (start, length) of
    the set flags if they switch on at most once around the rotation, else
    None; no flag or every flag set starts at 0."""
    starts = [j for j, f in enumerate(flags) if f and not flags[j - 1]]
    if len(starts) > 1:
        return None
    return (starts[0] if starts else 0, sum(flags))


def middle_set(graph, inside):
    """Vertices with darts on both sides of the edge bipartition, from
    the inside edges alone."""
    deg_inside = {}
    for e in inside:
        for v in graph.edges[e]:
            deg_inside[v] = deg_inside.get(v, 0) + 1
    return sorted(v for v, k in deg_inside.items() if k < graph.degree(v))


def connected_corpus(corpus, count=None):
    out = [inst for inst in corpus
           if inst.graph.is_connected() and inst.graph.edge_count >= 1]
    return out if count is None else out[:count]


def seed11_component():
    """The reduced non-star component of triangulation n=24 seed 11 (63
    edges), where greedy-sweep is wider than recursive-bisection."""
    red = reduce_to_simple(gen_instance(GenParams(n=24, seed=11))).instance
    (sub,) = [sub for sub in (subgraph_by_edges(red, edges)[0]
                              for _v, edges in red.graph.components() if edges)
              if is_star(sub.graph) is None and sub.graph.edge_count >= 2]
    return sub.graph


def skeleton_of(graph):
    """The hub-to-hub edges as a graph with the inherited rotation, or None
    when there are no pendants or no hub-to-hub edge."""
    hub = [graph.degree(v) > 1 for v in range(graph.vertex_count)]
    edges = [e for e, (t, h) in enumerate(graph.edges) if hub[t] and hub[h]]
    if not edges or len(edges) == graph.edge_count:
        return None
    unit = Instance(graph, (Fraction(1),) * graph.edge_count)
    return subgraph_by_edges(unit, edges)[0].graph


def policy_width(graph):
    """Greedy's width up to 5, the narrower of the two builders above."""
    greedy = validate_decomposition(graph, _greedy_sweep(graph)).width
    if greedy <= 5:
        return greedy
    return min(greedy, validate_decomposition(graph, _recursive_bisection(graph)).width)


def star_instance(k):
    """k unit-weight edges out of vertex 0, numbered in rotation order."""
    edges = [(0, j + 1) for j in range(k)]
    rot = [[dart(j, TAIL) for j in range(k)]] + [[dart(j, HEAD)] for j in range(k)]
    return Instance(PlaneDigraph(k + 1, edges, rot), (Fraction(1),) * k)


# a caterpillar over star_instance(6) absorbing edges 0, 2, 1, 4, 3, 5: the
# prefixes {0, 2} (arc (6, 7)) and {0, 1, 2, 4} (arc (8, 9)) are not one run
# at the center, the prefix {0, 1, 2} (arc (7, 8)) is
TWO_BROKEN_ARCS = SphereCutDecomposition(
    10, ((0, 6), (1, 6), (6, 7), (2, 7), (7, 8), (3, 8), (8, 9), (4, 9), (5, 9)),
    {0: 0, 1: 2, 2: 1, 3: 4, 4: 3, 5: 5})


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
        """Both builders' raw trees validate, and on the skeleton the policy
        keeps the greedy width up to 5 and the narrower of the two above;
        the pendants' caterpillar arcs are at most 2 wide."""
        for inst in connected_corpus(corpus_small):
            g = inst.graph
            greedy, bisection = (validate_decomposition(g, build(g))
                                 for build in (_greedy_sweep, _recursive_bisection))
            assert greedy.ok and bisection.ok, (greedy.violations, bisection.violations)
            dec = build_sphere_cut(g)
            assert validate_decomposition(g, dec).width == dec.declared_width
            skel = skeleton_of(g)
            if skel is None:
                assert dec.declared_width == policy_width(g)
            else:
                want = policy_width(skel)
                assert max(want, 1) <= dec.declared_width <= max(want, 2)


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
        """Greedy alone gives width 6, the policy returns width 5."""
        g = seed11_component()
        assert validate_decomposition(g, _greedy_sweep(g)).width == 6
        dec = build_sphere_cut(g)
        assert dec.declared_width == 5
        assert validate_decomposition(g, dec).width == 5

    def test_fewer_entries_kept_on_a_width_tie(self):
        """Triangulation n=100 seed 2 reduces to one component on which
        greedy and bisection both give width 11, but the tables that
        solve_dp builds on bisection's tree hold 6,393,586 entries and on
        greedy's 234,726,902 (14,890,290 and 1,762,998,792 with every
        class tabulated): the policy keeps bisection's tree.  Built,
        validated and walked for demand only."""
        (sub,) = dp_components(gen_instance(GenParams(n=100, seed=2)))
        g = sub.graph
        skeleton, lift = _skeleton(g)
        greedy = decomposition._validated(g, lift(_greedy_sweep(skeleton)))
        bisection = decomposition._validated(g, lift(_recursive_bisection(skeleton)))
        assert (greedy.declared_width, bisection.declared_width) == (11, 11)
        assert demanded_entries(greedy) == 234_726_902
        assert demanded_entries(bisection) == 6_393_586
        dec = build_sphere_cut(g)
        assert (dec.arcs, dec.leaf_map) == (bisection.arcs, bisection.leaf_map)

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


def demanded_entries(dec):
    """The entries of the tables that solve_dp builds on a built tree at
    its report's root."""
    return sum(math.prod(mask.bit_count() for mask in masks)
               for masks in _demand(dec.report.rooted).values())


def dp_components(instance):
    """The reduced components the pipeline hands to ``solve_dp``: no star,
    at least two edges."""
    red = reduce_to_simple(instance).instance
    subs = (subgraph_by_edges(red, edges)[0] for _v, edges in red.graph.components() if edges)
    return [sub for sub in subs if is_star(sub.graph) is None and sub.graph.edge_count >= 2]


def embedded(edges, rotation_at):
    """An instance with weights 1, 2, ... over ``edges``; ``rotation_at``
    lists the clockwise edge ids at the vertices that have several."""
    n = 1 + max(max(ends) for ends in edges)
    rot = []
    for v in range(n):
        ids = rotation_at.get(v) or [e for e, ends in enumerate(edges) if v in ends]
        rot.append([dart(e, TAIL if edges[e][0] == v else HEAD) for e in ids])
    return Instance(PlaneDigraph(n, edges, rot), tuple(Fraction(e + 1) for e in range(len(edges))))


def arc_sides(graph, dec):
    """Both edge sets of every arc, whatever the root."""
    rooted = validate_decomposition(graph, dec).rooted
    every = frozenset(range(graph.edge_count))
    inside = inside_sets(rooted, dec.leaf_map)
    return {side for node in rooted.post_order
            for side in (inside[node], every - inside[node])}


def assert_exact_everywhere(instance, dec):
    """The tree validates at its declared width, and solve_dp gives the
    oracle's optimum from every root."""
    g = instance.graph
    report = validate_decomposition(g, dec)
    assert report.ok and report.width == dec.declared_width, report.violations
    want = brute_force_mwbs(instance).kept_weight
    for root in dec.leaf_map:
        assert solve_dp(instance, dec, root).kept_weight == want


class TestSkeletonFirst:
    """``build_sphere_cut`` decomposes the hub-to-hub edges and hangs each
    pendant on the skeleton edge before it in its hub's rotation."""

    def test_wrap_around_at_a_hub(self):
        """Hub 0 reads p3, e0, e2, p4: its rotation starts inside the run
        after e2, so e2's caterpillar is e2, p4, p3."""
        inst = embedded([(0, 1), (1, 2), (2, 0), (0, 3), (0, 4)],
                        {0: [3, 0, 2, 4], 1: [1, 0], 2: [2, 1]})
        dec = build_sphere_cut(inst.graph)
        sides = arc_sides(inst.graph, dec)
        assert {frozenset({2, 4}), frozenset({2, 4, 3})} <= sides
        assert frozenset({0, 3}) not in sides
        assert_exact_everywhere(inst, dec)

    def test_pendants_at_both_ends(self):
        """e0 = (0, 1) has p3 after it at 0 and p4 after it at 1: its
        caterpillar is e0, then its tail's pendants, then its head's."""
        inst = embedded([(0, 1), (1, 2), (2, 0), (0, 3), (4, 1)],
                        {0: [0, 3, 2], 1: [1, 0, 4], 2: [2, 1]})
        dec = build_sphere_cut(inst.graph)
        sides = arc_sides(inst.graph, dec)
        assert {frozenset({0}), frozenset({0, 3}), frozenset({0, 3, 4})} <= sides
        assert_exact_everywhere(inst, dec)

    def test_one_edge_skeleton(self):
        """A single hub-to-hub edge: a caterpillar of the whole graph, e0,
        then the pendants at 0 from e0 on (wrapping), then those at 1."""
        inst = embedded([(0, 1), (0, 2), (3, 0), (1, 4), (5, 1)],
                        {0: [2, 0, 1], 1: [0, 3, 4]})
        dec = build_sphere_cut(inst.graph)
        want = _caterpillar([0, 1, 2, 3, 4])
        assert (dec.node_count, dec.arcs, dec.leaf_map) == \
            (want.node_count, want.arcs, want.leaf_map)
        assert dec.declared_width == 2
        assert_exact_everywhere(inst, dec)

    def test_two_edge_skeleton(self, monkeypatch):
        """The skeleton path 0-1-2 gets the two-node tree, whose nodes are
        both leaves; each grows its own caterpillar."""
        inst = embedded([(0, 1), (1, 2), (0, 3), (4, 1), (2, 5), (6, 2)],
                        {0: [0, 2], 1: [1, 0, 3], 2: [4, 1, 5]})
        skeleton_trees = []
        real = decomposition._greedy_sweep
        monkeypatch.setattr(decomposition, "_greedy_sweep",
                            lambda g: skeleton_trees.append(real(g)) or skeleton_trees[-1])
        dec = build_sphere_cut(inst.graph)
        assert [t.node_count for t in skeleton_trees] == [2]
        assert dec.node_count == 2 * inst.graph.edge_count - 2
        assert {frozenset({0, 2}), frozenset({1, 3, 4, 5})} <= arc_sides(inst.graph, dec)
        assert_exact_everywhere(inst, dec)

    def test_corpora_raw_and_reduced(self, corpus_small, corpus_b4, oracle_of):
        """Every tree validates and solve_dp gives the oracle's optimum,
        on the raw instances and on their reduced components lifted back."""
        hung = 0
        for inst in corpus_small + corpus_b4:
            want = oracle_of(inst).kept_weight
            dec = build_sphere_cut(inst.graph)
            hung += skeleton_of(inst.graph) is not None
            assert validate_decomposition(inst.graph, dec).width == dec.declared_width
            assert solve_dp(inst, dec).kept_weight == want
            red = reduce_to_simple(inst)
            kept = set()
            for _v, edges in red.instance.graph.components():
                if not edges:
                    continue
                sub, _vids, eids = subgraph_by_edges(red.instance, edges)
                if sub.graph.edge_count < 2:
                    kept.update(eids)
                    continue
                dec = build_sphere_cut(sub.graph)
                hung += skeleton_of(sub.graph) is not None
                assert validate_decomposition(sub.graph, dec).width == dec.declared_width
                kept.update(eids[j] for j in solve_dp(sub, dec).kept_edges)
            assert make_solution(inst, red.lift(kept), "dp").kept_weight == want
        assert hung == 239      # graphs with both pendants and a skeleton

    def test_pendant_free_trees_unchanged(self, corpus_small, corpus_b4):
        """SHA-256 of the trees and widths of every pendant-free graph among
        the raw corpora and their reduced components, recorded before the
        skeleton-first construction: those graphs keep their tree."""
        graphs = []
        for inst in corpus_small + corpus_b4:
            candidates = [inst.graph] if inst.graph.is_connected() else []
            red = reduce_to_simple(inst).instance
            candidates += [subgraph_by_edges(red, edges)[0].graph
                           for _v, edges in red.graph.components() if edges]
            graphs += [g for g in candidates if g.edge_count >= 2
                       and all(g.degree(v) > 1 for v in range(g.vertex_count))]
        assert len(graphs) == 542
        docs = []
        for g in graphs:
            dec = build_sphere_cut(g)
            docs.append(canonical_json(dict(dec.document(), width=dec.declared_width)))
        assert hashlib.sha256("\n".join(docs).encode()).hexdigest() == \
            "b226d0fba6d5bedcc61ce1a61a381ef9d54a1a9b7ca3081124da15a99283a65d"

    def test_tri_frontier_work(self, monkeypatch):
        """Sum of 6**|mid| over the arcs of the 15 tri-frontier components
        (triangulations n=24 seeds 0-14), the arcs below flat arcs included
        (``oracles.reference_rooted``): 582,720 when the whole component
        was decomposed.  Bisection only ever sees a skeleton."""
        seen = []
        real = decomposition._recursive_bisection
        monkeypatch.setattr(decomposition, "_recursive_bisection",
                            lambda g: seen.append(g) or real(g))
        entries = 0
        for seed in range(15):
            for sub in dp_components(gen_instance(GenParams(n=24, seed=seed))):
                g = sub.graph
                skel = skeleton_of(g)
                before = len(seen)
                dec = build_sphere_cut(g)
                want = reference_rooted(g, dec, min(dec.leaf_map)).boundaries
                entries += sum(6 ** len(b.mid) for b in want.values())
                for h in seen[before:]:
                    assert skel is not None and h.edge_count < g.edge_count
                    assert (h.edges, h.rotation) == (skel.edges, skel.rotation)
        assert seen
        assert entries <= 260_000

    def test_triangulation_60_seed_0(self):
        """Greedy on the whole component is 10 wide, out of reach.  On the
        skeleton greedy is above 5 too, so the policy's tree is the
        skeleton + bisection one; it solves the component, with the same
        optimum from three roots."""
        (sub,) = dp_components(gen_instance(GenParams(n=60, seed=0)))
        g = sub.graph
        assert validate_decomposition(g, _greedy_sweep(g)).width == 10
        dec = build_sphere_cut(g)
        skel, lift = _skeleton(g)
        assert lift(_recursive_bisection(skel)) == dec and dec.declared_width == 5
        leaves = sorted(dec.leaf_map)
        optima = {solve_dp(sub, dec, root).kept_weight
                  for root in (leaves[0], leaves[len(leaves) // 2], leaves[-1])}
        assert optima == {Fraction(7129, 12)}

    @given(st.integers(0, 519), st.integers(0, 2 ** 14 - 1))
    @settings(max_examples=60, deadline=None)
    def test_edge_deletions(self, corpus_small, index, mask):
        """Delete an edge subset, reduce, and decompose every component,
        raw and reduced: each tree validates and gives the oracle's
        optimum."""
        inst = corpus_small[index]
        keep = [e for e in range(inst.graph.edge_count) if not mask >> e & 1]
        if not keep:
            return
        left = subgraph_by_edges(inst, keep)[0]
        red = reduce_to_simple(left).instance
        for whole in (left, red):
            for _v, edges in whole.graph.components():
                if not edges:
                    continue
                sub = subgraph_by_edges(whole, edges)[0]
                dec = build_sphere_cut(sub.graph)
                report = validate_decomposition(sub.graph, dec)
                assert report.ok and report.width == dec.declared_width
                if sub.graph.edge_count >= 2:
                    assert solve_dp(sub, dec).kept_weight == \
                        brute_force_mwbs(sub).kept_weight


class TestDeepBisection:
    """A split that peels one edge at a time nests as deep as the graph
    has edges."""

    @staticmethod
    def peel(monkeypatch):
        monkeypatch.setattr(decomposition, "_split", lambda _g, edge_set:
                            ((edge_set[0],), edge_set[1:]))

    def test_node_numbering_and_arc_order(self, monkeypatch):
        """Nodes in preorder, first half first; a node's two arcs once both
        of its subtrees are built; the top split's arc last."""
        self.peel(monkeypatch)
        assert _recursive_bisection(path_instance(4).graph) == SphereCutDecomposition(
            6, ((4, 3), (5, 3), (2, 1), (3, 1), (0, 1)), {0: 0, 2: 1, 4: 2, 5: 3})

    def test_path_of_2000_edges(self, monkeypatch):
        self.peel(monkeypatch)
        g = path_instance(2000).graph
        dec = _recursive_bisection(g)
        report = validate_decomposition(g, dec)
        assert report.ok and report.width == 2 and dec.node_count == 2 * 2000 - 2


class TestBisectionPins:
    """SHA-256 of canonical ``_recursive_bisection`` documents, recorded
    before the exact and greedy splits shared one validity check."""

    @staticmethod
    def digest(graphs):
        docs = (canonical_json(_recursive_bisection(g).document()) for g in graphs)
        return hashlib.sha256("\n".join(docs).encode()).hexdigest()

    def test_greedy_split_component(self):
        assert self.digest([seed11_component()]) == \
            "4432f08583509475081e204d0775e050b15767b9920e26a72fd7ec7fd39bcede"

    def test_exact_split_corpus_slice(self, corpus_small):
        assert self.digest(inst.graph for inst in corpus_small[:60]) == \
            "33eca96ee35149c89e344cf2a5fdc5dbd85e0a3a1f66d01d35fbeefee1482ca4"

    @staticmethod
    def brute_force_split(graph, edge_set):
        """Every part holding ``edge_set[0]`` whose part and rest are one
        run at every endpoint of the set: the most balanced part, the
        smaller on equal balance, then the fewest middle-set vertices, then
        the lexicographically smallest sorted edge tuple; None if no part
        qualifies."""
        n = len(edge_set)
        verts = {v for e in edge_set for v in graph.edges[e]}
        for size in sorted(range(1, n), key=lambda s: (abs(2 * s - n), s)):
            found = []
            for combo in itertools.combinations(edge_set[1:], size - 1):
                part = {edge_set[0], *combo}
                rest = set(edge_set) - part
                if all(flag_run([d >> 1 in side for d in graph.rotation[v]]) is not None
                       for v in verts for side in (part, rest)):
                    found.append((len(middle_set(graph, part)), tuple(sorted(part))))
            if found:
                part = min(found)[1]
                return part, tuple(sorted(set(edge_set) - set(part)))
        return None

    def test_exact_split_tie_break(self, monkeypatch):
        """``_split_exact`` picks ``brute_force_split``'s part on every edge
        set of up to 14 edges that bisection hands it on the reduced
        skeletons of triangulations n=24 seeds 0-14 and n=60 seeds 0-9,
        and on two random sorted subsets of each skeleton."""
        sets = []
        exact = decomposition._split_exact
        monkeypatch.setattr(decomposition, "_split_exact",
                            lambda g, edge_set: sets.append((g, edge_set)) or exact(g, edge_set))
        rng = random.Random(3)
        for n, seeds in ((24, range(15)), (60, range(10))):
            for seed in seeds:
                for sub in dp_components(gen_instance(GenParams(n=n, seed=seed))):
                    skel = _skeleton(sub.graph)[0]
                    _recursive_bisection(skel)
                    m = skel.edge_count
                    sets += [(skel, tuple(sorted(rng.sample(range(m), rng.randint(3, min(m, 14))))))
                             for _ in range(2)]
        assert len(sets) > 390 and max(len(edge_set) for _g, edge_set in sets) == 14
        split_anywhere = 0
        for g, edge_set in sets:
            want = self.brute_force_split(g, edge_set)
            assert exact(g, edge_set) == want, edge_set
            split_anywhere += want is not None
        assert 350 < split_anywhere < len(sets)


def side_by_side(g1, g2):
    """Two plane digraphs as one disconnected graph; g2's vertices and
    edges are numbered after g1's."""
    n1, m1 = g1.vertex_count, g1.edge_count
    edges = list(g1.edges) + [(t + n1, h + n1) for t, h in g2.edges]
    rotation = list(g1.rotation) + [[d + 2 * m1 for d in row] for row in g2.rotation]
    return PlaneDigraph(n1 + g2.vertex_count, edges, rotation)


class TestGrowthPins:
    """Trees recorded before the sweep and the greedy split shared one
    region-growth loop."""

    def test_triangulation_60_skeletons(self):
        """SHA-256 of the ``_recursive_bisection`` and ``_greedy_sweep``
        documents of the skeletons of triangulations n=60 seeds 0-9 (32-61
        edges each): bisection splits them greedily at several depths."""
        docs = []
        for seed in range(10):
            for sub in dp_components(gen_instance(GenParams(n=60, seed=seed))):
                skel = _skeleton(sub.graph)[0]
                docs += [canonical_json(build(skel).document())
                         for build in (_recursive_bisection, _greedy_sweep)]
        assert len(docs) == 20
        assert hashlib.sha256("\n".join(docs).encode()).hexdigest() == \
            "d1a3019c8874d04922acc62dc64def544fa5d85914a461f98fb5597c45474374"

    def test_sweep_refuses_a_disconnected_graph(self):
        """The sweep grows once, from edge 0: on a disconnected graph it
        stops after the 12 edges of the first triangulation and raises
        BuildError carrying the instance."""
        g = side_by_side(gen_instance(GenParams(n=6, seed=1)).graph,
                         gen_instance(GenParams(n=5, seed=2, density="sparse")).graph)
        assert g.edge_count == 18 and not g.is_connected()
        with pytest.raises(BuildError, match="12 of 18") as info:
            _greedy_sweep(g)
        assert info.value.instance_document == \
            instance_document(Instance(g, (Fraction(1),) * 18))

    def test_growth_never_stalls_on_a_connected_graph(self):
        """``_grow`` from edge 0 absorbs every edge of 300 seeded random
        connected plane multigraphs (random edge ids, parallel edges,
        random rotations kept where they are a sphere embedding), and
        every proper connected region of small triangulations that is one
        run at every vertex, with its rest, has an edge to add."""
        rng = random.Random(0)
        graphs = []
        while len(graphs) < 300:
            n = rng.randint(2, 8)
            pairs = [(rng.randrange(v), v) for v in range(1, n)]
            pairs += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 6))]
            rng.shuffle(pairs)
            rows = [[] for _ in range(n)]
            for e, (t, h) in enumerate(pairs):
                rows[t].append(dart(e, TAIL))
                rows[h].append(dart(e, HEAD))
            for row in rows:
                rng.shuffle(row)
            try:
                graphs.append(PlaneDigraph(n, pairs, rows))
            except EmbeddingError:
                continue
        assert sum(len(set(g.edges)) < g.edge_count for g in graphs) > 50
        for g in graphs:
            order = [0]
            _grow(g, range(g.edge_count), order, g.edge_count)
            assert sorted(order) == list(range(g.edge_count))

        regions = 0
        for n, seed in ((5, 0), (6, 0), (7, 0)):
            g = gen_instance(GenParams(n=n, seed=seed)).graph
            m = g.edge_count
            for mask in range(1, (1 << m) - 1):
                if not all(flag_run([mask >> (d >> 1) & 1 for d in row]) is not None and
                           flag_run([not mask >> (d >> 1) & 1 for d in row]) is not None
                           for row in g.rotation):
                    continue
                region = [e for e in range(m) if mask >> e & 1]
                reached, stack = {region[0]}, [region[0]]
                while stack:
                    ends = set(g.edges[stack.pop()])
                    near = [f for f in region if f not in reached and ends.intersection(g.edges[f])]
                    reached.update(near)
                    stack += near
                if len(reached) < len(region):
                    continue
                regions += 1
                grown = list(region)
                _grow(g, range(m), grown, len(region) + 1)
                assert len(grown) == len(region) + 1, (n, seed, region)
        assert regions > 1000


# (graph, tree, the validator's exact violations): each row breaks one rule.
# A leaf_map key off the leaves always also leaves a leaf unmapped or breaks
# the bijection, so that row reports two.  The disconnected tree passes
# every leaf and degree rule: a 3-cycle of internal nodes 0-2 with leaves
# 3-5, and a separate arc between leaves 6 and 7.
_TRIANGLE_TREE = ((0, 3), (1, 3), (2, 3))
_REFUSALS = {
    "negative-node-count": (
        triangle_instance, SphereCutDecomposition(-1, (), {}), ["negative node count"]),
    "arc-out-of-range": (
        triangle_instance, SphereCutDecomposition(4, ((0, 9), (1, 3), (2, 3)),
                                                  {0: 0, 1: 1, 2: 2}),
        ["arc (0, 9) references a node outside 0..3"]),
    "self-loop-arc": (
        triangle_instance, SphereCutDecomposition(4, ((0, 3), (1, 3), (2, 2)),
                                                  {0: 0, 1: 1, 2: 2}),
        ["arc (2, 2) is a self-loop"]),
    "wrong-arc-count": (
        triangle_instance, SphereCutDecomposition(4, ((0, 3), (1, 3)), {0: 0, 1: 1, 2: 2}),
        ["tree must have 3 arcs, found 2"]),
    "key-not-a-leaf": (
        triangle_instance, SphereCutDecomposition(4, _TRIANGLE_TREE, {0: 0, 1: 1, 3: 2}),
        ["leaf_map key 3 is not a leaf node", "unmapped leaves [2]"]),
    "broken-bijection": (
        triangle_instance, SphereCutDecomposition(4, _TRIANGLE_TREE, {0: 0, 1: 1, 2: 99}),
        ["leaf_map is not a bijection onto the edge ids"]),
    "unmapped-leaves": (
        triangle_instance,
        SphereCutDecomposition(6, ((0, 4), (1, 4), (4, 5), (2, 5), (3, 5)),
                               {0: 0, 1: 1, 2: 2}),
        ["unmapped leaves [3]"]),
    "internal-degree-2": (
        triangle_instance,
        SphereCutDecomposition(5, ((0, 3), (1, 3), (3, 4), (4, 2)), {0: 0, 1: 1, 2: 2}),
        ["internal node 4 has degree 2, not 3"]),
    "internal-degree-4": (
        star4_instance,
        SphereCutDecomposition(5, ((0, 4), (1, 4), (2, 4), (3, 4)),
                               {0: 0, 1: 1, 2: 2, 3: 3}),
        ["internal node 4 has degree 4, not 3"]),
    "disconnected": (
        lambda: star_instance(5),
        SphereCutDecomposition(8, ((0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5), (6, 7)),
                               {3: 0, 4: 1, 5: 2, 6: 3, 7: 4}),
        ["decomposition tree is disconnected"]),
}


class TestValidator:
    @pytest.mark.parametrize("name", sorted(_REFUSALS))
    def test_each_rule_refused_on_its_own(self, name):
        """The same report at the default root and at a node past the
        last: a root that is not a mapped leaf is refused only on a tree."""
        make, dec, want = _REFUSALS[name]
        for root in (None, dec.node_count):
            report = validate_decomposition(make().graph, dec, root)
            assert (report.ok, report.width, report.violations, report.rooted) == \
                (False, 0, want, None)

    def test_rooted_view_of_a_disconnected_tree_stops_after_its_search(self):
        """From a leaf of the cycle or of the separate arc, the search
        misses nodes and the view holds no boundary, split or broken arc."""
        make, dec, _want = _REFUSALS["disconnected"]
        for root, reached in ((3, 6), (6, 2)):
            rooted = RootedDecomposition(make().graph, dec, root, dec.neighbors())
            assert len(rooted.parent) == reached < dec.node_count
            assert rooted.boundaries == rooted.splits == rooted.broken == {}
            assert validate_decomposition(make().graph, dec, root).violations == \
                ["decomposition tree is disconnected"]

    def test_one_edge_root_must_be_a_mapped_leaf(self):
        g = PlaneDigraph(2, [(1, 0)], [[dart(0, HEAD)], [dart(0, TAIL)]])
        dec = SphereCutDecomposition(2, ((0, 1),), {0: 0})
        assert validate_decomposition(g, dec, 0).ok
        with pytest.raises(DecompositionError, match=r"^root 1 is not a mapped leaf$"):
            validate_decomposition(g, dec, 1)
        with pytest.raises(DecompositionError, match=r"^root 1 is not a mapped leaf$"):
            RootedDecomposition(g, dec, 1, dec.neighbors())

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

    def test_every_broken_arc_reported_from_any_root(self):
        g = star_instance(6).graph
        want = validate_decomposition(g, TWO_BROKEN_ARCS).violations
        assert len(want) == 2 and all("not contiguous" in v for v in want)
        assert "(6, 7)" in want[0] and "(8, 9)" in want[1]
        for root in TWO_BROKEN_ARCS.leaf_map:
            report = validate_decomposition(g, TWO_BROKEN_ARCS, root)
            assert (report.ok, report.width, report.violations, report.rooted) == \
                (False, 0, want, None)

    def test_rooted_view_at_the_chosen_leaf(self, corpus_small):
        """ok and width do not depend on the root; the rooted view carries
        the boundary of every arc not strictly below a flat join, equal to
        the reference's (``oracles.reference_rooted``)."""
        for inst in connected_corpus(corpus_small, 10):
            g = inst.graph
            dec = build_sphere_cut(g)
            assert validate_decomposition(g, dec).rooted.root_leaf == min(dec.leaf_map)
            for root in dec.leaf_map:
                report = validate_decomposition(g, dec, root)
                assert report.ok and report.width == dec.declared_width
                rooted = report.rooted
                assert rooted.root_leaf == root
                check_view(rooted, reference_rooted(g, dec, root))
                for node, b in rooted.boundaries.items():
                    assert b == rooted.boundary(node)
            internal = next(u for u in range(dec.node_count) if u not in dec.leaf_map)
            for bad in (internal, dec.node_count):
                with pytest.raises(DecompositionError, match="not a mapped leaf"):
                    validate_decomposition(g, dec, bad)

    def test_splits_match_the_reference(self, corpus_small):
        """The rooted view keeps the split of every join that is not
        flat, and each equals the one rebuilt from its three boundaries
        alone, with every check (``oracles.join_split``), at the lowest,
        middle and highest leaf: on the builder's trees of the first 60
        corpus instances and of the components of triangulations n=24
        seeds 0-14 (the tri-frontier pool).  A flat join's children are
        not tabulated, so it keeps no split."""
        graphs = [inst.graph for inst in corpus_small[:60]]
        graphs += [sub.graph for seed in range(15)
                   for sub in dp_components(gen_instance(GenParams(n=24, seed=seed)))]
        checked = flat = 0
        for g in graphs:
            dec = build_sphere_cut(g)
            leaves = sorted(dec.leaf_map)
            for root in (leaves[0], leaves[len(leaves) // 2], leaves[-1]):
                rooted = validate_decomposition(g, dec, root).rooted
                bounds = rooted.boundaries
                joins = [node for node in rooted.post_order
                         if rooted.children[node] and node not in rooted.flat]
                assert sorted(rooted.splits) == sorted(joins)
                for node in joins:
                    a, b = rooted.children[node]
                    assert rooted.splits[node] == join_split(bounds[node], bounds[a], bounds[b])
                    checked += 1
                flat += len(rooted.flat)
        assert checked > 1500 and flat > 1000

    def test_walk_matches_the_reference(self, corpus_small):
        """The one-walk validator against the arc-by-arc reference
        (``oracles.reference_rooted``): ok, width, violations, the flat
        joins, and every boundary and split the view keeps
        (``oracles.check_view``), at the lowest, middle and highest leaf.
        On the builder's trees of the first 200 corpus instances and of
        the tri-frontier components, and on trees made invalid by swapping
        two leaf_map values, whose broken arcs the rooted view reports
        from ``boundary``, as it refuses the arcs it does not tabulate."""
        rng = random.Random(23)
        graphs = [inst.graph for inst in corpus_small[:200]]
        graphs += [sub.graph for seed in range(15)
                   for sub in dp_components(gen_instance(GenParams(n=24, seed=seed)))]
        valid = invalid = untabulated = 0
        for g in graphs:
            dec = build_sphere_cut(g)
            leaves = sorted(dec.leaf_map)
            x, y = rng.sample(leaves, 2)
            swapped = dict(dec.leaf_map)
            swapped[x], swapped[y] = swapped[y], swapped[x]
            for tree in (dec, SphereCutDecomposition(dec.node_count, dec.arcs, swapped)):
                for root in (leaves[0], leaves[len(leaves) // 2], leaves[-1]):
                    report = validate_decomposition(g, tree, root)
                    want = reference_rooted(g, tree, root)
                    assert (report.ok, report.width, report.violations) == \
                        (want.ok, want.width, want.violations)
                    rooted = report.rooted or RootedDecomposition(g, tree, root, tree.neighbors())
                    check_view(rooted, want)
                    assert sorted(rooted.broken.values()) == sorted(want.violations)
                    for node, text in rooted.broken.items():
                        with pytest.raises(DecompositionError) as exc:
                            rooted.boundary(node)
                        assert str(exc.value) == text
                    for node in want.below - rooted.broken.keys():
                        with pytest.raises(DecompositionError, match="no tabulated arc"):
                            rooted.boundary(node)
                        untabulated += 1
                    valid += report.ok
                    invalid += not report.ok
        assert valid > 1000 and invalid > 200 and untabulated > 5000

    def test_import_export_roundtrip(self, corpus_small):
        inst = connected_corpus(corpus_small, 1)[0]
        dec = build_sphere_cut(inst.graph)
        doc = json.loads(json.dumps(dec.document()))
        again = decomposition_from_document(doc)
        report = validate_decomposition(inst.graph, again)
        assert report.ok and report.width == dec.declared_width

    @pytest.mark.parametrize("old, new, keep", [
        ("0", "00", False), ("0", "-0", False), ("1", "01", False), ("1", "+1", False),
        ("1", " 1", False), ("0", "00", True),
    ], ids=["00", "-0", "01", "+1", "space-1", "19-entries"])
    def test_non_canonical_leaf_key_refused(self, old, new, keep):
        """``leaf_map`` keys must read as ``document`` writes them, so no
        two keys can name one node: the 18-leaf tree of triangulation n=8
        seed 1, with key ``old`` renamed to ``new`` (or, with ``keep``, a
        19th entry ``new`` beside it), is refused whole."""
        g = gen_instance(GenParams(n=8, seed=1)).graph
        doc = build_sphere_cut(g).document()
        assert len(doc["leaf_map"]) == 18
        assert validate_decomposition(g, decomposition_from_document(doc)).ok
        leaves = doc["leaf_map"]
        leaves[new] = leaves[old] if keep else leaves.pop(old)
        with pytest.raises(DecompositionError) as info:
            decomposition_from_document(doc)
        assert str(info.value) == ("malformed decomposition document: leaf_map key "
                                   f"{new!r} is not a canonical decimal string")

    def test_negative_leaf_key_reaches_the_validator(self):
        g = triangle_instance().graph
        dec = decomposition_from_document(
            {"nodes": 4, "arcs": [[0, 3], [1, 3], [2, 3]], "leaf_map": {"0": 0, "1": 1, "-1": 2}})
        assert validate_decomposition(g, dec).violations == \
            ["leaf_map key -1 is not a leaf node", "unmapped leaves [2]"]


def scrambled_double_star():
    """The double star of ``test_dp.double_star_instance`` (hubs 0 and 1
    joined by edge 0, hub 0's pendants 1-6 and hub 1's 7-12, each in
    rotation order) with a decoded caterpillar over edge 0, then hub 0's
    pendants with the first two swapped, then hub 1's.  Every join holds
    edge 0 alone of the hub-to-hub edges, so every join is flat, and the
    one arc that is not a run at hub 0 splits {0, 2} from the rest: arc
    (13, 14), strictly below the flat top arc at edge 0's leaf and at
    every pendant's."""
    order = [0, 2, 1, *range(3, 13)]
    return double_star_instance(), decomposition_from_document(_caterpillar(order).document())


class TestFlatArcsInTheValidator:
    """The rooted view tabulates no arc strictly below a flat join and
    keeps no split of a flat join, but the validator checks every arc and
    reads the width off every arc."""

    BROKEN = "arc (13, 14): darts of vertices [0] on one side are not contiguous"

    def test_broken_arc_below_a_flat_arc_is_refused(self):
        """At the default root (edge 0's leaf) and at two pendant roots,
        one of each hub: the reference's report, whose one violation names
        arc (13, 14) and hub 0; ``solve_dp`` raises on the tree."""
        inst, dec = scrambled_double_star()
        g = inst.graph
        pendant_roots = [node for node, e in dec.leaf_map.items() if e in (3, 12)]
        for root in (None, *pendant_roots):
            report = validate_decomposition(g, dec, root)
            want = reference_rooted(g, dec, min(dec.leaf_map) if root is None else root)
            assert (report.ok, report.width, report.violations, report.rooted) == \
                (want.ok, want.width, want.violations, None) == (False, 0, [self.BROKEN], None)
            rooted = RootedDecomposition(g, dec, min(dec.leaf_map) if root is None else root,
                                         dec.neighbors())
            (node,) = rooted.broken
            assert node in want.below and rooted.parent[node] in rooted.flat
            with pytest.raises(DecompositionError, match=r"invalid decomposition: arc \(13, 14\)"):
                solve_dp(inst, dec, root)

    def test_width_read_below_a_flat_arc(self):
        """At a pendant root of the double star's built tree, decoded, the
        top arc is flat with only the root's hub on its middle set, and
        every arc of width 2 (edge 0's leaf arc among them) lies below it:
        the reported width is still the reference's, 2."""
        inst = double_star_instance()
        g = inst.graph
        dec = decomposition_from_document(build_sphere_cut(g).document())
        root = next(node for node, e in dec.leaf_map.items() if e == 12)
        report = validate_decomposition(g, dec, root)
        rooted = report.rooted
        assert report.width == reference_rooted(g, dec, root).width == 2
        assert list(rooted.boundaries) == [rooted.children[root][0]]
        assert max(len(b.mid) for b in rooted.boundaries.values()) == 1

    def test_boundary_of_an_untabulated_arc(self):
        """``boundary`` refuses an arc below a flat arc, as it refuses a
        broken one, with DecompositionError, not KeyError."""
        inst, dec = scrambled_double_star()
        rooted = RootedDecomposition(inst.graph, dec, min(dec.leaf_map), dec.neighbors())
        untabulated = [node for node in rooted.post_order if rooted.parent[node] in rooted.flat]
        assert len(untabulated) == len(rooted.post_order) - 1
        for node in untabulated:
            with pytest.raises(DecompositionError) as exc:
                rooted.boundary(node)
            if node in rooted.broken:
                assert str(exc.value) == self.BROKEN
            else:
                assert "no tabulated arc" in str(exc.value)


class TestArcBoundary:
    def test_leaf_arc_mid_and_runs(self):
        g = triangle_instance().graph
        dec = build_sphere_cut(g)
        adj = dec.neighbors()
        root = min(dec.leaf_map)
        rooted = RootedDecomposition(g, dec, root, dec.neighbors())
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
            rooted = RootedDecomposition(g, dec, root, dec.neighbors())
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
            rooted = RootedDecomposition(g, dec, root, dec.neighbors())
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
            rooted = RootedDecomposition(g, dec, root, dec.neighbors())
            inside_of = inside_sets(rooted, dec.leaf_map)
            for node in rooted.post_order:
                inside = inside_of[node]
                # incremental bookkeeping: count darts per vertex
                darts_in = {}
                for e in inside:
                    for v in g.edges[e]:
                        darts_in[v] = darts_in.get(v, 0) + 1
                mid_inc = sorted(v for v, c in darts_in.items() if c < g.degree(v))
                assert mid_inc == middle_set(g, inside)
                b = rooted.boundary(node)
                assert mid_inc == list(b.mid)
                assert b.inside_count == len(inside)
                assert b.runs == {v: flag_run([d >> 1 in inside for d in g.rotation[v]])
                                  for v in mid_inc}

    def test_long_caterpillar_validates_in_linear_memory(self):
        """A 4000-edge path under its caterpillar tree: arcs keep inside
        edge counts, not edge sets, so validation stays linear in memory
        (one frozenset of inside edges per arc took hundreds of MB)."""
        m = 4000
        g = path_instance(m).graph
        dec = _caterpillar(range(m))
        tracemalloc.start()
        try:
            report = validate_decomposition(g, dec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok and report.width == 2
        assert peak < 50_000_000


class TestRunMasks:
    """The run test on rotation-position masks against the flag-list test
    (``flag_run``) and the middle sets of ``middle_set``."""

    def test_every_mask_up_to_ten_darts(self):
        for k in range(1, 11):
            for mask in range(1 << k):
                flags = [bool(mask >> j & 1) for j in range(k)]
                assert decomposition._run(mask, k) == flag_run(flags), (k, mask)

    def test_class_masks_match_the_prefix_class(self):
        """For every end pattern of k <= 10 darts and every proper run, the
        run and class map read off the hub masks (``_read_run``) are the
        run's and the class map keyed by its first dart's end and its
        switches, counted on the prefix sums (``oracles.switch_prefix``).
        Any proper mask's run is ``_run``'s."""
        checked = 0
        for k in range(2, 11):
            for pattern in range(1 << k):
                row = [2 * j + (pattern >> j & 1) for j in range(k)]
                ends, sw = decomposition._hub_masks(row)
                prefix = switch_prefix(row)
                for start in range(k):
                    mask = 0
                    for length in range(1, k):
                        mask |= 1 << (start + length - 1) % k
                        switches = prefix[start + length - 1] - prefix[start]
                        want = CLASS_MAPS[row[start] & 1, min(switches, 3)]
                        assert decomposition._read_run(mask, k, ends, sw) == \
                            (mask, (start, length), want), (row, start, length)
                        checked += 1
            for mask in range(1, (1 << k) - 1):
                assert decomposition._read_run(mask, k, ends, sw)[1] == \
                    decomposition._run(mask, k)
        assert checked == sum(k * (k - 1) << k for k in range(2, 11))

    def test_hubs_wider_than_64_darts(self):
        """Two hubs joined by 72 paths of two edges, each hub's darts
        alternating tail and head, so every mask at a hub is wider than a
        machine word: each arc matches the reference at three roots, and
        ``solve_dp`` finds ``solve_subexponential``'s optimum."""
        paths = 72
        edges, hub_darts = [], ([], [])
        for i in range(paths):
            x = 2 + i
            for hub, end in ((0, i % 2), (1, 1 - i % 2)):
                e = len(edges)
                edges.append((hub, x) if end == TAIL else (x, hub))
                hub_darts[hub].append(dart(e, end))
        rot = [hub_darts[0], hub_darts[1][::-1]]
        rot += [[dart(2 * i, HEAD if i % 2 == 0 else TAIL),
                 dart(2 * i + 1, TAIL if i % 2 == 0 else HEAD)] for i in range(paths)]
        g = PlaneDigraph(paths + 2, edges, rot)
        inst = Instance(g, tuple(Fraction(1 + e * 7 % 5, 1 + e % 3) for e in range(len(edges))))
        dec = build_sphere_cut(g)
        leaves = sorted(dec.leaf_map)
        for root in (leaves[0], leaves[len(leaves) // 2], leaves[-1]):
            report = validate_decomposition(g, dec, root)
            want = reference_rooted(g, dec, root)
            assert report.ok and want.ok and report.width == want.width
            assert report.rooted.boundaries == want.boundaries
            assert report.rooted.splits == want.splits
            assert max(report.rooted.boundaries[node].runs.get(0, (0, 0))[1]
                       for node in report.rooted.post_order) > 64
        assert solve_dp(inst, dec).kept_weight == solve_subexponential(inst).kept_weight

    def test_split_cost_matches_flags(self, corpus_small):
        """For the parts of whole edge sets and of random subsets,
        ``_split_cost`` is None exactly when the part or the rest is not
        one run at some endpoint of the set, and else the part's
        middle-set size."""
        rng = random.Random(5)
        for inst in connected_corpus(corpus_small, 40):
            g = inst.graph
            m = g.edge_count
            if m < 2:
                continue
            sets = [tuple(range(m))] + [tuple(sorted(rng.sample(range(m), rng.randint(2, m))))
                                        for _ in range(2)]
            for edge_set in sets:
                checks = _split_checks(g, edge_set)
                verts = {v for e in edge_set for v in g.edges[e]}
                n = len(edge_set)
                masks = range(1 << n) if n <= 9 else [rng.getrandbits(n) for _ in range(300)]
                for mask in masks:
                    part = {e for i, e in enumerate(edge_set) if mask >> i & 1}
                    rest = set(edge_set) - part
                    valid = all(flag_run([d >> 1 in side for d in g.rotation[v]]) is not None
                                for v in verts for side in (part, rest))
                    want = len(middle_set(g, part)) if valid else None
                    assert _split_cost(checks, mask) == want, (edge_set, mask)

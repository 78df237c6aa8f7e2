"""Normal-form rules, section partitioning, compression, shrinking."""

from fractions import Fraction

import pytest

from mwbs.errors import EmbeddingError
from mwbs.generate import planted_star_instance
from mwbs.kernel import (
    CutInstance,
    align_optimum_to_classes,
    cut_instance_from_document,
    optimal_switches,
    partition_section,
    reduce_to_simple,
    sections_of,
    shrink_cut_instance,
    solve_subexponential,
    to_cut_instance,
)
from mwbs.oracle import brute_force_cut, brute_force_mwbs
from mwbs.plane import (
    HEAD,
    TAIL,
    GoodEdgeSection,
    Instance,
    PlaneDigraph,
    dart,
    dart_direction,
    make_solution,
)

from test_plane import star4_instance, triangle_instance


def star4_plus_leaf_edge(extra_weight=Fraction(2)):
    """Alternating star plus one edge between two of its (good) leaves."""
    edges = [(1, 0), (0, 2), (3, 0), (0, 4), (1, 2)]
    rot = [[dart(0, HEAD), dart(1, TAIL), dart(2, HEAD), dart(3, TAIL)],
           [dart(0, TAIL), dart(4, TAIL)],
           [dart(4, HEAD), dart(1, HEAD)],
           [dart(2, TAIL)], [dart(3, HEAD)]]
    w = (Fraction(1), Fraction(1), Fraction(1), Fraction(1), extra_weight)
    return Instance(PlaneDigraph(5, edges, rot), w)


def good_degree3_tree():
    """A good vertex of degree 3 whose neighbors are all bad centers."""
    edges = []
    rot_by_vertex = {}

    def add_edge(t, h):
        edges.append((t, h))
        return len(edges) - 1

    # u = 0 with edges to bad centers 1, 2, 3
    e01 = add_edge(0, 1)
    e20 = add_edge(2, 0)
    e03 = add_edge(0, 3)
    rot_by_vertex[0] = [dart(e01, TAIL), dart(e20, HEAD), dart(e03, TAIL)]
    next_vertex = 4
    for center, center_dart in ((1, dart(e01, HEAD)), (2, dart(e20, TAIL)),
                                (3, dart(e03, HEAD))):
        row = [center_dart]
        want = "o" if center_dart & 1 else "i"
        for _ in range(3):
            leaf = next_vertex
            next_vertex += 1
            if want == "i":
                e = add_edge(leaf, center)
                row.append(dart(e, HEAD))
                rot_by_vertex[leaf] = [dart(e, TAIL)]
            else:
                e = add_edge(center, leaf)
                row.append(dart(e, TAIL))
                rot_by_vertex[leaf] = [dart(e, HEAD)]
            want = "i" if want == "o" else "o"
        rot_by_vertex[center] = row
    rotation = [rot_by_vertex[v] for v in range(next_vertex)]
    w = tuple(Fraction(1) for _ in edges)
    return Instance(PlaneDigraph(next_vertex, edges, rotation), w)


class TestReduceToSimple:
    def test_good_good_edge_banked(self):
        inst = star4_plus_leaf_edge(Fraction(2))
        red = reduce_to_simple(inst)
        assert red.base_kept_weight == 2
        assert red.banked_edges == (4,)
        assert red.instance.graph.edge_count == 4

    def test_degree3_good_vertex_split(self):
        inst = good_degree3_tree()
        g = inst.graph
        assert g.is_bimodal_vertex(0) and g.degree(0) == 3
        bad_before = {v: [(d >> 1, d & 1) for d in g.rotation[v]]
                      for v in g.bad_vertices()}
        red = reduce_to_simple(inst)
        rg = red.instance.graph
        # every good vertex now has degree exactly one
        bad = set(rg.bad_vertices())
        for v in range(rg.vertex_count):
            if v not in bad:
                assert rg.degree(v) == 1
        # rotations at surviving bad vertices are untouched (same edge ids,
        # same ends, same order)
        for rv in range(rg.vertex_count):
            ov = red.orig_vertex_ids[rv]
            if ov in bad_before:
                now = [(red.orig_edge_ids[d >> 1], d & 1) for d in rg.rotation[rv]]
                assert now == bad_before[ov]

    def test_normal_form_invariants(self, corpus_small):
        for inst in corpus_small[:80]:
            red = reduce_to_simple(inst)
            rg = red.instance.graph
            bad = set(rg.bad_vertices())
            assert len(bad) <= len(inst.graph.bad_vertices())
            for v in range(rg.vertex_count):
                if v not in bad:
                    assert rg.degree(v) == 1
                    (d,) = rg.rotation[v]
                    assert rg.other_endpoint(d) in bad

    def test_optimum_preserved_and_liftable(self, corpus_small, oracle_of):
        for inst in corpus_small[:60]:
            red = reduce_to_simple(inst)
            want = oracle_of(inst)
            got = brute_force_mwbs(red.instance)
            assert want.kept_weight == got.kept_weight + red.base_kept_weight
            lifted = red.lift(got.kept_edges)
            sol = make_solution(inst, lifted, "lift")  # verifies bimodality
            assert sol.kept_weight == want.kept_weight

    def test_already_bimodal_reduces_to_nothing(self):
        inst = triangle_instance()
        red = reduce_to_simple(inst)
        assert red.instance.graph.edge_count == 0
        assert red.base_kept_weight == inst.total_weight


def linear_section_instance(dirs, weights=None):
    """A bad vertex whose single linear section has the given directions.

    The center also carries four alternating darts to one bad neighbor
    side so that the section is bounded (not cyclic)."""
    # center 0; bad neighbor 1 (alternating via parallel edges); pendants
    edges = []
    rot0 = []
    rot1 = []
    for k in range(2):
        e = len(edges)
        edges.append((0, 1))
        rot0.append(dart(e, TAIL))
        rot1.insert(0, dart(e, HEAD))
        e = len(edges)
        edges.append((1, 0))
        rot0.append(dart(e, HEAD))
        rot1.insert(0, dart(e, TAIL))
    pend_rot = []
    n = 2
    for ch in dirs:
        e = len(edges)
        if ch == "i":
            edges.append((n, 0))
            rot0.append(dart(e, HEAD))
            pend_rot.append([dart(e, TAIL)])
        else:
            edges.append((0, n))
            rot0.append(dart(e, TAIL))
            pend_rot.append([dart(e, HEAD)])
        n += 1
    rotation = [rot0, rot1, *pend_rot]
    if weights is None:
        weights = tuple(Fraction(1) for _ in edges)
    else:
        weights = tuple([Fraction(1)] * 4 + [Fraction(w) for w in weights])
    return Instance(PlaneDigraph(n, edges, rotation), weights)


class TestOptimalSwitches:
    def get_section(self, inst):
        g = inst.graph
        sections = g.good_edge_sections(0)
        assert len(sections) == 1
        return sections[0]

    def test_in_in_out_out_needs_nothing(self):
        inst = linear_section_instance("iioo")
        section = self.get_section(inst)
        bounds, deleted, cost = optimal_switches(inst, 0, section, "io")
        assert bounds == (2,)
        assert deleted == [] and cost == 0

    def test_all_in_against_out(self):
        inst = linear_section_instance("iii", weights=(2, 3, 4))
        section = self.get_section(inst)
        bounds, deleted, cost = optimal_switches(inst, 0, section, "o")
        assert cost == 9 and len(deleted) == 3

    def test_matches_exhaustive_minimum(self, corpus_small):
        from mwbs.dp import realizes
        checked = 0
        for inst in corpus_small:
            red = reduce_to_simple(inst)
            for v, section in sections_of(red.instance):
                g = red.instance.graph
                darts = section.darts(g)
                edges = [d >> 1 for d in darts]
                dirs = [dart_direction(d) for d in darts]
                if len(darts) > 8:
                    continue
                for config in ("i", "io", "oio", "ioi"):
                    _b, deleted, cost = optimal_switches(red.instance, v, section, config)
                    best = None
                    for mask in range(1 << len(darts)):
                        kept = [j for j in range(len(darts)) if (mask >> j) & 1]
                        pattern = "".join(dirs[j] for j in kept)
                        if realizes(pattern, config):
                            c = sum(red.instance.weights[edges[j]]
                                    for j in range(len(darts)) if j not in kept)
                            if best is None or c < best:
                                best = c
                    assert cost == best
                    checked += 1
            if checked > 40:
                break
        assert checked > 10

    def test_good_vertex_rejected(self):
        inst = triangle_instance()
        fake = GoodEdgeSection(0, 0, 1)
        with pytest.raises(EmbeddingError):
            optimal_switches(inst, 0, fake, "i")


class TestPartitionSection:
    def test_unit_iioo_collapses(self):
        inst = linear_section_instance("iioo")
        section = inst.graph.good_edge_sections(0)[0]
        part = partition_section(inst, 0, section)
        assert len(part.cut_positions) <= 2
        assert len(part.blocks) <= 3
        for cls, d in zip(part.classes, part.class_dirs):
            at0 = {dart_direction(dd) for dd in section.darts(inst.graph)
                   if (dd >> 1) in cls}
            assert at0 == {d}

    def test_single_edge_section(self):
        inst = linear_section_instance("i")
        section = inst.graph.good_edge_sections(0)[0]
        part = partition_section(inst, 0, section)
        assert len(part.blocks) == 1 and len(part.classes) == 1

    def test_bounds_on_corpus(self, corpus_small):
        for inst in corpus_small[:120]:
            red = reduce_to_simple(inst)
            for v, section in sections_of(red.instance):
                part = partition_section(red.instance, v, section)
                assert len(part.cut_positions) <= 12
                assert len(part.blocks) <= 13
                assert len(part.classes) <= 26
                covered = sorted(e for c in part.classes for e in c)
                want = sorted(d >> 1 for d in section.darts(red.instance.graph))
                assert covered == want
                for p in part.pairs:
                    assert 1 <= len(p) <= 2


class TestToCutInstance:
    def test_bimodal_graph_empties(self):
        cut = to_cut_instance(triangle_instance())
        assert cut.classes == ()
        assert cut.base_kept_weight == 3

    def test_lonely_bad_vertex_single_cyclic_section(self):
        cut = to_cut_instance(star4_instance())
        assert len(cut.classes) <= 26
        assert cut.base_kept_weight == 0
        covered = sorted(e for c in cut.classes for e in c)
        assert covered == list(range(cut.instance.graph.edge_count))

    def test_equivalence_slice(self, corpus_b4, oracle_of):
        for inst in corpus_b4[:60]:
            cut = to_cut_instance(inst)
            got = brute_force_cut(cut.instance, cut.classes)
            assert oracle_of(inst).kept_weight == got.kept_weight + cut.base_kept_weight

    def test_document_roundtrip(self):
        cut = to_cut_instance(star4_instance())
        doc = cut.document()
        again = cut_instance_from_document(doc)
        assert again.classes == cut.classes
        assert again.pairs == cut.pairs
        assert again.base_kept_weight == cut.base_kept_weight


def seven_dart_star():
    """Bad center with one cyclic section [i,i,i,i,o,i,o], unit-ish weights."""
    dirs = "iiiioio"
    edges = []
    rot0 = []
    rots = []
    for j, ch in enumerate(dirs):
        e = len(edges)
        if ch == "i":
            edges.append((j + 1, 0))
            rot0.append(dart(e, HEAD))
            rots.append([dart(e, TAIL)])
        else:
            edges.append((0, j + 1))
            rot0.append(dart(e, TAIL))
            rots.append([dart(e, HEAD)])
    w = tuple(Fraction(k) for k in (1, 2, 3, 4, 7, 5, 6))
    return Instance(PlaneDigraph(8, edges, [rot0, *rots]), w)


class TestShrink:
    def test_consecutive_class_merges_to_one_edge(self):
        inst = seven_dart_star()
        classes = ((0, 1, 2, 3), (4,), (5,), (6,))
        pairs = ((0,), (1,), (2,), (3,))
        cut = CutInstance(inst, classes, pairs, Fraction(0))
        shrunk = shrink_cut_instance(cut)
        g = shrunk.instance.graph
        assert g.edge_count == 4
        merged = [c for c in shrunk.classes if len(c) == 1]
        assert sorted(len(c) for c in shrunk.classes) == [1, 1, 1, 1]
        assert Fraction(10) in shrunk.instance.weights  # 1+2+3+4
        before = brute_force_cut(cut.instance, cut.classes)
        after = brute_force_cut(shrunk.instance, shrunk.classes)
        assert before.kept_weight == after.kept_weight

    def test_interleaved_pair_becomes_gadget(self):
        inst = star4_instance(weights=(Fraction(2), Fraction(7), Fraction(3),
                                       Fraction(11)))
        # section order matches rotation: darts 0..3 = i,o,i,o
        classes = ((0, 2), (1,), (3,))
        pairs = ((0, 1), (2,))
        cut = CutInstance(inst, classes, pairs, Fraction(0))
        shrunk = shrink_cut_instance(cut)
        weights = sorted(shrunk.instance.weights)
        assert weights.count(Fraction(0)) == 2
        assert Fraction(5) in weights   # in-class 2+3
        assert Fraction(7) in weights   # out-class
        sizes = sorted(len(c) for c in shrunk.classes)
        assert sizes == [1, 2, 2]
        before = brute_force_cut(cut.instance, cut.classes)
        after = brute_force_cut(shrunk.instance, shrunk.classes)
        assert before.kept_weight == after.kept_weight

    def test_postconditions_on_corpus(self, corpus_b4):
        for inst in corpus_b4[:80]:
            cut = to_cut_instance(inst)
            shrunk = shrink_cut_instance(cut)
            g = shrunk.instance.graph
            assert all(len(c) <= 2 for c in shrunk.classes)
            assert g.edge_count <= 2 * len(shrunk.classes)
            assert all(g.degree(v) > 0 for v in range(g.vertex_count))
            a = brute_force_cut(cut.instance, cut.classes)
            b = brute_force_cut(shrunk.instance, shrunk.classes)
            assert a.kept_weight == b.kept_weight


class TestSubexponential:
    def test_bimodal_keeps_everything(self):
        sol = solve_subexponential(triangle_instance())
        assert sol.deleted_weight == 0

    def test_alternating_star(self):
        sol = solve_subexponential(star4_instance())
        assert sol.kept_weight == 3

    def test_matches_oracle_slice(self, corpus_small, oracle_of):
        for inst in corpus_small[:70]:
            sol = solve_subexponential(inst)
            assert sol.kept_weight == oracle_of(inst).kept_weight
            assert max(sol.certificate, default=0) <= 2

    def test_planted_instance(self):
        from mwbs.plane import subgraph_by_edges
        inst = planted_star_instance(60, 5, 4)
        sol = solve_subexponential(inst)
        assert max(sol.certificate, default=0) <= 2
        red = reduce_to_simple(inst)
        want = red.base_kept_weight
        for _verts, comp_edges in red.instance.graph.components():
            if comp_edges:
                sub, _v, _e = subgraph_by_edges(red.instance, comp_edges)
                want += brute_force_mwbs(sub).kept_weight
        assert sol.kept_weight == want


class TestClassAlignment:
    def test_alignment_preserves_weight_and_classes(self, corpus_b4, oracle_of):
        for inst in corpus_b4[:60]:
            cut = to_cut_instance(inst)
            opt = brute_force_mwbs(cut.instance)
            aligned = align_optimum_to_classes(cut.instance, set(opt.kept_edges))
            sol = make_solution(cut.instance, aligned, "aligned")
            assert sol.kept_weight == opt.kept_weight
            for c in cut.classes:
                inside = sum(1 for e in c if e in aligned)
                assert inside in (0, len(c))

"""Normal-form rules, section partitioning, compression, shrinking."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from mwbs import dp, kernel, oracle, plane
from mwbs.configs import CONFIGS
from mwbs.decomposition import build_sphere_cut
from mwbs.dp import solve_dp
from mwbs.errors import EmbeddingError, FormatError
from mwbs.generate import GenParams, gen_instance, planted_star_instance
from mwbs.kernel import (
    CutInstance,
    ReducedInstance,
    _check_normal_form,
    optimal_switches,
    partition_section,
    reduce_to_simple,
    sections_of,
    shrink_cut_instance,
    solve_components,
    solve_subexponential,
    to_cut_instance,
)
from mwbs.oracle import brute_force_mwbs, is_star, star_solve
from mwbs.plane import (
    HEAD,
    TAIL,
    GoodEdgeSection,
    Instance,
    PlaneDigraph,
    canonical_json,
    component_instances,
    cyclic_switches,
    dart,
    dart_direction,
    dart_edge,
    dart_end,
    encode_instance,
    make_solution,
)

from oracles import align_optimum_to_classes, brute_force_cut
from test_decomposition import side_by_side
from test_eptas import count_solve_dp
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

    def test_normal_form_is_returned_itself(self, monkeypatch):
        """Every kernel of the tri-frontier and eptas pools, of the whole
        instance and of each component, reduces to the same object, with
        an empty trace, identity ids and nothing banked, and its normal
        form is still checked."""
        pool = [gen_instance(GenParams(n=24, seed=s)) for s in range(15)]
        pool += [gen_instance(GenParams(n=40, seed=s, density="sparse")) for s in range(7)]
        kernels = []
        for inst in pool:
            kernels.append(reduce_to_simple(inst).instance)
            kernels += [reduce_to_simple(sub).instance for sub, _eids in component_instances(inst)]
        checked = []

        def recording_check(red, bad_before):
            checked.append(red)
            _check_normal_form(red, bad_before)

        monkeypatch.setattr(kernel, "_check_normal_form", recording_check)
        for k in kernels:
            g = k.graph
            red = reduce_to_simple(k)
            assert red.instance is k and checked.pop() is red
            assert red.trace == () and red.banked_edges == ()
            assert red.orig_edge_ids == tuple(range(g.edge_count))
            assert red.orig_vertex_ids == tuple(range(g.vertex_count))
            assert red.base_kept_weight == 0

    def test_already_bimodal_reduces_to_nothing(self):
        inst = triangle_instance()
        red = reduce_to_simple(inst)
        assert red.instance.graph.edge_count == 0
        assert red.base_kept_weight == inst.total_weight


class _Embedding:
    """Sparse mutable rotation system keyed by stable ids."""

    def __init__(self, instance: Instance):
        g = instance.graph
        self.edges: dict[int, tuple[int, int]] = dict(enumerate(g.edges))
        self.weights: dict[int, Fraction] = dict(enumerate(instance.weights))
        self.rot: dict[int, list[tuple[int, int]]] = {
            v: [(dart_edge(d), dart_end(d)) for d in g.rotation[v]]
            for v in range(g.vertex_count)
        }
        self.next_vertex = g.vertex_count

    def remove_edge(self, e: int):
        for end in (TAIL, HEAD):
            v = self.edges[e][end]
            self.rot[v].remove((e, end))
        del self.edges[e]
        del self.weights[e]

    def remove_isolated(self, v: int):
        if self.rot[v]:
            raise EmbeddingError(f"vertex {v} is not isolated")
        del self.rot[v]

    def add_vertex(self) -> int:
        v = self.next_vertex
        self.next_vertex += 1
        self.rot[v] = []
        return v

    def to_instance(self) -> tuple[Instance, list[int], list[int]]:
        """Densify; returns (instance, vertex ids, edge ids) in stable order."""
        vertex_ids = sorted(self.rot)
        edge_ids = sorted(self.edges)
        vmap = {v: i for i, v in enumerate(vertex_ids)}
        emap = {e: i for i, e in enumerate(edge_ids)}
        edges = [(vmap[self.edges[e][0]], vmap[self.edges[e][1]]) for e in edge_ids]
        rotation = [[dart(emap[e], end) for e, end in self.rot[v]] for v in vertex_ids]
        weights = tuple(self.weights[e] for e in edge_ids)
        return Instance(PlaneDigraph(len(vertex_ids), edges, rotation), weights), \
            vertex_ids, edge_ids


def rescan_reduce(instance: Instance) -> ReducedInstance:
    """Reference normal form: rescan the whole embedding after every rule
    and fire the lowest-numbered rule at its lowest id."""
    emb = _Embedding(instance)
    origin = list(range(instance.graph.vertex_count))   # per embedding vertex
    bad_before = len(instance.graph.bad_vertices())
    trace: list[tuple] = []
    banked: list[int] = []
    base = Fraction(0)

    def good(v):
        ends = [end for _e, end in emb.rot[v]]
        return sum(a != b for a, b in zip(ends, ends[1:] + ends[:1])) <= 2

    while True:
        isolated = sorted(v for v in emb.rot if not emb.rot[v])
        if isolated:
            v = isolated[0]
            emb.remove_isolated(v)
            trace.append(("isolated", v))
            continue
        goodness = {v: good(v) for v in emb.rot}
        gg = sorted(e for e, (t, h) in emb.edges.items()
                    if goodness[t] and goodness[h])
        if gg:
            e = gg[0]
            base += emb.weights[e]
            banked.append(e)
            emb.remove_edge(e)
            trace.append(("good_good_edge", e))
            continue
        splittable = sorted(v for v in emb.rot
                            if goodness[v] and len(emb.rot[v]) >= 2)
        if splittable:
            v = splittable[0]
            moves = []
            for e, end in list(emb.rot[v]):
                x = emb.add_vertex()
                origin.append(v)
                emb.rot[v].remove((e, end))
                pair = list(emb.edges[e])
                pair[end] = x
                emb.edges[e] = tuple(pair)
                emb.rot[x].append((e, end))
                moves.append((e, end, x))
            trace.append(("split", v, tuple(moves)))
            continue
        break

    reduced, vertex_ids, edge_ids = emb.to_instance()
    orig_vertices = tuple(origin[v] for v in vertex_ids)
    out = ReducedInstance(
        instance=reduced,
        base_kept_weight=base,
        orig_edge_ids=tuple(edge_ids),
        orig_vertex_ids=orig_vertices,
        banked_edges=tuple(banked),
        trace=tuple(trace),
    )
    _check_normal_form(out, bad_before)
    return out


class TestThreePassReduction:
    def test_matches_rescan(self, corpus_small, corpus_b4):
        tri_frontier = [gen_instance(GenParams(n=24, seed=s)) for s in range(15)]
        tri_60 = [gen_instance(GenParams(n=60, seed=s)) for s in range(10)]
        eptas_pool = [gen_instance(GenParams(n=40, seed=s, density="sparse"))
                      for s in range(7)]
        planted = [planted_star_instance(n, s, 12) for n in (200, 400) for s in (0, 1)]
        cases = (corpus_small + corpus_b4 + tri_frontier + tri_60 + eptas_pool + planted
                 + [star4_plus_leaf_edge(), good_degree3_tree(), triangle_instance()])
        copies_seen = 0
        for inst in cases:
            got, want = reduce_to_simple(inst), rescan_reduce(inst)
            assert got.trace == want.trace
            assert got.banked_edges == want.banked_edges
            assert got.base_kept_weight == want.base_kept_weight
            assert got.orig_edge_ids == want.orig_edge_ids
            assert got.orig_vertex_ids == want.orig_vertex_ids
            assert encode_instance(got.instance) == encode_instance(want.instance)
            # a split copy's origin is the input end of its one dart's edge,
            # as a kept vertex is of each of its darts' edges
            rg = got.instance.graph
            split = {step[1] for step in got.trace if step[0] == "split"}
            copies = [v for v, orig in enumerate(got.orig_vertex_ids) if orig in split]
            assert len(copies) == sum(len(step[2]) for step in got.trace if step[0] == "split")
            assert all(rg.degree(v) == 1 for v in copies)
            copies_seen += len(copies)
            for v, orig in enumerate(got.orig_vertex_ids):
                for d in rg.rotation[v]:
                    assert inst.graph.edges[got.orig_edge_ids[d >> 1]][d & 1] == orig
        assert copies_seen

    def test_goodness_evaluations_are_linear(self, monkeypatch):
        # one switch count per input row of more than two darts, then one
        # per such row in the normal-form check on the output (a shorter row
        # is never bad); the kernel binding need not exist
        inst = planted_star_instance(2000, 0, 12)
        calls = [0]

        def counted(dirs):
            calls[0] += 1
            return cyclic_switches(dirs)

        monkeypatch.setattr(plane, "cyclic_switches", counted)
        monkeypatch.setattr(kernel, "cyclic_switches", counted, raising=False)
        red = reduce_to_simple(inst)

        def long_rows(g):
            return sum(len(row) > 2 for row in g.rotation)

        assert calls[0] == long_rows(inst.graph) + long_rows(red.instance.graph) == 388


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
        from mwbs.configs import realizes
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

    def test_smallest_optimal_boundaries_win(self):
        """On 600 random linear sections of 1-12 darts with weights 1 and 2,
        for every configuration: brute force over all nondecreasing
        boundary tuples, and the lexicographically smallest tuple of least
        cost is the one returned, with its deleted edges and cost."""
        rng = random.Random(11)
        ties = 0
        for _ in range(600):
            k = rng.randint(1, 12)
            dirs = "".join(rng.choice("io") for _ in range(k))
            inst = linear_section_instance(dirs, [rng.choice((1, 1, 2)) for _ in range(k)])
            section = self.get_section(inst)
            edges = [d >> 1 for d in section.darts(inst.graph)]
            for config in CONFIGS:
                placements = []
                for bounds in itertools.product(range(k + 1), repeat=len(config) - 1):
                    if list(bounds) != sorted(bounds):
                        continue
                    cuts = [0, *bounds, k]
                    deleted = [edges[p] for j, letter in enumerate(config)
                               for p in range(cuts[j], cuts[j + 1]) if dirs[p] != letter]
                    placements.append((sum(inst.weights[e] for e in deleted), bounds, deleted))
                cost, bounds, deleted = min(placements)
                ties += sum(c == cost for c, _b, _d in placements) > 1
                assert optimal_switches(inst, 0, section, config) == (bounds, deleted, cost)
        assert ties > 600

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
        # the run held the row's first slot, so the gadget follows the carrier
        assert shrunk.instance.graph.rotation[0] == (
            dart(0, TAIL), dart(1, HEAD), dart(2, TAIL), dart(3, HEAD), dart(4, TAIL))
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

    def test_removed_edge_must_leave_its_far_endpoint_isolated(self):
        # merging edge 1 into carrier 0 would strand vertex 2 with edge 4
        cut = CutInstance(star4_plus_leaf_edge(), ((0, 1), (2,), (3,), (4,)),
                          ((0,), (1,), (2,), (3,)), Fraction(0))
        with pytest.raises(EmbeddingError):
            shrink_cut_instance(cut)

    def test_split_singleton_class_refused(self):
        cut = CutInstance(star4_instance(), ((0, 2), (1,), (3,)),
                          ((0,), (1,), (2,)), Fraction(0))
        with pytest.raises(FormatError, match="singleton class is not consecutive"):
            shrink_cut_instance(cut)

    def test_split_pair_refused(self):
        cut = CutInstance(seven_dart_star(), ((0, 2), (1,), (3,), (4,), (5,), (6,)),
                          ((0, 3), (1,), (2,), (4,), (5,)), Fraction(0))
        with pytest.raises(FormatError, match="must occupy a consecutive run"):
            shrink_cut_instance(cut)

    def test_compress_outputs_pinned(self, corpus_b4):
        """Cut and shrunk documents, recorded with the shrink that edited a
        mutable rotation system in place (41 of the 221 cases hold a gadget)."""
        cases = (corpus_b4 + [gen_instance(GenParams(n=60, seed=s)) for s in range(10)]
                 + [planted_star_instance(400, 1, 12)])
        digest = hashlib.sha256()
        for inst in cases:
            cut = to_cut_instance(inst)
            for doc in (cut.document(), shrink_cut_instance(cut).document()):
                digest.update((canonical_json(doc) + "\n").encode())
        assert len(cases) == 221
        assert digest.hexdigest() == \
            "907d86dc94514eb37bc894f615bbf97f01098e3673ae3f50f3d5ab4e1f08039f"


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


def solve_components_ref(instance: Instance) -> set[int]:
    """The per-component path ``solve_components`` replaced: each
    component is copied (one spanning every vertex is the instance
    itself), a star is solved by ``star_solve`` on its copy, on the copy's
    own integer weights, and any other by the table solver."""
    kept: set[int] = set()
    for sub, eids in component_instances(instance):
        if is_star(sub.graph) is not None:
            sol = star_solve(sub)
        else:
            sol = solve_dp(sub, build_sphere_cut(sub.graph))
        kept.update(eids[j] for j in sol.kept_edges)
    return kept


def random_star_forest(rng: random.Random) -> Instance:
    """Stars with tie-heavy weights, each over its own denominator (2 and
    3 for the first two, so no star's own lcm is the instance's), next to a
    one-edge component, a two-edge path and a three-edge path; or, one
    time in four, a single star.  Every edge is directed at random, so a
    center is the head of some edges and the tail of others."""
    edges: list[tuple[int, int]] = []
    rot: list[list[int]] = []
    weights: list[Fraction] = []

    def star(degree: int, den: int):
        center = len(rot)
        rot.append([])
        for _ in range(degree):
            leaf, e = len(rot), len(edges)
            weights.append(Fraction(rng.randint(1, 3), den))
            if rng.random() < 0.5:
                edges.append((center, leaf))
                rot[center].append(dart(e, TAIL))
                rot.append([dart(e, HEAD)])
            else:
                edges.append((leaf, center))
                rot[center].append(dart(e, HEAD))
                rot.append([dart(e, TAIL)])

    if rng.random() < 0.25:
        star(rng.randint(2, 12), rng.choice((1, 2, 3, 4, 6)))
    else:
        for k in range(rng.randint(2, 5)):
            star(rng.randint(3, 12), (2, 3)[k] if k < 2 else rng.choice((1, 2, 3, 4, 6)))
        star(1, 5)      # one edge
        star(2, 5)      # a two-edge path: a star at its middle vertex
        v, e = len(rot), len(edges)  # a three-edge path has two hubs: table-solved
        edges += [(v, v + 1), (v + 1, v + 2), (v + 2, v + 3)]
        weights += [Fraction(rng.randint(1, 3), 7) for _ in range(3)]
        rot += [[dart(e, TAIL)], [dart(e, HEAD), dart(e + 1, TAIL)],
                [dart(e + 1, HEAD), dart(e + 2, TAIL)], [dart(e + 2, HEAD)]]
    return Instance(PlaneDigraph(len(rot), edges, rot), tuple(weights))


def hub_to_hub_edges(graph: PlaneDigraph, edge_ids) -> list[int]:
    """The edges among ``edge_ids`` whose two ends both have more than one
    dart."""
    return [e for e in edge_ids if min(map(graph.degree, graph.edges[e])) > 1]


def random_double_star(rng: random.Random) -> Instance:
    """Hubs 0 and 1 joined by edge 0, directed at random, with 1-10
    pendants each and at most 16 edges in all: every dart of random
    direction, the hub-to-hub dart at a random place in each hub's
    rotation, and weights from a few values, so that optima often tie."""
    pool = rng.choice(([Fraction(1)], [Fraction(1), Fraction(2)],
                       [Fraction(1, 2), Fraction(1), Fraction(3, 2)]))
    edges = [(0, 1) if rng.random() < 0.5 else (1, 0)]
    rows: list[list[int]] = [[], []]
    first = rng.randint(1, 10)
    for hub, count in ((0, first), (1, rng.randint(1, min(10, 15 - first)))):
        for _ in range(count):
            e, leaf = len(edges), len(rows)
            out = rng.random() < 0.5
            edges.append((hub, leaf) if out else (leaf, hub))
            rows[hub].append(dart(e, TAIL if out else HEAD))
            rows.append([dart(e, HEAD if out else TAIL)])
        rows[hub].insert(rng.randint(0, count), dart(0, TAIL if edges[0][0] == hub else HEAD))
    weights = tuple(rng.choice(pool) for _ in edges)
    return Instance(PlaneDigraph(len(rows), edges, rows), weights)


class TestSolveComponents:
    """``solve_components`` against ``solve_components_ref`` and the
    exhaustive oracle.  A component with at most one hub-to-hub edge is
    solved by the flat-arc pass, whose tie-break is not the table
    solver's, so against the reference only the kept weights must agree,
    and the kept sets on each component with two or more hub-to-hub
    edges, whose path is unchanged."""

    @staticmethod
    def assert_same_optima(instances):
        for inst in instances:
            got, want = solve_components(inst), solve_components_ref(inst)
            assert make_solution(inst, got, "subexp").kept_weight == \
                make_solution(inst, want, "subexp").kept_weight
            g = inst.graph
            for _verts, edge_ids in g.components():
                if len(hub_to_hub_edges(g, edge_ids)) > 1:
                    assert got.intersection(edge_ids) == want.intersection(edge_ids)

    def test_planted_instances(self):
        self.assert_same_optima([
            reduce_to_simple(planted_star_instance(n, seed, stars)).instance
            for n in (100, 200, 300, 400) for seed in range(4) for stars in (4, 12)])

    def test_triangulations_and_corpus(self, corpus_small):
        self.assert_same_optima(
            [reduce_to_simple(inst).instance for inst in
             [gen_instance(GenParams(n=24, seed=s)) for s in range(15)] + corpus_small[:200]])

    def test_random_star_forests(self):
        rng = random.Random(20)
        forests = [random_star_forest(rng) for _ in range(300)]
        self.assert_same_optima(forests + [reduce_to_simple(inst).instance for inst in forests])

    def test_flat_components_against_the_oracle(self, corpus_small, monkeypatch):
        """120 random tie-heavy double stars of at most 16 edges, and every
        component with at most one hub-to-hub edge of the corpus graphs and
        of their normal forms (148: one double star of a graph, 33 double
        stars and 114 stars of the normal forms), keep the exhaustive
        optimum, with no decomposition built."""
        def refuse(*_args):
            raise AssertionError("a decomposition was built")

        monkeypatch.setattr(kernel, "build_sphere_cut", refuse)
        rng = random.Random(29)
        cases = [random_double_star(rng) for _ in range(120)]
        for inst in corpus_small:
            for graph in (inst, reduce_to_simple(inst).instance):
                cases += [sub for sub, _eids in component_instances(graph)
                          if len(hub_to_hub_edges(sub.graph, range(sub.graph.edge_count))) < 2]
        assert len(cases) == 120 + 148
        for inst in cases:
            sol = make_solution(inst, solve_components(inst), "subexp")
            assert sol.kept_weight == brute_force_mwbs(inst).kept_weight

    def test_repeated_component_tabulated_once(self, monkeypatch):
        """Two copies of triangulation n=12 seed 3 side by side: the normal
        form holds the same 17-edge component twice, and a plain
        ``solve_subexponential`` call, given no dict, tabulates it once
        (twice when only a caller's dict was consulted).  The second copy
        keeps the first copy's edges, so the kept weight doubles.  With the
        second copy's weights halved, its component's integer weights are
        still the first's, so it is tabulated once too (twice when the key
        held the weights as fractions), and keeps the same edges."""
        calls = count_solve_dp(monkeypatch)
        one = gen_instance(GenParams(n=12, seed=3))
        m = one.graph.edge_count
        two = Instance(side_by_side(one.graph, one.graph), one.weights * 2)
        single = solve_subexponential(one)
        assert len(calls) == 1
        calls.clear()
        double = solve_subexponential(two)
        assert len(calls) == 1
        assert double.kept_weight == 2 * single.kept_weight
        assert double.kept_edges == single.kept_edges | {e + m for e in single.kept_edges}
        calls.clear()
        halved = Instance(two.graph, one.weights + tuple(w / 2 for w in one.weights))
        scaled = solve_subexponential(halved)
        assert len(calls) == 1
        assert scaled.kept_weight == Fraction(3, 2) * single.kept_weight
        assert scaled.kept_edges == double.kept_edges

    def test_stars_are_solved_in_place(self, monkeypatch):
        """The 12 star components of a planted normal form cost no
        ``PlaneDigraph`` (the per-component path built 12), no ``is_star``,
        no decomposition and no ``make_solution``."""
        red = reduce_to_simple(planted_star_instance(400, 0, 12)).instance
        comps = [edges for _verts, edges in red.graph.components() if edges]
        assert len(comps) == 12
        want = solve_components_ref(red)
        built = []
        real_init = PlaneDigraph.__init__

        def counted_init(self, *args):
            built.append(args)
            real_init(self, *args)

        def refuse(*_args):
            raise AssertionError("called on the star path")

        monkeypatch.setattr(PlaneDigraph, "__init__", counted_init)
        monkeypatch.setattr(oracle, "is_star", refuse)
        monkeypatch.setattr(kernel, "build_sphere_cut", refuse)
        for mod in (dp, kernel, oracle, plane):
            monkeypatch.setattr(mod, "make_solution", refuse)
        assert solve_components(red) == want
        assert built == []

    def test_non_bimodal_star_center_is_refused(self, monkeypatch):
        """Keeping every dart of the alternating star gives its center four
        switches, and the check after the pass refuses it."""
        monkeypatch.setattr(kernel, "flat_component_deleted", lambda *_args: [])
        with pytest.raises(EmbeddingError, match="not bimodal at hub 0"):
            solve_components(star4_instance())


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

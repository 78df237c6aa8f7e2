"""Rotation-system core: documents, Euler checks, bimodality queries."""

import hashlib
import itertools
import json
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mwbs.errors import DecompositionError, EmbeddingError, FormatError
from mwbs import plane
from mwbs.decomposition import decomposition_from_document
from mwbs.generate import GenParams, gen_instance, planted_star_instance
from mwbs.kernel import shrink_cut_instance, to_cut_instance
from mwbs.plane import (
    HEAD,
    TAIL,
    Instance,
    PlaneDigraph,
    Solution,
    component_instances,
    cyclic_runs,
    dart,
    dart_direction,
    dart_edge,
    dart_end,
    decode_instance,
    encode_instance,
    instance_document,
    instance_from_document,
    make_solution,
    parse_weight,
    subgraph_by_edges,
)


def triangle_instance():
    edges = [(0, 1), (1, 2), (2, 0)]
    rot = [[dart(0, TAIL), dart(2, HEAD)],
           [dart(1, TAIL), dart(0, HEAD)],
           [dart(2, TAIL), dart(1, HEAD)]]
    return Instance(PlaneDigraph(3, edges, rot), (Fraction(1),) * 3)


def star4_instance(weights=None):
    """Center 0 with alternating in/out darts: four switches."""
    edges = [(1, 0), (0, 2), (3, 0), (0, 4)]
    rot = [[dart(0, HEAD), dart(1, TAIL), dart(2, HEAD), dart(3, TAIL)],
           [dart(0, TAIL)], [dart(1, HEAD)], [dart(2, TAIL)], [dart(3, HEAD)]]
    return Instance(PlaneDigraph(5, edges, rot),
                    weights or (Fraction(1),) * 4)


def k5_document():
    """A fixed rotation system for K5 (sorted neighbor order)."""
    pairs = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    eid = {p: i for i, p in enumerate(pairs)}
    edges = [{"id": i, "tail": a, "head": b, "weight": "1/1"}
             for i, (a, b) in enumerate(pairs)]
    rotation = []
    for v in range(5):
        row = []
        for u in range(5):
            if u == v:
                continue
            a, b = min(u, v), max(u, v)
            row.append({"edge": eid[(a, b)], "end": "tail" if v == a else "head"})
        rotation.append(row)
    return {"vertices": 5, "edges": edges, "rotation": rotation}


def trace_faces_reference(doc):
    """Independent face tracer working directly on a document."""
    at = {}
    for v, row in enumerate(doc["rotation"]):
        for pos, item in enumerate(row):
            at[(item["edge"], item["end"])] = (v, pos)
    succ = {}
    for v, row in enumerate(doc["rotation"]):
        for pos, item in enumerate(row):
            nxt = row[(pos + 1) % len(row)]
            succ[(item["edge"], item["end"])] = (nxt["edge"], nxt["end"])
    twin = lambda d: (d[0], "head" if d[1] == "tail" else "tail")
    faces = 0
    seen = set()
    for start in sorted(at):
        if start in seen:
            continue
        faces += 1
        d = start
        while d not in seen:
            seen.add(d)
            d = succ[twin(d)]
    return faces


class TestDecode:
    def test_single_vertex(self):
        inst = decode_instance('{"vertices":1,"edges":[],"rotation":[[]]}')
        assert inst.graph.vertex_count == 1
        assert len(inst.graph.faces) == 0

    def test_triangle_roundtrip(self):
        text = encode_instance(triangle_instance())
        again = decode_instance(text)
        assert encode_instance(again) == text
        assert len(again.graph.faces) == 2

    def test_k5_rejected_with_euler_failure(self):
        doc = k5_document()
        # independent count: V - E + F must differ from 2
        f = trace_faces_reference(doc)
        assert 5 - 10 + f != 2
        with pytest.raises(EmbeddingError, match="Euler"):
            decode_instance(json.dumps(doc))

    def test_face_count_matches_reference(self, corpus_small):
        for inst in corpus_small[:40]:
            doc = instance_document(inst)
            assert len(inst.graph.faces) == trace_faces_reference(doc)

    def test_self_loop_rejected(self):
        with pytest.raises(EmbeddingError, match="self-loop"):
            PlaneDigraph(1, [(0, 0)], [[dart(0, TAIL), dart(0, HEAD)]])

    def test_malformed_documents(self):
        with pytest.raises(FormatError):
            decode_instance("not json")
        with pytest.raises(FormatError):
            decode_instance('{"vertices":1,"edges":[]}')
        bad_weight = ('{"vertices":2,"edges":[{"id":0,"tail":0,"head":1,'
                      '"weight":"0/1"}],"rotation":[[{"edge":0,"end":"tail"}],'
                      '[{"edge":0,"end":"head"}]]}')
        with pytest.raises(FormatError):
            decode_instance(bad_weight)

    def test_weight_strings(self):
        assert parse_weight("3/2") == Fraction(3, 2)
        for bad in ("3", "4/2", "1/0", "-1/2", "0/1",
                    "1_0/3", " 1/2", "+1/2", "1/+2", "\u0663/4"):
            with pytest.raises(FormatError):
                parse_weight(bad)

    def test_dart_bookkeeping_errors(self):
        """Each refusal of the vertex count, the rotation table and its
        darts, with its exact text."""
        cases = [
            ((-1, [], []), "negative vertex count"),
            ((2, [(0, 1)], [[dart(0, TAIL)]]),
             "rotation table length differs from vertex count"),
            ((2, [(0, 1)], [[dart(0, TAIL), 7], [dart(0, HEAD)]]), "unknown dart 7 at vertex 0"),
            ((2, [(0, 1)], [[dart(0, HEAD)], [dart(0, TAIL)]]),
             "dart 1 listed at vertex 0 but belongs to vertex 1"),
            ((2, [(0, 1)], [[dart(0, TAIL)], []]),
             "some darts are missing from the rotation system"),
        ]
        for args, text in cases:
            with pytest.raises(EmbeddingError) as info:
                PlaneDigraph(*args)
            assert str(info.value) == text

    def test_weight_list_must_match_the_edges(self):
        with pytest.raises(FormatError) as info:
            Instance(triangle_instance().graph, (Fraction(1),) * 2)
        assert str(info.value) == "weight list length differs from edge count"

    def test_dart_position(self, corpus_small):
        for inst in corpus_small[:60]:
            g = inst.graph
            for row in g.rotation:
                for j, d in enumerate(row):
                    assert g.dart_position(d) == j


class TestSwitchesAndWedges:
    def test_switch_count_examples(self):
        inst = star4_instance()
        g = inst.graph
        assert g.switch_count(0) == 4            # in,out,in,out
        assert not g.is_bimodal_vertex(0)
        # restricting to one edge: degree 1, zero switches
        assert g.switch_count(0, {0}) == 0

    def test_two_blocks_is_bimodal(self):
        edges = [(1, 0), (2, 0), (0, 3), (0, 4)]
        rot = [[dart(0, HEAD), dart(1, HEAD), dart(2, TAIL), dart(3, TAIL)],
               [dart(0, TAIL)], [dart(1, TAIL)], [dart(2, HEAD)], [dart(3, HEAD)]]
        g = PlaneDigraph(5, edges, rot)
        assert g.switch_count(0) == 2            # in,in,out,out

    def test_all_in_no_switches(self):
        edges = [(j + 1, 0) for j in range(5)]
        rot = [[dart(j, HEAD) for j in range(5)]] + [[dart(j, TAIL)] for j in range(5)]
        g = PlaneDigraph(6, edges, rot)
        assert g.switch_count(0) == 0
        assert [w.direction for w in g.wedges(0)] == ["i"]
        assert g.wedges(0)[0].length == 5

    def test_wedges_alternating(self):
        g = star4_instance().graph
        ws = g.wedges(0)
        assert len(ws) == 4 and all(w.length == 1 for w in ws)
        dirs = [w.direction for w in ws]
        assert all(dirs[j] != dirs[(j + 1) % 4] for j in range(4))

    def test_wedge_partition_property(self, corpus_small):
        for inst in corpus_small[:60]:
            g = inst.graph
            for v in range(g.vertex_count):
                ws = g.wedges(v)
                assert sum(w.length for w in ws) == g.degree(v)
                if len(ws) >= 2:
                    assert len(ws) == g.switch_count(v)
                    for j in range(len(ws)):
                        assert ws[j].direction != ws[(j + 1) % len(ws)].direction

    def test_cyclic_runs_against_brute_force(self):
        """Every list over {0, 1, 2} of length 0 to 7: the runs are the
        (start, length) windows of equal values that cannot grow on either
        side, in order of start; a constant list is one run from 0."""
        def reference(values):
            k = len(values)
            if len(set(values)) <= 1:
                return [(0, k)] if k else []
            return [(start, length) for start in range(k) for length in range(1, k)
                    if len({values[(start + j) % k] for j in range(length)}) == 1
                    and values[start - 1] != values[start]
                    and values[(start + length) % k] != values[start]]

        lists = [list(values) for k in range(8)
                 for values in itertools.product(range(3), repeat=k)]
        assert len(lists) == 3280
        for values in lists:
            assert cyclic_runs(values) == reference(values), values

    @given(st.integers(0, 10_000), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_switch_count_even_on_subgraphs(self, seed, drop):
        inst = gen_instance(GenParams(n=5, seed=seed, density="sparse"))
        g = inst.graph
        present = set(range(g.edge_count))
        for e in range(min(drop, g.edge_count)):
            present.discard(e)
        for v in range(g.vertex_count):
            c = g.switch_count(v, present)
            assert c % 2 == 0
            assert (c <= 2) == naive_bimodal(g, v, present)

    def test_switch_counts_match_per_vertex(self, corpus_small):
        """``switch_counts`` and ``bad_vertices`` agree with ``switch_count``
        at every vertex, for all edges, for none and for random subsets, on
        graphs with vertices of 0, 1 and 2 darts."""
        rng = random.Random(19)
        star = star4_instance().graph
        with_isolated = PlaneDigraph(star.vertex_count + 1, star.edges, star.rotation + ((),))
        graphs = ([with_isolated] + [inst.graph for inst in corpus_small[:80]]
                  + [planted_star_instance(*params).graph for params in ((120, 9, 5),
                                                                          (400, 3, 12))]
                  + [gen_instance(GenParams(n=24, seed=s)).graph for s in range(5)])
        degrees = {g.degree(v) for g in graphs for v in range(g.vertex_count)}
        assert {0, 1, 2} <= degrees
        for g in graphs:
            m = g.edge_count
            subsets = [{e for e in range(m) if rng.random() < p} for p in (0.2, 0.5, 0.8)]
            for present in [None, set()] + subsets:
                want = [g.switch_count(v, present) for v in range(g.vertex_count)]
                assert g.switch_counts(present) == want
                assert g.bad_vertices(present) == [v for v, c in enumerate(want) if c > 2]


def naive_bimodal(g, v, present):
    """Independent check: can the present darts be split into at most two
    direction-pure cyclic arcs (one in, one out)?"""
    dirs = [("o" if d % 2 == 0 else "i") for d in g.rotation[v]
            if (d >> 1) in present]
    k = len(dirs)
    if k <= 1 or len(set(dirs)) == 1:
        return True
    for cut1 in range(k):
        for cut2 in range(cut1 + 1, k + 1):
            arc1 = dirs[cut1:cut2]
            arc2 = dirs[cut2:] + dirs[:cut1]
            if len(set(arc1)) <= 1 and len(set(arc2)) <= 1:
                return True
    return False


class TestSections:
    def test_sections_of_mixed_vertex(self):
        # a tree (always genus 0): center 0 sees [good, good, bad, good, bad],
        # the two bad neighbors are alternating sub-centers of their own
        edges = [(1, 0), (0, 2), (3, 0), (0, 4), (5, 0),
                 (6, 3), (3, 7), (8, 3), (9, 5), (5, 10), (11, 5)]
        rot = [
            [dart(0, HEAD), dart(1, TAIL), dart(2, HEAD), dart(3, TAIL), dart(4, HEAD)],
            [dart(0, TAIL)], [dart(1, HEAD)],
            [dart(2, TAIL), dart(5, HEAD), dart(6, TAIL), dart(7, HEAD)],
            [dart(3, HEAD)],
            [dart(4, TAIL), dart(8, HEAD), dart(9, TAIL), dart(10, HEAD)],
            [dart(5, TAIL)], [dart(6, HEAD)], [dart(7, TAIL)],
            [dart(8, TAIL)], [dart(9, HEAD)], [dart(10, TAIL)],
        ]
        g = PlaneDigraph(12, edges, rot)
        assert set(g.bad_vertices()) == {0, 3, 5}
        sections = g.good_edge_sections(0)
        spans = [(s.start, s.length) for s in sections]
        assert spans == [(0, 2), (3, 1)]
        assert all(not s.cyclic for s in sections)

    def test_all_bad_neighbors_no_sections(self):
        # two adjacent alternating centers, all edges between bad vertices
        edges = [(0, 1), (1, 0), (0, 1), (1, 0)]
        rot = [
            [dart(0, TAIL), dart(1, HEAD), dart(2, TAIL), dart(3, HEAD)],
            [dart(3, TAIL), dart(2, HEAD), dart(1, TAIL), dart(0, HEAD)],
        ]
        g = PlaneDigraph(2, edges, rot)
        assert g.bad_vertices() == [0, 1]
        assert g.good_edge_sections(0) == []

    def test_cyclic_section_flagged(self):
        g = star4_instance().graph
        (section,) = g.good_edge_sections(0)
        assert section.cyclic and section.length == 4

    def test_good_vertex_rejected(self):
        g = triangle_instance().graph
        with pytest.raises(EmbeddingError):
            g.good_edge_sections(0)

    def test_section_bound_b_minus_one(self, corpus_small):
        """With some bad neighbor present, a bad vertex has at most b-1
        sections; the all-good-neighbors case is one flagged cyclic run."""
        for inst in corpus_small:
            g = inst.graph
            bad = set(g.bad_vertices())
            for v in bad:
                sections = g.good_edge_sections(v)
                has_bad_neighbor = any(g.other_endpoint(d) in bad
                                       for d in g.rotation[v])
                if has_bad_neighbor:
                    assert len(sections) <= len(bad) - 1
                elif sections:
                    assert len(sections) == 1 and sections[0].cyclic

    def test_wedges_and_sections_pinned(self):
        """SHA-256 of ``wedges(v)`` at every vertex and
        ``good_edge_sections(v)`` at every bad vertex of triangulations
        n=60 seeds 0-9 and ``planted_star_instance(400, 0, 12)``, recorded
        before both were rewritten on ``cyclic_runs``."""
        graphs = [gen_instance(GenParams(n=60, seed=s)).graph for s in range(10)]
        graphs.append(planted_star_instance(400, 0, 12).graph)
        lines = []
        for g in graphs:
            bad = set(g.bad_vertices())
            for v in range(g.vertex_count):
                lines.append(repr([(w.vertex, w.start, w.length, w.direction)
                                   for w in g.wedges(v)]))
                if v in bad:
                    lines.append(repr([(s.vertex, s.start, s.length, s.cyclic)
                                       for s in g.good_edge_sections(v)]))
        assert len(lines) == 1193
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
            "7dcf415e1f573e12c698a4e6f29ca8d801d2ebb743c3e5830c8fa73d9fe6e8e6"


class TestSolutionAndSubgraph:
    def test_make_solution_verifies(self):
        inst = star4_instance()
        with pytest.raises(EmbeddingError):
            make_solution(inst, {0, 1, 2, 3}, "test")
        sol = make_solution(inst, {0, 1, 2}, "test")
        assert sol.kept_weight == 3 and sol.deleted_weight == 1
        assert sol.certificate[0] == 2

    def test_subgraph_inherits_rotation(self, corpus_small):
        inst = corpus_small[0]
        g = inst.graph
        keep = list(range(0, g.edge_count, 2))
        sub, vids, eids = subgraph_by_edges(inst, keep)
        assert eids == keep
        for j, e in enumerate(eids):
            assert inst.weights[e] == sub.weights[j]
        # order of darts is preserved per vertex
        for sv, ov in enumerate(vids):
            dirs = [d % 2 for d in sub.graph.rotation[sv]]
            orig = [d % 2 for d in g.rotation[ov] if (d >> 1) in set(keep)]
            assert dirs == orig


def make_solution_ref(instance, kept, method):
    """Reference certificate: Fraction sums of the weights and a direction
    string per dart, with every refusal of ``make_solution``."""
    g = instance.graph
    kept = frozenset(int(e) for e in kept)
    for e in kept:
        if not (0 <= e < g.edge_count):
            raise FormatError(f"solution references unknown edge {e}")
    cert = []
    for v in range(g.vertex_count):
        dirs = [dart_direction(d) for d in g.rotation[v] if dart_edge(d) in kept]
        cert.append(sum(a != b for a, b in zip(dirs, dirs[1:] + dirs[:1])))
    if any(c > 2 for c in cert):
        bad = [v for v, c in enumerate(cert) if c > 2]
        raise EmbeddingError(f"kept edge set is not bimodal at vertices {bad}")
    kept_w = sum((instance.weights[e] for e in kept), Fraction(0))
    total = sum(instance.weights, Fraction(0))
    return Solution(kept, kept_w, total - kept_w, method, tuple(cert))


def outcome(fn, *args):
    """A solution's fields, or the type and text of its refusal."""
    try:
        sol = fn(*args)
    except (FormatError, EmbeddingError) as exc:
        return type(exc), str(exc)
    return sol.kept_edges, sol.kept_weight, sol.deleted_weight, sol.method, sol.certificate


def kept_set_samples(instance, rng):
    """Kept sets of every kind: empty, all, random (mostly not bimodal), a
    random maximal bimodal set and random subsets of it, and sets naming an
    unknown edge."""
    g = instance.graph
    m = g.edge_count
    greedy: set[int] = set()
    for e in rng.sample(range(m), m):
        greedy.add(e)
        if any(g.switch_count(v, greedy) > 2 for v in g.edges[e]):
            greedy.discard(e)
    samples = [set(), set(range(m)), greedy]
    samples += [{e for e in range(m) if rng.random() < p} for p in (0.3, 0.7)]
    samples += [{e for e in greedy if rng.random() < 0.5} for _ in range(2)]
    samples += [greedy | {m}, {-1, 0}, [e for e in greedy] + [m + 5]]
    return samples


class TestCertificateAgainstReference:
    def test_matches_reference(self, corpus_b4):
        """Certificate, both weights and every refusal agree with the
        reference on the corpus, the triangulation and sparse pools of the
        benchmark, and shrunk cut instances, whose gadget edges weigh 0."""
        tri = [gen_instance(GenParams(n=24, seed=s)) for s in range(15)]
        sparse = [gen_instance(GenParams(n=40, seed=s, density="sparse")) for s in range(7)]
        shrunk = [shrink_cut_instance(to_cut_instance(inst)).instance
                  for inst in corpus_b4[:120] + tri[:5]]
        assert any(w == 0 for inst in shrunk for w in inst.weights)
        assert any(len({w.denominator for w in inst.weights}) > 1 for inst in shrunk)
        rng = random.Random(15)
        kinds = set()
        for inst in corpus_b4 + tri + sparse + shrunk:
            for kept in kept_set_samples(inst, rng):
                got = outcome(make_solution, inst, kept, "test")
                assert got == outcome(make_solution_ref, inst, kept, "test")
                kinds.add(got[0] if isinstance(got[0], type) else Solution)
        assert kinds == {Solution, FormatError, EmbeddingError}


class TestCachedBookkeeping:
    def test_instance_equality_and_hash_ignore_the_scaling(self):
        inst = star4_instance((Fraction(1, 2), Fraction(1, 3), Fraction(3, 4), Fraction(5)))
        twin = Instance(inst.graph, inst.weights)
        assert inst.int_weights == ((6, 4, 9, 60), 12, 79)
        assert inst.int_weights is inst.int_weights
        assert "int_weights" not in repr(inst)
        assert inst == twin and hash(inst) == hash(twin)
        assert inst.total_weight == twin.total_weight == Fraction(79, 12)
        assert "int_weights" in vars(twin)
        assert inst == twin and hash(inst) == hash(twin)

    def test_components_cannot_be_altered_by_a_caller(self, corpus_small):
        g = next(inst.graph for inst in corpus_small if inst.graph.edge_count >= 3)
        first = g.components()
        saved = [(list(verts), list(edges)) for verts, edges in first]
        first.append(((99,), ()))
        first[0] = ((), ())
        with pytest.raises(TypeError):
            g.components()[0][1][0] = 99
        assert [(list(v), list(e)) for v, e in g.components()] == saved

    def test_component_instances_copy_only_proper_components(self):
        inst = triangle_instance()
        ((sub, eids),) = component_instances(inst)
        assert sub is inst and list(eids) == [0, 1, 2]
        # two triangles side by side
        edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        rot = [[dart(0, TAIL), dart(2, HEAD)], [dart(1, TAIL), dart(0, HEAD)],
               [dart(2, TAIL), dart(1, HEAD)], [dart(3, TAIL), dart(5, HEAD)],
               [dart(4, TAIL), dart(3, HEAD)], [dart(5, TAIL), dart(4, HEAD)]]
        two = Instance(PlaneDigraph(6, edges, rot), tuple(Fraction(e + 1) for e in range(6)))
        parts = list(component_instances(two))
        assert [list(eids) for _sub, eids in parts] == [[0, 1, 2], [3, 4, 5]]
        assert all(sub is not two and sub.graph.vertex_count == 3 for sub, _ in parts)
        assert parts[1][0].weights == (4, 5, 6)
        # the triangle plus an isolated vertex
        lonely = Instance(PlaneDigraph(4, inst.graph.edges, list(inst.graph.rotation) + [[]]),
                          inst.weights)
        ((sub, eids),) = component_instances(lonely)
        assert sub is not lonely and sub.graph.vertex_count == 3 and list(eids) == [0, 1, 2]


# -- reference decoder ------------------------------------------------

def _ref_is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _ref_shown(value):
    """A refused value as the refusal texts show it: its repr, or the
    first 40 characters of a longer repr followed by the repr's length."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


def _ref_weight(text):
    if not isinstance(text, str):
        raise FormatError(f"weight must be a string, got {_ref_shown(text)}")
    if not re.fullmatch(r"[0-9]+/[0-9]+", text):
        raise FormatError(f"weight {_ref_shown(text)} is not of the form p/q")
    num, den = (int(part) for part in text.split("/"))
    if den <= 0:
        raise FormatError(f"weight {_ref_shown(text)} has nonpositive denominator")
    if math.gcd(abs(num), den) != 1:
        raise FormatError(f"weight {_ref_shown(text)} is not reduced")
    value = Fraction(num, den)
    if value <= 0:
        raise FormatError(f"weight {_ref_shown(text)} is out of range")
    return value


def reference_decode(doc):
    """Grammar checks, dart bookkeeping, face tracing and the per-component
    Euler test, one stage after another, with the refusal texts of the
    decoder.  Returns (vertex count, edges, rotation, weights, faces,
    components, dart positions)."""
    if not isinstance(doc, dict):
        raise FormatError("instance document must be a JSON object")
    for key in ("vertices", "edges", "rotation"):
        if key not in doc:
            raise FormatError(f"instance document lacks {key!r}")
    n = doc["vertices"]
    if not _ref_is_int(n) or n < 0:
        raise FormatError("vertices must be a nonnegative integer")
    raw_edges = doc["edges"]
    if not isinstance(raw_edges, list):
        raise FormatError("edges must be a list")
    m = len(raw_edges)
    edges, weights = [None] * m, [None] * m
    for item in raw_edges:
        if not isinstance(item, dict):
            raise FormatError("each edge must be an object")
        try:
            e, t, h = item["id"], item["tail"], item["head"]
            w = item["weight"]
        except KeyError as exc:
            raise FormatError(f"edge lacks field {exc}") from None
        if not _ref_is_int(e) or not (0 <= e < m):
            raise FormatError(f"edge id {_ref_shown(e)} is not dense in 0..{m - 1}")
        if edges[e] is not None:
            raise FormatError(f"duplicate edge id {e}")
        if not _ref_is_int(t) or not _ref_is_int(h):
            raise FormatError("edge endpoints must be integers")
        edges[e] = (t, h)
        weights[e] = _ref_weight(w)
    raw_rot = doc["rotation"]
    if not isinstance(raw_rot, list) or len(raw_rot) != n:
        raise FormatError("rotation must list one dart sequence per vertex")
    end_code = {"tail": TAIL, "head": HEAD}
    rotation = []
    for row in raw_rot:
        if not isinstance(row, list):
            raise FormatError("each rotation entry must be a list")
        darts = []
        for item in row:
            if not isinstance(item, dict) or "edge" not in item or "end" not in item:
                raise FormatError("each dart must be an object with edge and end")
            e, end = item["edge"], item["end"]
            if not _ref_is_int(e) or not (0 <= e < m):
                raise FormatError(f"dart references unknown edge {_ref_shown(e)}")
            if end not in end_code:
                raise FormatError(f"dart end must be 'tail' or 'head', got {_ref_shown(end)}")
            darts.append(dart(e, end_code[end]))
        rotation.append(darts)

    for e, (t, h) in enumerate(edges):
        if not (0 <= t < n and 0 <= h < n):
            raise EmbeddingError(f"edge {e} endpoint out of range")
        if t == h:
            raise EmbeddingError(f"edge {e} is a self-loop")
    vertex_of, pos = [-1] * (2 * m), [-1] * (2 * m)
    for v, row in enumerate(rotation):
        for j, d in enumerate(row):
            if vertex_of[d] != -1:
                raise EmbeddingError(f"dart {d} appears twice")
            want = edges[dart_edge(d)][dart_end(d)]
            if want != v:
                raise EmbeddingError(
                    f"dart {d} listed at vertex {v} but belongs to vertex {want}")
            vertex_of[d], pos[d] = v, j
    if -1 in vertex_of:
        raise EmbeddingError("some darts are missing from the rotation system")

    face_of, faces = [-1] * (2 * m), []
    for start in range(2 * m):
        if face_of[start] != -1:
            continue
        face, d = [], start
        while face_of[d] == -1:
            face_of[d] = len(faces)
            face.append(d)
            row = rotation[vertex_of[d ^ 1]]
            d = row[(pos[d ^ 1] + 1) % len(row)]
        faces.append(tuple(face))

    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for t, h in edges:
        rt, rh = find(t), find(h)
        if rt != rh:
            parent[rt] = rh
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), ([], []))[0].append(v)
    for e, (t, _h) in enumerate(edges):
        groups[find(t)][1].append(e)
    components = [(tuple(verts), tuple(eids))
                  for verts, eids in (groups[r] for r in sorted(groups))]
    for verts, eids in components:
        if not eids:
            continue
        face_ids = {face_of[dart(e, end)] for e in eids for end in (TAIL, HEAD)}
        euler = len(verts) - len(eids) + len(face_ids)
        if euler != 2:
            raise EmbeddingError(
                f"Euler check failed on a component: V={len(verts)} "
                f"E={len(eids)} F={len(face_ids)} gives {euler}, not 2")
    return (n, tuple(edges), tuple(map(tuple, rotation)), tuple(weights),
            tuple(faces), components, pos)


def decoded(doc):
    """What ``instance_from_document`` builds, in ``reference_decode``'s
    terms."""
    inst = instance_from_document(doc)
    g = inst.graph
    return (g.vertex_count, g.edges, g.rotation, inst.weights, g.faces,
            g.components(), [g.dart_position(d) for d in range(2 * g.edge_count)])


def refusal(fn, doc):
    with pytest.raises((FormatError, EmbeddingError)) as info:
        fn(doc)
    return type(info.value), str(info.value)


def _edit(change):
    """A fault: ``change`` edits a fresh two-triangle document in place."""
    def fault():
        doc = two_triangles_document()
        change(doc)
        return doc
    return fault


def two_triangles_document():
    """Two directed triangles side by side plus an isolated vertex."""
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    rot = [[dart(0, TAIL), dart(2, HEAD)], [dart(1, TAIL), dart(0, HEAD)],
           [dart(2, TAIL), dart(1, HEAD)], [dart(3, TAIL), dart(5, HEAD)],
           [dart(4, TAIL), dart(3, HEAD)], [dart(5, TAIL), dart(4, HEAD)], []]
    weights = tuple(Fraction(e + 1, 2) for e in range(6))
    return instance_document(Instance(PlaneDigraph(7, edges, rot), weights))


def _self_loop(doc):
    doc["edges"][0]["head"] = 0
    doc["rotation"][1].remove({"edge": 0, "end": "head"})
    doc["rotation"][0].append({"edge": 0, "end": "head"})


def _several(doc):
    doc["edges"][4]["weight"] = "2/4"
    doc["edges"][1]["id"] = 0
    doc["rotation"][0][0]["end"] = "side"


DECODE_FAULTS = {
    "list-document": lambda: [two_triangles_document()],
    "string-document": lambda: "{}",
    "no-vertices": _edit(lambda doc: doc.pop("vertices")),
    "no-rotation": _edit(lambda doc: doc.pop("rotation")),
    "bool-vertices": _edit(lambda doc: doc.update(vertices=True)),
    "negative-vertices": _edit(lambda doc: doc.update(vertices=-1)),
    "edges-not-a-list": _edit(lambda doc: doc.update(edges={"0": doc["edges"][0]})),
    "edge-not-an-object": _edit(lambda doc: doc["edges"].__setitem__(2, [0, 1])),
    "edge-lacks-weight": _edit(lambda doc: doc["edges"][3].pop("weight")),
    "bool-id": _edit(lambda doc: doc["edges"][0].update(id=False)),
    "float-id": _edit(lambda doc: doc["edges"][0].update(id=0.0)),
    "negative-id": _edit(lambda doc: doc["edges"][0].update(id=-1)),
    "out-of-range-id": _edit(lambda doc: doc["edges"][5].update(id=6)),
    "duplicate-id": _edit(lambda doc: doc["edges"][3].update(id=1)),
    "float-endpoint": _edit(lambda doc: doc["edges"][2].update(tail=2.0)),
    "string-endpoint": _edit(lambda doc: doc["edges"][2].update(head="0")),
    "bool-endpoint": _edit(lambda doc: doc["edges"][0].update(tail=False)),
    "endpoint-out-of-range": _edit(lambda doc: doc["edges"][4].update(head=7)),
    "int-weight": _edit(lambda doc: doc["edges"][1].update(weight=1)),
    "list-weight": _edit(lambda doc: doc["edges"][1].update(weight=["1/2"])),
    "unreduced-weight": _edit(lambda doc: doc["edges"][1].update(weight="2/4")),
    "zero-weight": _edit(lambda doc: doc["edges"][1].update(weight="0/1")),
    "zero-denominator": _edit(lambda doc: doc["edges"][1].update(weight="1/0")),
    "decimal-weight": _edit(lambda doc: doc["edges"][1].update(weight="0.5")),
    "rotation-not-a-list": _edit(lambda doc: doc.update(rotation={})),
    "rotation-too-short": _edit(lambda doc: doc["rotation"].pop()),
    "row-not-a-list": _edit(lambda doc: doc["rotation"].__setitem__(6, {})),
    "dart-not-an-object": _edit(lambda doc: doc["rotation"][0].__setitem__(0, "0/tail")),
    "dart-lacks-end": _edit(lambda doc: doc["rotation"][2][1].pop("end")),
    "dart-unknown-edge": _edit(lambda doc: doc["rotation"][2][1].update(edge=6)),
    "dart-bool-edge": _edit(lambda doc: doc["rotation"][2][1].update(edge=True)),
    "bad-end": _edit(lambda doc: doc["rotation"][3][0].update(end="Tail")),
    "integer-end": _edit(lambda doc: doc["rotation"][3][0].update(end=0)),
    "null-end": _edit(lambda doc: doc["rotation"][3][0].update(end=None)),
    "dart-twice": _edit(lambda doc: doc["rotation"][1].append(dict(doc["rotation"][1][0]))),
    "dart-twice-elsewhere": _edit(
        lambda doc: doc["rotation"][2].append(dict(doc["rotation"][1][0]))),
    "dart-at-wrong-vertex": _edit(
        lambda doc: doc["rotation"][6].append(doc["rotation"][5].pop())),
    "missing-dart": _edit(lambda doc: doc["rotation"][4].pop()),
    "self-loop": _edit(_self_loop),
    "k5": k5_document,
    "long-weight": _edit(lambda doc: doc["edges"][1].update(weight="9" * 4000)),
    "long-unreduced-weight": _edit(lambda doc: doc["edges"][1].update(weight="2" * 40 + "/2")),
    "long-list-weight": _edit(lambda doc: doc["edges"][1].update(weight=["1/2"] * 1000)),
    "long-id": _edit(lambda doc: doc["edges"][0].update(id=10 ** 3999)),
    "long-dart-edge": _edit(lambda doc: doc["rotation"][2][1].update(edge=-10 ** 3999)),
    "long-end": _edit(lambda doc: doc["rotation"][3][0].update(end="x" * 100_000)),
    "several-faults": _edit(_several),
}


class TestDecoderAgainstReference:
    @pytest.mark.parametrize("fault", DECODE_FAULTS.values(), ids=DECODE_FAULTS.keys())
    def test_refusal_matches_reference(self, fault):
        want = refusal(reference_decode, fault())
        assert refusal(instance_from_document, fault()) == want
        assert refusal(decode_instance, json.dumps(fault())) == want

    def test_valid_documents_match_reference(self, corpus_small):
        instances = corpus_small[:120]
        instances += [gen_instance(GenParams(n=24, seed=s)) for s in range(15)]
        instances += [planted_star_instance(n, s, 12)
                      for s, n in enumerate((400, 500, 600, 700, 800))]
        docs = [instance_document(inst) for inst in instances]
        # two paths whose vertex ids interleave: components come in root order
        paths = Instance(PlaneDigraph(5, [(4, 0), (1, 3), (3, 2)],
                                      [[dart(0, HEAD)], [dart(1, TAIL)], [dart(2, HEAD)],
                                       [dart(1, HEAD), dart(2, TAIL)], [dart(0, TAIL)]]),
                         (Fraction(1),) * 3)
        docs += [two_triangles_document(), instance_document(paths)]
        assert len(reference_decode(docs[-2])[5]) == 3
        assert reference_decode(docs[-1])[5] == [((0, 4), (0,)), ((1, 2, 3), (1, 2))]
        for doc in docs:
            assert decoded(doc) == reference_decode(doc)

    def test_refusals_of_long_values_stay_short(self):
        """A refusal text shows at most 40 characters of the refused value
        and its length, however long the value."""
        texts = [refusal(parse_weight, text)[1]
                 for text in ("9" * 4000, "4" * 4000 + "/2", ["1/2"] * 10_000, 10 ** 4000)]
        texts += [refusal(instance_from_document, DECODE_FAULTS[name]())[1]
                  for name in ("long-weight", "long-list-weight", "long-id",
                               "long-dart-edge", "long-end")]
        inst = triangle_instance()
        texts += [refusal(lambda kept: make_solution(inst, kept, "test"), [e])[1]
                  for e in (10 ** 4000, -10 ** 4000, 10 ** 5000)]
        star = {"nodes": 4, "arcs": [[0, 3], [1, 3], [2, 3]],
                "leaf_map": {"0": 0, "1": 1, "2": 2}}
        for damaged in ({**star, "nodes": "9" * 100_000},
                        {**star, "arcs": [[0, [3] * 10_000], [1, 3], [2, 3]]},
                        {**star, "leaf_map": {"x" * 100_000: 0, "1": 1, "2": 2}}):
            with pytest.raises(DecompositionError) as info:
                decomposition_from_document(damaged)
            texts.append(str(info.value))
        assert len(texts) == 15
        assert max(map(len, texts)) < 200, max(texts, key=len)
        assert all("characters)" in text or "digits" in text for text in texts)

    def test_each_distinct_weight_string_is_parsed_once(self, monkeypatch):
        doc = instance_document(planted_star_instance(400, 0, 12))
        seen = []
        parse = plane.parse_weight

        def counting(text):
            seen.append(text)
            return parse(text)

        monkeypatch.setattr(plane, "parse_weight", counting)
        decode_instance(json.dumps(doc))
        distinct = {item["weight"] for item in doc["edges"]}
        assert len(distinct) < len(doc["edges"])
        assert sorted(seen) == sorted(distinct)

"""Kernelization and compression machinery.

Three reduction rules bring an instance to a simple normal form: isolated
vertices go, edges between two bimodal vertices go (their weight is
banked, every optimum keeps them), and each remaining bimodal vertex of
degree two or more is split into degree-one copies that inherit the exact
dart slots at the far endpoints.  Afterwards only non-bimodal vertices
have degree above one, so the branchwidth of the residue is governed by
their count.

On the normal form, every good edge-section of a bad vertex can be cut at
the switch positions that are optimal for each of the six configurations;
the at most 12 cuts split the section into at most 13 blocks and at most
26 direction-pure classes such that some optimum deletes whole classes
only.  Treating classes as all-or-nothing units is the prescribed-cuts
generalization of the problem; two further rules (merging a consecutive
class to a single carrier edge, and replacing an interleaved in/out class
pair with a four-edge zero-padded gadget) shrink every class to at most
two edges, bounding the graph polynomially in the number of bad vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .decomposition import build_sphere_cut
from .dp import CONFIGS, collapse, solve_dp
from .errors import EmbeddingError, FormatError
from .oracle import is_star, star_solve
from .plane import (
    HEAD,
    TAIL,
    GoodEdgeSection,
    Instance,
    PlaneDigraph,
    Solution,
    dart,
    dart_direction,
    dart_edge,
    dart_end,
    format_weight,
    instance_document,
    instance_from_document,
    make_solution,
    parse_weight,
    subgraph_by_edges,
)


# ---------------------------------------------------------------------
# mutable embedding used by the rewriting rules

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
        self.next_edge = g.edge_count

    def degree(self, v: int) -> int:
        return len(self.rot[v])

    def switch_count(self, v: int) -> int:
        dirs = ["o" if end == TAIL else "i" for _e, end in self.rot[v]]
        k = len(dirs)
        if k <= 1:
            return 0
        return sum(1 for j in range(k) if dirs[j] != dirs[(j + 1) % k])

    def is_good(self, v: int) -> bool:
        return self.switch_count(v) <= 2

    def endpoint(self, e: int, end: int) -> int:
        return self.edges[e][end]

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

    def reattach_end(self, e: int, end: int, new_vertex: int):
        """Move one end of an edge to a (fresh) vertex, appending the dart
        to the new vertex's rotation; the other endpoint keeps its slot."""
        old = self.edges[e][end]
        self.rot[old].remove((e, end))
        pair = list(self.edges[e])
        pair[end] = new_vertex
        self.edges[e] = tuple(pair)
        self.rot[new_vertex].append((e, end))

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


# ---------------------------------------------------------------------
# rules 1..3: the simple normal form

@dataclass(frozen=True)
class ReducedInstance:
    """Result of exhaustively applying the three normal-form rules.

    ``base_kept_weight`` is the banked weight of removed good-good edges
    (every optimum keeps them).  Edge ids are preserved by splitting, so
    lifting a solution only adds the banked edges back."""
    instance: Instance
    base_kept_weight: Fraction
    orig_edge_ids: tuple[int, ...]
    orig_vertex_ids: tuple[int, ...]   # original id, or -1 for split copies
    banked_edges: tuple[int, ...]      # original ids removed as good-good
    trace: tuple[tuple, ...]

    def lift(self, kept_dense: Sequence[int]) -> set[int]:
        kept = {self.orig_edge_ids[j] for j in kept_dense}
        kept.update(self.banked_edges)
        return kept


def reduce_to_simple(instance: Instance) -> ReducedInstance:
    """Apply the three rules exhaustively, lowest-numbered rule first and
    lowest id first within a rule.

    The output has good vertices of degree exactly one forming an
    independent set, and never more bad vertices than the input."""
    emb = _Embedding(instance)
    original_n = instance.graph.vertex_count
    bad_before = len(instance.graph.bad_vertices())
    trace: list[tuple] = []
    banked: list[int] = []
    base = Fraction(0)

    while True:
        isolated = sorted(v for v in emb.rot if not emb.rot[v])
        if isolated:
            v = isolated[0]
            emb.remove_isolated(v)
            trace.append(("isolated", v))
            continue
        goodness = {v: emb.is_good(v) for v in emb.rot}
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
                            if goodness[v] and emb.degree(v) >= 2)
        if splittable:
            v = splittable[0]
            moves = []
            for e, end in list(emb.rot[v]):
                x = emb.add_vertex()
                emb.reattach_end(e, end, x)
                moves.append((e, end, x))
            trace.append(("split", v, tuple(moves)))
            continue
        break

    reduced, vertex_ids, edge_ids = emb.to_instance()
    orig_vertices = tuple(v if v < original_n else -1 for v in vertex_ids)
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


def _check_normal_form(red: ReducedInstance, bad_before: int):
    g = red.instance.graph
    bad = set(g.bad_vertices())
    if len(bad) > bad_before:
        raise EmbeddingError("reduction increased the number of bad vertices")
    for v in range(g.vertex_count):
        if v in bad:
            continue
        if g.degree(v) != 1:
            raise EmbeddingError(f"good vertex {v} kept degree {g.degree(v)}")
        (d,) = g.rotation[v]
        if g.other_endpoint(d) not in bad:
            raise EmbeddingError("good vertices are not independent after reduction")


# ---------------------------------------------------------------------
# optimal switches and section partitioning

@dataclass(frozen=True)
class SectionPartition:
    """Cut structure of one good edge-section.

    ``cut_positions`` are inter-dart boundaries (at most 12), splitting
    the section into ``blocks`` (at most 13 runs, stored as position
    ranges); each block contributes its in-part and out-part to
    ``classes`` (at most 26, direction-pure).  ``pairs`` groups the class
    indices block-wise, singleton for direction-pure blocks."""
    section: GoodEdgeSection
    cut_positions: tuple[int, ...]
    blocks: tuple[tuple[int, int], ...]         # (start offset, length)
    classes: tuple[tuple[int, ...], ...]        # edge ids, section order
    class_dirs: tuple[str, ...]
    pairs: tuple[tuple[int, ...], ...]          # indices into classes


def _section_data(instance: Instance, v: int, section: GoodEdgeSection):
    g = instance.graph
    if g.is_bimodal_vertex(v):
        raise EmbeddingError(f"vertex {v} is not bad")
    if section.vertex != v:
        raise EmbeddingError("section does not belong to the given vertex")
    darts = section.darts(g)
    dirs = [dart_direction(d) for d in darts]
    edges = [dart_edge(d) for d in darts]
    weights = [instance.weights[e] for e in edges]
    return darts, dirs, edges, weights


def optimal_switches(instance: Instance, v: int, section: GoodEdgeSection,
                     config: str):
    """Cheapest deletion inside the section letting v realize ``config``
    there: place the at-most-two block boundaries, delete wrong-direction
    edges per block.

    Returns (boundaries, deleted edge ids, deleted weight); boundaries is
    the lexicographically smallest optimal placement."""
    if config not in CONFIGS:
        raise FormatError(f"unknown configuration {config!r}")
    _darts, dirs, edges, weights = _section_data(instance, v, section)
    k = len(dirs)
    pre = {"i": [Fraction(0)], "o": [Fraction(0)]}
    for j in range(k):
        for letter in ("i", "o"):
            pre[letter].append(pre[letter][-1] +
                               (weights[j] if dirs[j] == letter else 0))

    def block_cost(lo: int, hi: int, letter: str) -> Fraction:
        wrong = "o" if letter == "i" else "i"
        return pre[wrong][hi] - pre[wrong][lo]

    letters = list(config)
    if len(letters) == 1:
        candidates = [()]
    elif len(letters) == 2:
        candidates = [(b,) for b in range(k + 1)]
    else:
        candidates = [(b1, b2) for b1 in range(k + 1) for b2 in range(b1, k + 1)]
    best, best_b = None, None
    for bounds in candidates:
        cuts = [0, *bounds, k]
        cost = sum(block_cost(cuts[j], cuts[j + 1], letters[j])
                   for j in range(len(letters)))
        if best is None or cost < best:
            best, best_b = cost, bounds
    cuts = [0, *best_b, k]
    deleted = []
    for j, letter in enumerate(letters):
        for p in range(cuts[j], cuts[j + 1]):
            if dirs[p] != letter:
                deleted.append(edges[p])
    return best_b, deleted, best


def partition_section(instance: Instance, v: int,
                      section: GoodEdgeSection) -> SectionPartition:
    """Partition the section by the optimal switch positions of all six
    configurations; the resulting classes admit a class-aligned optimum."""
    _darts, dirs, edges, _w = _section_data(instance, v, section)
    k = len(dirs)
    cut_set = set()
    for config in CONFIGS:
        bounds, _deleted, _cost = optimal_switches(instance, v, section, config)
        cut_set.update(b for b in bounds if 0 < b < k)
    cuts = sorted(cut_set)
    if len(cuts) > 12:
        raise EmbeddingError("more than 12 cut positions in one section")
    edges_of = [0, *cuts, k]
    blocks = []
    classes: list[tuple[int, ...]] = []
    class_dirs: list[str] = []
    pairs: list[tuple[int, ...]] = []
    for j in range(len(edges_of) - 1):
        lo, hi = edges_of[j], edges_of[j + 1]
        blocks.append((lo, hi - lo))
        members: list[int] = []
        for letter in ("i", "o"):
            part = tuple(edges[p] for p in range(lo, hi) if dirs[p] == letter)
            if part:
                members.append(len(classes))
                classes.append(part)
                class_dirs.append(letter)
        pairs.append(tuple(members))
    if len(blocks) > 13 or len(classes) > 26:
        raise EmbeddingError("section partition exceeded the 13/26 bounds")
    return SectionPartition(section, tuple(cuts), tuple(blocks),
                            tuple(classes), tuple(class_dirs), tuple(pairs))


def sections_of(instance: Instance) -> list[tuple[int, GoodEdgeSection]]:
    g = instance.graph
    out = []
    for v in g.bad_vertices():
        for section in g.good_edge_sections(v):
            out.append((v, section))
    return out


# ---------------------------------------------------------------------
# the prescribed-cuts instance

@dataclass(frozen=True)
class CutInstance:
    """An instance plus all-or-nothing edge classes (weights may be 0).

    ``pairs`` groups class indices: a pair of two is one in-class and one
    out-class sharing a block of one section; everything else is a
    singleton.  ``base_kept_weight`` carries the credit banked during the
    normal-form reduction that produced the graph."""
    instance: Instance
    classes: tuple[tuple[int, ...], ...]
    pairs: tuple[tuple[int, ...], ...]
    base_kept_weight: Fraction
    reduced: Optional[ReducedInstance] = field(default=None, compare=False)

    def __post_init__(self):
        covered = sorted(e for c in self.classes for e in c)
        if covered != list(range(self.instance.graph.edge_count)):
            raise FormatError("classes must partition the edge set")
        grouped = sorted(i for p in self.pairs for i in p)
        if grouped != list(range(len(self.classes))):
            raise FormatError("pairs must partition the class indices")
        if any(len(p) > 2 for p in self.pairs):
            raise FormatError("pairs may hold at most two classes")

    def document(self) -> dict:
        doc = instance_document(self.instance)
        doc["classes"] = [list(c) for c in self.classes]
        doc["pairs"] = [list(p) for p in self.pairs]
        doc["base_kept_weight"] = format_weight(self.base_kept_weight)
        return doc


def cut_instance_from_document(doc) -> CutInstance:
    instance = instance_from_document(
        {k: doc[k] for k in ("vertices", "edges", "rotation")},
        allow_zero_weights=True)
    try:
        classes = tuple(tuple(int(e) for e in c) for c in doc["classes"])
        pairs = tuple(tuple(int(i) for i in p) for p in doc["pairs"])
        base = parse_weight(doc["base_kept_weight"], allow_zero=True)
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed cut document: {exc}") from None
    return CutInstance(instance, classes, pairs, base)


def to_cut_instance(instance: Instance) -> CutInstance:
    """Compress to the prescribed-cuts problem: reduce to the normal form,
    partition every good edge-section, make every bad-bad edge a singleton
    class.  The optimum plus the banked credit equals the original one."""
    red = reduce_to_simple(instance)
    g = red.instance.graph
    classes: list[tuple[int, ...]] = []
    class_dirs: list[str] = []
    pairs: list[tuple[int, ...]] = []
    covered: set[int] = set()
    for v, section in sections_of(red.instance):
        part = partition_section(red.instance, v, section)
        offset = len(classes)
        classes.extend(part.classes)
        class_dirs.extend(part.class_dirs)
        pairs.extend(tuple(i + offset for i in p) for p in part.pairs)
        for c in part.classes:
            covered.update(c)
    for e in range(g.edge_count):
        if e not in covered:
            pairs.append((len(classes),))
            classes.append((e,))
            class_dirs.append("")
    return CutInstance(red.instance, tuple(classes), tuple(pairs),
                       red.base_kept_weight, reduced=red)


# ---------------------------------------------------------------------
# shrinking (rules 4 and 5)

def shrink_cut_instance(cut: CutInstance) -> CutInstance:
    """Shrink every class to at most two edges, preserving the optimum.

    A class whose edges sit consecutively in its section keeps one carrier
    edge with the class weight.  An interleaved in/out pair occupying a
    consecutive run becomes four fresh pendant edges in clockwise order
    in, out, in, out with weights 0, w(out-class), w(in-class), 0; keeping
    both gadget classes would give the vertex four switches there, so the
    classes still exclude each other exactly as before."""
    instance = cut.instance
    g = instance.graph
    emb = _Embedding(instance)

    section_at: dict[int, tuple[int, int]] = {}   # edge -> (bad vertex, position)
    for v, section in sections_of(instance):
        for pos, d in enumerate(section.darts(g)):
            section_at[dart_edge(d)] = (v, pos)

    new_classes: list[list[int]] = [list(c) for c in cut.classes]

    def located(cls: Sequence[int]):
        spots = [section_at.get(e) for e in cls]
        if any(s is None for s in spots) or len({s[0] for s in spots}) != 1:
            return None
        return spots[0][0], sorted(s[1] for s in spots)

    def merge_consecutive(ci: int):
        cls = new_classes[ci]
        if len(cls) < 2:
            return
        keep = min(cls)
        total = sum((emb.weights[e] for e in cls), Fraction(0))
        for e in cls:
            if e == keep:
                continue
            far = emb.endpoint(e, HEAD if section_at[e][0] == emb.endpoint(e, TAIL) else TAIL)
            emb.remove_edge(e)
            emb.remove_isolated(far)
        emb.weights[keep] = total
        new_classes[ci] = [keep]

    def is_consecutive(positions: list[int]) -> bool:
        return positions == list(range(positions[0], positions[0] + len(positions)))

    for pair in cut.pairs:
        if len(pair) == 1:
            ci = pair[0]
            loc = located(new_classes[ci])
            if loc is None:
                continue  # bad-bad singleton, nothing to merge
            _v, positions = loc
            if not is_consecutive(positions):
                raise FormatError("singleton class is not consecutive in its section")
            merge_consecutive(ci)
            continue
        ca, cb = pair
        loc_a = located(new_classes[ca])
        loc_b = located(new_classes[cb])
        if loc_a is None or loc_b is None or loc_a[0] != loc_b[0]:
            raise FormatError("paired classes must share one good edge-section")
        v = loc_a[0]
        union = sorted(loc_a[1] + loc_b[1])
        if not is_consecutive(union):
            raise FormatError("paired classes must occupy a consecutive run")
        if is_consecutive(loc_a[1]) and is_consecutive(loc_b[1]):
            merge_consecutive(ca)
            merge_consecutive(cb)
            continue
        # interleaved pair: identify the in and out classes at v
        def class_dir(cls):
            e = cls[0]
            return "i" if emb.endpoint(e, HEAD) == v else "o"
        if class_dir(new_classes[ca]) == "i":
            c_in, c_out = ca, cb
        else:
            c_in, c_out = cb, ca
        w_in = sum((emb.weights[e] for e in new_classes[c_in]), Fraction(0))
        w_out = sum((emb.weights[e] for e in new_classes[c_out]), Fraction(0))
        block_edges = sorted(new_classes[ca] + new_classes[cb],
                             key=lambda e: section_at[e][1])
        # the gadget must land in the vacated cyclic slot; anchor it to the
        # dart cyclically preceding the run (the run may wrap the list end)
        first = block_edges[0]
        block_set = set(block_edges)
        row = emb.rot[v]
        idx_first = next(j for j, (e, _end) in enumerate(row) if e == first)
        anchor = row[(idx_first - 1) % len(row)]
        if anchor[0] in block_set:
            anchor = None  # the run is the whole rotation of v
        for e in block_edges:
            far = emb.endpoint(e, HEAD if emb.endpoint(e, TAIL) == v else TAIL)
            emb.remove_edge(e)
            emb.remove_isolated(far)
        insert_at = 0 if anchor is None else emb.rot[v].index(anchor) + 1
        gadget = []
        for idx, want_in in enumerate((True, False, True, False)):
            x = emb.add_vertex()
            e = emb.next_edge
            emb.next_edge += 1
            if want_in:
                emb.edges[e] = (x, v)
                end_at_v = HEAD
            else:
                emb.edges[e] = (v, x)
                end_at_v = TAIL
            emb.weights[e] = (Fraction(0), w_out, w_in, Fraction(0))[idx]
            emb.rot[x].append((e, TAIL if end_at_v == HEAD else HEAD))
            emb.rot[v].insert(insert_at + idx, (e, end_at_v))
            gadget.append(e)
        new_classes[c_in] = [gadget[0], gadget[2]]
        new_classes[c_out] = [gadget[1], gadget[3]]

    dense, _vertex_ids, edge_ids = emb.to_instance()
    emap = {e: j for j, e in enumerate(edge_ids)}
    classes = tuple(tuple(sorted(emap[e] for e in c)) for c in new_classes)
    shrunk = CutInstance(dense, classes, cut.pairs, cut.base_kept_weight,
                         reduced=cut.reduced)
    if any(len(c) > 2 for c in shrunk.classes):
        raise EmbeddingError("a class kept more than two edges after shrinking")
    if dense.graph.edge_count > 2 * len(shrunk.classes):
        raise EmbeddingError("edge count exceeds twice the class count")
    if any(dense.graph.degree(v) == 0 for v in range(dense.graph.vertex_count)):
        raise EmbeddingError("shrinking left an isolated vertex")
    return shrunk


# ---------------------------------------------------------------------
# the subexponential pipeline

def solve_components(instance: Instance) -> set[int]:
    """Solve every connected component exactly and return the kept edge
    ids: stars and single edges directly, everything else by the table
    solver over the ``build_sphere_cut`` decomposition."""
    kept: set[int] = set()
    for _verts, comp_edges in instance.graph.components():
        if not comp_edges:
            continue
        sub, _vids, eids = subgraph_by_edges(instance, comp_edges)
        if is_star(sub.graph) is not None or sub.graph.edge_count < 2:
            sol = star_solve(sub)
        else:
            sol = solve_dp(sub, build_sphere_cut(sub.graph))
        kept.update(eids[j] for j in sol.kept_edges)
    return kept


def solve_subexponential(instance: Instance) -> Solution:
    """Reduce to the normal form, solve each component exactly, lift back.

    After reduction at most one vertex per original bad vertex has degree
    above one, which keeps the component branchwidths small."""
    red = reduce_to_simple(instance)
    lifted = red.lift(solve_components(red.instance))
    return make_solution(instance, lifted, "subexp")


# ---------------------------------------------------------------------
# exchange canonicalization (used to certify class-aligned optima)

def align_optimum_to_classes(instance: Instance, kept: set[int]) -> set[int]:
    """Rewrite an optimal kept set, section by section, into one that
    deletes whole partition classes only.

    For each section the kept darts' collapsed pattern is a configuration
    (the vertex is bimodal); replacing the section content by the cheapest
    realization of that exact pattern preserves both feasibility and, when
    the input was optimal, the total weight.  Sections kept empty stay
    empty, which is class-aligned already."""
    g = instance.graph
    out = set(kept)
    for v, section in sections_of(instance):
        darts = section.darts(g)
        edges = [dart_edge(d) for d in darts]
        pattern = collapse("".join(dart_direction(d) for d in darts
                                   if dart_edge(d) in out))
        if not pattern:
            continue
        if pattern not in CONFIGS:
            raise EmbeddingError("kept set is not bimodal inside a section")
        _bounds, deleted, _cost = optimal_switches(instance, v, section, pattern)
        out.difference_update(edges)
        out.update(e for e in edges if e not in set(deleted))
    return out

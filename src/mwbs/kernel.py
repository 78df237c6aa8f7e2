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

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .configs import CONFIGS
from .decomposition import build_sphere_cut
from .dp import flat_component_deleted, solve_dp
from .errors import EmbeddingError, FormatError
from .plane import (
    HEAD,
    TAIL,
    GoodEdgeSection,
    Instance,
    Solution,
    cyclic_switches,
    dart,
    dart_direction,
    dart_edge,
    dart_end,
    dense_instance,
    format_weight,
    instance_document,
    make_solution,
    subgraph_by_edges,
)


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
    orig_vertex_ids: tuple[int, ...]   # original id; for a split copy, the vertex it came from
    banked_edges: tuple[int, ...]      # original ids removed as good-good
    trace: tuple[tuple, ...]

    def lift(self, kept_dense: Sequence[int]) -> set[int]:
        kept = {self.orig_edge_ids[j] for j in kept_dense}
        kept.update(self.banked_edges)
        return kept


def reduce_to_simple(instance: Instance) -> ReducedInstance:
    """Apply the three rules exhaustively, lowest-numbered rule first and
    lowest id first within a rule.

    No rule changes any vertex's goodness: rules 2 and 3 take darts from
    good vertices only, and taking darts adds no switch; a fresh copy has
    degree one, and its neighbour is bad, because rule 2 came first.  So
    goodness is evaluated once per input vertex, and three passes fire the
    rules in that order.  Pass 1 removes the isolated input vertices.  Pass
    2 banks every good-good edge (every one of them is present from the
    start, and none appears later), each followed by the rule-1 removal of
    the endpoints it left isolated.  Pass 3 splits every good vertex with
    at least two remaining darts, giving each dart a fresh vertex in
    rotation order, and removes the vertex it left isolated before the
    next split.

    The output has good vertices of degree exactly one forming an
    independent set, and never more bad vertices than the input.  When no
    rule fires, the input is already in that form, and it is returned
    itself, with identity ids and an empty trace; the form is checked on
    it all the same.  A derived instance cut from a normal form often is
    one: see ``eptas._shift``."""
    g = instance.graph
    n = g.vertex_count
    bad = set(g.bad_vertices())
    trace: list[tuple] = [("isolated", v) for v in range(n) if not g.rotation[v]]
    degree = [len(row) for row in g.rotation]
    banked = [e for e, (t, h) in enumerate(g.edges) if t not in bad and h not in bad]
    for e in banked:
        trace.append(("good_good_edge", e))
        t, h = g.edges[e]
        for u in ((t, h) if t < h else (h, t)):
            degree[u] -= 1
            if not degree[u]:
                trace.append(("isolated", u))
    banked_set = set(banked)
    # degree[v] counts v's unbanked darts: only a row that lost some but
    # not all of them is filtered
    rows = [row if k == len(row) else
            [d for d in row if dart_edge(d) not in banked_set] if k else []
            for row, k in zip(g.rotation, degree)]
    ends = [list(pair) for pair in g.edges]
    fresh: list[int] = []                  # the one dart of fresh vertex n + k
    split_from: list[int] = []             # and the vertex it was split from
    for v in range(n):
        if v in bad or len(rows[v]) < 2:
            continue
        moves = tuple((dart_edge(d), dart_end(d), n + len(fresh) + j)
                      for j, d in enumerate(rows[v]))
        for e, end, x in moves:
            ends[e][end] = x
        fresh += rows[v]
        split_from += [v] * len(rows[v])
        trace += [("split", v, moves), ("isolated", v)]
        rows[v] = []

    if not trace:
        out = ReducedInstance(instance, Fraction(0), tuple(range(g.edge_count)),
                              tuple(range(n)), (), ())
    else:
        alive = [v for v in range(n) if rows[v]]
        edge_ids = [e for e in range(g.edge_count) if e not in banked_set]
        int_w, scale, _total = instance.int_weights
        out = ReducedInstance(
            instance=dense_instance(ends, rows + [[d] for d in fresh], instance.weights,
                                    alive + list(range(n, n + len(fresh))), edge_ids),
            base_kept_weight=Fraction(sum([int_w[e] for e in banked]), scale),
            orig_edge_ids=tuple(edge_ids),
            orig_vertex_ids=tuple(alive + split_from),
            banked_edges=tuple(banked),
            trace=tuple(trace),
        )
    _check_normal_form(out, len(bad))
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
    best, best_b = None, None
    # in lexicographic order, so the first optimum is the smallest
    for bounds in itertools.combinations_with_replacement(range(k + 1), len(letters) - 1):
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


def to_cut_instance(instance: Instance) -> CutInstance:
    """Compress to the prescribed-cuts problem: reduce to the normal form,
    partition every good edge-section, make every bad-bad edge a singleton
    class.  The optimum plus the banked credit equals the original one."""
    red = reduce_to_simple(instance)
    g = red.instance.graph
    classes: list[tuple[int, ...]] = []
    pairs: list[tuple[int, ...]] = []
    covered: set[int] = set()
    for v, section in sections_of(red.instance):
        part = partition_section(red.instance, v, section)
        offset = len(classes)
        classes.extend(part.classes)
        pairs.extend(tuple(i + offset for i in p) for p in part.pairs)
        for c in part.classes:
            covered.update(c)
    for e in range(g.edge_count):
        if e not in covered:
            pairs.append((len(classes),))
            classes.append((e,))
    return CutInstance(red.instance, tuple(classes), tuple(pairs), red.base_kept_weight)


# ---------------------------------------------------------------------
# shrinking (rules 4 and 5)

def shrink_cut_instance(cut: CutInstance) -> CutInstance:
    """Shrink every class to at most two edges, preserving the optimum.

    A class whose edges sit consecutively in its section keeps its lowest
    edge id as the carrier, with the class weight.  An interleaved in/out
    pair occupying a consecutive run becomes four fresh pendant edges in
    clockwise order in, out, in, out with weights 0, w(out-class),
    w(in-class), 0; keeping both gadget classes would give the vertex four
    switches there, so the classes still exclude each other exactly as
    before.

    The output is built in one walk over the input rows.  A surviving dart
    is copied and a gadget takes the place of its run, except that a gadget
    met before anything has been placed in its row goes after the row's
    last dart.  Surviving vertices and edges keep their order, and the
    fresh ones follow in ``cut.pairs`` order."""
    instance = cut.instance
    g = instance.graph
    section_at: dict[int, tuple[int, int]] = {}   # edge -> (bad vertex, position)
    for v, section in sections_of(instance):
        for pos, d in enumerate(section.darts(g)):
            section_at[dart_edge(d)] = (v, pos)

    edges = list(g.edges)
    rows = list(g.rotation)
    weights = list(instance.weights)
    classes = list(cut.classes)
    dropped_edges: set[int] = set()
    dropped_vertices: set[int] = set()
    gadget_at: dict[int, list[int]] = {}   # first run edge -> the gadget's darts

    def located(cls: Sequence[int]):
        spots = [section_at.get(e) for e in cls]
        if any(s is None for s in spots) or len({s[0] for s in spots}) != 1:
            return None
        return spots[0][0], sorted(s[1] for s in spots)

    def is_consecutive(positions: list[int]) -> bool:
        return positions == list(range(positions[0], positions[0] + len(positions)))

    def drop(e: int, v: int):
        far = edges[e][HEAD if edges[e][TAIL] == v else TAIL]
        if g.degree(far) != 1:
            raise EmbeddingError(f"vertex {far} is not isolated")
        dropped_edges.add(e)
        dropped_vertices.add(far)

    def merge_consecutive(ci: int):
        keep = min(classes[ci])
        for e in classes[ci]:
            if e != keep:
                drop(e, section_at[e][0])
        weights[keep] = sum((weights[e] for e in classes[ci]), Fraction(0))
        classes[ci] = (keep,)

    for pair in cut.pairs:
        if len(pair) == 1:
            loc = located(classes[pair[0]])
            if loc is None:
                continue  # bad-bad singleton, nothing to merge
            if not is_consecutive(loc[1]):
                raise FormatError("singleton class is not consecutive in its section")
            merge_consecutive(pair[0])
            continue
        ca, cb = pair
        loc_a = located(classes[ca])
        loc_b = located(classes[cb])
        if loc_a is None or loc_b is None or loc_a[0] != loc_b[0]:
            raise FormatError("paired classes must share one good edge-section")
        v = loc_a[0]
        if not is_consecutive(sorted(loc_a[1] + loc_b[1])):
            raise FormatError("paired classes must occupy a consecutive run")
        if is_consecutive(loc_a[1]) and is_consecutive(loc_b[1]):
            merge_consecutive(ca)
            merge_consecutive(cb)
            continue
        # interleaved pair: identify the in and out classes at v
        c_in, c_out = (ca, cb) if edges[classes[ca][0]][HEAD] == v else (cb, ca)
        w_in = sum((weights[e] for e in classes[c_in]), Fraction(0))
        w_out = sum((weights[e] for e in classes[c_out]), Fraction(0))
        run = sorted(classes[ca] + classes[cb], key=lambda e: section_at[e][1])
        for e in run:
            drop(e, v)
        gadget = []
        for end, w in ((HEAD, Fraction(0)), (TAIL, w_out), (HEAD, w_in), (TAIL, Fraction(0))):
            x, e = len(rows), len(edges)
            edges.append((x, v) if end == HEAD else (v, x))
            weights.append(w)
            rows.append([dart(e, 1 - end)])
            gadget.append(dart(e, end))
        gadget_at[run[0]] = gadget
        classes[c_in] = (dart_edge(gadget[0]), dart_edge(gadget[2]))
        classes[c_out] = (dart_edge(gadget[1]), dart_edge(gadget[3]))

    for v in range(g.vertex_count):
        row: list[int] = []
        tail: list[int] = []
        for d in g.rotation[v]:
            e = dart_edge(d)
            if e in gadget_at:   # met before anything was placed: to the row's end
                (row if row else tail).extend(gadget_at[e])
            elif e not in dropped_edges:
                row.append(d)
        rows[v] = row + tail

    edge_ids = [e for e in range(len(edges)) if e not in dropped_edges]
    dense = dense_instance(edges, rows, weights,
                           [v for v in range(len(rows)) if v not in dropped_vertices],
                           edge_ids)
    emap = {e: j for j, e in enumerate(edge_ids)}
    shrunk = CutInstance(dense, tuple(tuple(sorted(emap[e] for e in c)) for c in classes),
                         cut.pairs, cut.base_kept_weight)
    if any(len(c) > 2 for c in shrunk.classes):
        raise EmbeddingError("a class kept more than two edges after shrinking")
    if dense.graph.edge_count > 2 * len(shrunk.classes):
        raise EmbeddingError("edge count exceeds twice the class count")
    if any(dense.graph.degree(v) == 0 for v in range(dense.graph.vertex_count)):
        raise EmbeddingError("shrinking left an isolated vertex")
    return shrunk


# ---------------------------------------------------------------------
# the subexponential pipeline

def solve_components(instance: Instance, solved: dict | None = None) -> set[int]:
    """Solve every connected component exactly and return the kept edge
    ids.  A component is classified by its hub-to-hub edges, the hubs
    being the vertices of more than one dart.  A component with at most
    one, a lone edge, a star or two hubs sharing one edge, is solved in
    place by ``flat_component_deleted`` on the rows and integer weights of
    ``instance`` itself, with no copy and no certificate, and its kept set
    is checked bimodal at every hub.  Any other component is taken by
    ``subgraph_by_edges`` and looked up in ``solved``, which maps each
    table-solved component, keyed by its edges, rotation and integer
    weights (``int_weights.values``), to its kept set; only a component
    not found there is solved, by the table solver over its
    ``build_sphere_cut`` decomposition, and added.  ``build_sphere_cut``
    reads only the graph, and ``solve_dp`` builds its tables and its kept
    set from the tree and the integer weights alone, so an identical key,
    even one of weights that differ by a common factor, gives the
    identical DP and so the identical kept set.  A call given no dict
    starts a fresh one, so a component that repeats within the call is
    still tabulated once."""
    g = instance.graph
    rotation = g.rotation
    int_w = instance.int_weights.values
    if solved is None:
        solved = {}
    kept: set[int] = set()
    for verts, edge_ids in g.components():
        hubs = [v for v in verts if len(rotation[v]) > 1]
        coupled = {d >> 1 for v in hubs for d in rotation[v]
                   if len(rotation[g.other_endpoint(d)]) > 1}
        if len(coupled) < 2:
            deleted = set(flat_component_deleted(rotation, int_w, hubs, min(coupled, default=-1)))
            for v in hubs:
                if cyclic_switches([d & 1 for d in rotation[v] if d >> 1 not in deleted]) > 2:
                    raise EmbeddingError(f"kept edge set is not bimodal at hub {v}")
            kept.update(e for e in edge_ids if e not in deleted)
        else:
            sub, _vids, eids = subgraph_by_edges(instance, edge_ids)
            key = (sub.graph.edges, sub.graph.rotation, sub.int_weights.values)
            here = solved.get(key)
            if here is None:
                here = solved[key] = solve_dp(sub, build_sphere_cut(sub.graph)).kept_edges
            kept.update(eids[j] for j in here)
    return kept


def solve_subexponential(instance: Instance, method: str = "subexp",
                         solved: dict | None = None) -> Solution:
    """Reduce to the normal form, solve each component exactly, lift back;
    ``method`` names the solution, and ``solved`` is handed to
    ``solve_components`` (which starts a fresh dict when none is given): a
    table-solved component it holds, or one met earlier in the call, is
    not solved again.  The lifted set is certified on ``instance`` either
    way.

    After reduction at most one vertex per original bad vertex has degree
    above one, which keeps the component branchwidths small."""
    red = reduce_to_simple(instance)
    lifted = red.lift(solve_components(red.instance, solved))
    return make_solution(instance, lifted, method)

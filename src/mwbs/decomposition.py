"""Branch decompositions with the noose-contiguity contract.

A branch decomposition here is an unrooted tree whose leaves correspond
one-to-one with the edges of a plane digraph.  The dynamic program needs
one extra property of every arc: at each middle-set vertex, the darts of
the edges on either side of the arc must occupy one contiguous cyclic run
of that vertex's rotation.  This is exactly what a noose drawn on the
sphere guarantees, and it is checkable purely combinatorially, so the
validator enforces contiguity instead of a geometric curve.

``build_sphere_cut`` is the one builder policy.  It decomposes the
*skeleton* of the graph and then hangs the pendants.  A *hub* is a vertex
of degree above one; the skeleton is the set of hub-to-hub edges, and
every other edge is a *pendant* with exactly one hub end.  In the normal
form only hubs can sit on a middle set, so the width that the solver pays
for (up to ``6**width`` table entries per arc) is set by the skeleton, and
the builders do far better on it than on the whole graph.

Two heuristic builders work on the skeleton, and they share one
region-growth loop, ``_grow``, which absorbs one edge at a time while the
region and the rest of its edge set stay contiguous.  Greedy-sweep grows
one region, once, from edge 0 over all edges and emits the absorption
order as a caterpillar tree; it always runs.  On a connected graph the
growth absorbs every edge (an exhaustive search found an addable edge for
every connected contiguous region of small graphs), and a growth that
stops short raises BuildError with the instance.  Recursive-bisection
splits the edge set into two contiguous parts and recurses: it grows a
part from several seeds and keeps the grown prefix with the fewest
middle-set vertices among those of a third to two thirds of the edges,
the most balanced on ties; it runs only when the greedy width is above
5, and its tree is kept when its tables hold fewer entries.  Each
candidate tree is lifted to the whole graph and validated once there; the
kept tree carries that report, and ``solve_dp`` builds its tables on the
report's rooted view when it solves at the default root.  Neither builder is
width-optimal; externally computed decompositions can be imported instead
and are always re-validated (middle sets are recomputed, never trusted).

Every run test reads a rotation-position bitmask: bit j of a vertex's
mask is the dart at position j of its rotation, and the mask is one
cyclic run when at most one set bit follows an unset one (``_run``).  The
rooted view is built in one bottom-up walk: a leaf arc holds its edge's
two darts, a join ORs its children's masks, and a vertex whose mask is
full leaves; the vertices left are the arc's middle set.  The walk tests
each new mask for a run on the spot and reads the run's class map off two
masks per hub, built once per view: ``ends``, bit j set when dart j is a
head, and ``sw = ends ^ rotr(ends, 1)``.  A run ``mask`` from ``start``
has first end ``ends >> start & 1`` and the switch count
``(sw & mask & rotr(mask, 1)).bit_count()``.  The walk checks every arc
but stores only what the solver reads: the ``ArcBoundary`` of each arc
not strictly below a flat join (``dp``) and the ``JoinSplit`` of each
join that is not flat.  ``_grow`` keeps the region's and the rest's
masks per vertex as it absorbs edges, tests a candidate at its two ends
only, and reports each prefix's middle-set size as it goes, so a split
scores its prefixes with no further test.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from .configs import CLASS_MAPS
from .errors import BuildError, DecompositionError
from .plane import (Instance, PlaneDigraph, cyclic_runs, excerpt, instance_document,
                    subgraph_by_edges)


# ---------------------------------------------------------------------
# data types

@dataclass(frozen=True)
class SphereCutDecomposition:
    """Unrooted tree over the edges of a graph.

    ``leaf_map`` sends leaf node ids to edge ids.  For single-edge graphs
    the degenerate two-node tree is used, one leaf carrying the edge and
    the other acting as a stub; its only arc has, by convention, the
    edge's endpoints as middle set.

    ``report`` is set on the trees that ``build_sphere_cut`` returns: the
    validator's report on the graph the tree was built for, rooted at the
    lowest mapped leaf.  A decoded or hand-made tree has none."""
    node_count: int
    arcs: tuple[tuple[int, int], ...]
    leaf_map: dict[int, int]
    report: Optional[ValidationReport] = field(default=None, compare=False, repr=False)

    @property
    def declared_width(self) -> Optional[int]:
        """The validated width, or None for a tree nobody validated."""
        return None if self.report is None else self.report.width

    def neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.node_count)]
        for a, b in self.arcs:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def document(self) -> dict:
        return {
            "nodes": self.node_count,
            "arcs": [list(a) for a in self.arcs],
            "leaf_map": {str(k): v for k, v in sorted(self.leaf_map.items())},
        }


_DECIMAL = re.compile(r"0|-?[1-9][0-9]*")      # str(k) of an int k


def _integer(value) -> int:
    if type(value) is not int:     # refuses booleans, floats and strings alike
        raise ValueError(f"{excerpt(value)} is not an integer")
    return value


def _leaf_key(key) -> int:
    if not (isinstance(key, str) and _DECIMAL.fullmatch(key)):
        raise ValueError(f"leaf_map key {excerpt(key)} is not a canonical decimal string")
    return int(key)


def decomposition_from_document(doc) -> SphereCutDecomposition:
    """Decode a decomposition document.  ``nodes``, the arc endpoints and
    the ``leaf_map`` values must be JSON integers, and the ``leaf_map``
    keys decimal strings in the form ``document`` writes (no sign on zero,
    no leading zero), so no two keys name one node; nothing is coerced."""
    try:
        nodes = _integer(doc["nodes"])
        arcs = tuple((_integer(a), _integer(b)) for a, b in doc["arcs"])
        leaf_map = {_leaf_key(k): _integer(v) for k, v in doc["leaf_map"].items()}
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DecompositionError(f"malformed decomposition document: {exc}") from None
    return SphereCutDecomposition(nodes, arcs, leaf_map)


class ArcBoundary(NamedTuple):
    """One arc of a rooted decomposition, seen from its inside.

    ``mid`` lists the middle-set vertices sorted by id (the order used to
    index tables).  ``runs`` maps each mid vertex to (start, length) of its
    contiguous inside-dart run in the vertex rotation.  ``inside_count``
    is the number of edges inside the arc.  ``classes`` holds, per mid
    position, the class map of that vertex's run (configuration index ->
    class index, see ``configs.CLASS_MAPS``): the table digit of the
    position counts classes, not configurations."""
    arc: tuple[int, int]              # (child node, parent node), inside below child
    mid: tuple[int, ...]
    runs: dict[int, tuple[int, int]]
    inside_count: int
    classes: tuple[tuple[int, ...], ...]


class JoinSplit(NamedTuple):
    """How a parent arc's middle set splits over its two children:
    ``owned``, in parent middle-set order, the parent vertices that one
    child has; ``interior``, the shared vertices interior to the parent;
    ``targets``, each shared vertex on the parent middle set with the
    child (1 or 2) holding the parent run's first dart.  Shared vertices
    are in id order."""
    owned: list[int]
    interior: list[int]
    targets: list[tuple[int, int]]


@dataclass
class ValidationReport:
    """``ok``, ``width`` and ``violations`` do not depend on the root.
    ``rooted`` is the tree rooted for the solver, with the arc boundaries
    and join splits that ``solve_dp`` reads; it is None unless the report
    is ok and the graph has at least two edges."""
    ok: bool
    width: int
    violations: list[str] = field(default_factory=list)
    rooted: Optional[RootedDecomposition] = None


# ---------------------------------------------------------------------
# shared helpers

def _run(mask: int, k: int) -> Optional[tuple[int, int]]:
    """(start, length) of the darts of a k-dart rotation in ``mask`` (bit
    j is the dart at position j) if they form one cyclic run, else None.
    A dart starts the run when the dart before it, cyclically, is out; at
    most one may.  No dart or every dart starts at 0."""
    starts = mask & ~(mask << 1 | mask >> k - 1)
    if starts & (starts - 1):
        return None
    return (starts.bit_length() - 1 if starts else 0, mask.bit_count())


# ---------------------------------------------------------------------
# validation

def validate_decomposition(graph: PlaneDigraph, dec: SphereCutDecomposition,
                           root_leaf: Optional[int] = None) -> ValidationReport:
    """Check leaf bijection, internal degrees, tree shape, middle sets and
    the per-arc contiguity contract; report the recomputed width.

    Once the leaf and degree rules pass, the tree is rooted at
    ``root_leaf`` or else the lowest mapped leaf, and ``RootedDecomposition``
    walks it once: its search shows the tree connected, and its bottom-up
    walk checks every arc and finds the width.  Every arc whose darts are
    not one run somewhere is reported, in arc order, and a valid report
    carries the rooted view for the solver.  Violations are collected as
    data, not raised; only a ``root_leaf`` that is not a mapped leaf of a
    tree raises DecompositionError, since it is the caller's choice."""
    violations: list[str] = []
    m = graph.edge_count
    k = dec.node_count
    if k < 0:
        return ValidationReport(False, 0, ["negative node count"])
    for a, b in dec.arcs:
        if not (0 <= a < k and 0 <= b < k):
            violations.append(f"arc {(a, b)} references a node outside 0..{k - 1}")
        elif a == b:
            violations.append(f"arc {(a, b)} is a self-loop")
    if violations:
        return ValidationReport(False, 0, violations)
    if len(dec.arcs) != max(k - 1, 0):
        violations.append(f"tree must have {k - 1} arcs, found {len(dec.arcs)}")
        return ValidationReport(False, 0, violations)
    adj = dec.neighbors()   # only now: node_count is bounded by the arc count
    degenerate = (m == 1 and k == 2)
    mapped = dec.leaf_map
    for u in mapped:
        if not (0 <= u < k) or len(adj[u]) > 1:
            violations.append(f"leaf_map key {u} is not a leaf node")
    values = sorted(mapped.values())
    if values != list(range(m)):
        violations.append("leaf_map is not a bijection onto the edge ids")
    unmapped = [u for u in range(k) if len(adj[u]) <= 1 and u not in mapped]
    if unmapped and not (degenerate and len(unmapped) == 1):
        violations.append(f"unmapped leaves {unmapped}")
    for u in range(k):
        if len(adj[u]) > 1 and len(adj[u]) != 3:
            violations.append(f"internal node {u} has degree {len(adj[u])}, not 3")
    if violations:
        return ValidationReport(False, 0, violations)
    if m < 2:
        if root_leaf is not None and root_leaf not in mapped:
            raise DecompositionError(f"root {root_leaf} is not a mapped leaf")
        # a one-edge graph's arc passes both endpoints by convention
        return ValidationReport(True, 2 if degenerate else 0, [])

    # Below two edges the rules above leave k <= 2 nodes, always connected.
    # Otherwise the k - 1 arcs form a tree iff a search reaches all k nodes;
    # a bad root is refused only on a tree, so it searches from the lowest.
    root = root_leaf if root_leaf in mapped else min(mapped)
    rooted = RootedDecomposition(graph, dec, root, adj)
    if len(rooted.parent) < k:
        return ValidationReport(False, 0, ["decomposition tree is disconnected"])
    if root_leaf not in (None, root):
        raise DecompositionError(f"root {root_leaf} is not a mapped leaf")
    if rooted.broken:
        by_arc = sorted((tuple(sorted((node, rooted.parent[node]))), text)
                        for node, text in rooted.broken.items())
        return ValidationReport(False, 0, [text for _arc, text in by_arc])
    return ValidationReport(True, rooted.width, [], rooted)


# ---------------------------------------------------------------------
# rooted view used by the solver

class RootedDecomposition:
    """A decomposition rooted at a mapped leaf; the inside of every arc is
    the side away from the root leaf's edge.  Each arc is keyed by its
    end away from the root, and each join by its node.

    A depth-first search from the root leaf sets ``parent``, ``children``
    and ``post_order``; if it misses a node (``len(parent) <
    dec.node_count``), the arcs form no tree and the view stops, empty.
    Otherwise, on a tree of the validator's degrees (every node but the
    root leaf a leaf or a join of two), an integer pass first maps each
    flat join (``dp``) to its one hub-to-hub edge or -1, in ``flat``.
    Then one post-order walk: per arc, each vertex with darts on both
    sides keeps its inside-dart mask by rotation position, with that
    mask's run and class map (``_read_run``): a leaf holds its edge's two
    darts, and a join ORs its children's masks, drops the full ones and
    reads again only the vertices both children share; the rest keep
    their child's reading.  The vertices kept are the arc's middle set,
    ``width`` the largest.  ``broken`` holds the violation of every arc
    with a mask that is not a run; ``boundaries``, in post order, the
    boundary of every other arc not strictly below a flat join; ``splits``
    the split of each join not flat, taken while no arc is broken.
    ``demand`` is kept by ``dp``'s first demand walk on the view.
    ``adj`` is ``dec.neighbors()``."""

    def __init__(self, graph: PlaneDigraph, dec: SphereCutDecomposition, root_leaf: int,
                 adj: list[list[int]]):
        if root_leaf not in dec.leaf_map:
            raise DecompositionError(f"root {root_leaf} is not a mapped leaf")
        self.graph = graph
        self.root_leaf = root_leaf
        parent: dict[int, Optional[int]] = {root_leaf: None}
        children: dict[int, list[int]] = {}
        order = [root_leaf]
        stack = [root_leaf]
        while stack:
            u = stack.pop()
            kids = children[u] = []
            for w in adj[u]:
                if w not in parent:
                    parent[w] = u
                    kids.append(w)
                    order.append(w)
                    stack.append(w)
        self.parent, self.children = parent, children
        self.post_order = order[:0:-1]
        boundaries: dict[int, ArcBoundary] = {}
        splits: dict[int, JoinSplit] = {}
        broken: dict[int, str] = {}
        flat: dict[int, int] = {}
        self.boundaries, self.splits, self.broken, self.flat = boundaries, splits, broken, flat
        self.width = 0
        self.demand: Optional[dict[int, tuple[int, ...]]] = None    # see dp._demand
        if len(order) < dec.node_count:
            return      # not a tree: the passes below need every node reached

        edges, leaf_map, position = graph.edges, dec.leaf_map, graph.dart_position
        degree = [len(row) for row in graph.rotation]
        if degree.count(1) >= 2:
            # a node's value is m times its hub-to-hub edges plus the sum of
            # their ids, so a join valued below 2m is flat, and then, when
            # nonzero, is m plus its coupled edge's id
            m = graph.edge_count
            value = {u: m + e for u, e in leaf_map.items()
                     if degree[edges[e][0]] > 1 and degree[edges[e][1]] > 1}
            for u in self.post_order:
                kids = children[u]
                if kids:
                    s = value[u] = value.get(kids[0], 0) + value.get(kids[1], 0)
                    if s < 2 * m:
                        flat[u] = s - m if s else -1
        full = [(1 << k) - 1 for k in degree]
        class_masks = [_hub_masks(row) for row in graph.rotation]
        at_tail, at_head = CLASS_MAPS[0, 0], CLASS_MAPS[1, 0]
        # node -> {middle-set vertex: (mask, run or None, class map or None)}
        readings: dict[int, dict[int, tuple]] = {}
        counts: dict[int, int] = {}
        width = 0
        clean = True    # no mask read so far failed the run test, so no arc is broken
        for u in self.post_order:
            kids = children[u]
            shared = []
            if kids:
                a, b = kids
                ours = readings.pop(a)
                for v, theirs in readings.pop(b).items():
                    if v in ours:
                        shared.append(v)
                        mask = ours[v][0] | theirs[0]
                        if mask == full[v]:
                            del ours[v]
                        else:
                            reading = ours[v] = _read_run(mask, degree[v], *class_masks[v])
                            if reading[1] is None:
                                clean = False
                    else:
                        ours[v] = theirs
                count = counts.pop(a) + counts.pop(b)
            else:
                # one dart is a run, and its class map is its end's
                ours = {}
                count = 0
                e = leaf_map.get(u)
                if e is not None:
                    t, h = edges[e]
                    if degree[t] > 1:
                        j = position(2 * e)
                        ours[t] = (1 << j, (j, 1), at_tail)
                    if degree[h] > 1:
                        j = position(2 * e + 1)
                        ours[h] = (1 << j, (j, 1), at_head)
                    count = 1
            readings[u] = ours
            counts[u] = count
            if len(ours) > width:
                width = len(ours)
            if parent[u] in flat and (clean or all(reading[1] for reading in ours.values())):
                continue    # contiguous, and below a flat arc: not tabulated
            mid = sorted(ours)
            runs = {}
            classes = []
            for v in mid:
                _mask, runs[v], cmap = ours[v]
                classes.append(cmap)
            arc = (u, parent[u])
            if None in classes:
                bad = [v for v in mid if runs[v] is None]
                broken[u] = (f"arc {tuple(sorted(arc))}: darts of vertices {bad} "
                             "on one side are not contiguous")
                continue
            boundaries[u] = ArcBoundary(arc, tuple(mid), runs, count, tuple(classes))
            if kids and not broken and u not in flat:
                # a parent run is its children's runs end to end, so one of
                # them starts where it does
                runs1 = boundaries[a].runs
                shared.sort()
                splits[u] = JoinSplit([v for v in mid if v not in shared],
                                      [v for v in shared if v not in runs],
                                      [(v, 1 if runs1[v][0] == runs[v][0] else 2)
                                       for v in shared if v in runs])
        self.width = width

    def boundary(self, node: int) -> ArcBoundary:
        """The stored ArcBoundary of the arc from ``node`` toward the root.
        Raises DecompositionError naming every middle-set vertex whose
        inside darts are not one cyclic run, and for a node whose arc the
        view does not tabulate."""
        found = self.boundaries.get(node)
        if found is None:
            raise DecompositionError(self.broken.get(
                node, f"node {node} has no tabulated arc: it lies below a flat arc "
                      "or is not an arc's inside end"))
        return found


def _hub_masks(row: Sequence[int]) -> tuple[int, int]:
    """The two class masks of a rotation row: bit j of ``ends`` is set
    when dart j is a head, and bit j of ``sw`` when darts j and j + 1,
    cyclically, have different ends."""
    ends = 0
    for j, d in enumerate(row):
        ends |= (d & 1) << j
    return ends, (ends ^ (ends >> 1 | (ends & 1) << len(row) - 1)) if row else 0


def _read_run(mask: int, k: int, ends: int, sw: int) -> tuple:
    """(mask, (start, length), class map) of a proper nonempty mask of a
    hub's k darts whose class masks are ``ends`` and ``sw``, or (mask,
    None, None) when the darts are not one cyclic run (see ``_run``).
    The class map is ``CLASS_MAPS[ends >> start & 1, min(s, 3)]``, where
    s, the run's switch count, is the bit count of ``sw & mask &
    rotr(mask, 1)``: its darts whose successor is in the run and has the
    other end."""
    run = _run(mask, k)
    if run is None:
        return mask, None, None
    switches = (sw & mask & (mask >> 1 | (mask & 1) << k - 1)).bit_count()
    return mask, run, CLASS_MAPS[ends >> run[0] & 1, switches if switches < 3 else 3]


# ---------------------------------------------------------------------
# builders

_GREEDY_WIDTH_LIMIT = 5


def build_sphere_cut(graph: PlaneDigraph, strategy: Optional[str] = None) -> SphereCutDecomposition:
    """Build a validated decomposition of a connected graph.

    Skeleton first: the builders decompose the hub-to-hub edges, and
    ``lift`` hangs each pendant next to a skeleton edge of its hub.  A
    graph without pendants, a star and a single edge are their own
    skeleton.

    The policy: greedy-sweep runs first.  Only when its width is above 5
    does recursive-bisection run too, and its tree is kept if the tables
    ``solve_dp`` builds on it hold fewer entries (Σ over the tabulated
    arcs of the product of the demanded class counts, from dp's demand
    walk, which the view keeps for ``solve_dp``), or as many and it is
    narrower; if bisection finds no contiguous split, greedy stands.
    Width alone misjudges: on triangulation n=40 seed 7 both trees have
    width 6, and greedy's tables would hold 9 times bisection's entries.
    Greedy is about 36x cheaper to build on the 27-edge skeleton of
    triangulation n=24 seed 11 (medians of 30 builds each, Python 3.11),
    so bisection is paid for only where the ``6**width`` tables
    outweigh the search.  Each candidate is lifted and then validated
    once, on the whole graph, so its entries are read off the lifted
    tree's boundaries, the ones the solver tabulates; a lifted tree is as
    wide as its skeleton tree whenever either is wider than 2.  The
    report is kept on the returned tree, and ``solve_dp`` reuses its
    rooted view at the default root.  The sweep grows once, from edge 0; a
    growth that stops short of every edge, or any tree failing the
    validator, raises BuildError with the instance.  A disconnected graph
    is refused before any builder runs, and the skeleton of a connected
    graph is connected.

    ``strategy="greedy-sweep"`` returns the greedy tree of the whole graph
    alone; the benchmark's ``perfbench/make_golden.py`` cross-checks optima
    with it."""
    if graph.edge_count == 0:
        raise BuildError("cannot decompose an edgeless graph")
    if not graph.is_connected():
        raise BuildError("decompose one connected component at a time")
    if strategy == "greedy-sweep":
        return _validated(graph, _greedy_sweep(graph))
    if strategy is not None:
        raise BuildError(f"unknown strategy {strategy!r}")
    skeleton, lift = _skeleton(graph)
    dec = _validated(graph, lift(_greedy_sweep(skeleton)))
    if dec.declared_width > _GREEDY_WIDTH_LIMIT:
        try:
            alt = lift(_recursive_bisection(skeleton))
        except BuildError:
            return dec
        alt = _validated(graph, alt)
        from .dp import _demand     # here, since dp imports this module

        def rank(tree: SphereCutDecomposition) -> tuple[int, int]:
            demand = _demand(tree.report.rooted).values()
            entries = sum(math.prod(m.bit_count() for m in masks) for masks in demand)
            return entries, tree.declared_width

        if rank(alt) < rank(dec):
            return alt
    return dec


def _skeleton(graph: PlaneDigraph) -> tuple[
        PlaneDigraph, Callable[[SphereCutDecomposition], SphereCutDecomposition]]:
    """Split the graph into its skeleton and a ``lift`` that turns a tree of
    the skeleton into a tree of the whole graph.

    The skeleton is taken with ``subgraph_by_edges``, so it inherits the
    rotation; it is connected, because only leaves were removed.  At each
    hub, every pendant goes to the nearest skeleton edge before it in the
    rotation, wrapping cyclically, so the hub's darts read: a skeleton
    dart, its pendant run, the next skeleton dart, its run, and so on.
    ``lift`` replaces each skeleton leaf e = (u, w) by a caterpillar over
    e, then e's pendants at u in rotation order, then its pendants at w.
    With no pendants, or no skeleton edge, the graph is its own skeleton
    and ``lift`` is the identity; a one-edge skeleton lifts to a
    caterpillar of the whole graph.

    Why the tree is valid.  A skeleton arc's inside grows by the pendant
    runs of its skeleton edges.  At a hub, the inside skeleton darts are
    one cyclic run, each followed by its own pendant run, so the lifted
    darts are one run too; a hub has inside (outside) darts exactly when
    it has inside (outside) skeleton darts, and a pendant's leaf end never
    splits, so the middle set does not change.  A caterpillar arc holds e
    and a prefix of its pendant runs: at u and at w that is a run starting
    at e's dart, and its middle set lies within {u, w}.  The lifted tree
    is validated on the whole graph all the same."""
    hub = [len(row) > 1 for row in graph.rotation]
    skeleton = [e for e, (t, h) in enumerate(graph.edges) if hub[t] and hub[h]]
    if not skeleton or len(skeleton) == graph.edge_count:
        return graph, lambda tree: tree
    on_skeleton = set(skeleton)
    runs = {e: ([], []) for e in skeleton}     # pendants at e's tail, at e's head
    for v, row in enumerate(graph.rotation):
        if not hub[v]:
            continue
        # a hub always has a skeleton dart (only a star has a hub without
        # one), so each pendant run follows a skeleton dart
        skeletal = [d >> 1 in on_skeleton for d in row]
        ring = row + row
        for start, length in cyclic_runs(skeletal):
            if not skeletal[start]:
                d = row[start - 1]
                runs[d >> 1][d & 1].extend([p >> 1 for p in ring[start:start + length]])

    def order(e: int) -> list[int]:
        return [e, *runs[e][0], *runs[e][1]]

    sub, _vertex_ids, edge_ids = subgraph_by_edges(_unit_instance(graph), skeleton)
    if len(skeleton) == 1:
        whole = _caterpillar(order(skeleton[0]))
        return sub.graph, lambda _tree: whole

    def lift(tree: SphereCutDecomposition) -> SphereCutDecomposition:
        arcs = list(tree.arcs)
        leaf_map: dict[int, int] = {}
        fresh = itertools.count(tree.node_count)
        for node, j in sorted(tree.leaf_map.items()):
            first, *rest = order(edge_ids[j])
            below = node if not rest else next(fresh)
            leaf_map[below] = first
            for k, e in enumerate(rest):
                leaf = next(fresh)
                leaf_map[leaf] = e
                joint = node if k == len(rest) - 1 else next(fresh)
                arcs += [(below, joint), (leaf, joint)]
                below = joint
        return SphereCutDecomposition(next(fresh), tuple(arcs), leaf_map)

    return sub.graph, lift


def _validated(graph: PlaneDigraph, dec: SphereCutDecomposition) -> SphereCutDecomposition:
    report = validate_decomposition(graph, dec)
    if not report.ok:
        raise BuildError(
            "builder produced an invalid decomposition: " + "; ".join(report.violations),
            instance_document=_bare_document(graph))
    return replace(dec, report=report)


def _unit_instance(graph: PlaneDigraph) -> Instance:
    return Instance(graph, (Fraction(1),) * graph.edge_count)


def _bare_document(graph: PlaneDigraph) -> dict:
    return instance_document(_unit_instance(graph))


def _degenerate_single_edge() -> SphereCutDecomposition:
    return SphereCutDecomposition(2, ((0, 1),), {0: 0})


def _caterpillar(order: Sequence[int]) -> SphereCutDecomposition:
    m = len(order)
    if m == 1:
        return _degenerate_single_edge()
    if m == 2:
        return SphereCutDecomposition(2, ((0, 1),), {0: order[0], 1: order[1]})
    internal = [m + j for j in range(m - 2)]
    arcs = [(0, internal[0]), (1, internal[0])]
    for j in range(1, m - 2):
        arcs.append((internal[j - 1], internal[j]))
        arcs.append((j + 1, internal[j]))
    arcs.append((m - 1, internal[-1]))
    leaf_map = {j: order[j] for j in range(m)}
    return SphereCutDecomposition(m + len(internal), tuple(arcs), leaf_map)


def _greedy_sweep(graph: PlaneDigraph) -> SphereCutDecomposition:
    """Absorb one edge at a time, from edge 0, keeping every absorbed prefix
    contiguous at every vertex; the order gives a caterpillar whose arcs
    are exactly the prefixes (and single leaves).  A growth that stops
    short, which no connected graph tried has caused, raises BuildError
    with the instance."""
    m = graph.edge_count
    order = [0]
    _grow(graph, range(m), order, m)
    if len(order) != m:
        raise BuildError(f"greedy sweep stopped after {len(order)} of {m} edges; "
                         "instance preserved for triage",
                         instance_document=_bare_document(graph))
    return _caterpillar(order)


def _recursive_bisection(graph: PlaneDigraph) -> SphereCutDecomposition:
    """Split the edge set into two contiguous parts (``_split``), recurse
    on both.

    Every subtree edge set must be one cyclic run at every vertex (its
    complement then is too).  Each split keeps the grown part of a third
    to two thirds of the edges with the fewest middle-set vertices, then
    the most balanced, then the lexicographically smallest; a narrower
    cut beats a more even one."""
    m = graph.edge_count
    if m == 1:
        return _degenerate_single_edge()

    # Built from an explicit stack, so no depth of splitting reaches the
    # recursion limit.  It holds the edge sets still to build, first half
    # on top, and the nodes whose two subtrees are pending: nodes are
    # numbered in preorder, and a node's two arcs are added once both of
    # its subtrees are done.
    arcs: list[tuple[int, int]] = []
    leaf_map: dict[int, int] = {}
    counter = itertools.count()
    done: list[int] = []          # the top nodes of the finished subtrees
    s1, s2 = _split(graph, tuple(range(m)))
    todo: list[tuple[int, ...] | int] = [s2, s1]
    while todo:
        item = todo.pop()
        if isinstance(item, int):
            b, a = done.pop(), done.pop()
            arcs += [(a, item), (b, item)]
            done.append(item)
            continue
        node = next(counter)
        if len(item) == 1:
            leaf_map[node] = item[0]
            done.append(node)
        else:
            s1, s2 = _split(graph, item)
            todo += [node, s2, s1]
    a, b = done
    arcs.append((a, b))
    return SphereCutDecomposition(next(counter), tuple(arcs), leaf_map)


_MAX_SEEDS = 24


def _grow(graph: PlaneDigraph, edge_set: Sequence[int], region: list[int], size: int) -> list[int]:
    """Extend ``region`` in place, one edge of ``edge_set`` at a time,
    until it holds ``size`` edges or no edge qualifies, and return the
    middle-set size of each prefix, from the starting region to the
    whole.  A start with a vertex where the region or the rest of
    ``edge_set`` is not one cyclic run grows nothing and has no prefix.

    A candidate shares an endpoint with the region, and adding it leaves
    both the region and the rest of ``edge_set`` one cyclic run at both of
    its endpoints (nowhere else do the sides change, so when ``edge_set``
    is one run at every vertex, each prefix and its rest are too).  The
    candidate leaving the fewest middle-set vertices wins, lowest id on
    ties, whatever the scan order.  Only its endpoints' inside counts
    change, so a candidate's key is its change to the middle set, the sum
    of its endpoints' ``gain``; the run tests (``_run``, inlined), on the
    region's and the rest's dart masks at the endpoints, are paid only by
    a candidate whose key would win."""
    degree = [len(row) for row in graph.rotation]
    count = [0] * graph.vertex_count
    inner = [0] * graph.vertex_count       # per vertex, the region's darts
    outer = [0] * graph.vertex_count       # and the rest's, as rotation masks
    position = graph.dart_position
    rest = {}                   # edge -> (tail, head, tail dart bit, head dart bit)
    for e in edge_set:
        t, h = graph.edges[e]
        bt, bh = 1 << position(2 * e), 1 << position(2 * e + 1)
        rest[e] = t, h, bt, bh
        outer[t] |= bt
        outer[h] |= bh
    for e in region:
        t, h, bt, bh = rest.pop(e)
        for v, bit in ((t, bt), (h, bh)):
            count[v] += 1
            inner[v] |= bit
            outer[v] ^= bit
    touched = {v for e in region for v in graph.edges[e]}
    if any(_run(mask[v], degree[v]) is None for v in touched for mask in (inner, outer)):
        return []
    # a vertex joins the middle set with its first inside dart, unless that
    # is its only dart, and leaves it with its last outside one
    gain = [(c + 1 < k) - (c > 0) for c, k in zip(count, degree)]
    mids = [sum(0 < count[v] < degree[v] for v in touched)]
    while len(region) < size:
        best = e_best = None
        for e, (t, h, bt, bh) in rest.items():
            if not (count[t] or count[h]):
                continue
            key = gain[t] + gain[h]
            if best is not None and (key > best or key == best and e > e_best):
                continue
            # per side, the darts that start a run; at most one may
            k = degree[t]
            a, b = inner[t] | bt, outer[t] ^ bt
            a &= ~(a << 1 | a >> k - 1)
            b &= ~(b << 1 | b >> k - 1)
            if a & (a - 1) or b & (b - 1):
                continue
            k = degree[h]
            a, b = inner[h] | bh, outer[h] ^ bh
            a &= ~(a << 1 | a >> k - 1)
            b &= ~(b << 1 | b >> k - 1)
            if a & (a - 1) or b & (b - 1):
                continue
            best, e_best = key, e
        if best is None:
            break
        region.append(e_best)
        t, h, bt, bh = rest.pop(e_best)
        for v, bit in ((t, bt), (h, bh)):
            c = count[v] = count[v] + 1
            gain[v] = (c + 1 < degree[v]) - 1
            inner[v] |= bit
            outer[v] ^= bit
        mids.append(mids[-1] + best)
    return mids


def _split(graph: PlaneDigraph, edge_set: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Two parts of a sorted ``edge_set`` of n >= 2 edges that is one
    cyclic run at every vertex, each part sorted and one cyclic run at
    every vertex; the root call passes ``range(m)``.

    The parts are grown: from each seed (every edge, or ``_MAX_SEEDS`` of
    them evenly spaced), ``_grow`` runs to floor(2n/3) edges, and every
    prefix of k >= ceil(n/3) edges, the 2/3 balance window of planar
    separators (Lipton & Tarjan 1979), is scored (middle-set size,
    |n - 2k|, sorted part); the least wins, so a narrower cut beats a
    more even one.  A shorter prefix is kept only when no seed's growth
    reaches the window; a seed whose edge splits the rest has none."""
    n = len(edge_set)
    assert n >= 2
    low = -(-n // 3)
    seeds = list(edge_set)
    if len(seeds) > _MAX_SEEDS:
        step = len(seeds) / _MAX_SEEDS
        seeds = [seeds[int(i * step)] for i in range(_MAX_SEEDS)]
    best = None
    for seed in seeds:
        grown = [seed]
        for k, mid in enumerate(_grow(graph, edge_set, grown, 2 * n // 3), 1):
            key = (k < low, mid, abs(n - 2 * k))
            if best is None or key < best[0] or \
                    key == best[0] and sorted(grown[:k]) < best[1]:
                best = key, sorted(grown[:k])
    if best is None:
        raise BuildError("no contiguous bipartition found",
                         instance_document=_bare_document(graph))
    part = set(best[1])
    return tuple(best[1]), tuple(e for e in edge_set if e not in part)

"""Branch decompositions with the noose-contiguity contract.

A branch decomposition here is an unrooted tree whose leaves correspond
one-to-one with the edges of a plane digraph.  The dynamic program needs
one extra property of every arc: at each middle-set vertex, the darts of
the edges on either side of the arc must occupy one contiguous cyclic run
of that vertex's rotation.  This is exactly what a noose drawn on the
sphere guarantees, and it is checkable purely combinatorially, so the
validator enforces contiguity instead of a geometric curve.

``build_sphere_cut`` is the one builder policy, over two heuristic
builders.  Greedy-sweep absorbs one edge at a time into a growing region,
always keeping every prefix contiguous, and emits a caterpillar tree; it
always runs.  Recursive-bisection splits the edge set as evenly as
possible into two contiguous halves and recurses; it runs only when the
greedy width is above 5, and its tree is kept when narrower.  Neither is
width-optimal; externally computed decompositions can be imported instead
and are always re-validated (middle sets are recomputed, never trusted).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .errors import BuildError, DecompositionError
from .plane import Instance, PlaneDigraph, dart_edge, instance_document


# ---------------------------------------------------------------------
# data types

@dataclass(frozen=True)
class SphereCutDecomposition:
    """Unrooted tree over the edges of a graph.

    ``leaf_map`` sends leaf node ids to edge ids.  For single-edge graphs
    the degenerate two-node tree is used, one leaf carrying the edge and
    the other acting as a stub; its only arc has, by convention, the
    edge's endpoints as middle set."""
    node_count: int
    arcs: tuple[tuple[int, int], ...]
    leaf_map: dict[int, int]
    declared_width: Optional[int] = None

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


_DECIMAL = re.compile(r"-?[0-9]+")


def _integer(value) -> int:
    if type(value) is not int:     # refuses booleans, floats and strings alike
        raise ValueError(f"{value!r} is not an integer")
    return value


def _leaf_key(key) -> int:
    if not (isinstance(key, str) and _DECIMAL.fullmatch(key)):
        raise ValueError(f"leaf_map key {key!r} is not a decimal string")
    return int(key)


def decomposition_from_document(doc) -> SphereCutDecomposition:
    """Decode a decomposition document.  ``nodes``, the arc endpoints and
    the ``leaf_map`` values must be JSON integers, and the ``leaf_map``
    keys decimal strings; nothing is coerced."""
    try:
        nodes = _integer(doc["nodes"])
        arcs = tuple((_integer(a), _integer(b)) for a, b in doc["arcs"])
        leaf_map = {_leaf_key(k): _integer(v) for k, v in doc["leaf_map"].items()}
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DecompositionError(f"malformed decomposition document: {exc}") from None
    return SphereCutDecomposition(nodes, arcs, leaf_map)


@dataclass(frozen=True)
class ArcBoundary:
    """One arc of a rooted decomposition, seen from its inside.

    ``mid`` lists the middle-set vertices sorted by id (the order used to
    index tables).  ``runs`` maps each mid vertex to (start, length) of its
    contiguous inside-dart run in the vertex rotation."""
    arc: tuple[int, int]              # (child node, parent node), inside below child
    mid: tuple[int, ...]
    runs: dict[int, tuple[int, int]]
    inside_edges: frozenset[int]


@dataclass
class ValidationReport:
    ok: bool
    width: int
    violations: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------
# shared helpers

def _cyclic_run(positions: set[int], size: int) -> Optional[tuple[int, int]]:
    """If the position set forms one contiguous cyclic run in 0..size-1,
    return (start, length), else None.  The full cycle starts at 0."""
    k = len(positions)
    if k == 0 or k == size:
        return (0, k)
    starts = [p for p in positions if (p - 1) % size not in positions]
    if len(starts) != 1:
        return None
    start = starts[0]
    if all((start + j) % size in positions for j in range(k)):
        return (start, k)
    return None


def _side_positions(graph: PlaneDigraph, v: int, side: set[int]) -> set[int]:
    return {j for j, d in enumerate(graph.rotation[v]) if dart_edge(d) in side}


def _contiguous_at(graph: PlaneDigraph, v: int, side: set[int]) -> bool:
    return _cyclic_run(_side_positions(graph, v, side), graph.degree(v)) is not None


def middle_set(graph: PlaneDigraph, inside: set[int]) -> list[int]:
    """Vertices with darts on both sides of the edge bipartition."""
    deg_inside: dict[int, int] = {}
    for e in inside:
        t, h = graph.edges[e]
        deg_inside[t] = deg_inside.get(t, 0) + 1
        deg_inside[h] = deg_inside.get(h, 0) + 1
    return sorted(v for v, k in deg_inside.items() if k < graph.degree(v))


# ---------------------------------------------------------------------
# validation

def validate_decomposition(graph: PlaneDigraph, dec: SphereCutDecomposition) -> ValidationReport:
    """Check leaf bijection, tree shape, internal degrees, middle sets and
    the per-arc contiguity contract; report the recomputed width.

    Violations are collected as data, not raised."""
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
    # connectivity
    if k:
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != k:
            violations.append("decomposition tree is disconnected")
            return ValidationReport(False, 0, violations)

    leaves = [u for u in range(k) if len(adj[u]) <= 1]
    internal = [u for u in range(k) if len(adj[u]) > 1]
    degenerate = (m == 1 and k == 2)
    mapped = dec.leaf_map
    for u in mapped:
        if not (0 <= u < k) or len(adj[u]) > 1:
            violations.append(f"leaf_map key {u} is not a leaf node")
    values = sorted(mapped.values())
    if values != list(range(m)):
        violations.append("leaf_map is not a bijection onto the edge ids")
    unmapped = [u for u in leaves if u not in mapped]
    if unmapped and not (degenerate and len(unmapped) == 1):
        violations.append(f"unmapped leaves {unmapped}")
    for u in internal:
        if len(adj[u]) != 3:
            violations.append(f"internal node {u} has degree {len(adj[u])}, not 3")
    if violations:
        return ValidationReport(False, 0, violations)

    if degenerate:
        # convention for a one-edge graph: the arc's noose passes both endpoints
        return ValidationReport(True, 2, [])
    width = 0

    # per-arc side edge sets via subtree accumulation from an arbitrary root
    sides = _arc_side_edges(dec)
    for (a, b), inside in sides.items():
        if a > b:
            continue  # each undirected arc once; contiguity is side-symmetric
        mid = middle_set(graph, inside)
        width = max(width, len(mid))
        for v in mid:
            if _cyclic_run(_side_positions(graph, v, inside), graph.degree(v)) is None:
                violations.append(
                    f"arc {(a, b)}: darts of vertex {v} on one side are not contiguous")
    return ValidationReport(not violations, width, violations)


def _arc_side_edges(dec: SphereCutDecomposition) -> dict[tuple[int, int], set[int]]:
    """For every directed arc (u, v): edge set in the subtree hanging below u."""
    adj = dec.neighbors()
    root = 0
    order = []
    parent = {root: None}
    stack = [root]
    while stack:
        u = stack.pop()
        order.append(u)
        for w in adj[u]:
            if w != parent[u]:
                parent[w] = u
                stack.append(w)
    below: dict[int, set[int]] = {}
    for u in reversed(order):
        s: set[int] = set()
        if u in dec.leaf_map:
            s.add(dec.leaf_map[u])
        for w in adj[u]:
            if parent.get(w) == u:
                s |= below[w]
        below[u] = s
    all_edges = below[root]
    sides: dict[tuple[int, int], set[int]] = {}
    for u in order:
        p = parent[u]
        if p is None:
            continue
        sides[(u, p)] = below[u]
        sides[(p, u)] = all_edges - below[u]
    return sides


# ---------------------------------------------------------------------
# rooted view used by the solver

class RootedDecomposition:
    """A decomposition rooted at a leaf; the inside of every arc is the
    side away from the root leaf's edge."""

    def __init__(self, graph: PlaneDigraph, dec: SphereCutDecomposition, root_leaf: int):
        if root_leaf not in dec.leaf_map and not (graph.edge_count == 1
                                                  and len(dec.neighbors()[root_leaf]) <= 1):
            raise DecompositionError(f"root {root_leaf} is not a mapped leaf")
        self.graph = graph
        self.dec = dec
        self.root_leaf = root_leaf
        adj = dec.neighbors()
        parent = {root_leaf: None}
        order = [root_leaf]
        stack = [root_leaf]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in parent:
                    parent[w] = u
                    order.append(w)
                    stack.append(w)
        self.parent = parent
        inside: dict[int, set[int]] = {}
        for u in reversed(order):
            s = set()
            if u in dec.leaf_map and u != root_leaf:
                s.add(dec.leaf_map[u])
            for w in adj[u]:
                if parent.get(w) == u:
                    s |= inside[w]
            inside[u] = s
        self.inside = inside           # node -> inside edges of arc (node, parent)
        self.children = {u: [w for w in adj[u] if parent.get(w) == u] for u in order}
        self.post_order = [u for u in reversed(order) if u != root_leaf]

    def boundary(self, node: int) -> ArcBoundary:
        """ArcBoundary for the arc from ``node`` toward the root."""
        g = self.graph
        inside = self.inside[node]
        runs: dict[int, tuple[int, int]] = {}
        mid = []
        for v in middle_set(g, inside):
            run = _cyclic_run(_side_positions(g, v, inside), g.degree(v))
            if run is None:
                raise DecompositionError(
                    f"contiguity violated at vertex {v} on arc {(node, self.parent[node])}")
            runs[v] = run
            mid.append(v)
        return ArcBoundary(
            arc=(node, self.parent[node]),
            mid=tuple(mid),
            runs=runs,
            inside_edges=frozenset(inside),
        )


# ---------------------------------------------------------------------
# builders

_GREEDY_WIDTH_LIMIT = 5


def build_sphere_cut(graph: PlaneDigraph, strategy: Optional[str] = None) -> SphereCutDecomposition:
    """Build a validated decomposition of a connected graph.

    The one builder policy: greedy-sweep runs first.  Only when its width
    is above 5 does recursive-bisection run too, and its tree is kept if
    narrower; if bisection finds no contiguous split, greedy stands.
    Greedy is some 30x cheaper to build, so bisection is paid for only
    where the ``6**width`` tables outweigh the search.  A greedy failure,
    or any tree failing the validator, raises BuildError with the instance.

    ``strategy="greedy-sweep"`` returns the greedy tree alone; the
    benchmark's ``perfbench/make_golden.py`` cross-checks optima with it."""
    if graph.edge_count == 0:
        raise BuildError("cannot decompose an edgeless graph")
    if not graph.is_connected():
        raise BuildError("decompose one connected component at a time")
    if strategy not in (None, "greedy-sweep"):
        raise BuildError(f"unknown strategy {strategy!r}")
    dec = _validated(graph, _greedy_sweep(graph))
    if strategy is None and dec.declared_width > _GREEDY_WIDTH_LIMIT:
        try:
            alt = _recursive_bisection(graph)
        except BuildError:
            return dec
        alt = _validated(graph, alt)
        if alt.declared_width < dec.declared_width:
            return alt
    return dec


def _validated(graph: PlaneDigraph, dec: SphereCutDecomposition) -> SphereCutDecomposition:
    report = validate_decomposition(graph, dec)
    if not report.ok:
        raise BuildError(
            "builder produced an invalid decomposition: " + "; ".join(report.violations),
            instance_document=_bare_document(graph))
    return SphereCutDecomposition(dec.node_count, dec.arcs, dec.leaf_map, report.width)


def _bare_document(graph: PlaneDigraph) -> dict:
    unit = Instance(graph, tuple(Fraction(1) for _ in range(graph.edge_count)))
    return instance_document(unit)


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
    """Absorb one edge at a time keeping every absorbed prefix contiguous
    at every vertex; the resulting order gives a caterpillar whose arcs are
    exactly the prefixes (and single leaves).  Next edge: the candidate
    minimizing the new boundary size, lowest id on ties."""
    m = graph.edge_count
    if m == 1:
        return _degenerate_single_edge()
    last_error = None
    for start in range(m):
        order = _sweep_order(graph, start)
        if order is not None:
            return _caterpillar(order)
        last_error = start
    raise BuildError(
        f"greedy sweep got stuck from every start edge (last tried {last_error}); "
        "instance preserved for triage",
        instance_document=_bare_document(graph))


def _sweep_order(graph: PlaneDigraph, start: int) -> Optional[list[int]]:
    m = graph.edge_count
    absorbed: set[int] = set()
    order: list[int] = []
    inside_count = [0] * graph.vertex_count

    def boundary_after(e: int) -> int:
        size = sum(1 for v in range(graph.vertex_count)
                   if 0 < inside_count[v] < graph.degree(v))
        for v in graph.edges[e]:
            before, after = inside_count[v], inside_count[v] + 1
            split_before = 0 < before < graph.degree(v)
            split_after = 0 < after < graph.degree(v)
            size += split_after - split_before
        return size

    def absorb(e: int):
        absorbed.add(e)
        order.append(e)
        for v in graph.edges[e]:
            inside_count[v] += 1

    absorb(start)
    while len(order) < m:
        best = None
        for e in range(m):
            if e in absorbed:
                continue
            t, h = graph.edges[e]
            if inside_count[t] == 0 and inside_count[h] == 0:
                continue  # disjoint edges are the fallback below
            trial = absorbed | {e}
            if all(_contiguous_at(graph, v, trial) for v in (t, h)):
                key = (boundary_after(e), e)
                if best is None or key < best:
                    best = key
        if best is not None:
            absorb(best[1])
            continue
        disjoint = [e for e in range(m) if e not in absorbed
                    and inside_count[graph.edges[e][0]] == 0
                    and inside_count[graph.edges[e][1]] == 0]
        if disjoint:
            absorb(disjoint[0])
            continue
        return None
    return order


def _recursive_bisection(graph: PlaneDigraph) -> SphereCutDecomposition:
    """Split the edge set into two contiguous halves, recurse on both.

    Every subtree edge set must be one cyclic run at every vertex (its
    complement then is too).  Small sets are split optimally by searching
    sizes outward from a perfect halving; larger sets are split by greedy
    region growth from several seeds.  Tie-break: most balanced, then
    fewest split vertices, then lexicographically smallest side."""
    m = graph.edge_count
    if m == 1:
        return _degenerate_single_edge()

    arcs: list[tuple[int, int]] = []
    leaf_map: dict[int, int] = {}
    counter = itertools.count()

    def build(edge_set: tuple[int, ...]) -> int:
        node = next(counter)
        if len(edge_set) == 1:
            leaf_map[node] = edge_set[0]
            return node
        s1, s2 = _split(graph, edge_set)
        a = build(s1)
        b = build(s2)
        arcs.append((a, node))
        arcs.append((b, node))
        return node

    top = tuple(range(m))
    s1, s2 = _split(graph, top)
    a = build(s1)
    b = build(s2)
    arcs.append((a, b))
    # the two top subtrees are joined directly: drop the unused extra node slots
    used = sorted({u for arc in arcs for u in arc} | set(leaf_map))
    remap = {u: i for i, u in enumerate(used)}
    arcs2 = tuple((remap[x], remap[y]) for x, y in arcs)
    leaf_map2 = {remap[u]: e for u, e in leaf_map.items()}
    return SphereCutDecomposition(len(used), arcs2, leaf_map2)


_EXACT_SPLIT_LIMIT = 14
_MAX_SEEDS = 24


def _split_valid(graph: PlaneDigraph, part: set[int], rest: set[int]) -> bool:
    verts = set()
    for e in part:
        verts.update(graph.edges[e])
    for e in rest:
        verts.update(graph.edges[e])
    return all(_contiguous_at(graph, v, part) and _contiguous_at(graph, v, rest)
               for v in verts)


def _split_vertices(graph: PlaneDigraph, part: set[int]) -> int:
    return len(middle_set(graph, part))


def _split(graph: PlaneDigraph, edge_set: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    n = len(edge_set)
    assert n >= 2
    if n == 2:
        return (edge_set[0],), (edge_set[1],)
    if n <= _EXACT_SPLIT_LIMIT:
        found = _split_exact(graph, edge_set)
    else:
        found = _split_greedy(graph, edge_set)
    if found is None:
        raise BuildError("no contiguous bipartition found",
                         instance_document=_bare_document(graph))
    return found


def _split_exact(graph: PlaneDigraph, edge_set: tuple[int, ...]):
    n = len(edge_set)
    rest_all = set(edge_set)
    anchor = edge_set[0]
    others = edge_set[1:]
    half = n // 2
    sizes = sorted(range(1, n), key=lambda s: (abs(2 * s - n), s))
    for size in sizes:
        best = None
        for combo in itertools.combinations(others, size - 1):
            part = {anchor, *combo}
            rest = rest_all - part
            if _split_valid(graph, part, rest):
                key = (_split_vertices(graph, part), tuple(sorted(part)))
                if best is None or key < best:
                    best = key
        if best is not None:
            part = set(best[1])
            return tuple(sorted(part)), tuple(sorted(rest_all - part))
    return None


def _split_greedy(graph: PlaneDigraph, edge_set: tuple[int, ...]):
    n = len(edge_set)
    target = n // 2
    rest_all = set(edge_set)
    seeds = list(edge_set)
    if len(seeds) > _MAX_SEEDS:
        step = len(seeds) / _MAX_SEEDS
        seeds = [seeds[int(i * step)] for i in range(_MAX_SEEDS)]
    best = None
    for seed in seeds:
        part = {seed}
        part_verts = set(graph.edges[seed])
        while len(part) < target:
            grown = None
            for e in edge_set:
                if e in part:
                    continue
                t, h = graph.edges[e]
                if t not in part_verts and h not in part_verts:
                    continue
                trial = part | {e}
                rest = rest_all - trial
                if _split_valid_local(graph, trial, rest, (t, h)):
                    key = (_split_vertices(graph, trial), e)
                    if grown is None or key < grown:
                        grown = key
            if grown is None:
                break
            part.add(grown[1])
            part_verts.update(graph.edges[grown[1]])
        rest = rest_all - part
        if rest and _split_valid(graph, part, rest):
            key = (abs(n - 2 * len(part)), _split_vertices(graph, part),
                   tuple(sorted(part)))
            if best is None or key < best:
                best = key
    if best is None:
        return None
    part = set(best[2])
    return tuple(sorted(part)), tuple(sorted(rest_all - part))


def _split_valid_local(graph: PlaneDigraph, part: set[int], rest: set[int],
                       touched: tuple[int, int]) -> bool:
    return all(_contiguous_at(graph, v, part) and _contiguous_at(graph, v, rest)
               for v in set(touched))

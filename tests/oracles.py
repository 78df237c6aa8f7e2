"""Reference helpers that only the tests call.

``brute_force_cut`` is the exhaustive optimum over unions of
all-or-nothing edge classes, the oracle of the compression rules; it
shares ``mwbs.oracle``'s switch-count state and budget.
``align_optimum_to_classes`` rewrites an optimum into one that deletes
whole partition classes, which certifies that some optimum is
class-aligned.  ``join_split`` rebuilds a join's split from the three
boundaries alone, checking that they fit together, the reference of the
validator's ``RootedDecomposition.splits``.  ``reference_rooted`` is the
validator's verdict and rooted view computed arc by arc: one mask pass,
then each boundary on its own, its class maps read off prefix sums of
switches (``switch_prefix``), and each split from the stored boundaries;
it also finds the flat joins from each arc's inside edge set.
``class_map`` numbers a run's classes from the pattern sets themselves,
the per-run reference of ``configs.CLASS_MAPS``.
``check_view`` compares a rooted view with the reference on the arcs the
view keeps, and ``whole_view`` stands in for a view that keeps every arc.
``leaf_keeps`` is the letter rule that decides whether a leaf table's
entry keeps its edge, the reference of ``DPTable.keeps``.
"""

import itertools
from types import SimpleNamespace
from typing import NamedTuple

from mwbs.configs import CLASS_MAPS, CONFIGS, collapse, realizes
from mwbs.decomposition import ArcBoundary, JoinSplit, _run
from mwbs.errors import BudgetExceeded, DecompositionError, EmbeddingError, FormatError
from mwbs.kernel import optimal_switches, sections_of
from mwbs.oracle import BUDGET, _SwitchState
from mwbs.plane import Instance, Solution, dart_direction, dart_edge, make_solution


def brute_force_cut(instance: Instance, classes) -> Solution:
    """Exact optimum over unions of all-or-nothing edge classes."""
    g = instance.graph
    classes = [tuple(c) for c in classes]
    k = len(classes)
    if k > BUDGET:
        raise BudgetExceeded(f"{k} classes exceed the oracle budget {BUDGET}")
    covered = sorted(e for c in classes for e in c)
    if covered != list(range(g.edge_count)):
        raise FormatError("classes do not partition the edge set")
    int_w = instance.int_weights.values
    class_w = [sum(int_w[e] for e in c) for c in classes]
    state = _SwitchState(g)
    weight = 0
    best_weight, best_mask = None, None
    if state.num_bad == 0:
        best_weight, best_mask = 0, 0
    prev = 0
    for i in range(1, 1 << k):
        gray = i ^ (i >> 1)
        bit = (gray ^ prev).bit_length() - 1
        prev = gray
        for e in classes[bit]:
            state.toggle(e)
        weight += class_w[bit] if (gray >> bit) & 1 else -class_w[bit]
        if state.num_bad == 0 and (best_weight is None or weight > best_weight
                                   or (weight == best_weight and gray < best_mask)):
            best_weight, best_mask = weight, gray
    if best_mask is None:
        # the empty selection is always bimodal, so this cannot happen
        raise AssertionError("no feasible class selection")
    kept = [e for c in range(k) if (best_mask >> c) & 1 for e in classes[c]]
    return make_solution(instance, kept, "oracle-cut")


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
        deleted = set(deleted)
        out.difference_update(edges)
        out.update(e for e in edges if e not in deleted)
    return out


def first_child_at(parent: ArcBoundary, b1: ArcBoundary, b2: ArcBoundary, v: int) -> int:
    """Which child's inside-dart run starts the parent run at v (1 or 2).

    The two child runs tile the parent run; clockwise from the outside
    gap, the child owning the parent run's first dart comes first."""
    s3 = parent.runs[v][0]
    if b1.runs[v][0] == s3:
        return 1
    if b2.runs[v][0] == s3:
        return 2
    raise DecompositionError(f"child runs at vertex {v} do not tile the parent run")


def join_split(parent: ArcBoundary, b1: ArcBoundary, b2: ArcBoundary) -> JoinSplit:
    """The split of the join of child arcs b1 and b2 into ``parent``, from
    the boundaries alone, after checking that the children partition the
    parent's inside and that the middle sets agree."""
    if b1.inside_count + b2.inside_count != parent.inside_count:
        raise DecompositionError("child arcs must partition the parent inside")
    s1, s2, s3 = b1.runs.keys(), b2.runs.keys(), parent.runs.keys()
    if not s1 ^ s2 <= s3 <= s1 | s2:
        raise DecompositionError("arc middle sets are inconsistent")
    shared = sorted(s1 & s2)
    return JoinSplit([v for v in parent.mid if v not in s1 or v not in s2],
                     [v for v in shared if v not in s3],
                     [(v, first_child_at(parent, b1, b2, v)) for v in shared if v in s3])


def switch_prefix(row) -> list[int]:
    """Entry j counts the positions k < j where dart k and dart k + 1 of
    the row, read twice around, have different ends; the switches of a run
    of ``length`` darts from ``start`` are then entry start + length - 1
    minus entry start."""
    ends = [d & 1 for d in row] * 2
    return [0, *itertools.accumulate(a != b for a, b in zip(ends, ends[1:]))]


def run_class(row, start: int, length: int) -> tuple[int, ...]:
    """The class map of the run of ``length`` darts from ``start`` in a
    rotation row: keyed by its first dart's end and its switches."""
    switches = switch_prefix(row)
    return CLASS_MAPS[row[start] & 1, min(switches[start + length - 1] - switches[start], 3)]


def class_map(run: str) -> tuple[int, ...]:
    """Configuration index -> class index for a vertex whose inside darts
    read ``run`` (o at a tail, i at a head), the per-run reference of
    ``CLASS_MAPS``: two configurations share a class when the same
    configurations that are subsequences of the run realize them, and
    classes are numbered in the order of their smallest configuration."""
    letters = collapse(run)
    subsequences = {"".join(pick) for r in (1, 2, 3) for pick in itertools.combinations(letters, r)}
    patterns = [p for p in CONFIGS if p in subsequences]
    number: dict[frozenset, int] = {}
    return tuple(number.setdefault(frozenset(p for p in patterns if realizes(p, c)), len(number))
                 for c in CONFIGS)


class Reference(NamedTuple):
    ok: bool
    width: int
    violations: list[str]
    boundaries: dict[int, ArcBoundary]
    splits: dict[int, JoinSplit]
    flat: dict[int, int]        # flat join -> its hub-to-hub edge, or -1
    below: set[int]             # the nodes strictly below a flat join


def reference_rooted(graph, dec, root: int) -> Reference:
    """The validator's verdict on a tree of the validator's shape, rooted
    at mapped leaf ``root``, with every boundary of an arc whose inside
    darts are one run at every middle-set vertex, and every join's split
    taken while no arc is broken, in the validator's post-order (a
    depth-first one).  Each vertex's inside mask is built first for every
    arc; then each arc's boundary is read off its masks on its own.  In a
    graph with two or more pendants (edges with an end of degree one), a
    join is flat when its inside holds at most one hub-to-hub edge."""
    adj = dec.neighbors()
    parent = {root: None}
    order = [root]
    stack = [root]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in parent:
                parent[w] = u
                order.append(w)
                stack.append(w)
    children = {u: [w for w in adj[u] if parent[w] == u] for u in order}
    post_order = [u for u in reversed(order) if u != root]
    full = [(1 << len(row)) - 1 for row in graph.rotation]
    darts, inside, edges = {}, {}, {}
    for u in post_order:
        masks = {}
        if u in dec.leaf_map:
            e = dec.leaf_map[u]
            t, h = graph.edges[e]
            masks[t] = 1 << graph.dart_position(2 * e)
            masks[h] = 1 << graph.dart_position(2 * e + 1)
        for w in children[u]:
            for v, mask in darts[w].items():
                masks[v] = masks.get(v, 0) | mask
        darts[u] = {v: mask for v, mask in masks.items() if mask != full[v]}
        inside[u] = (u in dec.leaf_map) + sum(inside[w] for w in children[u])
        own = {dec.leaf_map[u]} if u in dec.leaf_map else set()
        edges[u] = own.union(*(edges[w] for w in children[u]))
    degree = [len(row) for row in graph.rotation]
    flat = {}
    if degree.count(1) >= 2:
        for u in (u for u in post_order if children[u]):
            coupled = [e for e in sorted(edges[u]) if min(degree[v] for v in graph.edges[e]) > 1]
            if len(coupled) <= 1:
                flat[u] = coupled[0] if coupled else -1
    below = set()
    for u in reversed(post_order):      # each parent before its children
        if parent[u] in flat or parent[u] in below:
            below.add(u)
    boundaries, splits, broken = {}, {}, []
    for u in post_order:
        arc = (u, parent[u])
        mid = sorted(darts[u])
        runs, classes, bad = {}, [], []
        for v in mid:
            row = graph.rotation[v]
            run = _run(darts[u][v], len(row))
            if run is None:
                bad.append(v)
                continue
            runs[v] = run
            classes.append(run_class(row, *run))
        if bad:
            broken.append((tuple(sorted(arc)), f"arc {tuple(sorted(arc))}: darts of vertices "
                                               f"{bad} on one side are not contiguous"))
            continue
        boundaries[u] = ArcBoundary(arc, tuple(mid), runs, inside[u], tuple(classes))
        if children[u] and not broken:
            a, b = children[u]
            splits[u] = join_split(boundaries[u], boundaries[a], boundaries[b])
    if broken:
        return Reference(False, 0, [text for _arc, text in sorted(broken)], boundaries, splits,
                         flat, below)
    return Reference(True, max(len(b.mid) for b in boundaries.values()), [], boundaries, splits,
                     flat, below)


def check_view(rooted, want: Reference) -> None:
    """A rooted view against the reference at its root: the same flat
    joins; the boundaries of exactly the arcs not strictly below a flat
    join (broken arcs aside), stored in post order; the splits of exactly
    the joins that are not flat; each equal to the reference's."""
    assert rooted.flat == want.flat
    assert list(rooted.boundaries) == [u for u in rooted.post_order
                                       if u in want.boundaries and u not in want.below]
    assert rooted.boundaries == {u: b for u, b in want.boundaries.items() if u not in want.below}
    assert rooted.splits == {u: s for u, s in want.splits.items() if u not in want.flat}


def whole_view(graph, dec, rooted):
    """A stand-in for a valid rooted view of ``dec`` that keeps every
    arc's boundary and every join's split, in post order, and has no flat
    join, so the demand walk on it does not stop at flat arcs: the
    reference's, once ``check_view`` finds the view's own equal to them."""
    want = reference_rooted(graph, dec, rooted.root_leaf)
    assert want.ok
    check_view(rooted, want)
    order = rooted.post_order
    return SimpleNamespace(root_leaf=rooted.root_leaf, parent=rooted.parent,
                           children=rooted.children, post_order=order, flat={},
                           boundaries={u: want.boundaries[u] for u in order},
                           splits={u: want.splits[u] for u in order if rooted.children[u]})


def leaf_keeps(instance: Instance, table, e: int, index: int) -> bool:
    """Whether leaf edge ``e`` is kept at entry ``index`` of its table: the
    letter of its dart at each middle-set endpoint (o at the tail, i at the
    head) lies in the smallest configuration of the entry's class there,
    the positions read as mixed-radix digits over the tabulated classes,
    the first position least significant."""
    tail, _head = instance.graph.edges[e]
    b = table.boundary
    for v, cmap, mask in zip(b.mid, b.classes, table.demand):
        reps = [cmap.index(c) for c in range(max(cmap) + 1) if mask >> c & 1]
        index, digit = divmod(index, len(reps))
        if ("o" if v == tail else "i") not in CONFIGS[reps[digit]]:
            return False
    return True

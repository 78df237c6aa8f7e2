"""The exact bottom-up solver over class-indexed tables.

The configuration algebra (``configs``) gives each middle-set vertex one
of six configurations.  The solver walks a validated decomposition
bottom-up.  Each arc gets a table mapping every assignment of
configurations to the arc's middle set to the minimum weight of edges
deleted strictly inside the arc.  Weights are exact integers: the
instance's ``int_weights``, its weights over their least common
denominator, which the instance computes once and keeps, so every table
and the certificate of the solution read the same scaling.

Tables are indexed by configuration classes, not configurations.  An
entry depends on a vertex's configuration only through its class, the set
of collapsed subsequences of the vertex's inside run that realize it (see
``configs``): a kept set fits the configuration exactly when its pattern
at the vertex is empty or lies in that set.  So configurations of one
class have equal entries, and a table stores one entry per class vector:
the digit of a position counts that run's classes (2 for a run in one
direction, 4 for io or oi, 6 otherwise), in mixed radix with the first
position least significant.  A configuration code (index times 6**k at
position k) is read through the class maps; ``DPTable.cost`` does that.

Every entry is feasible.  A leaf entry is: deleting the edge realizes any
assignment.  A parent entry combines, at each shared vertex, a pair of
child configurations from a list that is never empty (checked when the
module loads), and every child entry is feasible by induction, so it has
at least one candidate pair.  Tables therefore hold costs only: no
infeasible marker and no back-pointers.

The join tries only maximal pairs, cut in two steps when the module
loads.  First in configurations: order them by substring (i and o below
io and oi, which lie below oio and ioi).  Every set of valid
child-configuration pairs at a shared vertex, plain compatible or
compatible with respect to a parent configuration, is a down-set in the
product of that order, and tables are monotone in it: a pattern realizing
a configuration realizes every superstring, so raising one coordinate
never raises an entry's cost.  Hence a valid pair is dominated by a
maximal valid pair that costs no more, and the minimum over the maximal
pairs (``_INTERIOR_PAIRS``, ``_TARGET_PAIRS``) is the minimum over all
valid pairs.  Then in classes: each maximal pair is mapped to its pair of
child classes, and only the class pairs maximal in the product of the two
class maps' orders (``configs.CLASS_ORDERS``: a below b when a's pattern
set lies within b's on every run with that map) are kept, in
``_INTERIOR_CLASS_PAIRS`` and ``_TARGET_CLASS_PAIRS``.  Tables are
monotone in that order too, since a kept set that fits a class fits every
class above it, and it is finer than the substring order: on an io run
the oi class lies below the io class.  Pairs that land on the same pair
of classes cost the same, so each is tried once.  The join evaluates each
parent class at its representative, the class's smallest configuration.

Reconstruction stays in configuration space, so that the solution is the
one a configuration-indexed table would give.  Classes are numbered by
their smallest configuration, so the first minimizing class code at the
root decodes, position by position, to the first minimizing
configuration code.  On the way down, each internal node tries the
candidate configuration pairs of its one chosen entry in the order a
configuration-indexed join would, reads the child costs through the
class maps, and keeps the first of least cost.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional

from .configs import (CLASS_MAPS, CLASS_ORDERS, CONFIG_INDEX, CONFIGS, compatible,
                      compatible_wrt)
from .decomposition import ArcBoundary, SphereCutDecomposition, validate_decomposition
from .errors import DecompositionError
from .plane import Instance, Solution, make_solution

# substring order: _LE[a][b] iff configuration a is a substring of b
_LE = [[a in b for b in CONFIGS] for a in CONFIGS]


def _maximal(pairs, le1=_LE, le2=_LE) -> list:
    """The maximal elements of a list of pairs under the product of two
    orders, each given as le[a][b]; by default configuration pairs under
    the product substring order."""
    kept = []
    for p in pairs:
        for q in pairs:
            if le1[p[0]][q[0]] and le2[p[1]][q[1]] and q != p:
                break
        else:
            kept.append(p)
    return kept


# maximal (child 1, child 2) configuration pairs at a shared vertex interior
# to the parent, and, at a shared vertex on the parent middle set, per the
# child whose run comes first (1 or 2) and per parent configuration; the
# lists of child 2 first are those of child 1 first, each pair swapped
_INTERIOR_PAIRS = _maximal([(x1, x2) for x1 in range(6) for x2 in range(6)
                            if compatible(CONFIGS[x1], CONFIGS[x2])])
_TARGET_PAIRS = {1: [_maximal([(x1, x2) for x1 in range(6) for x2 in range(6)
                               if compatible_wrt(CONFIGS[x1], CONFIGS[x2], t)])
                     for t in CONFIGS]}
_TARGET_PAIRS[2] = [sorted((x2, x1) for x1, x2 in pairs) for pairs in _TARGET_PAIRS[1]]
# every parent entry has a candidate pair, so every table entry is feasible
assert _INTERIOR_PAIRS and all(all(by_target) for by_target in _TARGET_PAIRS.values())

# class map -> the representative (smallest configuration) of each class
_REPS = {cmap: tuple(cmap.index(k) for k in range(max(cmap) + 1))
         for cmap in CLASS_MAPS.values()}


def _class_pair_tables() -> tuple[dict, dict]:
    """The maximal pair lists in classes, per pair of child class maps:
    each configuration pair mapped to its (child 1, child 2) class pair,
    each class pair once, and of those only the pairs maximal in the
    product of the two maps' ``CLASS_ORDERS``.  Plain compatibility is
    symmetric and ``_TARGET_PAIRS[2]`` mirrors ``_TARGET_PAIRS[1]``, so
    half the lists are read off their mirror images.  Equal lists are one
    object, which keeps the tables small."""
    shared: dict = {}

    def classes(pairs, m1, m2):
        found = dict.fromkeys((m1[x1], m2[x2]) for x1, x2 in pairs)
        found = tuple(_maximal(found, CLASS_ORDERS[m1], CLASS_ORDERS[m2]))
        return shared.setdefault(found, found)

    def mirror(found):
        swapped = tuple((c2, c1) for c1, c2 in found)
        return shared.setdefault(swapped, swapped)

    maps = list(_REPS)
    interior = {(m1, m2): classes(_INTERIOR_PAIRS, m1, m2)
                for j, m1 in enumerate(maps) for m2 in maps[j:]}
    interior.update({(m2, m1): mirror(found) for (m1, m2), found in interior.items()
                     if m1 != m2})
    first = {(m1, m2): [classes(pairs, m1, m2) for pairs in _TARGET_PAIRS[1]]
             for m1 in maps for m2 in maps}
    second = {(m1, m2): [mirror(found) for found in first[m2, m1]] for m1, m2 in first}
    return interior, {1: first, 2: second}


_INTERIOR_CLASS_PAIRS, _TARGET_CLASS_PAIRS = _class_pair_tables()


# A table's place for a vertex: (configuration weight 6**position, class
# weight, class map); a table without the vertex has weights 0.
_Place = tuple[int, int, tuple[int, ...]]
_ABSENT: _Place = (0, 0, (0,) * 6)


class JoinSplit(NamedTuple):
    """How a parent arc's middle set splits over its two children: per
    vertex, its place in the parent (3) and child (1, 2) tables.

    ``owned`` lists the (parent, child 1, child 2) places of each parent
    position that exactly one child owns.  ``interior`` lists the (child 1,
    child 2) places of each shared vertex interior to the parent, whose
    candidate pairs are ``_INTERIOR_PAIRS``.  ``targets`` lists, per shared
    vertex on the parent middle set, its (parent, child 1, child 2) places
    and which child's run comes first there, which selects its pair lists
    ``_TARGET_PAIRS[first]``.  Shared vertices are in id order."""
    owned: tuple[tuple[_Place, _Place, _Place], ...]
    interior: tuple[tuple[_Place, _Place], ...]
    targets: tuple[tuple[_Place, _Place, _Place, int], ...]

    def pairs_of(self, code: int) -> tuple[int, list[tuple[int, int, int, int]]]:
        """The table index of parent configuration code ``code``, and its
        candidate pairs in the order a configuration-indexed join tries
        them, each as (child 1 code, child 2 code, child 1 index, child 2
        index): interior vertices' pairs vary slowest, then the targets'."""
        index = o1 = o2 = i1 = i2 = 0
        for (w3, k3, m3), (w1, k1, m1), (w2, k2, m2) in self.owned:
            x = code // w3 % 6
            index += m3[x] * k3
            o1 += x * w1
            o2 += x * w2
            i1 += m1[x] * k1
            i2 += m2[x] * k2
        combos = [(o1, o2, i1, i2)]
        for p1, p2 in self.interior:
            combos = _extend_codes(combos, p1, p2, _INTERIOR_PAIRS)
        for (w3, k3, m3), p1, p2, first in self.targets:
            x = code // w3 % 6
            index += m3[x] * k3
            combos = _extend_codes(combos, p1, p2, _TARGET_PAIRS[first][x])
        return index, combos


def _extend_codes(combos: list[tuple[int, int, int, int]], p1: _Place, p2: _Place,
                  pairs: list[tuple[int, int]]) -> list[tuple[int, int, int, int]]:
    (w1, k1, m1), (w2, k2, m2) = p1, p2
    return [(o1 + x1 * w1, o2 + x2 * w2, i1 + m1[x1] * k1, i2 + m2[x2] * k2)
            for o1, o2, i1, i2 in combos for x1, x2 in pairs]


def _extend(combos: list[tuple[int, int]], k1: int, k2: int,
            pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    return [(d1 + c1 * k1, d2 + c2 * k2) for d1, d2 in combos for c1, c2 in pairs]


def _places(boundary: ArcBoundary) -> dict[int, _Place]:
    """Each middle-set vertex's place in the boundary's tables, in
    ``mid`` order."""
    places = {}
    code_weight = index_weight = 1
    for v, cmap in zip(boundary.mid, boundary.classes):
        places[v] = (code_weight, index_weight, cmap)
        code_weight *= 6
        index_weight *= len(_REPS[cmap])
    return places


@dataclass
class DPTable:
    """Per-arc table: one entry per vector of configuration classes on the
    middle set.

    The vertex at position k of ``boundary.mid`` contributes its class
    index times the product of the class counts of positions 0..k-1
    (``boundary.classes`` holds the maps).  ``costs`` holds the minimum
    scaled deleted weight of each entry; every entry is feasible.  Read an
    entry by configuration code, index times 6**k at position k, with
    ``cost``.  ``places`` holds each vertex's place, the weights that a
    join reads.  No back-pointers are stored.  A join table keeps its
    ``split``, from which reconstruction recomputes the pair of child
    entries behind one configuration code; a leaf table needs nothing
    beyond its boundary."""
    boundary: ArcBoundary
    costs: list[int]
    split: Optional[JoinSplit] = None
    places: Optional[dict[int, _Place]] = field(default=None, repr=False)

    def __post_init__(self):
        if self.places is None:
            self.places = _places(self.boundary)

    def cost(self, code: int) -> int:
        """The entry of configuration code ``code``."""
        return self.costs[sum(cmap[code // w % 6] * k for w, k, cmap in self.places.values())]


def _first_code(table: DPTable, index: int) -> int:
    """The smallest configuration code whose entry is table index ``index``:
    each position's class representative."""
    code = 0
    for w, _k, cmap in table.places.values():
        reps = _REPS[cmap]
        index, c = divmod(index, len(reps))
        code += reps[c] * w
    return code


def _leaf_letters(instance: Instance, boundary: ArcBoundary, e: int) -> list[str]:
    """The letter of leaf edge ``e``'s dart at each middle-set position of
    its leaf arc: o at the tail, i at the head."""
    if boundary.inside_count != 1:
        raise DecompositionError("leaf_table needs a single-edge boundary")
    t, h = instance.graph.edges[e]
    mid = boundary.mid
    if not set(mid) <= {t, h}:
        raise DecompositionError("leaf boundary mid must consist of the edge endpoints")
    letters = {t: "o", h: "i"}
    return [letters[v] for v in mid]


def _keeps(letters: list[str], code: int) -> bool:
    """Whether keeping a leaf's edge realizes the assignment ``code``."""
    for letter in letters:
        if letter not in CONFIGS[code % 6]:
            return False
        code //= 6
    return True


def leaf_table(instance: Instance, boundary: ArcBoundary, e: int) -> DPTable:
    """Table for the arc of the leaf mapped to edge ``e``.

    Keeping the edge realizes an assignment iff each middle-set endpoint's
    configuration contains the letter of the edge's dart there (o at the
    tail, i at the head); deleting it realizes everything at cost w(e),
    read from the instance's ``int_weights``.
    Each endpoint's run is that one dart, so it has two classes, and the
    letter is tested against their representatives: 2**|mid| entries.
    Every entry is feasible."""
    letters = _leaf_letters(instance, boundary, e)
    w = instance.int_weights.values[e]
    fits = [[letter in CONFIGS[r] for r in _REPS[cmap]]
            for letter, cmap in zip(letters, boundary.classes)]
    # the first position is the least significant digit, so it varies fastest
    costs = [0 if all(flags) else w for flags in itertools.product(*reversed(fits))]
    return DPTable(boundary, costs)


def _first_child_at(parent: ArcBoundary, b1: ArcBoundary, b2: ArcBoundary, v: int) -> int:
    """Which child's inside-dart run starts the parent run at v (1 or 2).

    The two child runs tile the parent run; clockwise from the outside
    gap, the child owning the parent run's first dart comes first."""
    s3 = parent.runs[v][0]
    if b1.runs[v][0] == s3:
        return 1
    if b2.runs[v][0] == s3:
        return 2
    raise DecompositionError(f"child runs at vertex {v} do not tile the parent run")


def _join_split(parent: ArcBoundary, p3: dict[int, _Place],
                t1: DPTable, t2: DPTable) -> JoinSplit:
    b1, b2 = t1.boundary, t2.boundary
    if b1.inside_count + b2.inside_count != parent.inside_count:
        raise DecompositionError("child arcs must partition the parent inside")
    p1, p2 = t1.places, t2.places
    shared = sorted(p1.keys() & p2.keys())
    if not (p3.keys() <= p1.keys() | p2.keys()
            and p1.keys() - shared <= p3.keys() and p2.keys() - shared <= p3.keys()):
        raise DecompositionError("arc middle sets are inconsistent")
    owned = tuple((p3[v], p1.get(v, _ABSENT), p2.get(v, _ABSENT))
                  for v in parent.mid if not (v in p1 and v in p2))
    interior = tuple((p1[v], p2[v]) for v in shared if v not in p3)
    targets = tuple((p3[v], p1[v], p2[v], _first_child_at(parent, b1, b2, v))
                    for v in shared if v in p3)
    return JoinSplit(owned, interior, targets)


def join_tables(parent: ArcBoundary, t1: DPTable, t2: DPTable) -> DPTable:
    """Combine two child tables into the parent arc's table.

    Constraints per vertex: present in only one child, its configuration
    is forced to the parent's; shared by both children and on the parent
    middle set, the two child configurations taken in clockwise run order
    must be compatible with respect to the parent's; shared by both
    children but interior to the parent, they must be plain compatible,
    which certifies the vertex's cyclic bimodality once it disappears
    from all middle sets.

    Each of these valid pair sets is a down-set in the product substring
    order, and child tables are monotone in the finer class orders (a
    class above another never costs more), so only the class pairs
    maximal in the product of the children's class orders are tried (see
    the module docstring): at most 6 per interior shared vertex and at
    most 3 per shared vertex on the parent middle set, fewer when a
    child's run has fewer classes.  Each parent class stands for its
    representative configuration.  The forced positions are enumerated
    once per join as three flat lists of parent, child 1 and child 2 index
    offsets, the representative mapped through each child's class map;
    entries are grouped by the parent classes at the shared vertices, and
    every entry of a group tries the same child class pairs.  A group with
    a single pair is a straight sum.  The table keeps its ``JoinSplit``,
    from which ``solve_dp`` recomputes the pair behind an entry."""
    places = _places(parent)
    split = _join_split(parent, places, t1, t2)
    f3, f1, f2 = [0], [0], [0]
    for (_w3, k3, m3), (_w1, k1, m1), (_w2, k2, m2) in split.owned:
        reps = _REPS[m3]
        f3 = [o + k * k3 for o in f3 for k in range(len(reps))]
        f1 = [o + m1[r] * k1 for o in f1 for r in reps]
        f2 = [o + m2[r] * k2 for o in f2 for r in reps]

    combos = [(0, 0)]
    for (_w1, k1, m1), (_w2, k2, m2) in split.interior:
        combos = _extend(combos, k1, k2, _INTERIOR_CLASS_PAIRS[m1, m2])
    groups = [(0, combos)]
    size = len(f3)
    for (_w3, k3, m3), (_w1, k1, m1), (_w2, k2, m2), first in split.targets:
        by_target = _TARGET_CLASS_PAIRS[first][m1, m2]
        reps = _REPS[m3]
        groups = [(index + k * k3, _extend(combos, k1, k2, by_target[r]))
                  for index, combos in groups for k, r in enumerate(reps)]
        size *= len(reps)

    c1, c2 = t1.costs, t2.costs
    costs = [0] * size
    for index, combos in groups:
        (e1, e2), rest = combos[0], combos[1:]
        if not rest:
            for o3, o1, o2 in zip(f3, f1, f2):
                costs[index + o3] = c1[o1 + e1] + c2[o2 + e2]
            continue
        for o3, o1, o2 in zip(f3, f1, f2):
            best = c1[o1 + e1] + c2[o2 + e2]
            for d1, d2 in rest:
                total = c1[o1 + d1] + c2[o2 + d2]
                if total < best:
                    best = total
            costs[index + o3] = best
    return DPTable(parent, costs, split, places)


def _chosen_pair(table: DPTable, t1: DPTable, t2: DPTable, code: int) -> tuple[int, int]:
    """The pair of child configuration codes behind parent configuration
    code ``code``: the first of its candidate pairs, in the order of a
    configuration-indexed join, of least total cost."""
    c1, c2 = t1.costs, t2.costs
    index, pairs = table.split.pairs_of(code)
    totals = [c1[i1] + c2[i2] for _o1, _o2, i1, i2 in pairs]
    best = min(totals)
    if best != table.costs[index]:
        raise DecompositionError("reconstruction disagrees with the table entry")
    code1, code2, _i1, _i2 = pairs[totals.index(best)]
    return code1, code2


def solve_dp(instance: Instance, dec: SphereCutDecomposition,
             root_leaf: Optional[int] = None) -> Solution:
    """Exact optimum via bottom-up tables over a validated decomposition.

    An arbitrary mapped leaf is the root (lowest node id by default; the
    optimum is invariant under the choice).  With the root edge deleted,
    any boundary assignment of the root-adjacent arc serves; with it kept,
    the assignment is pinned to ioi at the root edge's head and oio at its
    tail, which the single outside dart then completes to a bimodal
    pattern.  Going down from the chosen root entry, each internal node
    recomputes the child pair behind its one chosen entry, and each leaf
    whether its edge is kept there.  The reconstructed subgraph is
    re-verified before returning.

    The tree is validated here unless ``build_sphere_cut`` validated it
    for this very graph object and the root is its report's: then the
    report's rooted view is reused.  A decoded tree, another root or
    another graph object, even an equal one, is validated in full.  On a
    graph of one edge, a valid tree (the degenerate two-node one) gives
    the solution keeping that edge."""
    g = instance.graph
    if not g.is_connected():
        raise DecompositionError("solve_dp expects a connected graph")
    rooted = dec.report.rooted if dec.report is not None else None
    if rooted is None or rooted.graph is not g or root_leaf not in (None, rooted.root_leaf):
        report = validate_decomposition(g, dec, root_leaf)
        if not report.ok:
            raise DecompositionError("invalid decomposition: " + "; ".join(report.violations))
        rooted = report.rooted
    if rooted is None:
        # a valid tree over fewer than two edges has no arc to tabulate, and
        # a lone edge is bimodal: it is kept
        return make_solution(instance, range(g.edge_count), "dp")
    int_w, scale, _total = instance.int_weights

    tables: dict[int, DPTable] = {}
    for node in rooted.post_order:
        boundary = rooted.boundaries[node]
        kids = rooted.children[node]
        if not kids:
            tables[node] = leaf_table(instance, boundary, dec.leaf_map[node])
        else:
            a, b = kids
            tables[node] = join_tables(boundary, tables[a], tables[b])

    top = rooted.children[rooted.root_leaf][0]
    ttop = tables[top]
    e_r = dec.leaf_map[rooted.root_leaf]
    tail_r, head_r = g.edges[e_r]

    delete_cost = min(ttop.costs)
    delete_code = _first_code(ttop, ttop.costs.index(delete_cost))
    delete_cost += int_w[e_r]

    pinned = {head_r: CONFIG_INDEX["ioi"], tail_r: CONFIG_INDEX["oio"]}
    keep_code = sum(pinned[v] * 6 ** k for k, v in enumerate(ttop.boundary.mid))
    keep_cost = ttop.cost(keep_code)

    if keep_cost <= delete_cost:
        root_cost, root_code, root_deletes = keep_cost, keep_code, set()
    else:
        root_cost, root_code, root_deletes = delete_cost, delete_code, {e_r}

    deleted = set(root_deletes)
    stack = [(top, root_code)]
    while stack:
        node, code = stack.pop()
        kids = rooted.children[node]
        if kids:
            a, b = kids
            code1, code2 = _chosen_pair(tables[node], tables[a], tables[b], code)
            stack.append((a, code1))
            stack.append((b, code2))
        else:
            e = dec.leaf_map[node]
            if not _keeps(_leaf_letters(instance, tables[node].boundary, e), code):
                deleted.add(e)
    kept = set(range(g.edge_count)) - deleted
    solution = make_solution(instance, kept, "dp")
    if solution.deleted_weight != Fraction(root_cost, scale):
        raise DecompositionError(
            "reconstructed deletion weight disagrees with the table optimum")
    return solution

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
class have equal entries, and a table stores one entry per vector of
tabulated classes: the digit of a position counts the classes tabulated
there, in mixed radix with the first position least significant.  A
configuration code (index times 6**k at position k) is read through the
class maps; ``DPTable.cost`` does that.

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

A table holds only the classes that an ancestor can read: its *demand*,
a bitmask of classes per middle-set position, computed top-down before
any table is built.  The root reads the arc below it in two ways: the
minimum over all entries, which by monotonicity is a minimum over the
entries whose positions all sit on classes maximal in their order, and
the keep entry, ioi at the root edge's head and oio at its tail, which
fall on maximal classes under every map (checked when the module loads).
So the top arc demands each position's maximal classes.  Below a join,
the join reads exactly this of its children: at an owned position, the
child class of each demanded parent class's representative; at a shared
vertex interior to the parent, the classes of ``_INTERIOR_CLASS_PAIRS``;
at a shared vertex on the parent middle set, the classes of
``_TARGET_CLASS_PAIRS`` over the demanded parent classes'
representatives.  The walk runs once per rooted view, which keeps its
result (``rooted.demand``), so the builder's ranking and the solve share
it.  The walk and the join read each join's ``JoinSplit`` from the
validator's rooted view, and the join turns it into a plan: the child
index offsets it reads per owned, interior and target vertex.  A table
of every class is the one whose demand holds every class.

Reconstruction stays in class space and reads what the tables kept.  The
root takes the keep entry when it costs no more than deleting the root
edge, else the first minimum of the top table.  On the way down, each
internal node takes the first offset pair of its join's plan, in the
order the join tried them, whose child entries sum to its entry, and
each leaf keeps its edge when its table's flag at the entry says so: the
letters of its darts fit the representatives of the entry's classes.
Where optima tie, the kept set is the one these first choices give; its
weight is the optimum.

Flat arcs are tabulated in one pass, not joined.  A *hub* is a vertex of
degree above one; a *pendant* is an edge with an end of degree one, and
the normal form makes most edges pendants.  An arc is *flat* when its
inside holds two or more edges and at most one hub-to-hub edge, the
*coupled* edge; ``build_sphere_cut``'s lift makes each skeleton edge
with its pendant runs such an arc.  One pass is exact because a
pendant's far end has degree one, so it is never on a middle set and is
always bimodal, and because hubs interact only through the coupled edge.
An entry is therefore the coupled edge's weight if it is deleted, plus,
for each hub the arc touches, the cheapest deletion of its inside darts
whose kept pattern realizes the representative of the entry's class
there, minimized over keeping or deleting the coupled edge.  That
cheapest deletion is one left-to-right pass over the hub's run with
seven states, the collapsed kept pattern so far ("" i o io oi ioi oio;
a longer pattern realizes no configuration).  A hub with every dart
inside, necessarily an end of the coupled edge, is *full*: it must be
bimodal, which holds iff its kept pattern read from any cut collapses to
length at most 3, so it pays the least final state of the same pass over
its whole rotation, read from position 0.  The validator's rooted view
finds the flat joins (``rooted.flat``) and keeps no boundary below one.
``solve_dp`` tabulates each maximal flat arc so (``flat_table``) and
builds no table below it; the demand walk stops there.  Reconstruction
repeats the entry's passes and reads the choice off them: the coupled
edge is kept when keeping it costs the entry, each hub ends in the first
state, in the order above, that costs its share, and going back over the
run a dart is kept when keeping it reproduces the cost, from the first
such state.  An arc of one edge keeps its ``leaf_table``.  A graph with
fewer than two pendants is joined throughout: its one flat arc, if any,
holds two edges, and finding it costs about what its pass saves over the
join (on the benchmark's corpus-dp pool, 8 of whose 35 graphs have one
pendant).  A whole component with at most one hub-to-hub edge is a flat
arc with an empty middle set and full hubs only, so
``flat_component_deleted`` solves it by the passes, with no tree and no
table, for ``kernel.solve_components`` and ``oracle.star_solve``.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .configs import (CLASS_MAPS, CLASS_ORDERS, CONFIG_INDEX, CONFIGS, collapse,
                      compatible, compatible_wrt)
from .decomposition import ArcBoundary, JoinSplit, SphereCutDecomposition, validate_decomposition
from .errors import DecompositionError
from .plane import Instance, PlaneDigraph, Solution, make_solution

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
    half the lists are read off their mirror images."""

    def classes(pairs, m1, m2):
        found = dict.fromkeys((m1[x1], m2[x2]) for x1, x2 in pairs)
        return tuple(_maximal(found, CLASS_ORDERS[m1], CLASS_ORDERS[m2]))

    def mirror(found):
        return tuple((c2, c1) for c1, c2 in found)

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


# class map -> bitmask of its classes maximal in ``CLASS_ORDERS``, what the
# root reads of the top arc
_MAXIMAL = {cmap: sum(1 << a for a, row in enumerate(le)
                      if not any(row[b] for b in range(len(le)) if b != a))
            for cmap, le in CLASS_ORDERS.items()}
# the root's keep entry pins ioi and oio, so they must fall on classes that
# the top arc's demand holds
assert all(_MAXIMAL[cmap] >> cmap[CONFIG_INDEX[c]] & 1 for cmap in _REPS for c in ("ioi", "oio"))


# The states of a flat arc's pass, in tie-break order: a hub's collapsed
# kept pattern so far.  Per configuration index, the states that realize
# it (at least two: "" and a letter), and a getter of those; the states a
# full hub may end in, all of them; per dart end (0 a tail, o; 1 a head,
# i) and state, the states that keeping a dart of that end leads there
# from, in state order.
_STATES = ("", "i", "o", "io", "oi", "ioi", "oio")
_FITS = tuple(tuple(k for k, p in enumerate(_STATES) if p in c) for c in CONFIGS)
_ANY = range(len(_STATES))
_BEFORE = tuple(tuple(tuple(k for k, p in enumerate(_STATES) if collapse(p + letter) == q)
                      for q in _STATES) for letter in "oi")
_FIT_STATES = tuple(operator.itemgetter(*fits) for fits in _FITS)
_INF = float("inf")


# Class bitmasks: what a table holds at a position (``_tabulated``) and
# what a join reads of its children (``_*_reads``), per class maps and
# parent bitmask; each domain is a few hundred keys, so the caches stay
# small.

@functools.cache
def _tabulated(cmap: tuple[int, ...], mask: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The representatives of the classes in ``mask``, in class order, and
    per class its digit among them (-1 when absent)."""
    reps = _REPS[cmap]
    return (tuple(r for c, r in enumerate(reps) if mask >> c & 1),
            tuple((mask & ((1 << c) - 1)).bit_count() if mask >> c & 1 else -1
                  for c in range(len(reps))))


def _union(masks) -> int:
    found = 0
    for mask in masks:
        found |= mask
    return found


@functools.cache
def _owned_reads(cmap: tuple[int, ...], mask: int, child: tuple[int, ...]) -> int:
    """The classes of an owned position's child map that the join reads:
    those of the parent classes' representatives."""
    return _union(1 << child[r] for r in _tabulated(cmap, mask)[0])


@functools.cache
def _interior_reads(m1: tuple[int, ...], m2: tuple[int, ...]) -> tuple[int, int]:
    """The (child 1, child 2) classes that an interior pair list reads."""
    pairs = _INTERIOR_CLASS_PAIRS[m1, m2]
    return _union(1 << c1 for c1, _c2 in pairs), _union(1 << c2 for _c1, c2 in pairs)


@functools.cache
def _target_reads(cmap: tuple[int, ...], mask: int, first: int,
                  m1: tuple[int, ...], m2: tuple[int, ...]) -> tuple[int, int]:
    """The (child 1, child 2) classes that the target pair lists of the
    parent classes' representatives read."""
    lists = _TARGET_CLASS_PAIRS[first][m1, m2]
    pairs = [pair for r in _tabulated(cmap, mask)[0] for pair in lists[r]]
    return _union(1 << c1 for c1, _c2 in pairs), _union(1 << c2 for _c1, c2 in pairs)


# A table's place for a vertex: (index weight, class map, the
# representatives of its tabulated classes, class -> digit); a table
# without the vertex has weight 0 and reads digit 0.
_Place = tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]]
_ABSENT: _Place = (0, (0,) * 6, (0,), (0,))


# A join's plan: per owned vertex (index weight, per parent digit the
# child offset pair), per interior vertex its offset pairs, per target
# vertex (index weight, per parent digit its offset pairs); an offset is
# a child digit times its index weight.
_Pairs = list[tuple[int, int]]
_Plan = tuple[list[tuple[int, _Pairs]], list[_Pairs], list[tuple[int, list[_Pairs]]]]


# A flat table's plan: the arc's coupled edge, or -1 when it holds no
# hub-to-hub edge, and each hub it touches with its inside darts, in the
# order of ``_flat_hubs``.
_FlatPlan = tuple[int, list[tuple[int, list[int]]]]


def _extend(combos: _Pairs, pairs: _Pairs) -> _Pairs:
    return [(d1 + c1, d2 + c2) for d1, d2 in combos for c1, c2 in pairs]


def _places(boundary: ArcBoundary, demand: tuple[int, ...]) -> dict[int, _Place]:
    """Each middle-set vertex's place in the boundary's table, in ``mid``
    order: its demanded classes."""
    places = {}
    weight = 1
    for v, cmap, mask in zip(boundary.mid, boundary.classes, demand):
        reps, digits = _tabulated(cmap, mask)
        places[v] = (weight, cmap, reps, digits)
        weight *= len(reps)
    return places


@dataclass
class DPTable:
    """Per-arc table: one entry per vector of tabulated configuration
    classes on the middle set.

    ``demand`` holds, per position of ``boundary.mid``, the bitmask of the
    classes tabulated there (``boundary.classes`` holds the maps).  The
    vertex at position k contributes the digit of its class among its
    tabulated classes times the product of the tabulated counts of
    positions 0..k-1.  ``costs`` holds the minimum scaled deleted weight
    of each entry; every entry is feasible.  Read an entry by
    configuration code, index times 6**k at position k, with ``cost``.
    ``places`` holds each vertex's place, what a join reads.  No
    back-pointers are stored.  A join table keeps its ``plan``, from
    which reconstruction recomputes the pair of child entries behind one
    entry; a leaf table keeps, per entry, whether it keeps the edge; a
    flat table keeps its plan (``_FlatPlan``), from which reconstruction
    repeats the entry's passes, and, when its arc holds a hub-to-hub
    edge, whether each entry keeps that edge."""
    boundary: ArcBoundary
    costs: list[int]
    demand: tuple[int, ...]
    places: dict[int, _Place] = field(repr=False)
    plan: Optional[_Plan | _FlatPlan] = field(default=None, repr=False)
    keeps: Optional[list[bool]] = field(default=None, repr=False)

    def index(self, code: int) -> int:
        """The index of configuration code ``code``; KeyError when one of
        its classes is not tabulated."""
        index = 0
        for weight, cmap, _reps, digits in self.places.values():
            digit = digits[cmap[code % 6]]
            if digit < 0:
                raise KeyError(f"configuration code {code} reads an untabulated class")
            index += digit * weight
            code //= 6
        return index

    def cost(self, code: int) -> int:
        """The entry of configuration code ``code``."""
        return self.costs[self.index(code)]


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


def leaf_table(instance: Instance, boundary: ArcBoundary, e: int,
               demand: tuple[int, ...]) -> DPTable:
    """Table for the arc of the leaf mapped to edge ``e``, holding the
    classes of ``demand``.

    Keeping the edge realizes an assignment iff each middle-set endpoint's
    configuration contains the letter of the edge's dart there (o at the
    tail, i at the head); deleting it realizes everything at cost w(e),
    read from the instance's ``int_weights``.  Each endpoint's run is that
    one dart, so it has two classes, and the letter is tested against the
    representatives of the tabulated ones: at most 2**|mid| entries.
    Every entry is feasible; ``keeps`` holds each entry's verdict."""
    letters = _leaf_letters(instance, boundary, e)
    w = instance.int_weights.values[e]
    places = _places(boundary, demand)
    fits = [[letter in CONFIGS[r] for r in reps]
            for letter, (_weight, _cmap, reps, _digits) in zip(letters, places.values())]
    # the first position is the least significant digit, so it varies fastest
    keeps = [all(flags) for flags in itertools.product(*reversed(fits))]
    return DPTable(boundary, [0 if keep else w for keep in keeps], demand, places, None, keeps)


def join_tables(parent: ArcBoundary, t1: DPTable, t2: DPTable,
                demand: tuple[int, ...], split: JoinSplit) -> DPTable:
    """Combine two child tables into the parent arc's table of the classes
    of ``demand``; ``split`` is the join's, from the rooted view.

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
    child's run has fewer classes.  Each parent class tabulated under
    ``demand`` stands for its representative configuration; the children
    must tabulate every class the join reads, which ``solve_dp``'s demand
    walk ensures.  The join builds its plan (``_Plan``), the child
    offsets it reads, vertex by vertex, and the table keeps it for
    reconstruction.  The owned offsets give three flat lists of parent,
    child 1 and child 2 index offsets; entries are grouped by the parent
    classes at the targets, and every entry of a group tries the same
    offset pairs, the interior pairs times the target pairs.  A group
    with a single pair is a straight sum."""
    if t1.boundary.inside_count + t2.boundary.inside_count != parent.inside_count:
        raise DecompositionError("child arcs must partition the parent inside")
    places = _places(parent, demand)
    p1, p2 = t1.places, t2.places
    owned, interior, targets = plan = [], [], []
    f3, f1, f2 = [0], [0], [0]
    for v in split.owned:
        k3, _m3, reps, _d3 = places[v]
        k1, m1, _r1, d1 = p1.get(v, _ABSENT)
        k2, m2, _r2, d2 = p2.get(v, _ABSENT)
        offsets = [(d1[m1[r]] * k1, d2[m2[r]] * k2) for r in reps]
        owned.append((k3, offsets))
        f3 = [o + j * k3 for o in f3 for j in range(len(reps))]
        f1 = [o + o1 for o in f1 for o1, _o2 in offsets]
        f2 = [o + o2 for o in f2 for _o1, o2 in offsets]

    combos = [(0, 0)]
    for v in split.interior:
        k1, m1, _r1, d1 = p1[v]
        k2, m2, _r2, d2 = p2[v]
        pairs = [(d1[c1] * k1, d2[c2] * k2) for c1, c2 in _INTERIOR_CLASS_PAIRS[m1, m2]]
        interior.append(pairs)
        combos = _extend(combos, pairs)
    groups = [(0, combos)]
    for v, first in split.targets:
        k3, _m3, reps, _d3 = places[v]
        k1, m1, _r1, d1 = p1[v]
        k2, m2, _r2, d2 = p2[v]
        by_target = _TARGET_CLASS_PAIRS[first][m1, m2]
        lists = [[(d1[c1] * k1, d2[c2] * k2) for c1, c2 in by_target[r]] for r in reps]
        targets.append((k3, lists))
        groups = [(index + j * k3, _extend(combos, pairs))
                  for index, combos in groups for j, pairs in enumerate(lists)]

    c1, c2 = t1.costs, t2.costs
    costs = [0] * (len(f3) * len(groups))
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
    return DPTable(parent, costs, demand, places, plan)


def _chosen_pair(table: DPTable, t1: DPTable, t2: DPTable, index: int) -> tuple[int, int]:
    """The child entries behind entry ``index`` of a join table, read off
    the join's plan: the first offset pair, in the order the join tries
    them, whose child entries sum to the entry.  The owned offsets at the
    entry's digits are fixed; interior vertices' pairs vary slowest, then
    the targets' pairs at the entry's digits, in id order."""
    owned, interior, targets = table.plan
    combos = [(0, 0)]
    for weight, offsets in owned:
        combos = _extend(combos, [offsets[index // weight % len(offsets)]])
    for pairs in interior:
        combos = _extend(combos, pairs)
    for weight, lists in targets:
        combos = _extend(combos, lists[index // weight % len(lists)])
    c1, c2, want = t1.costs, t2.costs, table.costs[index]
    for i1, i2 in combos:
        if c1[i1] + c2[i2] == want:
            return i1, i2
    raise DecompositionError("reconstruction disagrees with the table entry")


def _flat_hubs(graph: PlaneDigraph, boundary: ArcBoundary,
               coupled: int) -> list[tuple[int, list[int]]]:
    """Each hub that a flat arc touches, with its inside darts in rotation
    order: the full ends of the coupled edge, each with its whole
    rotation, then the middle-set vertices in ``mid`` order, each with its
    run.  A full hub has all its hub-to-hub edges inside, so at most one,
    and it has one: in a connected graph only a star's center has none,
    and the root leaf's edge keeps a star's center on every middle set
    (``kernel.solve_components`` solves stars without ``solve_dp``)."""
    hubs = []
    if coupled >= 0:
        hubs += [(v, graph.rotation[v]) for v in graph.edges[coupled] if v not in boundary.runs]
    for v in boundary.mid:
        start, length = boundary.runs[v]
        row = graph.rotation[v]
        end = start + length
        hubs.append((v, row[start:end] if end <= len(row) else row[start:] + row[:end - len(row)]))
    return hubs


def _pass(darts, int_w, coupled: int, keep: bool, trail: Optional[list] = None) -> tuple:
    """The pass over one hub's darts: per state, the least weight of the
    deleted darts whose kept darts collapse to the state (infinite when
    none do); ``trail``, when given, gets these states before each dart
    and after the last.  The coupled edge's dart is kept when ``keep``
    and deleted at no cost otherwise: its weight is counted once, by the
    arc.  Weights are nonnegative, so keeping a dart of the pattern's
    last letter is never worse than deleting it."""
    e, i, o, io, oi, ioi, oio = 0, _INF, _INF, _INF, _INF, _INF, _INF
    for d in darts:
        if trail is not None:
            trail.append((e, i, o, io, oi, ioi, oio))
        x = d >> 1
        if x != coupled:
            w = int_w[x]
            if d & 1:
                e, i, o, io, oi, ioi, oio = (e + w, e if e < i else i, o + w, io + w,
                                             o if o < oi else oi, io if io < ioi else ioi,
                                             oio + w)
            else:
                e, i, o, io, oi, ioi, oio = (e + w, i + w, e if e < o else o,
                                             i if i < io else io, oi + w, ioi + w,
                                             oi if oi < oio else oio)
        elif keep:
            if d & 1:
                e, i, o, io, oi, ioi, oio = (_INF, e if e < i else i, _INF, _INF,
                                             o if o < oi else oi, io if io < ioi else ioi, _INF)
            else:
                e, i, o, io, oi, ioi, oio = (_INF, _INF, e if e < o else o,
                                             i if i < io else io, _INF, _INF,
                                             oi if oi < oio else oio)
    final = (e, i, o, io, oi, ioi, oio)
    if trail is not None:
        trail.append(final)
    return final


def flat_table(instance: Instance, boundary: ArcBoundary, coupled: int,
               demand: tuple[int, ...]) -> DPTable:
    """Table of a flat arc, holding the classes of ``demand``, in one pass
    per touched hub and per fate of ``coupled``, the arc's one hub-to-hub
    edge (-1 when it holds none); see the module docstring.  Per fate, a
    full hub adds its least final state to every entry, and a middle-set
    hub, per tabulated class, the least final state of its pass that
    realizes the class's representative; an entry is the lesser of the
    two fates' sums, and ``keeps`` holds, per entry, whether keeping the
    coupled edge costs no more."""
    int_w = instance.int_weights.values
    places = _places(boundary, demand)
    hubs = _flat_hubs(instance.graph, boundary, coupled)
    fates = []
    for keep in ((True, False) if coupled >= 0 else (False,)):
        costs = [int_w[coupled] if coupled >= 0 and not keep else 0]
        for v, darts in hubs:
            final = _pass(darts, int_w, coupled, keep)
            place = places.get(v)
            if place is None:
                costs[0] += min(final)      # full hubs come first, while one sum is open
            else:
                # the first position is the least significant digit
                costs = [c + min(_FIT_STATES[r](final)) for r in place[2] for c in costs]
        fates.append(costs)
    plan = (coupled, hubs)
    if coupled < 0:
        return DPTable(boundary, fates[0], demand, places, plan)
    kept, dropped = fates
    return DPTable(boundary, list(map(min, kept, dropped)), demand, places, plan,
                   list(map(operator.le, kept, dropped)))


def _hub_deleted(darts, int_w, coupled: int, keep: bool, fits) -> tuple[int, list[int]]:
    """The backtrack over one hub's pass (see the module docstring): the
    least final cost over the states ``fits``, and the edges of the darts
    it deletes; a deleted coupled edge's dart is passed over."""
    trail: list[tuple] = []
    final = _pass(darts, int_w, coupled, keep, trail)
    state = min(fits, key=final.__getitem__)
    least, deleted = final[state], []
    for j in range(len(darts) - 1, -1, -1):
        d = darts[j]
        if d >> 1 == coupled and not keep:
            continue
        cost, before = trail[j + 1][state], trail[j]
        for k in _BEFORE[d & 1][state]:
            if before[k] == cost:
                state = k
                break
        else:
            deleted.append(d >> 1)
    return least, deleted


def _flat_deleted(instance: Instance, table: DPTable, index: int) -> list[int]:
    """The edges that entry ``index`` of a flat table deletes: the coupled
    edge unless the entry keeps it, and per hub the darts that the
    backtrack over its pass deletes (see the module docstring)."""
    int_w = instance.int_weights.values
    coupled, hubs = table.plan
    keep = coupled >= 0 and table.keeps[index]
    deleted = [coupled] if coupled >= 0 and not keep else []
    total = int_w[coupled] if deleted else 0
    for v, darts in hubs:
        place = table.places.get(v)
        fits = _FITS[place[2][index // place[0] % len(place[2])]] if place is not None else _ANY
        cost, dropped = _hub_deleted(darts, int_w, coupled, keep, fits)
        total += cost
        deleted += dropped
    if total != table.costs[index]:
        raise DecompositionError("reconstruction disagrees with the table entry")
    return deleted


def flat_component_deleted(rotation, int_w, hubs, coupled: int) -> list[int]:
    """The edges that an optimum deletes from a connected component with
    hubs ``hubs`` and at most one hub-to-hub edge, ``coupled`` (-1 for
    none), read off the graph's ``rotation`` and ``int_w``.  Every hub is
    full: per fate of the coupled edge each hub pays its least final
    state, the cheaper fate wins (keeping the edge on a tie), and each hub
    is backtracked.  With no hub, a lone edge, nothing is deleted."""
    keep = True
    if coupled >= 0:
        kept, dropped = (sum([min(_pass(rotation[v], int_w, coupled, fate)) for v in hubs])
                         for fate in (True, False))
        keep = kept <= dropped + int_w[coupled]
    deleted = [] if keep else [coupled]
    for v in hubs:
        deleted += _hub_deleted(rotation[v], int_w, coupled, keep, _ANY)[1]
    return deleted


def _demand(rooted) -> dict[int, tuple[int, ...]]:
    """The view's demand, walked on first use and kept as ``rooted.demand``."""
    if rooted.demand is None:
        rooted.demand = _demand_walk(rooted)
    return rooted.demand


def _demand_walk(rooted) -> dict[int, tuple[int, ...]]:
    """Each tabulated arc's demand, top-down from the arc below the root
    leaf (see the module docstring), read off a validated rooted view's
    boundaries and splits.  The walk gives demand to the children of the
    joins that are not flat, so it stops at the maximal flat arcs."""
    bounds, flat = rooted.boundaries, rooted.flat
    top = rooted.children[rooted.root_leaf][0]
    demand = {top: tuple(_MAXIMAL[cmap] for cmap in bounds[top].classes)}
    # the boundaries are stored in post order, so reversed each parent
    # comes before its children
    for node in reversed(bounds):
        kids = rooted.children[node]
        if not kids or node in flat:
            continue
        a, b = kids
        parent, b1, b2, split = bounds[node], bounds[a], bounds[b], rooted.splits[node]
        mid3, maps3, want3 = parent.mid, parent.classes, demand[node]
        mid1, maps1, mid2, maps2 = b1.mid, b1.classes, b2.mid, b2.classes
        want1, want2 = [0] * len(mid1), [0] * len(mid2)
        for v in split.owned:
            k = mid3.index(v)
            if v in b1.runs:
                j = mid1.index(v)
                want1[j] = _owned_reads(maps3[k], want3[k], maps1[j])
            else:
                j = mid2.index(v)
                want2[j] = _owned_reads(maps3[k], want3[k], maps2[j])
        for v in split.interior:
            j1, j2 = mid1.index(v), mid2.index(v)
            want1[j1], want2[j2] = _interior_reads(maps1[j1], maps2[j2])
        for v, first in split.targets:
            k, j1, j2 = mid3.index(v), mid1.index(v), mid2.index(v)
            want1[j1], want2[j2] = _target_reads(maps3[k], want3[k], first,
                                                 maps1[j1], maps2[j2])
        demand[a], demand[b] = tuple(want1), tuple(want2)
    return demand


def solve_dp(instance: Instance, dec: SphereCutDecomposition,
             root_leaf: Optional[int] = None) -> Solution:
    """Exact optimum via bottom-up tables over a validated decomposition.

    An arbitrary mapped leaf is the root (lowest node id by default; the
    optimum is invariant under the choice).  With the root edge deleted,
    any boundary assignment of the root-adjacent arc serves; with it kept,
    the assignment is pinned to ioi at the root edge's head and oio at its
    tail, which the single outside dart then completes to a bimodal
    pattern.  A walk down the tree first fixes the classes each table
    must hold, stopping at the maximal flat arcs (once per view, see
    ``_demand``); then the tables are built bottom-up over the view's
    boundaries, each maximal flat arc in one pass and nothing below
    it.  Going down from the chosen root entry, each internal node reads
    the child entries behind its one chosen entry off its join's plan,
    each leaf reads whether its edge is kept there off its flags, and
    each flat arc repeats its passes.  The reconstructed subgraph is
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

    flat, demand = rooted.flat, _demand(rooted)
    tables: dict[int, DPTable] = {}
    for node, boundary in rooted.boundaries.items():
        kids = rooted.children[node]
        if node in flat:
            tables[node] = flat_table(instance, boundary, flat[node], demand[node])
        elif not kids:
            tables[node] = leaf_table(instance, boundary, dec.leaf_map[node], demand[node])
        else:
            a, b = kids
            tables[node] = join_tables(boundary, tables[a], tables[b], demand[node],
                                       rooted.splits[node])

    top = rooted.children[rooted.root_leaf][0]
    ttop = tables[top]
    e_r = dec.leaf_map[rooted.root_leaf]
    tail_r, head_r = g.edges[e_r]
    pinned = {head_r: CONFIG_INDEX["ioi"], tail_r: CONFIG_INDEX["oio"]}
    keep_index = ttop.index(sum(pinned[v] * 6 ** k for k, v in enumerate(ttop.boundary.mid)))
    keep_cost = ttop.costs[keep_index]
    delete_cost = min(ttop.costs)
    if keep_cost <= delete_cost + int_w[e_r]:
        root_cost, root_index, deleted = keep_cost, keep_index, set()
    else:
        root_cost, root_index, deleted = (delete_cost + int_w[e_r],
                                          ttop.costs.index(delete_cost), {e_r})

    stack = [(top, root_index)]
    while stack:
        node, index = stack.pop()
        kids = rooted.children[node]
        if not kids:
            if not tables[node].keeps[index]:
                deleted.add(dec.leaf_map[node])
        elif node in flat:
            deleted.update(_flat_deleted(instance, tables[node], index))
        else:
            a, b = kids
            i1, i2 = _chosen_pair(tables[node], tables[a], tables[b], index)
            stack.append((a, i1))
            stack.append((b, i2))
    kept = set(range(g.edge_count)) - deleted
    solution = make_solution(instance, kept, "dp")
    if solution.deleted_weight != Fraction(root_cost, scale):
        raise DecompositionError(
            "reconstructed deletion weight disagrees with the table optimum")
    return solution

"""Configuration algebra and the exact bottom-up solver.

A configuration describes, for one vertex on a noose, the clockwise
pattern of in- and out-edge blocks inside the noose; the six possible
patterns are the strings i, o, io, oi, oio, ioi.  Two facts drive the
solver: a vertex whose inside pattern collapses to a substring of the
assigned configuration realizes it (empty blocks are allowed), and two
configurations merge into a bimodal vertex exactly when their
concatenation collapses to a substring of oio or ioi.

The solver walks a validated decomposition bottom-up.  Each arc gets a
table mapping every assignment of configurations to the arc's middle set
to the minimum weight of edges deleted strictly inside the arc.  Weights
are handled as exact integers after rescaling by the common denominator.

Every entry is feasible.  A leaf entry is: deleting the edge realizes any
assignment.  A parent entry combines, at each shared vertex, a pair of
child configurations from a list that is never empty (checked when the
module loads), and every child entry is feasible by induction, so it has
at least one candidate pair.  Tables therefore hold costs only: no
infeasible marker and no back-pointers.  On the way down, the solver
decodes the one chosen entry of each internal node and recomputes its
argmin over that entry's pairs, in the join's own order.

The join tries only the maximal pairs of child configurations.  Order the
configurations by substring (i and o below io and oi, which lie below
oio and ioi).  Every set of valid child-configuration pairs at a shared
vertex, plain compatible or compatible with respect to a parent
configuration, is a down-set in the product of that order.  Tables are
monotone in it: a pattern realizing a configuration realizes every
superstring, so raising one coordinate never raises an entry's cost.
Hence a valid pair is dominated by a maximal valid pair that costs no
more, and the minimum over the maximal pairs is the minimum over all
valid pairs.  The pair lists are derived from the compatibility tables
when the module loads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .decomposition import ArcBoundary, SphereCutDecomposition, validate_decomposition
from .errors import DecompositionError
from .oracle import scaled_int_weights
from .plane import Instance, Solution, make_solution

CONFIGS = ("i", "o", "io", "oi", "oio", "ioi")
CONFIG_INDEX = {c: k for k, c in enumerate(CONFIGS)}


def collapse(letters: str) -> str:
    out = []
    for ch in letters:
        if not out or out[-1] != ch:
            out.append(ch)
    return "".join(out)


def compatible(x: str, y: str) -> bool:
    """Whether two configurations merge into a bimodal cyclic pattern:
    their concatenation, collapsed, is a substring of oio or ioi.  The
    concatenation order does not matter."""
    merged = collapse(x + y)
    return merged in "oio" or merged in "ioi"


def compatible_wrt(x: str, y: str, target: str) -> bool:
    """Whether x followed by y (order matters) collapses to a substring of
    the target configuration."""
    return collapse(x + y) in target


def realizes(pattern: str, config: str) -> bool:
    """Whether a dart direction sequence fits a configuration, i.e. its
    collapse is a substring of the configuration (empty always fits)."""
    p = collapse(pattern)
    return p == "" or p in config


_COMPAT = [[compatible(a, b) for b in CONFIGS] for a in CONFIGS]
_COMPAT_WRT = [[[compatible_wrt(a, b, t) for t in CONFIGS] for b in CONFIGS]
               for a in CONFIGS]
_POW6 = [6 ** k for k in range(20)]
# substring order: _LE[a][b] iff configuration a is a substring of b
_LE = [[a in b for b in CONFIGS] for a in CONFIGS]


def _maximal(pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The maximal elements of a set of configuration pairs under the
    product substring order."""
    return [p for p in pairs
            if not any(q != p and _LE[p[0]][q[0]] and _LE[p[1]][q[1]] for q in pairs)]


# maximal (child 1, child 2) configuration pairs at a shared vertex interior
# to the parent, and, at a shared vertex on the parent middle set, per the
# child whose run comes first (1 or 2) and per parent configuration
_INTERIOR_PAIRS = _maximal([(x1, x2) for x1 in range(6) for x2 in range(6)
                            if _COMPAT[x1][x2]])
_TARGET_PAIRS = {
    1: [_maximal([(x1, x2) for x1 in range(6) for x2 in range(6)
                  if _COMPAT_WRT[x1][x2][t]]) for t in range(6)],
    2: [_maximal([(x1, x2) for x1 in range(6) for x2 in range(6)
                  if _COMPAT_WRT[x2][x1][t]]) for t in range(6)],
}
# every parent entry has a candidate pair, so every table entry is feasible
assert _INTERIOR_PAIRS and all(all(by_target) for by_target in _TARGET_PAIRS.values())


class JoinSplit(NamedTuple):
    """How a parent arc's middle set splits over its two children, as
    mixed-radix code weights (``6**position``, 0 where a table lacks the
    vertex).

    ``owned`` lists, per parent position that exactly one child owns, the
    (parent, child 1, child 2) weights.  ``combos`` lists the child code
    offsets of every choice of maximal pairs at the shared vertices
    interior to the parent.  ``targets`` lists, per shared vertex on the
    parent middle set, its (parent, child 1, child 2) weights and its
    maximal pair lists indexed by the parent configuration."""
    owned: tuple[tuple[int, int, int], ...]
    combos: list[tuple[int, int]]
    targets: tuple[tuple[int, int, int, list[list[tuple[int, int]]]], ...]

    def pairs_of(self, code: int) -> list[tuple[int, int]]:
        """The candidate (child 1, child 2) entry codes of parent entry
        ``code``, in the order the join tries them."""
        o1 = o2 = 0
        for w3, w1, w2 in self.owned:
            x = code // w3 % 6
            o1 += x * w1
            o2 += x * w2
        combos = self.combos
        for w3, w1, w2, by_target in self.targets:
            combos = _extend(combos, w1, w2, by_target[code // w3 % 6])
        return [(o1 + d1, o2 + d2) for d1, d2 in combos]


def _extend(combos: list[tuple[int, int]], w1: int, w2: int,
            pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    return [(d1 + x1 * w1, d2 + x2 * w2) for d1, d2 in combos for x1, x2 in pairs]


@dataclass
class DPTable:
    """Per-arc table: one entry per configuration assignment on the middle
    set.

    Assignments are encoded in mixed radix: the vertex at position k of
    ``boundary.mid`` contributes config_index * 6**k.  ``costs`` holds the
    minimum scaled deleted weight of each entry; every entry is feasible.
    No back-pointers are stored.  A join table keeps its ``split``, from
    which reconstruction recomputes the pair of child entries behind one
    entry; a leaf table needs nothing beyond its boundary."""
    boundary: ArcBoundary
    costs: list[int]
    split: Optional[JoinSplit] = None


def _leaf_letters(instance: Instance, boundary: ArcBoundary) -> tuple[int, list[str]]:
    """A leaf arc's edge and the letter of its dart at each middle-set
    position: o at the tail, i at the head."""
    if len(boundary.inside_edges) != 1:
        raise DecompositionError("leaf_table needs a single-edge boundary")
    (e,) = boundary.inside_edges
    t, h = instance.graph.edges[e]
    mid = boundary.mid
    if not set(mid) <= {t, h}:
        raise DecompositionError("leaf boundary mid must consist of the edge endpoints")
    letters = {t: "o", h: "i"}
    return e, [letters[v] for v in mid]


def _keeps(letters: list[str], code: int) -> bool:
    """Whether keeping a leaf's edge realizes the assignment ``code``."""
    for letter in letters:
        if letter not in CONFIGS[code % 6]:
            return False
        code //= 6
    return True


def leaf_table(instance: Instance, boundary: ArcBoundary, int_weights: list[int]) -> DPTable:
    """Table for an arc whose inside is a single edge; ``int_weights`` are
    the instance weights as ``scaled_int_weights`` rescales them.

    Keeping the edge realizes an assignment iff each middle-set endpoint's
    configuration contains the letter of the edge's dart there (o at the
    tail, i at the head); deleting it realizes everything at cost w(e).
    Every entry is feasible."""
    e, letters = _leaf_letters(instance, boundary)
    w = int_weights[e]
    costs = [0 if _keeps(letters, code) else w for code in range(_POW6[len(letters)])]
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


def _join_split(parent: ArcBoundary, b1: ArcBoundary, b2: ArcBoundary) -> JoinSplit:
    if b1.inside_edges | b2.inside_edges != parent.inside_edges or \
            (b1.inside_edges & b2.inside_edges):
        raise DecompositionError("child arcs must partition the parent inside")
    m1, m2, m3 = b1.mid, b2.mid, parent.mid
    set1, set2, set3 = set(m1), set(m2), set(m3)
    shared = tuple(sorted(set1 & set2))
    shared_set = set(shared)
    if not (set3 <= set1 | set2 and set1 - shared_set <= set3
            and set2 - shared_set <= set3):
        raise DecompositionError("arc middle sets are inconsistent")
    pos1 = {v: k for k, v in enumerate(m1)}
    pos2 = {v: k for k, v in enumerate(m2)}
    pos3 = {v: k for k, v in enumerate(m3)}
    owned = tuple((_POW6[pos3[v]], _POW6[pos1[v]] if v in set1 else 0,
                   _POW6[pos2[v]] if v in set2 else 0)
                  for v in m3 if v not in shared_set)
    combos = [(0, 0)]
    for v in shared:
        if v not in set3:
            combos = _extend(combos, _POW6[pos1[v]], _POW6[pos2[v]], _INTERIOR_PAIRS)
    targets = tuple((_POW6[pos3[v]], _POW6[pos1[v]], _POW6[pos2[v]],
                     _TARGET_PAIRS[_first_child_at(parent, b1, b2, v)])
                    for v in shared if v in set3)
    return JoinSplit(owned, combos, targets)


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
    order, and child tables are monotone (a superstring configuration never
    costs more), so any valid pair is dominated by a maximal one that costs
    no more.  Only the maximal pairs are tried: 6 per interior shared
    vertex, at most 3 per shared vertex on the parent middle set.  The
    forced positions are enumerated once per join as (parent, child 1,
    child 2) code offsets; entries are grouped by the parent
    configurations at the shared vertices, and every entry of a group
    tries the same pair offsets.  A group with a single pair (every
    target i or o, no interior vertex) is a straight sum.  The table keeps
    its ``JoinSplit``, from which ``solve_dp`` recomputes the pair behind
    an entry."""
    split = _join_split(parent, t1.boundary, t2.boundary)
    forced = [(0, 0, 0)]
    for w3, w1, w2 in split.owned:
        forced = [(o3 + x * w3, o1 + x * w1, o2 + x * w2)
                  for o3, o1, o2 in forced for x in range(6)]

    groups = [(0, split.combos)]
    for w3, w1, w2, by_target in split.targets:
        groups = [(code + tgt * w3, _extend(combos, w1, w2, by_target[tgt]))
                  for code, combos in groups for tgt in range(6)]

    c1, c2 = t1.costs, t2.costs
    costs = [0] * _POW6[len(parent.mid)]
    for code, combos in groups:
        (e1, e2), rest = combos[0], combos[1:]
        if not rest:
            for o3, o1, o2 in forced:
                costs[code + o3] = c1[o1 + e1] + c2[o2 + e2]
            continue
        for o3, o1, o2 in forced:
            best = c1[o1 + e1] + c2[o2 + e2]
            for d1, d2 in rest:
                total = c1[o1 + d1] + c2[o2 + d2]
                if total < best:
                    best = total
            costs[code + o3] = best
    return DPTable(parent, costs, split=split)


def _chosen_pair(table: DPTable, t1: DPTable, t2: DPTable, code: int) -> tuple[int, int]:
    """The pair of child entries behind parent entry ``code``: the first
    of its candidate pairs, in the join's order, of least total cost."""
    c1, c2 = t1.costs, t2.costs
    pairs = table.split.pairs_of(code)
    totals = [c1[a] + c2[b] for a, b in pairs]
    best = min(totals)
    if best != table.costs[code]:
        raise DecompositionError("reconstruction disagrees with the table entry")
    return pairs[totals.index(best)]


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
    another graph object, even an equal one, is validated in full."""
    g = instance.graph
    if not g.is_connected():
        raise DecompositionError("solve_dp expects a connected graph")
    if g.edge_count < 2:
        raise DecompositionError("graphs with fewer than 2 edges go to star_solve")
    rooted = dec.report.rooted if dec.report is not None else None
    if rooted is None or rooted.graph is not g or root_leaf not in (None, rooted.root_leaf):
        report = validate_decomposition(g, dec, root_leaf)
        if not report.ok:
            raise DecompositionError("invalid decomposition: " + "; ".join(report.violations))
        rooted = report.rooted
    int_w, scale = scaled_int_weights(instance.weights)

    tables: dict[int, DPTable] = {}
    for node in rooted.post_order:
        boundary = rooted.boundaries[node]
        kids = rooted.children[node]
        if not kids:
            tables[node] = leaf_table(instance, boundary, int_w)
        else:
            a, b = kids
            tables[node] = join_tables(boundary, tables[a], tables[b])

    top = rooted.children[rooted.root_leaf][0]
    ttop = tables[top]
    e_r = dec.leaf_map[rooted.root_leaf]
    tail_r, head_r = g.edges[e_r]

    delete_cost = min(ttop.costs)
    delete_code = ttop.costs.index(delete_cost)
    delete_cost += int_w[e_r]

    pinned = {head_r: CONFIG_INDEX["ioi"], tail_r: CONFIG_INDEX["oio"]}
    keep_code = sum(pinned[v] * _POW6[k] for k, v in enumerate(ttop.boundary.mid))
    keep_cost = ttop.costs[keep_code]

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
            e, letters = _leaf_letters(instance, tables[node].boundary)
            if not _keeps(letters, code):
                deleted.add(e)
    kept = set(range(g.edge_count)) - deleted
    solution = make_solution(instance, kept, "dp")
    if solution.deleted_weight != Fraction(root_cost, scale):
        raise DecompositionError(
            "reconstructed deletion weight disagrees with the table optimum")
    return solution

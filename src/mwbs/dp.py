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
to the minimum weight of edges deleted strictly inside the arc, plus
back-pointers for reconstruction.  Weights are handled as exact integers
after rescaling by the common denominator; infeasible entries are an
explicit None, never a large number.

The join tries only the maximal pairs of child configurations.  Order the
configurations by substring (i and o below io and oi, which lie below
oio and ioi).  Every set of valid child-configuration pairs at a shared
vertex, plain compatible or compatible with respect to a parent
configuration, is a down-set in the product of that order.  Tables are
monotone in it: a pattern realizing a configuration realizes every
superstring, so raising one coordinate keeps an entry feasible and never
raises its cost.  Hence a valid pair is dominated by a maximal valid pair
that costs no more, and the minimum over the maximal pairs is the
minimum over all valid pairs.  The pair lists are derived from the
compatibility tables when the module loads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

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


@dataclass
class DPTable:
    """Per-arc table: one entry per configuration assignment on the middle
    set.

    Assignments are encoded in mixed radix: the vertex at position k of
    ``boundary.mid`` contributes config_index * 6**k.  ``costs`` holds the
    minimum scaled deleted weight (None if infeasible); ``back`` holds the
    leaf keep-flag or the chosen pair of child entry codes.  ``edge`` is
    set on leaf tables only."""
    boundary: ArcBoundary
    costs: list[Optional[int]]
    back: list
    edge: Optional[int] = None

    def code_of_assignment(self, assignment: dict[int, str]) -> int:
        mid = self.boundary.mid
        if sorted(assignment) != sorted(mid):
            raise KeyError(f"assignment domain must be exactly {mid}")
        return sum(CONFIG_INDEX[assignment[v]] * _POW6[k] for k, v in enumerate(mid))


def leaf_table(instance: Instance, boundary: ArcBoundary, int_weights: list[int]) -> DPTable:
    """Table for an arc whose inside is a single edge; ``int_weights`` are
    the instance weights as ``scaled_int_weights`` rescales them.

    Keeping the edge realizes an assignment iff each middle-set endpoint's
    configuration contains the letter of the edge's dart there (o at the
    tail, i at the head); deleting it realizes everything at cost w(e).
    Every entry is feasible."""
    if len(boundary.inside_edges) != 1:
        raise DecompositionError("leaf_table needs a single-edge boundary")
    (e,) = boundary.inside_edges
    t, h = instance.graph.edges[e]
    mid = boundary.mid
    if not set(mid) <= {t, h}:
        raise DecompositionError("leaf boundary mid must consist of the edge endpoints")
    letters = {t: "o", h: "i"}
    size = _POW6[len(mid)]
    costs: list[Optional[int]] = [None] * size
    back = [False] * size
    w = int_weights[e]
    for code in range(size):
        ok = True
        c = code
        for v in mid:
            if letters[v] not in CONFIGS[c % 6]:
                ok = False
            c //= 6
        costs[code] = 0 if ok else w
        back[code] = ok
    return DPTable(boundary, costs, back, edge=e)


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
    costs more, and stays feasible), so any valid pair is dominated by a
    maximal one that costs no more.  Only the maximal pairs are tried: 6 per
    interior shared vertex, at most 3 per shared vertex on the parent
    middle set.  The forced positions are enumerated once per join as
    (parent, child 1, child 2) code offsets."""
    b1, b2 = t1.boundary, t2.boundary
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

    # (parent, child 1, child 2) offsets of every assignment to the parent
    # positions that exactly one child owns
    forced = [(0, 0, 0)]
    for v in m3:
        if v in shared_set:
            continue
        w3 = _POW6[pos3[v]]
        w1 = _POW6[pos1[v]] if v in set1 else 0
        w2 = _POW6[pos2[v]] if v in set2 else 0
        forced = [(o3 + x * w3, o1 + x * w1, o2 + x * w2)
                  for o3, o1, o2 in forced for x in range(6)]

    # child offsets of the maximal pairs at the interior shared vertices,
    # then grouped by the parent configurations at the other shared vertices
    combos = [(0, 0)]
    for v in shared:
        if v not in set3:
            w1, w2 = _POW6[pos1[v]], _POW6[pos2[v]]
            combos = [(d1 + x1 * w1, d2 + x2 * w2) for d1, d2 in combos
                      for x1, x2 in _INTERIOR_PAIRS]
    groups = [(0, combos)]
    for v in shared:
        if v in set3:
            w1, w2, w3 = _POW6[pos1[v]], _POW6[pos2[v]], _POW6[pos3[v]]
            by_target = _TARGET_PAIRS[_first_child_at(parent, b1, b2, v)]
            groups = [(code + tgt * w3,
                       [(d1 + x1 * w1, d2 + x2 * w2) for d1, d2 in combos
                        for x1, x2 in by_target[tgt]])
                      for code, combos in groups for tgt in range(6)]

    c1, c2 = t1.costs, t2.costs
    size3 = _POW6[len(m3)]
    costs: list[Optional[int]] = [None] * size3
    back: list = [None] * size3
    for code, combos in groups:
        for o3, o1, o2 in forced:
            best = None
            best_bp = None
            for d1, d2 in combos:
                a = c1[o1 + d1]
                if a is None:
                    continue
                b = c2[o2 + d2]
                if b is None:
                    continue
                total = a + b
                if best is None or total < best:
                    best = total
                    best_bp = (o1 + d1, o2 + d2)
            costs[code + o3] = best
            back[code + o3] = best_bp
    return DPTable(parent, costs, back)


def solve_dp(instance: Instance, dec: SphereCutDecomposition,
             root_leaf: Optional[int] = None) -> Solution:
    """Exact optimum via bottom-up tables over a validated decomposition.

    An arbitrary mapped leaf is the root (lowest node id by default; the
    optimum is invariant under the choice).  With the root edge deleted,
    any boundary assignment of the root-adjacent arc serves; with it kept,
    the assignment is pinned to ioi at the root edge's head and oio at its
    tail, which the single outside dart then completes to a bimodal
    pattern.  The reconstructed subgraph is re-verified before returning.

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

    delete_cost, delete_code = None, None
    for code, c in enumerate(ttop.costs):
        if c is None:
            continue
        if delete_cost is None or c < delete_cost:
            delete_cost, delete_code = c, code
    if delete_cost is not None:
        delete_cost += int_w[e_r]

    pinned = {head_r: "ioi", tail_r: "oio"}
    keep_code = ttop.code_of_assignment(
        {v: pinned[v] for v in ttop.boundary.mid})
    keep_cost = ttop.costs[keep_code]

    if delete_cost is None and keep_cost is None:
        raise DecompositionError("no feasible root entry; decomposition unusable")
    if keep_cost is not None and (delete_cost is None or keep_cost <= delete_cost):
        root_cost, root_code, root_deletes = keep_cost, keep_code, set()
    else:
        root_cost, root_code, root_deletes = delete_cost, delete_code, {e_r}

    deleted = set(root_deletes)
    stack = [(top, root_code)]
    while stack:
        node, code = stack.pop()
        table = tables[node]
        if table.edge is not None:
            if not table.back[code]:
                deleted.add(table.edge)
        else:
            bp = table.back[code]
            if bp is None:
                raise DecompositionError("reconstruction hit an infeasible entry")
            a, b = rooted.children[node]
            stack.append((a, bp[0]))
            stack.append((b, bp[1]))
    kept = set(range(g.edge_count)) - deleted
    solution = make_solution(instance, kept, "dp")
    if solution.deleted_weight != Fraction(root_cost, scale):
        raise DecompositionError(
            "reconstructed deletion weight disagrees with the table optimum")
    return solution

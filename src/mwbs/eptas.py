"""Layer-based approximation schemes (shifting technique).

Both schemes partition each component's vertices into breadth-first
layers and share one loop over the residue classes i = 0, ..., t-1 of
layer indices.  Residue j mod t cuts the edges joining layers j and j+1
(``cut_residues``); what is left falls apart into bands of at most t
layers, all solved exactly by one call on the cut graph, and each
component keeps its best residue.  The schemes differ only in the shift
width t and in what happens to the cut edges.

The maximization scheme drops them.  The union of the band optima is
bimodal, and some residue loses at most a 1/t fraction of the optimum, so
the best residue is a (1 - eps)-approximation with t = ceil(1/eps).

The minimization scheme cannot simply drop cut edges (deleting is what is
being charged), so each is split into two pendant copies, one in each
adjacent band.  Deleting every edge with a deleted copy yields a feasible
deletion set of cost at most (1 + 2/t) times the optimum; t = ceil(2/eps)
gives the (1 + eps) guarantee.  A cut edge with an end of degree one is
left whole.  That end lies on no middle set, so the edge ties no two
bands together, and the copy it would get there joins two good vertices,
an edge every optimum keeps: the whole edge is kept exactly when its
other copy would be.

Every residue is cut from the component's normal form (see ``kernel``),
computed once, not from the component itself, because the three
normal-form rules commute with dropping a cut edge and with splitting
one.  Both only take darts from a vertex or give a dart's slot to a copy
of the same direction, which adds no switch, so every good vertex of the
component stays good in every cut graph.  A good-good edge of the
component is good-good in every cut graph that holds it (both its copies
are, when it is split), so every optimum there keeps it, and every good
vertex is split there as well.  The reduction records the vertex each
split copy came from, and the copy takes that vertex's layer, so a
kernel edge is cut by the residue that cuts its component edge.  A
residue's optimum is therefore the banked weight it keeps (all of it
when cut edges are split, what lies outside the cut when they are
dropped) plus the optimum of the kernel cut the same way.  The solver's
own reduction of a cut kernel fires only where a dropped edge made a bad
vertex good; elsewhere it returns the cut kernel unchanged.

A band that no cut of residue i or of residue i' touches is the same
table-solved component in both cut kernels.  One shifting call therefore
hands all its solver calls one dict of the components solved so far (see
``kernel.solve_components``), and each distinct component is tabulated
once.  Every residue is still certified, and checked on its component,
as before; the dict lives for that call only.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Sequence

from .errors import EmbeddingError, FormatError
from .kernel import reduce_to_simple, solve_subexponential
from .plane import (
    HEAD,
    TAIL,
    Instance,
    format_weight,
    PlaneDigraph,
    Solution,
    component_instances,
    cut_exponent,
    dart,
    excerpt,
    make_solution,
    subgraph_by_edges,
)


def bfs_layers(graph: PlaneDigraph) -> tuple[int, ...]:
    """Each vertex's undirected BFS distance from vertex 0, its layer (the
    graph must be connected); no edge ever skips a layer."""
    n = graph.vertex_count
    if n == 0:
        raise EmbeddingError("bfs_layers needs a graph with a vertex")
    dist = [-1] * n
    dist[0] = 0
    queue = [0]
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for d in graph.rotation[v]:
            u = graph.other_endpoint(d)
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(u)
    if any(x < 0 for x in dist):
        raise EmbeddingError("bfs_layers needs a connected graph")
    return tuple(dist)


def cut_residues(edges: Sequence[tuple[int, int]], layer_of: Sequence[int],
                 t: int) -> list[int]:
    """The residue that cuts each edge: j mod t for an edge joining layers
    j and j+1, -1 for an edge inside one layer."""
    out = []
    for u, v in edges:
        lo, hi = sorted((layer_of[u], layer_of[v]))
        if hi - lo > 1:
            raise EmbeddingError("an edge skips a layer")
        out.append(lo % t if hi > lo else -1)
    return out


def _check_epsilon(eps) -> Fraction:
    try:
        eps = Fraction(cut_exponent(eps) if isinstance(eps, str) else eps)
    except (TypeError, ValueError, ArithmeticError):
        raise FormatError(f"epsilon {excerpt(eps)} is not a number") from None
    if not (0 < eps <= 1):
        raise FormatError("epsilon must satisfy 0 < eps <= 1")
    # the report prints eps as p/q; its numerator is no longer than its
    # denominator, and 0 means no limit
    limit = sys.get_int_max_str_digits()
    if limit and eps.denominator >= 10 ** limit:
        raise FormatError(f"epsilon has a denominator of more than {limit} digits")
    return eps


def _shift(instance: Instance, t: int, split: bool, method: str
           ) -> tuple[Solution, list[Fraction], list[int]]:
    """The shifting loop of both schemes.

    Each component is reduced to its normal form once, and each kernel and
    banked edge given its cut residue once.  Per residue i, the normal
    form's cut edges are split (``split``, by ``split_layer_graphs``) or
    dropped (by ``_drop_cut``), and the result is solved exactly by one
    ``solve_subexponential`` call.  All these calls share one ``solved``
    dict, so a table-solved component that repeats in another residue or
    component is tabulated once per call.  A kernel edge counts as kept
    when it has a copy and every copy is kept; its component edge is then
    kept, and so is every banked edge, except, when cut edges are dropped,
    one the residue cuts.  The mapped-back set is checked bimodal on the
    component.  Residues from ``depth - 1`` on cut nothing, so the whole
    component is solved once and stands for all of them.  Each component
    takes its best residue (lowest index on ties).  Returns the certified
    solution, the kept weight per residue (one entry per residue below both
    t and the deepest layer count) and the chosen residue of each component
    with edges."""
    piece = split_layer_graphs if split else _drop_cut
    parts = [(sub, eids, bfs_layers(sub.graph))
             for sub, eids in component_instances(instance)]
    deepest = max((max(layer_of) + 1 for _sub, _eids, layer_of in parts), default=0)
    # kept weights in the instance's integer scaling, shared by every component
    int_w, scale, _total = instance.int_weights
    per_residue = [0] * min(t, deepest)
    solved: dict = {}   # table-solved components of this call, see solve_components
    kept: set[int] = set()
    chosen: list[int] = []
    for sub, eids, layer_of in parts:
        red = reduce_to_simple(sub)
        kernel_cut_by = cut_residues(red.instance.graph.edges,
                                     [layer_of[v] for v in red.orig_vertex_ids], t)
        banked = list(zip(red.banked_edges, cut_residues(
            [sub.graph.edges[e] for e in red.banked_edges], layer_of, t)))
        kept_sets: list[set[int]] = []
        values: list[int] = []
        for i in range(min(t, max(layer_of) + 1)):
            cut = [e for e, cut_by in enumerate(kernel_cut_by) if cut_by == i]
            cut_kernel, edge_orig = piece(red.instance, cut)
            sol = solve_subexponential(cut_kernel, solved=solved)
            dropped = {e for j, e in enumerate(edge_orig) if j not in sol.kept_edges}
            here = {red.orig_edge_ids[e] for e in edge_orig if e not in dropped}
            here.update(e for e, cut_by in banked if split or cut_by != i)
            if sub.graph.bad_vertices(here):
                raise EmbeddingError(f"residue {i}: mapped-back kept set is not feasible")
            kept_sets.append(here)
            values.append(sum([int_w[eids[e]] for e in here]))
        for i in range(len(per_residue)):
            per_residue[i] += values[min(i, len(values) - 1)]
        best = values.index(max(values))
        kept.update(eids[e] for e in kept_sets[best])
        chosen.append(best)
    return (make_solution(instance, kept, method),
            [Fraction(w, scale) for w in per_residue], chosen)


def _drop_cut(instance: Instance, cut: Sequence[int]) -> tuple[Instance, Sequence[int]]:
    """The graph without the cut edges ``cut``, and its edges' ids, by
    ``subgraph_by_edges``.  The kernel it cuts has no isolated vertex, so
    an empty cut drops nothing and gives the instance itself, with
    identity ids."""
    g = instance.graph
    dropped = set(cut)
    piece, _vids, eids = subgraph_by_edges(
        instance, [e for e in range(g.edge_count) if e not in dropped])
    return piece, eids


def eptas_max(instance: Instance, eps) -> tuple[Solution, dict]:
    """Keep at least a (1 - eps) fraction of the optimal weight.

    Per component and residue class: drop the residue's cut edges, solve
    the rest exactly, take the best residue (lowest index on ties).
    The report records the per-residue values and the guarantee factor."""
    eps = _check_epsilon(eps)
    t = math.ceil(1 / eps)
    solution, per_residue, chosen = _shift(instance, t, False, "eptas-max")
    report = {
        "epsilon": format_weight(eps),
        "shift_width": t,
        "guarantee_factor": format_weight(1 - Fraction(1, t)),
        "per_residue_kept": [format_weight(w) for w in per_residue],
        "chosen_residues": chosen,
    }
    return solution, report


def split_layer_graphs(instance: Instance, cut: Sequence[int]
                       ) -> tuple[Instance, tuple[int, ...]]:
    """Split each edge e = (u, v) of a residue's ``cut`` (in increasing
    order) whose two ends both have degree above one: e keeps its dart at u
    and ends at a fresh vertex, and a new copy of e, starting at another
    fresh vertex, takes e's slot at v.  Every vertex keeps its rotation, so
    each component of the result lies in one band, except for the
    degree-one ends of cut edges left whole.  Such an end lies on no middle
    set, and its copy would be a good-good edge that every optimum keeps,
    so splitting the edge would change neither the optimum nor the tables.
    Returns the split instance and the original id of each of its edges;
    the instance itself, with identity ids, when nothing is split."""
    g = instance.graph
    n, m = g.vertex_count, g.edge_count
    cut = [e for e in cut if all(len(g.rotation[v]) > 1 for v in g.edges[e])]
    if not cut:
        return instance, tuple(range(m))
    edges = list(g.edges)
    rotation = [list(row) for row in g.rotation]
    for k, e in enumerate(cut):
        u, v = edges[e]
        edges[e] = (u, n + 2 * k)
        edges.append((n + 2 * k + 1, v))
        rotation[v][rotation[v].index(dart(e, HEAD))] = dart(m + k, HEAD)
        rotation += [[dart(e, HEAD)], [dart(m + k, TAIL)]]
    split = Instance(PlaneDigraph(n + 2 * len(cut), edges, rotation),
                     instance.weights + tuple(instance.weights[e] for e in cut))
    return split, tuple(range(m)) + tuple(cut)


def eptas_min(instance: Instance, eps) -> tuple[set[int], Fraction, dict]:
    """Deletion set of weight at most (1 + eps) times the minimum.

    Per component and residue: split the residue's cut edges, solve the
    bands exactly and delete each original edge with at least one deleted
    copy.  Feasibility of the combined deletion is unconditional; only the
    cost is approximate."""
    solution, report = _eptas_min(instance, eps)
    deleted = set(range(instance.graph.edge_count)) - solution.kept_edges
    return deleted, solution.deleted_weight, report


def _eptas_min(instance: Instance, eps) -> tuple[Solution, dict]:
    """``eptas_min`` with its certified solution, which the CLI prints."""
    eps = _check_epsilon(eps)
    t = math.ceil(2 / eps)
    solution, per_residue, chosen = _shift(instance, t, True, "eptas-min")
    total = instance.total_weight
    report = {
        "epsilon": format_weight(eps),
        "shift_width": t,
        "guarantee_factor": format_weight(1 + Fraction(2, t)),
        "per_residue_cost": [format_weight(total - w) for w in per_residue],
        "chosen_residues": chosen,
    }
    return solution, report

"""Layer-based approximation schemes (shifting technique).

Both schemes partition each component's vertices into breadth-first
layers and share one loop over the residue classes i = 0, ..., t-1 of
layer indices.  A residue cuts every edge joining layers j and j+1 with
j = i (mod t); what is left falls apart into bands of at most t layers,
all solved exactly by one call on the cut graph, and each component keeps
its best residue.  The schemes differ only in the shift width t and in
what happens to the cut edges.

The maximization scheme drops them.  The union of the band optima is
bimodal, and some residue loses at most a 1/t fraction of the optimum, so
the best residue is a (1 - eps)-approximation with t = ceil(1/eps).

The minimization scheme cannot simply drop cut edges (deleting is what is
being charged), so each is split into two pendant copies, one in each
adjacent band.  Deleting every edge with a deleted copy yields a feasible
deletion set of cost at most (1 + 2/t) times the optimum; t = ceil(2/eps)
gives the (1 + eps) guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import EmbeddingError, FormatError
from .kernel import solve_subexponential
from .plane import (
    HEAD,
    TAIL,
    Instance,
    format_weight,
    PlaneDigraph,
    Solution,
    component_instances,
    dart,
    excerpt,
    make_solution,
    subgraph_by_edges,
)


@dataclass(frozen=True)
class LayerDecomposition:
    """Vertices grouped by undirected breadth-first distance from a root."""
    layers: tuple[tuple[int, ...], ...]
    layer_of: tuple[int, ...]

    def boundary_edges(self, graph: PlaneDigraph, t: int, residue: int) -> set[int]:
        """Edges between layers j and j+1 with j = residue (mod t)."""
        out = set()
        for e, (u, v) in enumerate(graph.edges):
            lo, hi = sorted((self.layer_of[u], self.layer_of[v]))
            if hi - lo == 1 and lo % t == residue:
                out.add(e)
        return out


def bfs_layers(graph: PlaneDigraph) -> LayerDecomposition:
    """Undirected BFS distance classes from vertex 0 (graph must be
    connected); no edge ever skips a layer."""
    n = graph.vertex_count
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
    layers: list[list[int]] = [[] for _ in range(max(dist) + 1)]
    for v in range(n):
        layers[dist[v]].append(v)
    return LayerDecomposition(tuple(tuple(l) for l in layers), tuple(dist))


def _check_epsilon(eps) -> Fraction:
    try:
        eps = Fraction(eps)
    except (TypeError, ValueError, ArithmeticError):
        raise FormatError(f"epsilon {excerpt(eps)} is not a number") from None
    if not (0 < eps <= 1):
        raise FormatError("epsilon must satisfy 0 < eps <= 1")
    return eps


def _shift(instance: Instance, t: int, piece, method: str
           ) -> tuple[Solution, list[Fraction], list[int]]:
    """The shifting loop of both schemes.

    Per component and residue i, ``piece(component, layers, i, t)`` returns
    one instance and the component edge id of each of its edges.  That
    instance is solved exactly; a component edge counts as kept when it has
    a copy and every copy is kept.  Residues from ``depth - 1`` on cut
    nothing, so the whole component is solved once and stands for all of
    them.  Each component takes its best residue (lowest index on ties).
    Returns the certified solution, the kept weight per residue (one entry
    per residue below both t and the deepest layer count) and the chosen
    residue of each component with edges."""
    parts = [(sub, eids, bfs_layers(sub.graph))
             for sub, eids in component_instances(instance)]
    deepest = max((len(layers.layers) for _sub, _eids, layers in parts), default=0)
    # kept weights in the instance's integer scaling, shared by every component
    int_w, scale, _total = instance.int_weights
    per_residue = [0] * min(t, deepest)
    kept: set[int] = set()
    chosen: list[int] = []
    for sub, eids, layers in parts:
        kept_sets: list[set[int]] = []
        values: list[int] = []
        for i in range(min(t, len(layers.layers))):
            split, edge_orig = piece(sub, layers, i, t)
            sol = solve_subexponential(split)
            dropped = {e for j, e in enumerate(edge_orig) if j not in sol.kept_edges}
            here = set(edge_orig) - dropped
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


def _drop_cut(instance: Instance, layers: LayerDecomposition,
              residue: int, t: int) -> tuple[Instance, list[int]]:
    """The graph without the residue's cut edges, and its edges' ids."""
    cut = layers.boundary_edges(instance.graph, t, residue)
    piece, _vids, eids = subgraph_by_edges(
        instance, [e for e in range(instance.graph.edge_count) if e not in cut])
    return piece, eids


def eptas_max(instance: Instance, eps) -> tuple[Solution, dict]:
    """Keep at least a (1 - eps) fraction of the optimal weight.

    Per component and residue class: drop the residue's cut edges, solve
    the rest exactly, take the best residue (lowest index on ties).
    The report records the per-residue values and the guarantee factor."""
    eps = _check_epsilon(eps)
    t = math.ceil(1 / eps)
    solution, per_residue, chosen = _shift(instance, t, _drop_cut, "eptas-max")
    report = {
        "epsilon": format_weight(eps),
        "shift_width": t,
        "guarantee_factor": format_weight(1 - Fraction(1, t)),
        "per_residue_kept": [format_weight(w) for w in per_residue],
        "chosen_residues": chosen,
    }
    return solution, report


def split_layer_graphs(instance: Instance, layers: LayerDecomposition,
                       residue: int, t: int) -> tuple[Instance, tuple[int, ...]]:
    """Split each of the residue's cut edges e = (u, v) in two: e keeps its
    dart at u and ends at a fresh vertex, and a new copy of e, starting at
    another fresh vertex, takes e's slot at v.  Every vertex keeps its
    rotation, so each component of the result lies in one band.  Returns
    the split instance and the original id of each of its edges."""
    g = instance.graph
    if any(abs(layers.layer_of[u] - layers.layer_of[v]) > 1 for u, v in g.edges):
        raise EmbeddingError("an edge skips a layer")
    n, m = g.vertex_count, g.edge_count
    cut = sorted(layers.boundary_edges(g, t, residue))
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
    solution, per_residue, chosen = _shift(instance, t, split_layer_graphs, "eptas-min")
    total = instance.total_weight
    report = {
        "epsilon": format_weight(eps),
        "shift_width": t,
        "guarantee_factor": format_weight(1 + Fraction(2, t)),
        "per_residue_cost": [format_weight(total - w) for w in per_residue],
        "chosen_residues": chosen,
    }
    return solution, report

"""Exhaustive ground-truth solvers.

The subset enumeration over edges, with incremental per-vertex switch
counts, is deliberately simple.  It defines the reference semantics that
the dynamic program, the kernelization and the approximation schemes are
tested against, so clarity beats speed and no pruning is allowed that
could change which optimum the tie-break picks.  The enumeration over
all-or-nothing edge classes, which only the tests call, lives in
``tests/oracles.py``.

``star_solve`` is a thin wrapper: it tests the star and hands its center
to ``dp.flat_component_deleted``, the pass that ``kernel.solve_components``
runs on every component with at most one hub-to-hub edge.
"""

from __future__ import annotations

from .dp import flat_component_deleted
from .errors import BudgetExceeded, NotAStar
from .plane import Instance, Solution, make_solution

# the most edges, or edge classes, an exhaustive oracle enumerates
BUDGET = 16


class _SwitchState:
    """Kept-subgraph switch counts maintained under single-edge toggles."""

    def __init__(self, graph):
        self.graph = graph
        self.kept = set()
        self.switch = [0] * graph.vertex_count
        self.num_bad = 0

    def toggle(self, e: int):
        t, h = self.graph.edges[e]
        if e in self.kept:
            self.kept.remove(e)
        else:
            self.kept.add(e)
        for v in (t, h):
            old = self.switch[v]
            new = self.graph.switch_count(v, self.kept)
            self.switch[v] = new
            if (old > 2) != (new > 2):
                self.num_bad += 1 if new > 2 else -1


def brute_force_mwbs(instance: Instance) -> Solution:
    """Exact optimum by enumerating all kept edge sets.

    Tie-break among maximum-weight feasible sets: the smallest kept bitset
    as an integer (bit e = edge e kept)."""
    g = instance.graph
    m = g.edge_count
    if m > BUDGET:
        raise BudgetExceeded(f"{m} edges exceed the oracle budget {BUDGET}")
    int_w = instance.int_weights.values
    state = _SwitchState(g)
    weight = 0
    best_weight, best_mask = 0, 0
    prev = 0
    for i in range(1, 1 << m):
        gray = i ^ (i >> 1)
        bit = (gray ^ prev).bit_length() - 1
        prev = gray
        state.toggle(bit)
        weight += int_w[bit] if (gray >> bit) & 1 else -int_w[bit]
        if state.num_bad == 0 and (weight > best_weight
                                   or (weight == best_weight and gray < best_mask)):
            best_weight, best_mask = weight, gray
    kept = [e for e in range(m) if (best_mask >> e) & 1]
    return make_solution(instance, kept, "oracle")


def is_star(graph) -> int | None:
    """Return the center if every edge touches one common vertex and all
    other vertices have degree at most 1; None otherwise.  Graphs with
    at most one edge count as stars (center: the first edge's tail, or 0)."""
    if graph.edge_count == 0:
        return 0 if graph.vertex_count else None
    t0, h0 = graph.edges[0]
    for center in (t0, h0):
        if all(center in e for e in graph.edges):
            others = [v for v in range(graph.vertex_count) if v != center]
            if all(graph.degree(v) <= 1 for v in others):
                return center
    return None


def star_solve(instance: Instance) -> Solution:
    """Optimal bimodal subgraph of a star: ``is_star`` finds the center,
    ``dp.flat_component_deleted`` solves the star as one full hub, and the
    kept set is certified."""
    g = instance.graph
    if g.edge_count <= 1:
        return make_solution(instance, range(g.edge_count), "star")
    center = is_star(g)
    if center is None:
        raise NotAStar("input is not a star")
    deleted = set(flat_component_deleted(g.rotation, instance.int_weights.values, [center], -1))
    return make_solution(instance, [e for e in range(g.edge_count) if e not in deleted], "star")

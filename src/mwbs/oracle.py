"""Exhaustive ground-truth solvers.

These are deliberately simple: subset enumeration over edges (or over
all-or-nothing edge classes) with incremental per-vertex switch counts,
and a direct quadratic solver for stars.  They define the reference
semantics that the dynamic program, the kernelization and the
approximation schemes are tested against, so clarity beats speed and no
pruning is allowed that could change which optimum the tie-break picks.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .errors import BudgetExceeded, NotAStar
from .plane import Instance, Solution, dart_direction, dart_edge, make_solution


@dataclass(frozen=True)
class OracleBudget:
    max_edges: int = 16
    max_classes: int = 16


DEFAULT_BUDGET = OracleBudget()


def scaled_int_weights(weights) -> tuple[list[int], int]:
    """Rescale rational weights to integers by the common denominator.

    All solver-internal arithmetic runs on these exact integers; divide by
    the returned scale to recover the rational value."""
    scale = lcm(*(w.denominator for w in weights)) if weights else 1
    return [int(w * scale) for w in weights], scale


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


def brute_force_mwbs(instance: Instance, budget: OracleBudget = DEFAULT_BUDGET) -> Solution:
    """Exact optimum by enumerating all kept edge sets.

    Tie-break among maximum-weight feasible sets: the smallest kept bitset
    as an integer (bit e = edge e kept)."""
    g = instance.graph
    m = g.edge_count
    if m > budget.max_edges:
        raise BudgetExceeded(f"{m} edges exceed the oracle budget {budget.max_edges}")
    int_w, _scale = scaled_int_weights(instance.weights)
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


def brute_force_cut(instance: Instance, classes, budget: OracleBudget = DEFAULT_BUDGET) -> Solution:
    """Exact optimum over unions of all-or-nothing edge classes."""
    g = instance.graph
    classes = [tuple(c) for c in classes]
    k = len(classes)
    if k > budget.max_classes:
        raise BudgetExceeded(f"{k} classes exceed the oracle budget {budget.max_classes}")
    covered = sorted(e for c in classes for e in c)
    if covered != list(range(g.edge_count)):
        raise BudgetExceeded("classes do not partition the edge set")
    int_w, _scale = scaled_int_weights(instance.weights)
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
    """Optimal bimodal subgraph of a star, by trying all placements of the
    at-most-two switches around the center's rotation."""
    g = instance.graph
    if g.edge_count <= 1:
        return make_solution(instance, range(g.edge_count), "star")
    center = is_star(g)
    if center is None:
        raise NotAStar("input is not a star")
    row = g.rotation[center]
    deg = len(row)
    int_w, _scale = scaled_int_weights(instance.weights)
    dirs = [dart_direction(d) for d in row]
    w_in = [int_w[dart_edge(d)] if dirs[j] == "i" else 0 for j, d in enumerate(row)]
    w_out = [int_w[dart_edge(d)] if dirs[j] == "o" else 0 for j, d in enumerate(row)]
    pre_in = [0]
    pre_out = [0]
    for j in range(deg):
        pre_in.append(pre_in[-1] + w_in[j])
        pre_out.append(pre_out[-1] + w_out[j])

    def cost(p, q, first_in):
        # arc [p, q) is the in-block (or out-block when not first_in),
        # the complement is the other block; deleted = wrong-direction edges
        inside_in = pre_in[q] - pre_in[p]
        inside_out = pre_out[q] - pre_out[p]
        outside_in = pre_in[deg] - inside_in
        outside_out = pre_out[deg] - inside_out
        return inside_out + outside_in if first_in else inside_in + outside_out

    best = None
    for p in range(deg):
        for q in range(p, deg):
            for first_in in (True, False):
                c = cost(p, q, first_in)
                key = (c, p, q, not first_in)
                if best is None or key < best:
                    best = key
    c, p, q, not_first_in = best
    first_in = not not_first_in
    kept = []
    for j, d in enumerate(row):
        in_arc = p <= j < q
        want = ("i" if first_in else "o") if in_arc else ("o" if first_in else "i")
        if dirs[j] == want:
            kept.append(dart_edge(d))
    return make_solution(instance, kept, "star")

"""Exhaustive ground-truth solvers.

These are deliberately simple: subset enumeration over edges with
incremental per-vertex switch counts, and a direct one-scan solver for
stars.  They define the reference semantics that the dynamic program,
the kernelization and the approximation schemes are tested against, so
clarity beats speed and no pruning is allowed that could change which
optimum the tie-break picks.  The enumeration over all-or-nothing edge
classes, which only the tests call, lives in ``tests/oracles.py``.

The star scan, ``_star_kept``, is the only one in the package:
``star_solve`` runs it on a star instance, and ``kernel.solve_components``
on the center row of each star component, in place.
"""

from __future__ import annotations

from typing import Sequence

from .errors import BudgetExceeded, NotAStar
from .plane import HEAD, Instance, Solution, make_solution

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
    ``_star_kept`` scans its rotation once, and the kept set is certified."""
    g = instance.graph
    if g.edge_count <= 1:
        return make_solution(instance, range(g.edge_count), "star")
    center = is_star(g)
    if center is None:
        raise NotAStar("input is not a star")
    return make_solution(instance, _star_kept(g.rotation[center], instance.int_weights.values),
                         "star")


def _star_kept(row: Sequence[int], int_w: Sequence[int]) -> list[int]:
    """The kept edges of an optimal placement at a star's center, whose
    rotation is ``row`` (at least one dart), with ``int_w`` the integer
    edge weights.  The leaves have one dart each, so only the center
    constrains the kept set.

    A placement keeps the in-darts of a block [p, q), p <= q < deg, and
    the out-darts around it, or the reverse, and deletes the rest.  With
    A[j] the out weight minus the in weight of the first j darts, and IN
    and OUT the total in and out weights, keeping the block's in-darts
    deletes IN + A[q] - A[p] and keeping its out-darts deletes
    OUT - A[q] + A[p].  For each q the cheapest p is the first index of
    the running maximum, or minimum, of A[0..q], so one scan finds the
    least (cost, p, q, block keeps out-darts) key over all placements.
    Scaling every weight by one positive integer keeps that key's
    placement, so any common scale of the weights serves."""
    # a head dart enters the center, a tail dart leaves it
    heads = [d & 1 == HEAD for d in row]
    total_in = sum([int_w[d >> 1] for j, d in enumerate(row) if heads[j]])
    total_out = sum([int_w[d >> 1] for d in row]) - total_in
    a = 0                 # A[q]
    hi = lo = 0           # first indices of the running max and min of A
    a_hi = a_lo = 0
    best = None
    for q, d in enumerate(row):
        if a > a_hi:
            hi, a_hi = q, a
        elif a < a_lo:
            lo, a_lo = q, a
        key = min((total_in + a - a_hi, hi, q, False), (total_out - a + a_lo, lo, q, True))
        if best is None or key < best:
            best = key
        a += -int_w[d >> 1] if heads[q] else int_w[d >> 1]
    _cost, p, q, out_first = best
    return [d >> 1 for j, d in enumerate(row) if heads[j] != (out_first == (p <= j < q))]

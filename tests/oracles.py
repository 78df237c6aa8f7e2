"""Reference helpers that only the tests call.

``brute_force_cut`` is the exhaustive optimum over unions of
all-or-nothing edge classes, the oracle of the compression rules; it
shares ``mwbs.oracle``'s switch-count state and budget.
``align_optimum_to_classes`` rewrites an optimum into one that deletes
whole partition classes, which certifies that some optimum is
class-aligned.
"""

from mwbs.configs import CONFIGS, collapse
from mwbs.errors import BudgetExceeded, EmbeddingError, FormatError
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

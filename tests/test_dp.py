"""Configuration algebra and the table solver, checked against
independently implemented oracles."""

import itertools
import random
from fractions import Fraction

import pytest

from mwbs.decomposition import (
    RootedDecomposition,
    SphereCutDecomposition,
    _greedy_sweep,
    _recursive_bisection,
    build_sphere_cut,
    validate_decomposition,
)
from mwbs.dp import (
    _INTERIOR_PAIRS,
    _TARGET_PAIRS,
    CONFIGS,
    _first_child_at,
    collapse,
    compatible,
    compatible_wrt,
    join_tables,
    leaf_table,
    realizes,
    solve_dp,
)
from mwbs.errors import DecompositionError
from mwbs.oracle import scaled_int_weights
from mwbs.plane import (
    HEAD,
    TAIL,
    Instance,
    PlaneDigraph,
    dart,
    dart_direction,
    dart_edge,
)

from test_plane import star4_instance, triangle_instance


# -- independent string-rewriting oracle --------------------------------

def collapse_ref(s):
    return "".join(ch for ch, _grp in itertools.groupby(s))


def substrings(s):
    return {s[i:j] for i in range(len(s)) for j in range(i + 1, len(s) + 1)}


BIMODAL_TARGETS = substrings("oio") | substrings("ioi")


def compatible_ref(x, y):
    return collapse_ref(x + y) in BIMODAL_TARGETS


def compatible_wrt_ref(x, y, target):
    return collapse_ref(x + y) in substrings(target)


def fillings(config):
    """All dart direction sequences realizing the configuration with every
    block nonempty (sizes one or two)."""
    out = []
    for sizes in itertools.product((1, 2), repeat=len(config)):
        out.append("".join(ch * k for ch, k in zip(config, sizes)))
    return out


def cyclic_switches(seq):
    k = len(seq)
    if k <= 1:
        return 0
    return sum(1 for j in range(k) if seq[j] != seq[(j + 1) % k])


class TestConfigurationAlgebra:
    def test_exhaustive_compatible(self):
        for x in CONFIGS:
            for y in CONFIGS:
                assert compatible(x, y) == compatible_ref(x, y)
                assert compatible(x, y) == compatible(y, x)

    def test_exhaustive_compatible_wrt(self):
        count = 0
        for x in CONFIGS:
            for y in CONFIGS:
                for t in CONFIGS:
                    assert compatible_wrt(x, y, t) == compatible_wrt_ref(x, y, t)
                    count += 1
        assert count == 216

    def test_pinned_cases(self):
        assert compatible("oio", "o")
        assert compatible("i", "ioi")
        assert not compatible("io", "io")
        assert compatible_wrt("io", "o", "io")
        assert not compatible_wrt("io", "o", "oi")
        assert compatible_wrt("i", "i", "i")

    def test_maximal_compatible_pairs(self):
        for small, big in (("i", "ioi"), ("o", "oio"), ("oi", "io")):
            assert compatible(small, big)
            for other in CONFIGS:
                if compatible(small, other):
                    assert other in substrings(big)

    def test_join_pairs_are_maximal_elements_of_down_sets(self):
        """The join tries only the maximal valid child-configuration pairs.
        That is exact because every valid pair set is down-closed in the
        product substring order and tables are monotone in it (see
        test_monotone_in_assignment)."""
        def below(x, y):
            return x in substrings(y)

        def check(is_valid, listed):
            valid = {(x, y) for x in CONFIGS for y in CONFIGS if is_valid(x, y)}
            for x, y in valid:
                assert all((a, b) in valid for a in CONFIGS for b in CONFIGS
                           if below(a, x) and below(b, y))
            maximal = {p for p in valid
                       if not any(q != p and below(p[0], q[0]) and below(p[1], q[1])
                                  for q in valid)}
            names = [(CONFIGS[x1], CONFIGS[x2]) for x1, x2 in listed]
            assert len(names) == len(set(names)) and set(names) == maximal
            return len(valid), len(maximal)

        assert check(compatible_ref, _INTERIOR_PAIRS) == (18, 6)
        for k, t in enumerate(CONFIGS):
            # the child whose run comes first at the vertex is child `first`
            for first, rule in ((1, lambda x, y: compatible_wrt_ref(x, y, t)),
                                (2, lambda x, y: compatible_wrt_ref(y, x, t))):
                valid, maximal = check(rule, _TARGET_PAIRS[first][k])
                assert valid <= 13 and maximal <= 3

    def test_asymmetry_of_wrt(self):
        asym = [(x, y, t) for x in CONFIGS for y in CONFIGS for t in CONFIGS
                if compatible_wrt(x, y, t) != compatible_wrt(y, x, t)]
        assert asym  # order matters for at least one triple

    def test_compatible_means_bimodal_merge(self):
        """With every block filled nonempty, the cyclic merge of two
        configurations has at most two switches iff they are compatible."""
        for x in CONFIGS:
            for y in CONFIGS:
                merged_ok = all(cyclic_switches(fx + fy) <= 2
                                for fx in fillings(x) for fy in fillings(y))
                assert merged_ok == compatible(x, y)

    def test_realizes_examples(self):
        assert realizes("", "i")
        assert realizes("iio", "ioi")
        assert not realizes("oi", "io")
        assert realizes("ooo", "oio")


# -- leaf tables ---------------------------------------------------------

def path5_instance():
    """Star of two out-edges at v plus pendants keeping all mids populated."""
    edges = [(0, 1), (0, 2), (1, 3), (2, 4), (0, 5)]
    rot = [[dart(0, TAIL), dart(1, TAIL), dart(4, TAIL)],
           [dart(0, HEAD), dart(2, TAIL)],
           [dart(1, HEAD), dart(3, TAIL)],
           [dart(2, HEAD)], [dart(3, HEAD)], [dart(4, HEAD)]]
    return Instance(PlaneDigraph(6, edges, rot), (Fraction(1),) * 5)


def caterpillar_over(m):
    if m == 2:
        return SphereCutDecomposition(2, ((0, 1),), {0: 0, 1: 1})
    internal = [m + j for j in range(m - 2)]
    arcs = [(0, internal[0]), (1, internal[0])]
    for j in range(1, m - 2):
        arcs.append((internal[j - 1], internal[j]))
        arcs.append((j + 1, internal[j]))
    arcs.append((m - 1, internal[-1]))
    return SphereCutDecomposition(m + len(internal), tuple(arcs),
                                  {j: j for j in range(m)})


class TestLeafTable:
    def setup_method(self):
        self.inst = triangle_instance()
        self.dec = caterpillar_over(3)
        assert validate_decomposition(self.inst.graph, self.dec).ok
        self.rooted = RootedDecomposition(self.inst.graph, self.dec, 2)
        self.boundary = self.rooted.boundary(0)   # leaf arc of edge 0 = (0, 1)
        int_w, _ = scaled_int_weights(self.inst.weights)
        self.table = leaf_table(self.inst, self.boundary, int_w)

    def test_all_36_feasible(self):
        assert len(self.table.costs) == 36
        assert all(c is not None for c in self.table.costs)

    def test_keep_cases(self):
        # edge 0 = (0, 1): tail 0 needs o, head 1 needs i
        assert self.table.cost({0: "o", 1: "i"}) == 0
        assert self.table.cost({0: "oio", 1: "ioi"}) == 0
        assert self.table.cost({0: "i", 1: "i"}) == 1
        assert self.table.cost({0: "o", 1: "o"}) == 1

    def test_wrong_boundary_rejected(self):
        top = self.rooted.children[2][0]
        with pytest.raises(DecompositionError):
            leaf_table(self.inst, self.rooted.boundary(top))


class TestJoin:
    def make_join(self, assignment_checks):
        inst = path5_instance()
        dec = caterpillar_over(5)
        assert validate_decomposition(inst.graph, dec).ok
        rooted = RootedDecomposition(inst.graph, dec, root_leaf=4)
        int_w, _ = scaled_int_weights(inst.weights)
        b0, b1 = rooted.boundary(0), rooted.boundary(1)
        t0 = leaf_table(inst, b0, int_w)
        t1 = leaf_table(inst, b1, int_w)
        join_node = 5
        parent = rooted.boundary(join_node)
        table = join_tables(inst, parent, b0, b1, t0, t1, int_w)
        for assignment, want in assignment_checks:
            assert table.cost(assignment) == want, assignment
        return inst, parent, table

    def test_two_out_edges(self):
        # edges 0 and 1 both leave vertex 0; parent mid is {0, 1, 2}
        self.make_join([
            ({0: "o", 1: "ioi", 2: "ioi"}, 0),
            ({0: "i", 1: "ioi", 2: "ioi"}, 2),   # both out-edges must go
        ])

    def test_join_against_per_assignment_brute_force(self, corpus_small):
        checked = 0
        for inst in corpus_small:
            g = inst.graph
            if not (4 <= g.edge_count <= 7):
                continue
            dec = _recursive_bisection(g)    # balanced trees give two-sided joins
            root = min(dec.leaf_map)
            rooted = RootedDecomposition(g, dec, root)
            int_w, _ = scaled_int_weights(inst.weights)
            boundaries, tables = {}, {}
            for node in rooted.post_order:
                b = rooted.boundary(node)
                boundaries[node] = b
                kids = rooted.children[node]
                if not kids:
                    tables[node] = leaf_table(inst, b, int_w)
                else:
                    tables[node] = join_tables(inst, b, boundaries[kids[0]],
                                               boundaries[kids[1]],
                                               tables[kids[0]], tables[kids[1]], int_w)
                    compare_table_to_brute_force(inst, b, tables[node], int_w)
                    checked += 1
            if checked > 25:
                break
        assert checked > 5


def compare_table_to_brute_force(inst, boundary, table, int_w):
    """Independent semantics of a table entry: cheapest deletion of inside
    edges making interior vertices bimodal and realizing the assignment."""
    g = inst.graph
    inside = sorted(boundary.inside_edges)
    interior = [v for v in range(g.vertex_count)
                if g.rotation[v] and v not in boundary.mid
                and all(dart_edge(d) in boundary.inside_edges for d in g.rotation[v])]
    best = {}
    for keep_mask in range(1 << len(inside)):
        kept = {inside[j] for j in range(len(inside)) if (keep_mask >> j) & 1}
        if any(g.switch_count(v, kept) > 2 for v in interior):
            continue
        cost = sum(int_w[e] for e in inside if e not in kept)
        patterns = {}
        for v in boundary.mid:
            start, length = boundary.runs[v]
            row = g.rotation[v]
            run = [row[(start + j) % len(row)] for j in range(length)]
            patterns[v] = "".join(dart_direction(d) for d in run
                                  if dart_edge(d) in kept)
        for code in range(len(table.costs)):
            assignment = table.assignment_of_code(code)
            if all(realizes_ref(patterns[v], assignment[v]) for v in boundary.mid):
                if code not in best or cost < best[code]:
                    best[code] = cost
    for code in range(len(table.costs)):
        assert table.costs[code] == best.get(code), (
            f"entry {table.assignment_of_code(code)}: "
            f"table {table.costs[code]} vs brute force {best.get(code)}")


def decode_ref(mid, code):
    return {v: CONFIGS[code // 6 ** k % 6] for k, v in enumerate(mid)}


def join_rule(parent, b1, b2, t1, t2):
    """The parent entries that child entries code1, code2 may combine
    into, vertex by vertex from the definition of the join."""
    shared = set(t1.mid) & set(t2.mid)
    first = {v: _first_child_at(parent, b1, b2, v) for v in shared & set(parent.mid)}
    interior = shared - set(parent.mid)
    targets = {(x, y): [t for t in CONFIGS if compatible_wrt_ref(x, y, t)]
               for x in CONFIGS for y in CONFIGS}
    assignments1 = [decode_ref(t1.mid, code) for code in range(len(t1.costs))]
    assignments2 = [decode_ref(t2.mid, code) for code in range(len(t2.costs))]

    def parents(code1, code2):
        a1, a2 = assignments1[code1], assignments2[code2]
        if not all(compatible_ref(a1[v], a2[v]) for v in interior):
            return []
        options = []
        for v in parent.mid:
            if v not in shared:
                options.append([a1[v] if v in a1 else a2[v]])
            elif first[v] == 1:
                options.append(targets[a1[v], a2[v]])
            else:
                options.append(targets[a2[v], a1[v]])
        return [sum(CONFIGS.index(c) * 6 ** k for k, c in enumerate(pick))
                for pick in itertools.product(*options)]

    return parents


def loose_join(parent, b1, b2, t1, t2):
    """Reference costs: every pair of feasible child entries, offered to
    every parent entry it may combine into."""
    parents = join_rule(parent, b1, b2, t1, t2)
    costs = [None] * 6 ** len(parent.mid)
    for code1, a in enumerate(t1.costs):
        if a is None:
            continue
        for code2, b in enumerate(t2.costs):
            if b is None:
                continue
            for code3 in parents(code1, code2):
                if costs[code3] is None or a + b < costs[code3]:
                    costs[code3] = a + b
    return costs


def realizes_ref(pattern, config):
    p = collapse_ref(pattern)
    return p == "" or p in substrings(config)


class TestSolveDP:
    def test_two_edge_path(self):
        edges = [(0, 1), (1, 2)]
        rot = [[dart(0, TAIL)], [dart(0, HEAD), dart(1, TAIL)], [dart(1, HEAD)]]
        inst = Instance(PlaneDigraph(3, edges, rot), (Fraction(1), Fraction(1)))
        dec = build_sphere_cut(inst.graph)
        assert dec.node_count == 2
        sol = solve_dp(inst, dec)
        assert sol.deleted_weight == 0 and sol.kept_edges == {0, 1}

    def test_alternating_star(self):
        inst = star4_instance()
        for build in (_greedy_sweep, _recursive_bisection):
            sol = solve_dp(inst, build(inst.graph))
            assert sol.deleted_weight == 1 and sol.kept_weight == 3

    def test_oracle_equivalence_slice(self, corpus_small, oracle_of):
        for inst in corpus_small[:60]:
            dec = build_sphere_cut(inst.graph)
            sol = solve_dp(inst, dec)
            assert sol.kept_weight == oracle_of(inst).kept_weight

    def test_solution_is_bimodal(self, corpus_small):
        for inst in corpus_small[:40]:
            dec = build_sphere_cut(inst.graph)
            sol = solve_dp(inst, dec)
            assert max(sol.certificate, default=0) <= 2

    def test_root_invariance(self, corpus_small):
        rng = random.Random(7)
        for inst in corpus_small[:25]:
            dec = build_sphere_cut(inst.graph)
            base = solve_dp(inst, dec).deleted_weight
            leaves = sorted(dec.leaf_map)
            for root in rng.sample(leaves, min(3, len(leaves))):
                assert solve_dp(inst, dec, root_leaf=root).deleted_weight == base

    def test_loose_join_differential(self, corpus_small):
        """Entry by entry, the join equals the reference join over every
        pair of child entries, and each back-pointer names a valid pair of
        feasible child entries whose costs sum to the parent's."""
        checked = 0
        for inst in corpus_small[:40]:
            g = inst.graph
            if g.edge_count > 10:
                continue
            dec = build_sphere_cut(g)
            rooted = RootedDecomposition(g, dec, min(dec.leaf_map))
            int_w, _ = scaled_int_weights(inst.weights)
            boundaries, tables = {}, {}
            for node in rooted.post_order:
                b = boundaries[node] = rooted.boundary(node)
                kids = rooted.children[node]
                if not kids:
                    tables[node] = leaf_table(inst, b, int_w)
                    continue
                b1, b2 = boundaries[kids[0]], boundaries[kids[1]]
                t1, t2 = tables[kids[0]], tables[kids[1]]
                table = tables[node] = join_tables(inst, b, b1, b2, t1, t2, int_w)
                parents = join_rule(b, b1, b2, t1, t2)
                assert table.costs == loose_join(b, b1, b2, t1, t2)
                for code3, cost in enumerate(table.costs):
                    if cost is None:
                        assert table.back[code3] is None
                        continue
                    code1, code2 = table.back[code3]
                    assert code3 in parents(code1, code2)
                    assert t1.costs[code1] is not None and t2.costs[code2] is not None
                    assert t1.costs[code1] + t2.costs[code2] == cost
                checked += 1
        assert checked > 100

    def test_scaling_invariance(self, corpus_small):
        for inst in corpus_small[:15]:
            c = Fraction(7, 3)
            scaled = Instance(inst.graph, tuple(w * c for w in inst.weights))
            dec = build_sphere_cut(inst.graph)
            a = solve_dp(inst, dec)
            b = solve_dp(scaled, dec)
            assert b.deleted_weight == c * a.deleted_weight
            assert b.kept_edges == a.kept_edges

    def test_monotone_in_assignment(self, corpus_small):
        """Relaxing one coordinate to a superstring configuration never
        increases the deleted weight."""
        checked = 0
        for inst in corpus_small:
            g = inst.graph
            if not (4 <= g.edge_count <= 8):
                continue
            dec = build_sphere_cut(g)
            rooted = RootedDecomposition(g, dec, min(dec.leaf_map))
            int_w, _ = scaled_int_weights(inst.weights)
            boundaries, tables = {}, {}
            for node in rooted.post_order:
                b = rooted.boundary(node)
                boundaries[node] = b
                kids = rooted.children[node]
                if not kids:
                    tables[node] = leaf_table(inst, b, int_w)
                else:
                    tables[node] = join_tables(inst, b, boundaries[kids[0]],
                                               boundaries[kids[1]],
                                               tables[kids[0]], tables[kids[1]], int_w)
            for table in tables.values():
                for code in range(len(table.costs)):
                    assignment = table.assignment_of_code(code)
                    for v in table.mid:
                        for bigger in CONFIGS:
                            if assignment[v] != bigger and assignment[v] in substrings(bigger):
                                relaxed = dict(assignment)
                                relaxed[v] = bigger
                                a = table.cost(assignment)
                                b = table.cost(relaxed)
                                if a is not None and b is not None:
                                    assert a >= b
            checked += 1
            if checked >= 8:
                break
        assert checked

"""Configuration algebra and the table solver, checked against
independently implemented oracles."""

import collections
import hashlib
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

import mwbs.decomposition as decomposition
import mwbs.dp as dp
import mwbs.eptas as eptas
import mwbs.kernel as kernel
from mwbs.decomposition import (
    SphereCutDecomposition,
    _greedy_sweep,
    _recursive_bisection,
    _skeleton,
    _validated,
    build_sphere_cut,
    decomposition_from_document,
    validate_decomposition,
)
from mwbs.configs import (
    CLASS_MAPS,
    CLASS_ORDERS,
    CONFIGS,
    collapse,
    compatible,
    compatible_wrt,
    realizes,
)
from mwbs.dp import (
    _INTERIOR_CLASS_PAIRS,
    _INTERIOR_PAIRS,
    _TARGET_CLASS_PAIRS,
    _TARGET_PAIRS,
    _chosen_pair,
    flat_table,
    join_tables,
    leaf_table,
    solve_dp,
)
from mwbs.errors import DecompositionError
from mwbs.generate import GenParams, gen_instance
from mwbs.kernel import solve_subexponential
from mwbs.plane import (
    HEAD,
    TAIL,
    Instance,
    PlaneDigraph,
    canonical_json,
    component_instance,
    dart,
    dart_direction,
    dart_edge,
)

from oracles import class_map, first_child_at, leaf_keeps, reference_rooted, whole_view
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


# -- configuration classes -----------------------------------------------

def run_of(key):
    """The collapsed run of a ``CLASS_MAPS`` key (first dart end, switches)."""
    end, switches = key
    return ("oioi", "ioio")[end][:switches + 1]


def pattern_sets_ref(run, cmap):
    """Per class of ``cmap``, the configurations that are subsequences of
    ``run`` and realize the class's smallest configuration."""
    subsequences = {"".join(pick) for r in range(1, len(run) + 1)
                    for pick in itertools.combinations(run, r)}
    reps = [cmap.index(k) for k in range(max(cmap) + 1)]
    return [{p for p in CONFIGS if p in subsequences and realizes(p, CONFIGS[r])}
            for r in reps]


def class_orders_ref():
    """Class map -> le[a][b]: class a's pattern set lies within class b's
    on every run of ``CLASS_MAPS`` that has the map."""
    runs = {}
    for key, cmap in CLASS_MAPS.items():
        runs.setdefault(cmap, []).append(pattern_sets_ref(run_of(key), cmap))
    return {cmap: [[all(sets[a] <= sets[b] for sets in per_run) for b in range(len(per_run[0]))]
                   for a in range(len(per_run[0]))]
            for cmap, per_run in runs.items()}


def maximal_ref(pairs, le1, le2):
    return {p for p in pairs
            if not any(q != p and le1[p[0]][q[0]] and le2[p[1]][q[1]] for q in pairs)}


class TestClassMaps:
    COUNTS = {"i": 2, "o": 2, "io": 4, "oi": 4, "ioi": 6, "oio": 6, "ioio": 6, "oioi": 6}

    def test_class_counts(self):
        assert {run: max(class_map(run)) + 1 for run in self.COUNTS} == self.COUNTS

    def test_numbered_by_smallest_config(self):
        assert class_map("i") == (0, 1, 0, 0, 0, 0)
        assert class_map("o") == (0, 1, 1, 1, 1, 1)
        assert class_map("io") == (0, 1, 2, 3, 2, 2)
        assert class_map("oi") == (0, 1, 2, 3, 3, 3)
        for run in self.COUNTS:
            cmap = class_map(run)
            firsts = [cmap.index(k) for k in range(max(cmap) + 1)]
            assert firsts == sorted(firsts)

    def test_classes_are_the_realized_pattern_sets(self):
        """Two configurations share a class iff the same subsequences of
        the run realize them, read off uncollapsed runs."""
        for run in ("i", "ii", "o", "io", "iioo", "oi", "ioi", "oio", "iooi", "ioio", "oioio"):
            subsequences = {"".join(pick) for r in range(1, len(run) + 1)
                            for pick in itertools.combinations(run, r)}
            cmap = class_map(run)
            fits = [frozenset(p for p in subsequences if realizes_ref(p, c)) for c in CONFIGS]
            for x, y in itertools.product(range(6), repeat=2):
                assert (cmap[x] == cmap[y]) == (fits[x] == fits[y]), (run, x, y)

    def test_long_runs_share_the_six_class_map(self):
        six = tuple(range(6))
        for run in ("ioi", "oio", "ioio", "oioi", "ioioi", "oioio"):
            assert class_map(run) == six
        assert sorted(CLASS_MAPS) == [(end, s) for end in (0, 1) for s in range(4)]
        for (end, switches), cmap in CLASS_MAPS.items():
            assert cmap == class_map(("oioi", "ioio")[end][:switches + 1])
            assert (cmap == six) == (switches >= 2)

    def test_class_orders_intersect_every_run(self):
        """The six-class map is shared by the runs oio, ioi, oioi and ioio,
        whose inclusion orders differ: under oio alone the ioi class lies
        within the oio class, under oioi it does not, so only the order
        common to all four is sound for the map."""
        orders = class_orders_ref()
        assert {cmap: [list(row) for row in le] for cmap, le in CLASS_ORDERS.items()} == orders
        six = tuple(range(6))
        oio, ioi = CONFIGS.index("oio"), CONFIGS.index("ioi")
        assert pattern_sets_ref("oio", six)[ioi] <= pattern_sets_ref("oio", six)[oio]
        assert not pattern_sets_ref("oioi", six)[ioi] <= pattern_sets_ref("oioi", six)[oio]
        assert not orders[six][ioi][oio]
        # on the six-class map the common order is the substring order
        assert orders[six] == [[a in substrings(b) for b in CONFIGS] for a in CONFIGS]
        # finer than the substring order elsewhere: on io, oi lies below io
        io_map = class_map("io")
        assert orders[io_map][io_map[CONFIGS.index("oi")]][io_map[CONFIGS.index("io")]]

    def test_class_pair_lists_are_the_maximal_class_images(self):
        """Per pair of child class maps, the join's class pair lists are
        exactly the maximal elements, in the product of the two class
        orders, of the class images of all valid configuration pairs, each
        listed once."""
        orders = class_orders_ref()
        rules = {("interior", None): lambda x, y, t: compatible_ref(x, y),
                 ("target", 1): lambda x, y, t: compatible_wrt_ref(x, y, t),
                 ("target", 2): lambda x, y, t: compatible_wrt_ref(y, x, t)}
        checked = 0
        for m1, m2 in itertools.product(orders, repeat=2):
            for (kind, first), rule in rules.items():
                for k, t in enumerate(CONFIGS):
                    if kind == "interior" and k:
                        continue
                    listed = (dp._INTERIOR_CLASS_PAIRS[m1, m2] if kind == "interior"
                              else dp._TARGET_CLASS_PAIRS[first][m1, m2][k])
                    images = {(m1[x1], m2[x2]) for x1, x2 in itertools.product(range(6), repeat=2)
                              if rule(CONFIGS[x1], CONFIGS[x2], t)}
                    assert len(listed) == len(set(listed))
                    assert set(listed) == maximal_ref(images, orders[m1], orders[m2]), \
                        (kind, first, t, m1, m2)
                    checked += 1
        assert checked == 25 * 13

    def test_boundaries_carry_the_class_map_of_their_runs(self, corpus_small):
        checked = 0
        for inst in corpus_small[:60]:
            g = inst.graph
            rooted = validate_decomposition(g, build_sphere_cut(g)).rooted
            for b in rooted.boundaries.values():
                assert len(b.classes) == len(b.mid)
                for v, cmap in zip(b.mid, b.classes):
                    run = "".join(dart_direction(d) for d in run_darts(g, b, v))
                    assert cmap == class_map(run)
                    checked += 1
        assert checked > 1000


# -- leaf tables ---------------------------------------------------------

def path5_instance():
    """Star of two out-edges at v plus pendants keeping all mids populated."""
    edges = [(0, 1), (0, 2), (1, 3), (2, 4), (0, 5)]
    rot = [[dart(0, TAIL), dart(1, TAIL), dart(4, TAIL)],
           [dart(0, HEAD), dart(2, TAIL)],
           [dart(1, HEAD), dart(3, TAIL)],
           [dart(2, HEAD)], [dart(3, HEAD)], [dart(4, HEAD)]]
    return Instance(PlaneDigraph(6, edges, rot), (Fraction(1),) * 5)


def path_instance(m):
    """A directed path of m unit-weight edges."""
    edges = [(j, j + 1) for j in range(m)]
    rot = ([[dart(0, TAIL)]] + [[dart(j - 1, HEAD), dart(j, TAIL)] for j in range(1, m)]
           + [[dart(m - 1, HEAD)]])
    return Instance(PlaneDigraph(m + 1, edges, rot), (Fraction(1),) * m)


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


def every_class(boundary):
    """The demand that tabulates every class at every position."""
    return tuple((1 << (max(cmap) + 1)) - 1 for cmap in boundary.classes)


def all_class_table(inst, rooted, tables, node, leaf_map):
    """The table of every class of ``node``'s arc, from its children's
    tables in ``tables``."""
    b = rooted.boundaries[node]
    kids = rooted.children[node]
    if not kids:
        return leaf_table(inst, b, leaf_map[node], every_class(b))
    return join_tables(b, *(tables[k] for k in kids), every_class(b), rooted.splits[node])


def rooted_tables(inst, dec, root_leaf=None):
    """The validator's rooted view of ``dec``, with every arc's boundary
    and every join's split (``oracles.whole_view``), and the table of
    every class of every arc, built bottom-up by leaf tables and joins."""
    report = validate_decomposition(inst.graph, dec, root_leaf)
    assert report.ok, report.violations
    rooted = whole_view(inst.graph, dec, report.rooted)
    tables = {}
    for node in rooted.post_order:
        tables[node] = all_class_table(inst, rooted, tables, node, dec.leaf_map)
    return rooted, tables, inst.int_weights.values


def inside_sets(rooted, leaf_map):
    """The inside edge set of every arc of a rooted view, keyed like its
    boundaries: a leaf's edge, or the union of the children's sets."""
    inside = {}
    for node in rooted.post_order:
        own = {leaf_map[node]} if node in leaf_map else set()
        inside[node] = frozenset(own.union(*(inside[k] for k in rooted.children[node])))
    return inside


def fan_instance(k):
    """Hub 0 with out-edges (spokes) 0..k-1 to vertices 1..k, and the path
    1 -> 2 -> ... -> k along the rim (edges k..2k-2); unit weights."""
    edges = [(0, j) for j in range(1, k + 1)] + [(j, j + 1) for j in range(1, k)]
    rot = [[dart(j, TAIL) for j in range(k)]]
    for j in range(1, k + 1):
        row = [dart(j - 1, HEAD)]
        if j > 1:
            row.append(dart(k + j - 2, HEAD))
        if j < k:
            row.append(dart(k + j - 1, TAIL))
        rot.append(row)
    return Instance(PlaneDigraph(k + 1, edges, rot), (Fraction(1),) * len(edges))


def spokes_join(k):
    """The arguments of the join that makes the arc over the spokes of
    ``fan_instance(k)``: that arc's boundary, its children's tables, the
    demand of every class and the join's split.
    The tree is balanced over the spokes, with the rim edges hung above
    it one at a time and the last rim edge at the root."""
    inst = fan_instance(k)
    nested = halves(list(range(k)))
    for e in range(k, 2 * k - 1):
        nested = (e, nested)
    dec = tree_of(nested)
    root = next(node for node, e in dec.leaf_map.items() if e == 2 * k - 2)
    report = validate_decomposition(inst.graph, dec, root)
    assert report.ok and report.width == k
    rooted = report.rooted
    tables = {}
    for node in rooted.post_order:
        b = rooted.boundaries[node]
        if len(b.mid) == k:
            return (b, *(tables[c] for c in rooted.children[node]), every_class(b),
                    rooted.splits[node])
        tables[node] = all_class_table(inst, rooted, tables, node, dec.leaf_map)
    raise AssertionError("no arc has all rim vertices on its middle set")


def tree_of(nested):
    """The decomposition of a nested pair of pairs over edge ids, the two
    halves of the outermost pair joined by one arc."""
    arcs, leaf_map = [], {}
    count = itertools.count()

    def build(t):
        node = next(count)
        if isinstance(t, int):
            leaf_map[node] = t
        else:
            for sub in t:
                arcs.append((build(sub), node))
        return node

    left, right = nested
    arcs.append((build(left), build(right)))
    return SphereCutDecomposition(next(count), tuple(arcs), leaf_map)


def halves(ids):
    return ids[0] if len(ids) == 1 else (halves(ids[:len(ids) // 2]), halves(ids[len(ids) // 2:]))


def record_tables(monkeypatch):
    """Record every table that ``solve_dp`` builds, with its children's
    tables (none for a leaf, None for a flat arc) and the arguments of the
    call that built it."""
    made = []
    real_leaf, real_join, real_flat = dp.leaf_table, dp.join_tables, dp.flat_table

    def leaf(*args):
        table = real_leaf(*args)
        made.append((table, (), args))
        return table

    def flat(*args):
        table = real_flat(*args)
        made.append((table, None, args))
        return table

    def join(*args):
        table = real_join(*args)
        made.append((table, args[1:3], args))
        return table

    monkeypatch.setattr(dp, "leaf_table", leaf)
    monkeypatch.setattr(dp, "join_tables", join)
    monkeypatch.setattr(dp, "flat_table", flat)
    return made


def count_constructions(monkeypatch):
    """Record every ArcBoundary and JoinSplit that the decomposition
    module constructs, by type name, and every rooted view it walks."""
    made = collections.defaultdict(list)
    walks = []

    def counted(cls):
        def make(*args):
            value = cls(*args)
            made[cls.__name__].append(value)
            return value
        return make

    class Walked(decomposition.RootedDecomposition):
        def __init__(self, *args):
            walks.append(self)
            super().__init__(*args)

    for cls in (decomposition.ArcBoundary, decomposition.JoinSplit):
        monkeypatch.setattr(decomposition, cls.__name__, counted(cls))
    monkeypatch.setattr(decomposition, "RootedDecomposition", Walked)
    return made, walks


def tabulated_reps(table):
    """Per middle-set vertex, the smallest configuration of each class
    that the table tabulates, in class order: the classes of its demand."""
    b = table.boundary
    return {v: [cmap.index(c) for c in range(max(cmap) + 1) if mask >> c & 1]
            for v, cmap, mask in zip(b.mid, b.classes, table.demand)}


def entry_codes(table):
    """Per entry, in index order, the configuration code of its classes'
    smallest configurations."""
    reps = list(tabulated_reps(table).values())
    codes = []
    for index in range(len(table.costs)):
        code = 0
        for k, by_digit in enumerate(reps):
            index, digit = divmod(index, len(by_digit))
            code += by_digit[digit] * 6 ** k
        codes.append(code)
    return codes


def code_index(table, code):
    """The index of the entry that configuration code ``code`` (index
    times 6**k at position k) reads, through the boundary's class maps
    and the table's demand: the inverse of ``entry_codes``.  KeyError when
    one of its classes is not tabulated."""
    index, weight, rest = 0, 1, code
    for cmap, mask in zip(table.boundary.classes, table.demand):
        rest, config = divmod(rest, 6)
        c = cmap[config]
        if not mask >> c & 1:
            raise KeyError(f"configuration code {code} reads an untabulated class")
        index += (mask & ((1 << c) - 1)).bit_count() * weight
        weight *= mask.bit_count()
    return index


def code_cost(table, code):
    """The entry that configuration code ``code`` reads."""
    return table.costs[code_index(table, code)]


def below_flat(rooted, made):
    """The nodes strictly below the flat tables in ``made``."""
    below = set()
    stack = [node for table, kids, _args in made if kids is None
             for node in rooted.children[table.boundary.arc[0]]]
    while stack:
        node = stack.pop()
        below.add(node)
        stack += rooted.children[node]
    return below


def compare_to_all_class_tables(inst, dec, root_leaf, made):
    """``made``, the tables that ``solve_dp`` built on ``dec`` at
    ``root_leaf``, holds one table per arc not below a flat arc, and each
    of its entries equals the entry of the all-class table of its arc;
    returns the entry counts of both, the second over every arc."""
    rooted, tables, _ = rooted_tables(inst, dec, root_leaf)
    below = below_flat(rooted, made)
    by_arc = {table.boundary.arc: table for node, table in tables.items() if node not in below}
    assert sorted(table.boundary.arc for table, _kids, _args in made) == sorted(by_arc)
    for table, _kids, _args in made:
        whole = by_arc[table.boundary.arc]
        assert table.boundary == whole.boundary
        for code, cost in zip(entry_codes(table), table.costs):
            assert code_cost(whole, code) == cost
    return (sum(len(table.costs) for table, _kids, _args in made),
            sum(len(table.costs) for table in tables.values()))


class TestLeafTable:
    def setup_method(self):
        self.inst = triangle_instance()
        self.rooted, tables, _ = rooted_tables(self.inst, caterpillar_over(3), 2)
        self.table = tables[0]              # leaf arc of edge 0 = (0, 1)

    def cost(self, assignment):
        return code_cost(self.table, encode_ref(self.table.boundary.mid, assignment))

    def test_all_36_feasible(self):
        """Each endpoint's run is the edge's one dart, so two classes each:
        four entries stand for all 36 assignments, and every one of them
        reads the cost of keeping or deleting the edge."""
        assert len(self.table.costs) == 4
        assert self.table.boundary.mid == (0, 1)
        for x0, x1 in itertools.product(CONFIGS, repeat=2):
            want = 0 if "o" in x0 and "i" in x1 else 1
            assert self.cost({0: x0, 1: x1}) == want, (x0, x1)

    def test_keep_cases(self):
        # edge 0 = (0, 1): tail 0 needs o, head 1 needs i
        assert self.cost({0: "o", 1: "i"}) == 0
        assert self.cost({0: "oio", 1: "ioi"}) == 0
        assert self.cost({0: "i", 1: "i"}) == 1
        assert self.cost({0: "o", 1: "o"}) == 1

    def test_wrong_boundary_rejected(self):
        b = self.rooted.boundaries[self.rooted.children[2][0]]
        with pytest.raises(DecompositionError):
            leaf_table(self.inst, b, 0, every_class(b))

    def test_keep_flags_follow_the_letter_rule(self, corpus_small, monkeypatch):
        """Every entry of every leaf table that ``solve_dp`` builds keeps
        its edge exactly when the letters of the edge's darts fit the
        representatives of the entry's classes; checked at the lowest,
        middle and highest leaf."""
        made = record_tables(monkeypatch)
        flags = collections.Counter()
        for inst in corpus_small[:60]:
            dec = build_sphere_cut(inst.graph)
            leaves = sorted(dec.leaf_map)
            for root in (leaves[0], leaves[len(leaves) // 2], leaves[-1]):
                made.clear()
                solve_dp(inst, dec, root)
                for table, kids, args in made:
                    if kids != ():
                        continue        # a join or a flat arc
                    e = args[2]
                    assert len(table.keeps) == len(table.costs)
                    for index, keep in enumerate(table.keeps):
                        assert keep == leaf_keeps(inst, table, e, index)
                        flags[keep] += 1
        assert flags[True] > 1000 and flags[False] > 400


class TestJoin:
    def test_two_out_edges(self):
        # edges 0 and 1 both leave vertex 0; the join of leaves 0 and 1 at
        # node 5 has parent mid {0, 1, 2}
        _rooted, tables, _ = rooted_tables(path5_instance(), caterpillar_over(5), 4)
        table = tables[5]
        for assignment, want in (({0: "o", 1: "ioi", 2: "ioi"}, 0),
                                 ({0: "i", 1: "ioi", 2: "ioi"}, 2)):   # both out-edges must go
            assert code_cost(table, encode_ref(table.boundary.mid, assignment)) == want, assignment

    def test_children_must_partition_the_parent(self):
        rooted, tables, _ = rooted_tables(path5_instance(), caterpillar_over(5), 4)
        top = rooted.children[4][0]
        b = rooted.boundaries[top]
        assert b.inside_count == 4
        with pytest.raises(DecompositionError, match="partition the parent inside"):
            join_tables(b, tables[0], tables[1], every_class(b), rooted.splits[top])

    def test_twenty_single_direction_positions(self):
        """The arc over the spokes of a 20-spoke fan has the 20 rim
        vertices on its middle set, each with one in-dart inside: two
        classes each, so 2**20 entries, read by configuration codes up to
        6**20 - 1.  An entry deletes one spoke per rim vertex assigned o,
        and the hub, interior to the arc, only has out-edges."""
        k = 20
        table = join_tables(*spokes_join(k))
        assert table.boundary.mid == tuple(range(1, k + 1))
        assert table.boundary.classes == (class_map("i"),) * k
        assert len(table.costs) == 2 ** k
        assert code_cost(table, 6 ** k - 1) == 0                    # every vertex ioi
        assert code_cost(table, CONFIGS.index("o") * 6 ** (k - 1)) == 1
        rng = random.Random(20)
        for _ in range(200):
            assignment = {v: rng.choice(CONFIGS) for v in table.boundary.mid}
            want = sum(c == "o" for c in assignment.values())
            assert code_cost(table, encode_ref(table.boundary.mid, assignment)) == want

    def test_forced_offsets_memory(self):
        """The join over the spokes of a 14-spoke fan forces every one of
        its 2**14 entries' positions.  Kept as three flat offset lists,
        the join peaks at about 1.1 MB of traced allocations; one offset
        triple per entry took 2.55 MB."""
        args = spokes_join(14)
        tracemalloc.start()
        try:
            table = join_tables(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table.costs) == 2 ** 14
        assert peak <= 1_600_000

    def test_join_against_per_assignment_brute_force(self, corpus_small):
        checked = 0
        for inst in corpus_small:
            g = inst.graph
            if not (4 <= g.edge_count <= 7):
                continue
            # balanced trees give two-sided joins
            dec = _recursive_bisection(g)
            rooted, tables, int_w = rooted_tables(inst, dec)
            inside = inside_sets(rooted, dec.leaf_map)
            for node in rooted.post_order:
                if rooted.children[node]:
                    compare_table_to_brute_force(inst, tables[node], inside[node], int_w)
                    checked += 1
            if checked > 25:
                break
        assert checked > 5


def compare_table_to_brute_force(inst, table, inside_edges, int_w):
    """Independent semantics of a table entry: cheapest deletion of inside
    edges making interior vertices bimodal and realizing the assignment.
    Every configuration code is read through the class maps."""
    g = inst.graph
    boundary = table.boundary
    inside = sorted(inside_edges)
    interior = [v for v in range(g.vertex_count)
                if g.rotation[v] and v not in boundary.mid
                and all(dart_edge(d) in inside_edges for d in g.rotation[v])]
    codes = range(6 ** len(boundary.mid))
    best = {}
    for keep_mask in range(1 << len(inside)):
        kept = {inside[j] for j in range(len(inside)) if (keep_mask >> j) & 1}
        if any(g.switch_count(v, kept) > 2 for v in interior):
            continue
        cost = sum(int_w[e] for e in inside if e not in kept)
        patterns = {v: "".join(dart_direction(d) for d in run_darts(g, boundary, v)
                               if dart_edge(d) in kept)
                    for v in boundary.mid}
        for code in codes:
            assignment = decode_ref(boundary.mid, code)
            if all(realizes_ref(patterns[v], assignment[v]) for v in boundary.mid):
                if code not in best or cost < best[code]:
                    best[code] = cost
    for code in codes:
        assert code_cost(table, code) == best.get(code), (
            f"entry {decode_ref(boundary.mid, code)}: "
            f"table {code_cost(table, code)} vs brute force {best.get(code)}")


def run_darts(g, boundary, v):
    """The darts of v's inside run on the arc, in rotation order."""
    start, length = boundary.runs[v]
    row = g.rotation[v]
    return [row[(start + j) % len(row)] for j in range(length)]


def decode_ref(mid, code):
    return {v: CONFIGS[code // 6 ** k % 6] for k, v in enumerate(mid)}


def encode_ref(mid, assignment):
    return sum(CONFIGS.index(assignment[v]) * 6 ** k for k, v in enumerate(mid))


def join_rule(parent, b1, b2):
    """The parent entries that child entries code1, code2 may combine
    into, vertex by vertex from the definition of the join."""
    shared = set(b1.mid) & set(b2.mid)
    first = {v: first_child_at(parent, b1, b2, v) for v in shared & set(parent.mid)}
    interior = shared - set(parent.mid)
    targets = {(x, y): [t for t in CONFIGS if compatible_wrt_ref(x, y, t)]
               for x in CONFIGS for y in CONFIGS}
    assignments1 = [decode_ref(b1.mid, code) for code in range(6 ** len(b1.mid))]
    assignments2 = [decode_ref(b2.mid, code) for code in range(6 ** len(b2.mid))]

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


def config_costs(table):
    """A table's entry for every configuration code of its middle set."""
    return [code_cost(table, code) for code in range(6 ** len(table.boundary.mid))]


def loose_join(parent, b1, b2, c1, c2):
    """Reference costs by configuration code: every pair of child entries,
    offered to every parent entry it may combine into."""
    parents = join_rule(parent, b1, b2)
    costs = [None] * 6 ** len(parent.mid)
    for code1, a in enumerate(c1):
        for code2, b in enumerate(c2):
            for code3 in parents(code1, code2):
                if costs[code3] is None or a + b < costs[code3]:
                    costs[code3] = a + b
    return costs


# -- the configuration-indexed join, the oracle of the class-indexed one --

def reference_split(parent, b1, b2):
    """How the parent middle set splits over the children, as 6**position
    code weights (0 where a table lacks the vertex): the (parent, child 1,
    child 2) weights of each owned position, the child code offsets of
    every choice of maximal pairs at the interior shared vertices, and per
    shared vertex on the parent middle set its weights and pair lists."""
    m1, m2, m3 = b1.mid, b2.mid, parent.mid
    set1, set2, set3 = set(m1), set(m2), set(m3)
    shared = sorted(set1 & set2)
    pos1 = {v: k for k, v in enumerate(m1)}
    pos2 = {v: k for k, v in enumerate(m2)}
    pos3 = {v: k for k, v in enumerate(m3)}
    owned = [(6 ** pos3[v], 6 ** pos1[v] if v in set1 else 0,
              6 ** pos2[v] if v in set2 else 0)
             for v in m3 if v not in shared]
    combos = [(0, 0)]
    for v in shared:
        if v not in set3:
            combos = extend_ref(combos, 6 ** pos1[v], 6 ** pos2[v], _INTERIOR_PAIRS)
    targets = [(6 ** pos3[v], 6 ** pos1[v], 6 ** pos2[v],
                _TARGET_PAIRS[first_child_at(parent, b1, b2, v)])
               for v in shared if v in set3]
    return owned, combos, targets


def extend_ref(combos, w1, w2, pairs):
    return [(d1 + x1 * w1, d2 + x2 * w2) for d1, d2 in combos for x1, x2 in pairs]


def reference_join(parent, b1, b2, c1, c2):
    """Parent costs by configuration code from child costs by
    configuration code: forced positions enumerated once, entries grouped
    by the parent configurations at the shared vertices, the maximal pairs
    of each group tried in order."""
    owned, combos, targets = reference_split(parent, b1, b2)
    forced = [(0, 0, 0)]
    for w3, w1, w2 in owned:
        forced = [(o3 + x * w3, o1 + x * w1, o2 + x * w2)
                  for o3, o1, o2 in forced for x in range(6)]
    groups = [(0, combos)]
    for w3, w1, w2, by_target in targets:
        groups = [(code + tgt * w3, extend_ref(combos, w1, w2, by_target[tgt]))
                  for code, combos in groups for tgt in range(6)]
    costs = [None] * 6 ** len(parent.mid)
    for code, combos in groups:
        for o3, o1, o2 in forced:
            costs[code + o3] = min(c1[o1 + d1] + c2[o2 + d2] for d1, d2 in combos)
    return costs


def class_vector(boundary, index):
    """The class at each middle-set vertex of entry ``index`` of a table
    that tabulates every class."""
    classes = {}
    for v, cmap in zip(boundary.mid, boundary.classes):
        index, classes[v] = divmod(index, max(cmap) + 1)
    return classes


def class_index(boundary, classes):
    index, weight = 0, 1
    for v, cmap in zip(boundary.mid, boundary.classes):
        index += classes[v] * weight
        weight *= max(cmap) + 1
    return index


def reference_class_pairs(parent, b1, b2, index):
    """The candidate (child 1, child 2) entries of parent entry ``index``
    of all-class tables, in the order the join tries them: the parent
    class at each vertex stands for its smallest configuration; the class
    pairs of the shared vertices interior to the parent, then of those on
    the parent middle set, each in id order with earlier vertices varying
    slowest."""
    maps1, maps2, maps3 = (dict(zip(b.mid, b.classes)) for b in (b1, b2, parent))
    rep = {v: maps3[v].index(c) for v, c in class_vector(parent, index).items()}
    base1 = {v: maps1[v][rep[v]] for v in parent.mid if v in maps1 and v not in maps2}
    base2 = {v: maps2[v][rep[v]] for v in parent.mid if v in maps2 and v not in maps1}
    shared = sorted(maps1.keys() & maps2.keys())
    interior = [v for v in shared if v not in maps3]
    targets = [v for v in shared if v in maps3]
    options = [_INTERIOR_CLASS_PAIRS[maps1[v], maps2[v]] for v in interior]
    options += [_TARGET_CLASS_PAIRS[first_child_at(parent, b1, b2, v)][maps1[v], maps2[v]][rep[v]]
                for v in targets]
    pairs = []
    for pick in itertools.product(*options):
        for v, (c1, c2) in zip(interior + targets, pick):
            base1[v], base2[v] = c1, c2
        pairs.append((class_index(b1, base1), class_index(b2, base2)))
    return pairs


def valid_class_pair(parent, b1, b2, index, i1, i2):
    """Whether child entries i1 and i2 may combine into parent entry
    ``index`` (all-class tables) by the join rule, vertex by vertex: some
    configurations of the two child classes combine into the parent
    class's smallest configuration."""
    maps1, maps2, maps3 = (dict(zip(b.mid, b.classes)) for b in (b1, b2, parent))
    cls1, cls2 = class_vector(b1, i1), class_vector(b2, i2)
    rep = {v: maps3[v].index(c) for v, c in class_vector(parent, index).items()}
    for v in parent.mid:
        if v in cls1 and v not in cls2 and maps1[v][rep[v]] != cls1[v]:
            return False
        if v in cls2 and v not in cls1 and maps2[v][rep[v]] != cls2[v]:
            return False
    for v in cls1.keys() & cls2.keys():
        configs1 = [x for x in CONFIGS if maps1[v][CONFIGS.index(x)] == cls1[v]]
        configs2 = [x for x in CONFIGS if maps2[v][CONFIGS.index(x)] == cls2[v]]
        if v not in maps3:
            ok = any(compatible_ref(x, y) for x in configs1 for y in configs2)
        elif first_child_at(parent, b1, b2, v) == 1:
            ok = any(compatible_wrt_ref(x, y, CONFIGS[rep[v]]) for x in configs1 for y in configs2)
        else:
            ok = any(compatible_wrt_ref(y, x, CONFIGS[rep[v]]) for x in configs1 for y in configs2)
        if not ok:
            return False
    return True


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

    def test_one_edge(self):
        """A valid tree over one edge, built or decoded, keeps the edge;
        an invalid tree or an unmapped root is refused."""
        inst = Instance(PlaneDigraph(2, [(1, 0)], [[dart(0, HEAD)], [dart(0, TAIL)]]),
                        (Fraction(5, 3),))
        decoded = decomposition_from_document(
            {"arcs": [[0, 1]], "leaf_map": {"0": 0}, "nodes": 2})
        for dec in (build_sphere_cut(inst.graph), decoded):
            sol = solve_dp(inst, dec)
            assert (sol.kept_edges, sol.kept_weight, sol.method) == ({0}, Fraction(5, 3), "dp")
        with pytest.raises(DecompositionError, match="not a mapped leaf"):
            solve_dp(inst, decoded, root_leaf=1)
        broken = decomposition_from_document(
            {"arcs": [[0, 1], [1, 2]], "leaf_map": {"0": 0}, "nodes": 3})
        with pytest.raises(DecompositionError, match="invalid decomposition"):
            solve_dp(inst, broken)

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

    def test_one_boundary_pass_per_solve(self, corpus_small, monkeypatch):
        """The validator's boundaries are the ones the tables read: one
        solve constructs one ArcBoundary per arc not strictly below a flat
        join, in one walk over a decoded tree, and none on the builder's
        tree at its own root, whose report's view is reused.  A path's
        caterpillar over m > 2 edges has 2m - 3 arcs, and its deepest join,
        over the last two edges, is flat (the last is a pendant), so 2m - 5
        are tabulated."""
        made, walks = count_constructions(monkeypatch)
        for m, arcs in ((2, 1), (5, 5), (9, 13)):
            made.clear()
            walks.clear()
            assert solve_dp(path_instance(m), caterpillar_over(m)).deleted_weight == 0
            assert len(made["ArcBoundary"]) == arcs
            assert len(walks) == 1
        below = 0
        for inst in [*corpus_small[:20], path5_instance(), double_star_instance()]:
            dec = build_sphere_cut(inst.graph)
            decoded = decomposition_from_document(dec.document())
            made.clear()
            walks.clear()
            solve_dp(inst, decoded)
            want = reference_rooted(inst.graph, decoded, min(dec.leaf_map))
            assert len(made["ArcBoundary"]) == len(dec.arcs) - len(want.below)
            assert len(walks) == 1
            below += len(want.below)
            made.clear()
            walks.clear()
            solve_dp(inst, dec, min(dec.leaf_map))
            assert not made and not walks
        assert below > 20

    def test_one_split_per_join_per_solve(self, corpus_small, monkeypatch):
        """The validator's splits are the ones the demand walk, the joins
        and reconstruction read: one solve constructs the JoinSplit of
        each join that is not flat once, m - 3 of the m - 2 joins on a
        path's caterpillar over m > 2 edges, and on the builder's trees
        exactly the splits its rooted view keeps, one per join that is not
        flat."""
        made, walks = count_constructions(monkeypatch)
        for m, joins in ((2, 0), (5, 2), (9, 6)):
            made.clear()
            assert solve_dp(path_instance(m), caterpillar_over(m)).deleted_weight == 0
            assert len(made["JoinSplit"]) == joins
        for inst in corpus_small[:20]:
            dec = build_sphere_cut(inst.graph)
            made.clear()
            walks.clear()
            solve_dp(inst, dec, max(dec.leaf_map))
            (rooted,) = walks
            splits = made["JoinSplit"]
            assert len(splits) == dec.node_count - len(dec.leaf_map) - len(rooted.flat)
            assert sorted(map(id, splits)) == sorted(map(id, rooted.splits.values()))

    def test_root_must_be_a_mapped_leaf(self):
        inst, dec = path5_instance(), caterpillar_over(5)
        for root in (5, dec.node_count):     # an internal node, one past the end
            with pytest.raises(DecompositionError, match="not a mapped leaf"):
                solve_dp(inst, dec, root)

    def test_root_invariance(self, corpus_small):
        rng = random.Random(7)
        for inst in corpus_small[:25]:
            dec = build_sphere_cut(inst.graph)
            base = solve_dp(inst, dec).deleted_weight
            leaves = sorted(dec.leaf_map)
            for root in rng.sample(leaves, min(3, len(leaves))):
                assert solve_dp(inst, dec, root_leaf=root).deleted_weight == base

    def test_cross_tree_differential(self):
        """Every component with two or more hubs of the reduced
        triangulations n=24 seeds 0-14 and n=60 seeds 0-9 keeps the same
        weight on greedy's tree and on bisection's, each lifted from the
        skeleton, at the lowest, middle and highest leaf.  A tree whose
        demand-pruned tables would hold more than 10**5 entries is
        skipped: 7 of the 50."""
        comps = solves = skipped = 0
        for n, seeds in ((24, range(15)), (60, range(10))):
            for seed in seeds:
                red = kernel.reduce_to_simple(gen_instance(GenParams(n=n, seed=seed))).instance
                g = red.graph
                for verts, edge_ids in g.components():
                    if sum(len(g.rotation[v]) > 1 for v in verts) < 2:
                        continue
                    sub, _eids = component_instance(red, verts, edge_ids)
                    skeleton, lift = _skeleton(sub.graph)
                    weights = set()
                    for build in (_greedy_sweep, _recursive_bisection):
                        tree = _validated(sub.graph, lift(build(skeleton)))
                        demand = dp._demand(tree.report.rooted).values()
                        if sum(math.prod(m.bit_count() for m in masks)
                               for masks in demand) > 10**5:
                            skipped += 1
                            continue
                        leaves = sorted(tree.leaf_map)
                        for root in (leaves[0], leaves[len(leaves) // 2], leaves[-1]):
                            weights.add(solve_dp(sub, tree, root).kept_weight)
                            solves += 1
                    assert len(weights) <= 1, (n, seed, weights)
                    comps += 1
        assert (comps, solves, skipped) == (25, 129, 7)

    def test_loose_join_differential(self, corpus_small):
        """Read by configuration code, every entry of every join equals the
        configuration-indexed reference join, and on the builder's trees
        also the loose join over every pair of child entries.  The pair
        that reconstruction recomputes for an entry is the first class
        pair, in the join's order, whose child entries sum to the entry,
        and it is a valid pair by the join rule.  Balanced trees add joins
        with shared vertices both interior to the parent and on its middle
        set, where the order of the pairs decides between equal costs
        (corpus instance 58)."""
        checked = 0
        cases = ([(inst, build_sphere_cut) for inst in corpus_small[:40]]
                 + [(inst, _recursive_bisection) for inst in corpus_small[:60]])
        for inst, build in cases:
            g = inst.graph
            if g.edge_count > 10:
                continue
            rooted, tables, _ = rooted_tables(inst, build(g))
            for node in rooted.post_order:
                kids = rooted.children[node]
                if not kids:
                    continue
                table, t1, t2 = tables[node], tables[kids[0]], tables[kids[1]]
                b, b1, b2 = table.boundary, t1.boundary, t2.boundary
                c1, c2 = config_costs(t1), config_costs(t2)
                costs = config_costs(table)
                assert costs == reference_join(b, b1, b2, c1, c2)
                if build is build_sphere_cut:
                    assert costs == loose_join(b, b1, b2, c1, c2)
                for index, cost in enumerate(table.costs):
                    pairs = reference_class_pairs(b, b1, b2, index)
                    totals = [t1.costs[i1] + t2.costs[i2] for i1, i2 in pairs]
                    assert min(totals) == cost
                    i1, i2 = _chosen_pair(table, t1, t2, index)
                    assert (i1, i2) == pairs[totals.index(cost)]
                    assert valid_class_pair(b, b1, b2, index, i1, i2)
                checked += 1
        assert checked > 250

    def test_root_takes_the_keep_entry_or_the_first_minimum(self, corpus_small, monkeypatch):
        """The top arc tabulates each position's maximal classes, and its
        minimum is the all-class table's.  The root keeps its edge when
        the keep entry, ioi at the edge's head and oio at its tail, costs
        no more than deleting the edge; then reconstruction starts from
        the keep entry, else from the first minimum of the top table.
        Checked at the lowest, middle and highest leaf."""
        orders = class_orders_ref()
        chosen = []
        real = dp._chosen_pair

        def spy(table, t1, t2, index):
            chosen.append((table, index))
            return real(table, t1, t2, index)

        monkeypatch.setattr(dp, "_chosen_pair", spy)
        checked = kept = 0
        for inst in corpus_small[:40]:
            g = inst.graph
            dec = build_sphere_cut(g)
            leaves = sorted(dec.leaf_map)
            for root in (leaves[0], leaves[len(leaves) // 2], leaves[-1]):
                rooted, tables, int_w = rooted_tables(inst, dec, root)
                top = rooted.children[root][0]
                if not rooted.children[top]:
                    continue
                chosen.clear()
                sol = solve_dp(inst, dec, root)
                table, index = chosen[0]
                full = tables[top]
                assert table.boundary == full.boundary
                for cmap, mask in zip(table.boundary.classes, table.demand):
                    le = orders[cmap]
                    assert mask == sum(1 << a for a in range(len(le))
                                       if not any(le[a][c] for c in range(len(le)) if c != a))
                e = dec.leaf_map[root]
                tail, head = g.edges[e]
                keep_code = encode_ref(table.boundary.mid,
                                       {head: "ioi", tail: "oio"})
                keep, delete = code_cost(full, keep_code), min(full.costs) + int_w[e]
                assert min(table.costs) == min(full.costs)
                assert code_cost(table, keep_code) == keep
                if keep <= delete:
                    assert e in sol.kept_edges and index == code_index(table, keep_code)
                    kept += 1
                else:
                    assert e not in sol.kept_edges
                    assert index == table.costs.index(min(table.costs))
                assert sol.deleted_weight == Fraction(min(keep, delete), inst.int_weights.scale)
                checked += 1
        assert checked > 60 and 0 < kept < checked

    def test_keep_index_reads_the_pinned_code(self, corpus_small, monkeypatch):
        """The root reads its keep entry in class space, off the top
        table's places; that entry is the one ``code_index`` reads for the
        configuration code pinning ioi at the root edge's head and oio at
        its tail.  The root edge is made heavier than every other edge
        together, so the root takes its keep entry and reconstruction
        starts there; every top arc here is a join or a flat arc.
        ``code_index`` also
        inverts ``entry_codes`` on every table ``solve_dp`` builds.
        Checked at the lowest, middle and highest leaf, on
        ``corpus_small[:60]`` and on the components of the tri-frontier
        pool (triangulations n=24 seeds 0-14)."""
        cases = []
        real_solve = kernel.solve_dp

        def collect(sub, dec):
            cases.append((sub, dec))
            return real_solve(sub, dec)

        monkeypatch.setattr(kernel, "solve_dp", collect)
        for seed in range(15):
            solve_subexponential(gen_instance(GenParams(n=24, seed=seed)))
        cases += [(inst, build_sphere_cut(inst.graph)) for inst in corpus_small[:60]]

        read = []
        real_pair, real_flat = dp._chosen_pair, dp._flat_deleted
        monkeypatch.setattr(dp, "_chosen_pair", lambda table, t1, t2, index:
                            read.append((table, index)) or real_pair(table, t1, t2, index))
        monkeypatch.setattr(dp, "_flat_deleted", lambda instance, table, index:
                            read.append((table, index)) or real_flat(instance, table, index))
        made = record_tables(monkeypatch)
        checked = inverted = 0
        for inst, dec in cases:
            g = inst.graph
            leaves = sorted(dec.leaf_map)
            for root in (leaves[0], leaves[len(leaves) // 2], leaves[-1]):
                e = dec.leaf_map[root]
                weights = list(inst.weights)
                weights[e] = sum(weights) + 1
                made.clear()
                read.clear()
                sol = solve_dp(Instance(g, tuple(weights)), dec, root)
                assert e in sol.kept_edges
                for table, _kids, _args in made:
                    codes = entry_codes(table)
                    assert [code_index(table, code) for code in codes] == list(range(len(codes)))
                    inverted += 1
                (top,) = [table for table, _kids, _args in made if table.boundary.arc[1] == root]
                table, index = read[0]
                assert table is top
                tail, head = g.edges[e]
                assert index == code_index(top, encode_ref(top.boundary.mid,
                                                           {head: "ioi", tail: "oio"}))
                checked += 1
        assert (len(cases), checked) == (75, 225) and inverted > 4000

    def test_reconstruction_checks_the_entry(self):
        """A table entry that no candidate pair reaches is refused on the
        way down."""
        inst, dec = path5_instance(), caterpillar_over(5)
        rooted, tables, _ = rooted_tables(inst, dec)
        node = next(n for n in rooted.post_order if rooted.children[n])
        a, b = rooted.children[node]
        tables[node].costs[0] -= 1
        with pytest.raises(DecompositionError, match="disagrees with the table entry"):
            _chosen_pair(tables[node], tables[a], tables[b], 0)

    def test_outputs_pinned(self, corpus_small):
        """Solution documents of solve_subexponential on triangulations
        n=24 seeds 0-14 and n=60 seeds 0, 3, 7, 8, 9, and of solve_dp at
        the lowest, middle and highest leaf on the first 35 corpus
        instances (the benchmark's corpus-dp pool).  Re-recorded when
        reconstruction moved to class space: 7 of the 125 documents keep
        another optimal set of the same weight."""
        docs = [canonical_json(solve_subexponential(
                    gen_instance(GenParams(n=n, seed=s))).document())
                for n, seeds in ((24, range(15)), (60, (0, 3, 7, 8, 9))) for s in seeds]
        for inst in corpus_small[:35]:
            dec = build_sphere_cut(inst.graph)
            leaves = sorted(dec.leaf_map)
            for root in (leaves[0], leaves[len(leaves) // 2], leaves[-1]):
                docs.append(canonical_json(solve_dp(inst, dec, root).document()))
        assert hashlib.sha256("\n".join(docs).encode()).hexdigest() == \
            "c832c46f0250ea7d70fac83c636e649bc5730e14a34edf5721f9a6d86406e97e"

    def test_frontier_triangulation_n80_seed1(self, monkeypatch):
        """Triangulation n=80 seed 1 reduces to a component whose tree has
        width 9: 22,435,986 entries indexed by configuration, 231,862 by
        class, 82,544 with each table cut to the classes an ancestor can
        read, and 81,602 with no table below a flat arc.  Pinned: the
        optimum and the exact entry count."""
        made = record_tables(monkeypatch)
        sol = solve_subexponential(gen_instance(GenParams(n=80, seed=1)))
        assert sol.deleted_weight == Fraction(4039, 20)
        assert sum(len(table.costs) for table, _kids, _args in made) == 81_602

    def test_tri_frontier_pairs(self, monkeypatch):
        """The joins' pair evaluations over triangulations n=24 seeds 0-14
        (the tri-frontier pool): per join, the forced offsets times the
        class pairs summed over the groups.  45,617 with flat arcs
        tabulated in one pass, the tables holding 20,130 entries; 51,077
        when every arc was joined, on tables cut to the classes an
        ancestor can read, which held 24,656 entries; 152,644 on all-class
        tables with each class pair list cut to its maximal elements in
        the class orders; 299,803 when the lists were cut in the substring
        order only."""
        made = record_tables(monkeypatch)
        for seed in range(15):
            solve_subexponential(gen_instance(GenParams(n=24, seed=seed)))
        pairs = 0
        for table, kids, args in made:
            if not kids:
                continue
            split = args[-1]
            reps = tabulated_reps(table)
            maps1, maps2 = (dict(zip(t.boundary.mid, t.boundary.classes)) for t in kids)
            n = math.prod(len(reps[v]) for v in split.owned)
            for v in split.interior:
                n *= len(_INTERIOR_CLASS_PAIRS[maps1[v], maps2[v]])
            for v, first in split.targets:
                lists = _TARGET_CLASS_PAIRS[first][maps1[v], maps2[v]]
                n *= sum(len(lists[r]) for r in reps[v])
            pairs += n
        assert pairs == 45_617
        assert sum(len(table.costs) for table, _kids, _args in made) == 20_130

    def test_frontier_triangulation_n100_seed1(self):
        """Triangulation n=100 seed 1 solves in about 0.4 s; with class
        pairs cut in the substring order only it took about 2 s."""
        sol = solve_subexponential(gen_instance(GenParams(n=100, seed=1)))
        assert sol.deleted_weight == Fraction(3428, 15)

    def test_memory_peak(self):
        """Costs-only tables: solving triangulation n=24 seed 0 peaks at
        about 2.3 MB of traced allocations; with a back-pointer per entry
        it took 7 MB."""
        inst = gen_instance(GenParams(n=24, seed=0))
        tracemalloc.start()
        try:
            solve_subexponential(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4_000_000

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
        """Relaxing one coordinate to a superstring configuration, or one
        position to a class above its own in the class order common to all
        runs of its map, never increases the deleted weight."""
        orders = class_orders_ref()
        checked = raised = 0
        for inst in corpus_small:
            g = inst.graph
            if not (4 <= g.edge_count <= 8):
                continue
            _rooted, tables, _ = rooted_tables(inst, build_sphere_cut(g))
            for table in tables.values():
                mid = table.boundary.mid
                for code, a in enumerate(config_costs(table)):
                    assignment = decode_ref(mid, code)
                    for v in mid:
                        for bigger in CONFIGS:
                            if assignment[v] != bigger and assignment[v] in substrings(bigger):
                                relaxed = encode_ref(mid, {**assignment, v: bigger})
                                assert a >= code_cost(table, relaxed)
                radices = [max(cmap) + 1 for cmap in table.boundary.classes]
                weights = [math.prod(radices[:k]) for k in range(len(radices))]
                for index, a in enumerate(table.costs):
                    for cmap, radix, weight in zip(table.boundary.classes, radices, weights):
                        c = index // weight % radix
                        for above in range(radix):
                            if above != c and orders[cmap][c][above]:
                                assert a >= table.costs[index + (above - c) * weight]
                                raised += 1
            checked += 1
            if checked >= 8:
                break
        assert checked and raised > 100


class TestDemand:
    """``solve_dp`` tabulates only the classes an ancestor can read, and
    every entry it tabulates is the all-class table's entry."""

    def test_corpus_at_three_roots(self, corpus_small, monkeypatch):
        made = record_tables(monkeypatch)
        pruned = whole = 0
        for inst in corpus_small[:60]:
            dec = build_sphere_cut(inst.graph)
            leaves = sorted(dec.leaf_map)
            for root in (leaves[0], leaves[len(leaves) // 2], leaves[-1]):
                made.clear()
                solve_dp(inst, dec, root)
                counts = compare_to_all_class_tables(inst, dec, root, made)
                pruned += counts[0]
                whole += counts[1]
        assert pruned < whole

    def test_untabulated_classes_are_refused(self, corpus_small, monkeypatch):
        """Reading a configuration whose class a table does not hold is a
        KeyError, not another entry's cost."""
        made = record_tables(monkeypatch)
        refused = 0
        for inst in corpus_small[:20]:
            made.clear()
            solve_dp(inst, build_sphere_cut(inst.graph))
            for table, _kids, _args in made:
                b = table.boundary
                for k, (cmap, mask) in enumerate(zip(b.classes, table.demand)):
                    missing = [x for x in range(6) if not mask >> cmap[x] & 1]
                    if missing:
                        with pytest.raises(KeyError, match="untabulated class"):
                            code_cost(table, missing[0] * 6 ** k)
                        refused += 1
        assert refused > 100

    def test_tri_frontier(self, monkeypatch):
        """The components of triangulations n=24 seeds 0-14: 20,130 entries
        where all-class tables hold 67,624 (24,656 when the arcs below flat
        arcs had tables too)."""
        cases = []
        real = kernel.solve_dp

        def spy(sub, dec):
            cases.append((sub, dec))
            return real(sub, dec)

        monkeypatch.setattr(kernel, "solve_dp", spy)
        for seed in range(15):
            solve_subexponential(gen_instance(GenParams(n=24, seed=seed)))
        made = record_tables(monkeypatch)
        pruned = whole = 0
        for sub, dec in cases:
            made.clear()
            solve_dp(sub, dec)
            counts = compare_to_all_class_tables(sub, dec, None, made)
            pruned += counts[0]
            whole += counts[1]
        assert (pruned, whole) == (20_130, 67_624)


def joined_tables(inst, rooted, leaf_map):
    """Every arc's table built by leaf tables and joins alone, each under
    the demand of the walk that does not stop at flat arcs: ``rooted`` is
    a ``whole_view``."""
    demand = dp._demand_walk(rooted)
    tables = {}
    for node in rooted.post_order:
        b, kids = rooted.boundaries[node], rooted.children[node]
        if not kids:
            tables[node] = leaf_table(inst, b, leaf_map[node], demand[node])
        else:
            tables[node] = join_tables(b, tables[kids[0]], tables[kids[1]], demand[node],
                                       rooted.splits[node])
    return tables


def hub_to_hub(g, edges):
    return [e for e in edges if all(len(g.rotation[v]) > 1 for v in g.edges[e])]


def is_flat(g, edges):
    """Two or more edges, at most one of them hub-to-hub."""
    return len(edges) >= 2 and len(hub_to_hub(g, edges)) <= 1


def check_flat_entry(inst, table, index, code, inside):
    """The edges that reconstruction deletes for entry ``index`` of a flat
    table, whose classes' representatives make configuration code
    ``code``, lie inside its arc, weigh the entry, delete the coupled edge
    unless the entry keeps it, leave at each middle-set hub a pattern that
    realizes the representative of the entry's class there, and leave
    every full hub bimodal."""
    g, b = inst.graph, table.boundary
    deleted = dp._flat_deleted(inst, table, index)
    assert len(set(deleted)) == len(deleted) and set(deleted) <= inside
    assert sum(inst.int_weights.values[e] for e in deleted) == table.costs[index]
    coupled = table.plan[0]
    if coupled >= 0:
        assert (coupled not in deleted) == table.keeps[index]
    kept = inside - set(deleted)
    for k, v in enumerate(b.mid):
        rep = CONFIGS[code // 6 ** k % 6]
        pattern = "".join(dart_direction(d) for d in run_darts(g, b, v) if dart_edge(d) in kept)
        assert realizes_ref(pattern, rep)
    if coupled >= 0:
        for v in g.edges[coupled]:
            if v not in b.runs:
                ends = [d & 1 for d in g.rotation[v] if dart_edge(d) in kept]
                assert cyclic_switches(ends) <= 2


def compare_flat_to_joined(inst, dec, root_leaf, made):
    """The flat tables in ``made``, which ``solve_dp`` built on ``dec`` at
    ``root_leaf``, are those of the maximal flat arcs, each under the
    demand that the joins would read, and at every flat arc, maximal or
    not, ``flat_table`` under that demand equals the joined table entry
    for entry.  A graph with fewer than two pendants has no flat table:
    its one flat arc is joined.  Returns the count of flat arcs and of
    those with a full hub."""
    g = inst.graph
    rooted = whole_view(g, dec, validate_decomposition(g, dec, root_leaf).rooted)
    joined = joined_tables(inst, rooted, dec.leaf_map)
    inside = inside_sets(rooted, dec.leaf_map)
    flat = {node for node in rooted.post_order
            if rooted.children[node] and is_flat(g, inside[node])}
    maximal = {node for node in flat if rooted.parent[node] not in flat}
    if sum(len(row) == 1 for row in g.rotation) < 2:
        assert len(maximal) <= 1
        maximal = set()
    built = {table.boundary.arc[0]: table for table, kids, _args in made if kids is None}
    assert sorted(built) == sorted(maximal)
    flats = full = 0
    for node in flat:
        whole = joined[node]
        coupled = (hub_to_hub(g, inside[node]) or [-1])[0]
        table = flat_table(inst, whole.boundary, coupled, whole.demand)
        if node in built:
            assert built[node].demand == whole.demand
            assert built[node].costs == table.costs
        assert table.costs == whole.costs
        for index, code in enumerate(entry_codes(table)):
            check_flat_entry(inst, table, index, code, inside[node])
        flats += 1
        full += coupled >= 0 and any(v not in whole.boundary.runs for v in g.edges[coupled])
    return flats, full


def double_star_instance():
    """Hubs 0 and 1 joined by edge 0 (0 -> 1), each with six pendants of
    mixed directions and weights; 13 edges."""
    edges, rot, weights = [(0, 1)], [[dart(0, TAIL)], [dart(0, HEAD)]], [Fraction(5, 2)]
    outward = ([True, False, False, True, False, True], [False, True, True, False, True, False])
    for hub, directions in enumerate(outward):
        for k, out in enumerate(directions):
            e, leaf = len(edges), len(rot)
            edges.append((hub, leaf) if out else (leaf, hub))
            rot[hub].append(dart(e, TAIL if out else HEAD))
            rot.append([dart(e, HEAD if out else TAIL)])
            weights.append(Fraction(1 + (3 * e) % 5, 2 if k % 2 else 1))
    return Instance(PlaneDigraph(len(rot), edges, rot), tuple(weights))


class TestFlatArcs:
    """``solve_dp`` tabulates each maximal flat arc in one pass, and every
    such table is the one the joins would build under the same demand."""

    def test_eptas_and_tri_frontier_pools(self, monkeypatch):
        """The 156 components of two or more hubs in the normal forms that
        ``solve_subexponential`` hands to ``solve_components`` for the
        eptas pool (sparse n=40 seeds 0-6, eptas_max at eps 1/2, 1/3, 1/4
        and eptas_min at 1/2, 1/3) and for the tri-frontier pool
        (triangulations n=24 seeds 0-14), each solved over its
        ``build_sphere_cut`` tree: 3,805 flat arcs, 427 of them with a full
        hub.  The components are collected from the component loop:
        ``solve_components`` solves 11 of them, the double stars (one
        hub-to-hub edge), by the flat-arc pass with no tree."""
        forms = []
        real = kernel.solve_components

        def spy(instance):
            forms.append(instance)
            return real(instance)

        monkeypatch.setattr(kernel, "solve_components", spy)
        for seed in range(7):
            inst = gen_instance(GenParams(n=40, seed=seed, density="sparse"))
            for eps in ("1/2", "1/3", "1/4"):
                eptas.eptas_max(inst, Fraction(eps))
            for eps in ("1/2", "1/3"):
                eptas.eptas_min(inst, Fraction(eps))
        for seed in range(15):
            solve_subexponential(gen_instance(GenParams(n=24, seed=seed)))
        cases = []
        doubles = 0
        for form in forms:
            g = form.graph
            for verts, edge_ids in g.components():
                if sum(g.degree(v) > 1 for v in verts) > 1:
                    sub, _eids = component_instance(form, verts, edge_ids)
                    cases.append((sub, build_sphere_cut(sub.graph)))
                    doubles += sum(min(map(g.degree, g.edges[e])) > 1 for e in edge_ids) == 1
        made = record_tables(monkeypatch)
        flats = full = 0
        for sub, dec in cases:
            made.clear()
            solve_dp(sub, dec)
            counts = compare_flat_to_joined(sub, dec, None, made)
            flats += counts[0]
            full += counts[1]
        assert (len(cases), flats, full) == (156, 3_805, 427)
        assert doubles == 11

    def test_corpus_at_three_roots(self, corpus_small, monkeypatch):
        made = record_tables(monkeypatch)
        flats = 0
        for inst in corpus_small[:60]:
            dec = build_sphere_cut(inst.graph)
            leaves = sorted(dec.leaf_map)
            for root in (leaves[0], leaves[len(leaves) // 2], leaves[-1]):
                made.clear()
                solve_dp(inst, dec, root)
                flats += compare_flat_to_joined(inst, dec, root, made)[0]
        assert flats > 20

    def test_pendant_roots_against_the_oracle(self, oracle_of, monkeypatch):
        """A double star rooted at each pendant: the top arc is flat, with
        the root's hub on its middle set and the other hub full, and the
        solution keeps the exhaustive optimum.  A flat entry that its
        passes do not reach is refused on the way down."""
        inst = double_star_instance()
        g = inst.graph
        dec = build_sphere_cut(g)
        want = oracle_of(inst).kept_weight
        made = record_tables(monkeypatch)
        for root, e in sorted(dec.leaf_map.items()):
            if e == 0:
                continue
            made.clear()
            sol = solve_dp(inst, dec, root)
            assert sol.kept_weight == want
            (table, _kids, args), = made
            assert args[2] == 0 and table.boundary.mid == (min(g.edges[e]),)
            flats, full = compare_flat_to_joined(inst, dec, root, made)
            assert flats == 11 and full >= 1
        table.costs[0] -= 1
        with pytest.raises(DecompositionError, match="disagrees with the table entry"):
            dp._flat_deleted(inst, table, 0)


def count_validations(monkeypatch):
    """Count the validator's calls where both the builder and solve_dp
    bind it; each call appends its ``root_leaf``."""
    calls = []
    real = decomposition.validate_decomposition

    def counted(graph, dec, root_leaf=None):
        calls.append(root_leaf)
        return real(graph, dec, root_leaf)

    monkeypatch.setattr(decomposition, "validate_decomposition", counted)
    monkeypatch.setattr(dp, "validate_decomposition", counted)
    return calls


class TestOneValidationPerTree:
    """``build_sphere_cut`` validates each candidate once, on the whole
    graph, and ``solve_dp`` reuses that report only for the graph object
    it was made on and at its root."""

    def test_tri_frontier(self, monkeypatch):
        """One validation per component of triangulations n=24 seeds 0-14,
        two for seed 11, whose greedy tree is wider than 5; three per
        component, plus the bisection's, when every stage validated."""
        calls = count_validations(monkeypatch)
        per_seed = []
        for seed in range(15):
            before = len(calls)
            solve_subexponential(gen_instance(GenParams(n=24, seed=seed)))
            per_seed.append(len(calls) - before)
        assert per_seed == [1] * 11 + [2] + [1] * 3

    def test_one_demand_walk_per_candidate_tree(self, monkeypatch):
        """Triangulation n=24 seed 11 has one component past the greedy
        gate, so ``build_sphere_cut`` ranks two candidate trees on their
        demand, and ``solve_dp`` reuses the kept one's: each rooted view
        built is walked for demand once, and no other."""
        _made, walks = count_constructions(monkeypatch)
        walked = []
        real = dp._demand_walk
        monkeypatch.setattr(dp, "_demand_walk",
                            lambda rooted: walked.append(rooted) or real(rooted))
        solve_subexponential(gen_instance(GenParams(n=24, seed=11)))
        assert len(walks) == 2
        assert sorted(map(id, walked)) == sorted(map(id, walks))

    def test_revalidated_off_the_builders_graph_and_root(self, corpus_small, monkeypatch):
        """A decoded tree, another root and an equal copy of the graph are
        each validated in full; the built tree at its own root is not."""
        calls = count_validations(monkeypatch)
        for inst in corpus_small[:20]:
            g = inst.graph
            dec = build_sphere_cut(g)
            calls.clear()
            want = solve_dp(inst, dec).kept_weight
            assert solve_dp(inst, dec, min(dec.leaf_map)).kept_weight == want
            assert calls == []
            copy = Instance(PlaneDigraph(g.vertex_count, g.edges, g.rotation), inst.weights)
            assert copy.graph is not g and \
                (copy.graph.edges, copy.graph.rotation) == (g.edges, g.rotation)
            decoded = decomposition_from_document(dec.document())
            for case, tree, root in ((inst, decoded, None), (inst, dec, max(dec.leaf_map)),
                                     (copy, dec, None)):
                calls.clear()
                assert solve_dp(case, tree, root).kept_weight == want
                assert calls == [root]

    def test_tree_of_another_graph(self, corpus_small, oracle_of):
        """A tree built for graph A, handed over with graph B of the same
        edge count, fares as the validator judges it on B."""
        by_size = {}
        for inst in corpus_small[:150]:
            by_size.setdefault(inst.graph.edge_count, []).append(inst)
        outcomes = []
        for group in by_size.values():
            for a, b in zip(group, group[1:]):
                dec = build_sphere_cut(a.graph)
                report = validate_decomposition(b.graph, dec)
                if report.ok:
                    assert solve_dp(b, dec).kept_weight == oracle_of(b).kept_weight
                else:
                    with pytest.raises(DecompositionError, match="invalid decomposition"):
                        solve_dp(b, dec)
                outcomes.append(report.ok)
        assert True in outcomes and False in outcomes

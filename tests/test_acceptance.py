"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line with its measured scope; every
comparison is exact rational arithmetic, zero tolerance, except where a
bound is stated (12/13/26 counts, approximation factors, wall-clock
limits).
"""

import math
import random
import time
from fractions import Fraction

from mwbs.decomposition import (
    SphereCutDecomposition,
    _greedy_sweep,
    _recursive_bisection,
    build_sphere_cut,
    validate_decomposition,
)
from mwbs.dp import CONFIGS, compatible, compatible_wrt, solve_dp
from mwbs.eptas import bfs_layers, eptas_max, eptas_min
from mwbs.generate import planted_star_instance
from mwbs.kernel import (
    partition_section,
    reduce_to_simple,
    sections_of,
    shrink_cut_instance,
    solve_subexponential,
    to_cut_instance,
)
from mwbs.oracle import brute_force_mwbs, is_star, star_solve
from mwbs.plane import make_solution, subgraph_by_edges

from oracles import align_optimum_to_classes, brute_force_cut
from test_dp import compatible_ref, compatible_wrt_ref, substrings
from test_plane import star4_instance


def test_criterion_1_oracle_equivalence(corpus_small, oracle_of):
    """solve_dp with builder decompositions equals the exhaustive optimum
    on >= 500 instances with 4 <= m <= 14, exactly."""
    t0 = time.perf_counter()
    assert len(corpus_small) >= 500
    for inst in corpus_small:
        m = inst.graph.edge_count
        assert 4 <= m <= 14
        dec = build_sphere_cut(inst.graph)
        sol = solve_dp(inst, dec)
        want = oracle_of(inst)
        assert sol.kept_weight == want.kept_weight
        assert sol.deleted_weight == want.deleted_weight
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    print(f"\nACCEPTANCE 1 PASS: {len(corpus_small)} instances, dp == oracle "
          f"exactly, {elapsed:.1f}s")


def test_criterion_2_configuration_algebra():
    """compatible and compatible_wrt match the independent string-rewriting
    oracle on all 36 and 216 inputs, including the pinned cases."""
    for x in CONFIGS:
        for y in CONFIGS:
            assert compatible(x, y) == compatible_ref(x, y)
            for t in CONFIGS:
                assert compatible_wrt(x, y, t) == compatible_wrt_ref(x, y, t)
    for small, big in (("i", "ioi"), ("o", "oio"), ("oi", "io")):
        assert compatible(small, big)
        for other in CONFIGS:
            if compatible(small, other):
                assert other in substrings(big)
    assert compatible("oio", "o")
    assert compatible_wrt("io", "o", "io")
    assert not compatible_wrt("io", "o", "oi")
    print("\nACCEPTANCE 2 PASS: 36 + 216 algebra inputs match the oracle, "
          "maximal pairs and pinned cases included")


def test_criterion_3_normal_form(corpus_small, oracle_of):
    """Reduction output: good vertices independent, all degree 1, bad count
    non-increasing, and optimum preserved up to the banked credit."""
    for inst in corpus_small:
        red = reduce_to_simple(inst)
        rg = red.instance.graph
        bad = set(rg.bad_vertices())
        assert len(bad) <= len(inst.graph.bad_vertices())
        for v in range(rg.vertex_count):
            if v not in bad:
                assert rg.degree(v) == 1
                (d,) = rg.rotation[v]
                assert rg.other_endpoint(d) in bad
        got = brute_force_mwbs(red.instance)
        assert oracle_of(inst).kept_weight == got.kept_weight + red.base_kept_weight
    print(f"\nACCEPTANCE 3 PASS: normal form + exact optimum preservation on "
          f"{len(corpus_small)} instances")


def test_criterion_4_compression_equivalence(corpus_b4, oracle_of):
    """Cut compression and shrinking preserve the optimum exactly on >= 200
    instances with b <= 4; afterwards every class has <= 2 edges and
    |E| <= 2 * |classes|."""
    assert len(corpus_b4) >= 200
    for inst in corpus_b4:
        assert len(inst.graph.bad_vertices()) <= 4
        assert inst.graph.edge_count <= 14
        cut = to_cut_instance(inst)
        got = brute_force_cut(cut.instance, cut.classes)
        assert oracle_of(inst).kept_weight == got.kept_weight + cut.base_kept_weight
        shrunk = shrink_cut_instance(cut)
        assert all(len(c) <= 2 for c in shrunk.classes)
        assert shrunk.instance.graph.edge_count <= 2 * len(shrunk.classes)
        after = brute_force_cut(shrunk.instance, shrunk.classes)
        assert after.kept_weight == got.kept_weight
    print(f"\nACCEPTANCE 4 PASS: compression + shrink exact on "
          f"{len(corpus_b4)} instances with b <= 4")


def test_criterion_5_section_partition_bounds(corpus_small, corpus_b4):
    """Never more than 12 cuts / 13 blocks / 26 classes, and a
    class-aligned optimum exists on every checked instance."""
    sections_seen = 0
    for inst in corpus_small + corpus_b4:
        red = reduce_to_simple(inst)
        for v, section in sections_of(red.instance):
            part = partition_section(red.instance, v, section)
            assert len(part.cut_positions) <= 12
            assert len(part.blocks) <= 13
            assert len(part.classes) <= 26
            sections_seen += 1
    aligned_checked = 0
    for inst in corpus_b4:
        cut = to_cut_instance(inst)
        opt = brute_force_mwbs(cut.instance)
        aligned = align_optimum_to_classes(cut.instance, set(opt.kept_edges))
        sol = make_solution(cut.instance, aligned, "aligned")
        assert sol.kept_weight == opt.kept_weight
        for c in cut.classes:
            inside = sum(1 for e in c if e in aligned)
            assert inside in (0, len(c))
        aligned_checked += 1
    print(f"\nACCEPTANCE 5 PASS: 12/13/26 bounds over {sections_seen} sections; "
          f"class-aligned optimum exists on {aligned_checked} instances")


def test_criterion_6_eptas_guarantees(corpus_small, oracle_of):
    """eptas_max kept >= (1-eps)*OPT and eptas_min cost <= (1+eps)*OPT_min
    for eps in {1, 1/2, 1/4}, all outputs bimodal, and eptas_max exact
    whenever the diameter is below the shift width."""
    t0 = time.perf_counter()
    epsilons = (Fraction(1), Fraction(1, 2), Fraction(1, 4))
    exact_hits = 0
    for inst in corpus_small:
        g = inst.graph
        opt = oracle_of(inst).kept_weight
        opt_min = inst.total_weight - opt
        diameter = len(bfs_layers(g).layers) - 1
        for eps in epsilons:
            sol, _rep = eptas_max(inst, eps)
            assert max(sol.certificate, default=0) <= 2
            assert sol.kept_weight >= (1 - eps) * opt
            if diameter < math.ceil(1 / eps):
                assert sol.kept_weight == opt
                exact_hits += 1
            deleted, cost, _rep = eptas_min(inst, eps)
            assert cost <= (1 + eps) * opt_min
            kept = set(range(g.edge_count)) - deleted
            assert not g.bad_vertices(kept)
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE 6 PASS: eptas max/min bounds on {len(corpus_small)} "
          f"instances x 3 epsilons ({exact_hits} small-diameter exact hits), "
          f"{elapsed:.1f}s")


def test_criterion_7_decomposition_integrity(corpus_small, corpus_b4):
    """Both builders validate on the whole corpus, the built width is the
    validated one, the interleaved 4-star decomposition is rejected, and
    the dp optimum is root-invariant."""
    for inst in corpus_small + corpus_b4:
        for build in (_greedy_sweep, _recursive_bisection):
            report = validate_decomposition(inst.graph, build(inst.graph))
            assert report.ok, (build.__name__, report.violations)
        dec = build_sphere_cut(inst.graph)
        assert validate_decomposition(inst.graph, dec).width == dec.declared_width
    bad_dec = SphereCutDecomposition(
        6, ((0, 4), (1, 4), (4, 5), (2, 5), (3, 5)), {0: 0, 1: 2, 2: 1, 3: 3})
    assert not validate_decomposition(star4_instance().graph, bad_dec).ok
    rng = random.Random(2024)
    roots_checked = 0
    for inst in corpus_small:
        dec = build_sphere_cut(inst.graph)
        base = solve_dp(inst, dec).deleted_weight
        leaves = sorted(dec.leaf_map)
        for root in rng.sample(leaves, min(5, len(leaves))):
            assert solve_dp(inst, dec, root_leaf=root).deleted_weight == base
            roots_checked += 1
    print(f"\nACCEPTANCE 7 PASS: builders valid on "
          f"{len(corpus_small) + len(corpus_b4)} instances x 2 strategies, "
          f"counterexample rejected, {roots_checked} re-rooted dp runs invariant")


def test_criterion_8_scaling_sanity():
    """n ~ 200 planted instances solve well under 60 seconds and the
    pipeline value matches solve_dp run directly on the reduced parts."""
    for seed in (3, 11):
        inst = planted_star_instance(200, seed, 6)
        assert len(inst.graph.bad_vertices()) <= 6
        t0 = time.perf_counter()
        sol = solve_subexponential(inst)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60
        red = reduce_to_simple(inst)
        cross = red.base_kept_weight
        for _verts, comp_edges in red.instance.graph.components():
            if not comp_edges:
                continue
            sub, _v, _e = subgraph_by_edges(red.instance, comp_edges)
            if sub.graph.edge_count >= 2:
                comp_sol = solve_dp(sub, build_sphere_cut(sub.graph))
                if is_star(sub.graph) is not None:
                    assert comp_sol.kept_weight == star_solve(sub).kept_weight
            else:
                comp_sol = star_solve(sub)
            cross += comp_sol.kept_weight
        assert sol.kept_weight == cross
        print(f"\nACCEPTANCE 8 PASS: n={inst.graph.vertex_count} seed={seed} "
              f"solved in {elapsed:.2f}s, dp cross-check equal")

"""Seeded random instance generation.

Instances are built as combinatorial objects only: a random planar
triangulation is grown by repeatedly inserting a fresh vertex into a
randomly chosen triangular face and wiring its three new darts into the
rotation system at the exact face corners.  Optionally the edge set is
subsampled (keeping a spanning tree, so connectivity is preserved), then
every edge is oriented by a seeded biased coin and given a seeded rational
weight.  Identical parameters always yield byte-identical documents.
"""

from __future__ import annotations

import bisect
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import EmbeddingError, FormatError
from .plane import HEAD, TAIL, Instance, PlaneDigraph, dart, dart_edge, dart_end, excerpt


@dataclass(frozen=True)
class GenParams:
    n: int
    seed: int
    orientation_bias: Fraction = Fraction(1, 2)
    weight_lo: Fraction = Fraction(1)
    weight_hi: Fraction = Fraction(9)
    density: str = "triangulation"      # "triangulation" | "sparse"
    sparse_p: Fraction = Fraction(1, 2)  # chord keep probability for "sparse"

    def validate(self):
        if self.n < 1:
            raise FormatError("n must be at least 1")
        if not (0 <= self.orientation_bias <= 1):
            raise FormatError("orientation_bias must lie in [0, 1]")
        if self.weight_lo <= 0 or self.weight_hi < self.weight_lo:
            raise FormatError("weight range must satisfy 0 < lo <= hi")
        # a weight p/q has q <= 6, so p <= 6 * hi; 0 means no digit limit
        limit = sys.get_int_max_str_digits()
        if limit and 6 * self.weight_hi >= 10 ** limit:
            raise FormatError(f"weight_hi allows weights of more than {limit} digits")
        if self.density not in ("triangulation", "sparse"):
            raise FormatError(f"unknown density {self.density!r}")
        if not (0 <= self.sparse_p <= 1):
            raise FormatError("sparse_p must lie in [0, 1]")


def _grow_triangulation(n: int, rng: random.Random):
    """Rotation system of a random planar triangulation on n >= 3 vertices.

    Edges are undirected here, stored as (a, b) with dart 2e+0 at a and
    2e+1 at b.  Each insertion picks a face, splits it into three, and
    keeps every face a triangle, so the Euler count is invariant.  Faces
    are kept by smallest dart, listed from it, and picked by rank among the
    sorted keys: the order a full face trace gives.  An insertion replaces
    the picked face by three triangles and changes no other face."""
    edges = [(0, 1), (1, 2), (2, 0)]
    rotation = [
        [dart(0, 0), dart(2, 1)],
        [dart(1, 0), dart(0, 1)],
        [dart(2, 0), dart(1, 1)],
    ]
    faces = {dart(0, 0): (dart(0, 0), dart(1, 0), dart(2, 0)),
             dart(0, 1): (dart(0, 1), dart(2, 1), dart(1, 1))}
    keys = sorted(faces)
    for x in range(3, n):
        corners = faces[keys[rng.randrange(len(keys))]]
        hosts = [edges[dart_edge(d)][dart_end(d)] for d in corners]
        u1, u2, u3 = hosts
        base = len(edges)
        # edge base+k joins host k+1 and x; new dart at the host sits in the
        # face corner, which is immediately before the face dart there
        g = [dart(base, 0), dart(base + 1, 0), dart(base + 2, 0)]
        h = [dart(base, 1), dart(base + 1, 1), dart(base + 2, 1)]
        edges.extend([(u1, x), (u2, x), (u3, x)])
        for k, (host, d) in enumerate(zip(hosts, corners)):
            rotation[host].insert(rotation[host].index(d), g[k])
        rotation.append([h[0], h[2], h[1]])
        # old corner c is the smallest dart of its new triangle
        for k, c in enumerate(corners):
            faces[c] = (c, g[(k + 1) % 3], h[k])
        bisect.insort(keys, corners[1])
        bisect.insort(keys, corners[2])
    return edges, rotation


def _spanning_tree(n: int, edges, order) -> set[int]:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = set()
    for e in order:
        a, b = edges[e]
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            tree.add(e)
    return tree


def _coin(rng: random.Random, p: Fraction) -> bool:
    if p == 1:
        return True
    return rng.randrange(p.denominator) < p.numerator


def _random_weight(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    for _ in range(64):
        q = rng.randint(1, 6)
        lo_n = -((-lo.numerator * q) // lo.denominator)   # ceil(lo*q)
        hi_n = (hi.numerator * q) // hi.denominator       # floor(hi*q)
        if lo_n <= hi_n:
            return Fraction(rng.randint(lo_n, hi_n), q)
    # excerpt, not str: a bound may have more digits than the interpreter prints
    raise FormatError(f"weight range [{excerpt(lo)}, {excerpt(hi)}] contains no small rational")


def _orient_rows(rotation, emap, directed) -> list[list[int]]:
    """Rotation rows over the kept edges: each dart of an old edge id e in
    ``emap`` becomes the tail or head dart of new edge ``emap[e]`` at its
    vertex, as ``directed[emap[e]]`` orients it; other darts are dropped."""
    return [[dart(emap[e], TAIL if directed[emap[e]][0] == v else HEAD)
             for e in map(dart_edge, row) if e in emap]
            for v, row in enumerate(rotation)]


def gen_instance(params: GenParams) -> Instance:
    """Deterministically generate an instance from params."""
    params.validate()
    rng = random.Random(params.seed)
    n = params.n
    if n == 1:
        und_edges, rotation = [], [[]]
    elif n == 2:
        und_edges, rotation = [(0, 1)], [[dart(0, 0)], [dart(0, 1)]]
    else:
        und_edges, rotation = _grow_triangulation(n, rng)

    keep = list(range(len(und_edges)))
    if params.density == "sparse" and len(und_edges) > 1:
        order = list(range(len(und_edges)))
        rng.shuffle(order)
        tree = _spanning_tree(n, und_edges, order)
        keep = [e for e in range(len(und_edges))
                if e in tree or _coin(rng, params.sparse_p)]

    emap = {e: j for j, e in enumerate(keep)}
    # orient: decision per kept edge, in old id order, on (min, max) endpoints
    directed = []
    for e in keep:
        a, b = und_edges[e]
        lo, hi = min(a, b), max(a, b)
        directed.append((lo, hi) if _coin(rng, params.orientation_bias) else (hi, lo))

    weights = tuple(_random_weight(rng, params.weight_lo, params.weight_hi)
                    for _ in keep)
    graph = PlaneDigraph(n, directed, _orient_rows(rotation, emap, directed))
    return Instance(graph, weights)


def planted_star_instance(n: int, seed: int, stars: int) -> Instance:
    """A bimodal host with a controlled number of non-bimodal vertices.

    The host is a random spanning tree of a triangulation, oriented away
    from vertex 0 (which makes every vertex bimodal: one in-edge at most).
    At up to ``stars`` pairwise non-adjacent high-degree vertices the
    incident edge directions are re-dealt alternately around the rotation,
    with the phase chosen so the parent edge keeps pointing inward; that
    turns exactly those vertices non-bimodal and nobody else.  Weights are
    small rationals in [1, 9]."""
    rng = random.Random(seed)
    if n < 8:
        raise FormatError("planted instances need n >= 8")
    und_edges, rotation = _grow_triangulation(n, rng)
    order = list(range(len(und_edges)))
    rng.shuffle(order)
    tree = sorted(_spanning_tree(n, und_edges, order))
    emap = {e: j for j, e in enumerate(tree)}

    # parent orientation via BFS from 0 over tree edges
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(n)}
    for e in tree:
        a, b = und_edges[e]
        adj[a].append((b, e))
        adj[b].append((a, e))
    parent_edge = {0: None}
    queue = [0]
    directed: dict[int, tuple[int, int]] = {}
    while queue:
        v = queue.pop(0)
        for u, e in adj[v]:
            if u not in parent_edge:
                parent_edge[u] = e
                directed[emap[e]] = (v, u)
                queue.append(u)

    # tree edge ids around each vertex, in rotation order
    rows = [[e for e in map(dart_edge, row) if e in emap] for row in rotation]

    # choose plant sites: non-adjacent tree vertices of degree >= 4
    degree = [len(row) for row in rows]
    sites: list[int] = []
    blocked: set[int] = set()
    for v in sorted(range(1, n), key=lambda v: (-degree[v], v)):
        if degree[v] >= 4 and v not in blocked and len(sites) < stars:
            sites.append(v)
            blocked.add(v)
            blocked.update(u for u, _ in adj[v])
    for v in sites:
        parent_pos = rows[v].index(parent_edge[v])
        for j, e in enumerate(rows[v]):
            want_in = (j - parent_pos) % 2 == 0  # parent edge stays incoming
            t, h = directed[emap[e]]
            other = h if t == v else t
            directed[emap[e]] = (other, v) if want_in else (v, other)
    edges = [directed[j] for j in range(len(tree))]
    weights = tuple(_random_weight(rng, Fraction(1), Fraction(9)) for _ in tree)
    graph = PlaneDigraph(n, edges, _orient_rows(rotation, emap, directed))
    bad = graph.bad_vertices()
    if bad != sorted(sites):
        raise EmbeddingError(f"planted sites {sorted(sites)} but the bad vertices are {bad}")
    return Instance(graph, weights)

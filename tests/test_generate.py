"""Seeded generation: determinism and structural validity."""

import hashlib
import random
import sys
from fractions import Fraction

import pytest

from mwbs.errors import EmbeddingError, FormatError
from mwbs.generate import (
    GenParams,
    _grow_triangulation,
    gen_instance,
    planted_star_instance,
)
from mwbs.plane import (
    PlaneDigraph,
    dart,
    dart_edge,
    dart_end,
    encode_instance,
    format_weight,
)


def retrace_grow(n, rng):
    """Reference grower: trace every face of the triangulation before each
    insertion and pick one by its rank in the trace order."""
    edges = [(0, 1), (1, 2), (2, 0)]
    rotation = [
        [dart(0, 0), dart(2, 1)],
        [dart(1, 0), dart(0, 1)],
        [dart(2, 0), dart(1, 1)],
    ]
    for x in range(3, n):
        faces = _trace_all_faces(len(edges), rotation)
        corners = faces[rng.randrange(len(faces))]
        hosts = [edges[dart_edge(d)][dart_end(d)] for d in corners]
        base = len(edges)
        edges.extend((u, x) for u in hosts)
        for k, (host, d) in enumerate(zip(hosts, corners)):
            rotation[host].insert(rotation[host].index(d), dart(base + k, 0))
        rotation.append([dart(base, 1), dart(base + 2, 1), dart(base + 1, 1)])
    return edges, rotation


def _trace_all_faces(edge_count, rotation):
    where = {d: (v, pos) for v, row in enumerate(rotation) for pos, d in enumerate(row)}
    faces = []
    seen = set()
    for start in range(2 * edge_count):
        face = []
        d = start
        while d not in seen:
            seen.add(d)
            face.append(d)
            v, pos = where[d ^ 1]
            d = rotation[v][(pos + 1) % len(rotation[v])]
        if face:
            faces.append(face)
    return faces


def test_single_vertex():
    inst = gen_instance(GenParams(n=1, seed=0))
    assert inst.graph.vertex_count == 1
    assert inst.graph.edge_count == 0


def test_triangle():
    inst = gen_instance(GenParams(n=3, seed=0))
    g = inst.graph
    assert g.edge_count == 3
    assert len(g.faces) == 2   # V - E + F = 3 - 3 + 2


def test_triangulation_edge_count():
    for n in (4, 7, 12):
        inst = gen_instance(GenParams(n=n, seed=5))
        assert inst.graph.edge_count == 3 * n - 6


def test_deterministic_documents():
    params = GenParams(n=9, seed=42, density="sparse", sparse_p=Fraction(1, 3),
                       orientation_bias=Fraction(2, 7))
    a = encode_instance(gen_instance(params))
    b = encode_instance(gen_instance(params))
    assert a == b
    other = encode_instance(gen_instance(GenParams(n=9, seed=43,
                                                   density="sparse",
                                                   sparse_p=Fraction(1, 3))))
    assert a != other


def test_sparse_stays_connected():
    for seed in range(25):
        inst = gen_instance(GenParams(n=8, seed=seed, density="sparse",
                                      sparse_p=Fraction(1, 4)))
        assert inst.graph.is_connected()


def test_weights_in_range():
    params = GenParams(n=7, seed=3, weight_lo=Fraction(1, 2), weight_hi=Fraction(3))
    inst = gen_instance(params)
    assert all(Fraction(1, 2) <= w <= 3 for w in inst.weights)


def test_invalid_params():
    """Each refusal of the generators' parameters, with its exact text."""
    seventh = Fraction(1, 7)
    limit = sys.get_int_max_str_digits()
    cases = [
        (lambda: gen_instance(GenParams(n=0, seed=1)), "n must be at least 1"),
        (lambda: gen_instance(GenParams(n=3, seed=1, orientation_bias=Fraction(3, 2))),
         "orientation_bias must lie in [0, 1]"),
        (lambda: gen_instance(GenParams(n=3, seed=1, weight_lo=Fraction(0))),
         "weight range must satisfy 0 < lo <= hi"),
        # a weight p/q has q <= 6, so this allows p = 10**limit
        (lambda: gen_instance(GenParams(n=3, seed=1, weight_hi=Fraction(10 ** limit, 6))),
         f"weight_hi allows weights of more than {limit} digits"),
        (lambda: gen_instance(GenParams(n=3, seed=1, density="dense")),
         "unknown density 'dense'"),
        (lambda: gen_instance(GenParams(n=3, seed=1, density="sparse", sparse_p=Fraction(3, 2))),
         "sparse_p must lie in [0, 1]"),
        (lambda: gen_instance(GenParams(n=3, seed=1, sparse_p=Fraction(-1, 2))),
         "sparse_p must lie in [0, 1]"),
        # the denominators tried are 1-6, and no q/7 of them is an integer
        (lambda: gen_instance(GenParams(n=3, seed=1, weight_lo=seventh, weight_hi=seventh)),
         "weight range [1/7, 1/7] contains no small rational"),
        (lambda: planted_star_instance(7, 0, 1), "planted instances need n >= 8"),
    ]
    for call, text in cases:
        with pytest.raises(FormatError) as info:
            call()
        assert str(info.value) == text


def test_largest_weights_printed():
    """Weights up to 6 * weight_hi < 10**L, L the interpreter's digit limit,
    all print."""
    hi = Fraction(10 ** sys.get_int_max_str_digits() - 1, 6)
    inst = gen_instance(GenParams(n=12, seed=0, weight_lo=hi / 2, weight_hi=hi))
    assert all(format_weight(w) for w in inst.weights)


def test_planted_bad_vertex_count():
    inst = planted_star_instance(120, 9, 5)
    assert len(inst.graph.bad_vertices()) == 5
    # the host without the planted centers stays a tree (connected, n-1 edges)
    assert inst.graph.edge_count == inst.graph.vertex_count - 1
    assert inst.graph.is_connected()


def test_planted_postcondition_raises_a_typed_error(monkeypatch):
    """A host whose bad vertices are not the planted sites is refused with
    an EmbeddingError naming both, not an assertion."""
    bad_vertices = PlaneDigraph.bad_vertices
    monkeypatch.setattr(PlaneDigraph, "bad_vertices",
                        lambda self, present=None: bad_vertices(self, present)[1:])
    with pytest.raises(EmbeddingError,
                       match=r"planted sites \[(\d+, ){4}\d+\] but the bad vertices are "
                             r"\[(\d+, ){3}\d+\]$"):
        planted_star_instance(120, 9, 5)


def test_grower_matches_full_retrace():
    sizes = [(n, seed) for n in range(3, 61) for seed in range(4)] + [(300, 0), (300, 1)]
    for n, seed in sizes:
        a, b = random.Random(seed), random.Random(seed)
        assert _grow_triangulation(n, a) == retrace_grow(n, b), (n, seed)
        assert a.random() == b.random()


# digests recorded with the full-retrace grower (retrace_grow above):
# generated documents must stay byte-identical
PINNED_DOCUMENTS = [
    (GenParams(n=30, seed=7),
     "570f189a3a6519e45283f62ce5b624896aee1efe6c9864913a76402fb99bc65f"),
    (GenParams(n=25, seed=3, density="sparse", sparse_p=Fraction(1, 3),
               orientation_bias=Fraction(2, 7)),
     "33c7d389fd1978ee8ac46b275577eb0306865f703686bb76d34d25a0258a46ae"),
    (GenParams(n=60, seed=11, orientation_bias=Fraction(1, 4),
               weight_lo=Fraction(1, 2), weight_hi=Fraction(5)),
     "e26af01fa6e1625099c1af5657e2c3c6ce76a177d9a2f3126ca7224b09a3393e"),
    ((120, 9, 5), "d4838251c7bfe5a661c6e4994d5118d00f3f6a0688e0701b3fde4859c492fab0"),
    ((400, 3, 12), "1fd649d38ed7c4a9bfedd0773bbedd84a4dfdc3b3e1e725b790613119bc5b08a"),
]


@pytest.mark.parametrize("params,digest", PINNED_DOCUMENTS)
def test_pinned_documents(params, digest):
    if isinstance(params, GenParams):
        inst = gen_instance(params)
    else:
        inst = planted_star_instance(*params)
    assert hashlib.sha256(encode_instance(inst).encode()).hexdigest() == digest

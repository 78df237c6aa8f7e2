"""Embedded planar digraphs as rotation systems.

A graph is stored as a list of directed edges plus, for every vertex, the
clockwise cyclic order of its incident darts.  A dart is one end of one
edge, encoded as the integer ``2*edge_id + end`` where end 0 is the tail
(outgoing side) and end 1 is the head (incoming side).  All structural
notions used elsewhere (bimodality, wedges, good edge-sections, nooses,
configurations) are statements about this rotation order, so darts are the
primitive and everything else is derived.  Wedges, good edge-sections
and pendant runs are maximal cyclic runs of one per-dart value around a
vertex, and ``cyclic_runs`` finds them all.

Weights are exact ``fractions.Fraction`` values at the document
boundary; each instance scales them, once and on first use, to integers
over one common denominator (``Instance.int_weights``), on which the
solvers and the certificate compute.  No floating point is used anywhere
in the solvers.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import ne
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import EmbeddingError, FormatError

TAIL = 0
HEAD = 1

OUT = "o"
IN = "i"


def dart(edge_id: int, end: int) -> int:
    return 2 * edge_id + end


def dart_edge(d: int) -> int:
    return d >> 1


def dart_end(d: int) -> int:
    return d & 1


def dart_direction(d: int) -> str:
    """Direction of the dart at its own vertex: tail darts leave, head darts enter."""
    return OUT if (d & 1) == TAIL else IN


def cyclic_switches(ends: list) -> int:
    """Number of cyclic transitions in a list of dart ends (or directions):
    the positions j with ``ends[j] != ends[j+1]``, indices taken mod its
    length."""
    return sum(map(ne, ends, ends[1:] + ends[:1]))


def cyclic_runs(values: Sequence) -> list[tuple[int, int]]:
    """(start, length) of each maximal cyclic run of equal values, in order
    of start.  A run starts where a value differs from the one before it,
    cyclically; when none does, the values are one run from 0."""
    k = len(values)
    starts = [j for j in range(k) if values[j] != values[j - 1]]
    if not starts:
        return [(0, k)] if k else []
    return [(s, (t - s) % k) for s, t in zip(starts, starts[1:] + starts[:1])]


def excerpt(value) -> str:
    """``repr(value)`` for a refusal text, cut to its first 40 characters
    and its length when longer, so no input value is repeated whole."""
    try:
        text = repr(value)
    except ValueError:  # an int longer than the interpreter converts
        return f"<an integer of more than {sys.get_int_max_str_digits()} digits>"
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


def parse_weight(text: str) -> Fraction:
    """Parse a reduced ``"p/q"`` weight string; the value must be positive."""
    if not isinstance(text, str):
        raise FormatError(f"weight must be a string, got {excerpt(text)}")
    if not re.fullmatch(r"[0-9]+/[0-9]+", text):
        raise FormatError(f"weight {excerpt(text)} is not of the form p/q")
    try:
        num, den = (int(part) for part in text.split("/"))
    except ValueError:  # a part longer than the interpreter converts
        raise FormatError(f"weight of {len(text)} characters has a part with more "
                          f"than {sys.get_int_max_str_digits()} digits") from None
    if den <= 0:
        raise FormatError(f"weight {excerpt(text)} has nonpositive denominator")
    if math.gcd(abs(num), den) != 1:
        raise FormatError(f"weight {excerpt(text)} is not reduced")
    value = Fraction(num, den)
    if value <= 0:
        raise FormatError(f"weight {excerpt(text)} is out of range")
    return value


_DECIMAL_EXPONENT = re.compile(r"[eE][-+]?([0-9]+(?:_[0-9]+)*)\s*\Z")


def cut_exponent(text: str) -> str:
    """``text`` with a decimal exponent k of more digits than L =
    ``sys.get_int_max_str_digits()`` + ``len(text)`` has cut to L + 1, sign
    kept, as ``Fraction`` builds ``10**k`` first, which takes seconds to
    hours; a limit of 0 cuts nothing.  With either exponent, a positive
    value is above 1 (k > 0) or has more digits in its denominator than
    the limit allows (k < 0)."""
    limit = sys.get_int_max_str_digits()
    m = _DECIMAL_EXPONENT.search(text)
    bound = limit + len(text)
    if not (limit and m) or len(m.group(1).replace("_", "").lstrip("0")) <= len(str(bound)):
        return text
    return f"{text[:m.start(1)]}{bound + 1}"


def format_weight(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


class PlaneDigraph:
    """An immutable plane digraph: directed edges plus per-vertex clockwise
    rotations of darts.

    The constructor checks all structural invariants, including the genus-0
    Euler test applied to every connected component, so any constructed
    instance is a genuine sphere embedding.  Endpoints and darts must be
    ints; they are stored as given, in tuples.
    """

    def __init__(self, vertex_count: int, edges: Sequence[tuple[int, int]],
                 rotation: Sequence[Sequence[int]]):
        n = self.vertex_count = int(vertex_count)
        edges = self.edges = tuple(map(tuple, edges))
        rotation = self.rotation = tuple(map(tuple, rotation))
        if n < 0:
            raise EmbeddingError("negative vertex count")
        if len(rotation) != n:
            raise EmbeddingError("rotation table length differs from vertex count")
        for e, (t, h) in enumerate(edges):
            if not (0 <= t < n and 0 <= h < n):
                raise EmbeddingError(f"edge {e} endpoint out of range")
            if t == h:
                raise EmbeddingError(f"edge {e} is a self-loop")

        # One walk over the rotation checks the dart bookkeeping and records
        # each dart's position and its rotation successor.  Dart 2e + end
        # belongs to edges[e][end], so the flattened edge list is the
        # dart-to-vertex table once every dart has been found there.
        m2 = 2 * len(edges)
        owner = [v for te in edges for v in te]
        pos = [-1] * m2
        succ = [-1] * m2
        for v, row in enumerate(rotation):
            k = len(row)
            for j, d in enumerate(row):
                if not 0 <= d < m2:
                    raise EmbeddingError(f"unknown dart {d} at vertex {v}")
                if pos[d] != -1:
                    raise EmbeddingError(f"dart {d} appears twice")
                if owner[d] != v:
                    raise EmbeddingError(
                        f"dart {d} listed at vertex {v} but belongs to vertex {owner[d]}")
                pos[d] = j
                succ[d] = row[j + 1 - k]
        if sum(map(len, rotation)) != m2:
            raise EmbeddingError("some darts are missing from the rotation system")
        self._dart_vertex = owner
        self._dart_pos = pos

        # Faces are the orbits of d -> successor(twin(d)).  The walk above
        # found every dart exactly once, so succ is a permutation, and so is
        # this map: every orbit closes at its start.
        face_of = [-1] * m2
        faces = []
        for start in range(m2):
            if face_of[start] != -1:
                continue
            f = len(faces)
            face = []
            d = start
            while face_of[d] == -1:
                face_of[d] = f
                face.append(d)
                d = succ[d ^ 1]
            faces.append(tuple(face))
        self.faces = tuple(faces)

        # Components by union-find with path halving, in root order; each
        # face lies in one component, so the Euler test counts a
        # component's faces through their first darts.
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        for t, h in edges:
            t, h = find(t), find(h)
            if t != h:
                parent[t] = h
        root = [find(v) for v in range(n)]
        verts_of: dict[int, list[int]] = {}
        for v, r in enumerate(root):
            verts_of.setdefault(r, []).append(v)
        edges_of: dict[int, list[int]] = {r: [] for r in verts_of}
        for e, (t, _h) in enumerate(edges):
            edges_of[root[t]].append(e)
        faces_of = dict.fromkeys(verts_of, 0)
        for face in faces:
            faces_of[root[owner[face[0]]]] += 1
        components = []
        for r in sorted(verts_of):
            verts, edge_ids = verts_of[r], edges_of[r]
            if edge_ids:  # an isolated vertex has V - E + F = 1 - 0 + 1 = 2
                euler = len(verts) - len(edge_ids) + faces_of[r]
                if euler != 2:
                    raise EmbeddingError(
                        f"Euler check failed on a component: V={len(verts)} "
                        f"E={len(edge_ids)} F={faces_of[r]} gives {euler}, not 2")
            components.append((tuple(verts), tuple(edge_ids)))
        self._components = tuple(components)

    # -- basic queries -------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.rotation[v])

    def dart_position(self, d: int) -> int:
        """The position of dart ``d`` in its vertex's rotation."""
        return self._dart_pos[d]

    def other_endpoint(self, d: int) -> int:
        return self._dart_vertex[d ^ 1]

    def components(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Connected components as (vertex ids, edge ids), both sorted; found
        once, during construction.  The list is a fresh copy, and its
        tuples cannot be changed, so no caller can alter the next result."""
        return list(self._components)

    def is_connected(self) -> bool:
        return len(self._components) <= 1

    # -- bimodality ----------------------------------------------------

    def switch_count(self, v: int, present: Optional[set[int]] = None) -> int:
        """Number of cyclic in/out transitions among v's darts restricted to
        the given edge set (all edges when None).  Always even; the vertex is
        bimodal in the subgraph iff the result is at most 2."""
        if present is None:
            return cyclic_switches([d & 1 for d in self.rotation[v]])
        return cyclic_switches([d & 1 for d in self.rotation[v] if d >> 1 in present])

    def is_bimodal_vertex(self, v: int, present: Optional[set[int]] = None) -> bool:
        return self.switch_count(v, present) <= 2

    def bad_vertices(self, present: Optional[set[int]] = None) -> list[int]:
        """The vertices with more than two switches, in id order.  A row of
        at most two darts has at most two switches, so it is not counted."""
        return [v for v, row in enumerate(self.rotation)
                if len(row) > 2 and self.switch_count(v, present) > 2]

    def switch_counts(self, present: Optional[set[int]] = None) -> list[int]:
        """``switch_count`` of every vertex, in id order.  A row of at most
        one dart has no switch, so it is not counted."""
        if present is None:
            return [cyclic_switches([d & 1 for d in row]) if len(row) > 1 else 0
                    for row in self.rotation]
        return [cyclic_switches([d & 1 for d in row if d >> 1 in present])
                if len(row) > 1 else 0
                for row in self.rotation]

    def wedges(self, v: int) -> list["Wedge"]:
        """Maximal cyclic runs of same-direction darts at v, in order of
        start.  Runs partition the darts and alternate direction; a bimodal
        vertex has at most two."""
        dirs = [dart_direction(d) for d in self.rotation[v]]
        return [Wedge(v, start, length, dirs[start]) for start, length in cyclic_runs(dirs)]

    def good_edge_sections(self, v: int) -> list["GoodEdgeSection"]:
        """Maximal runs of v's darts whose edges lead to good vertices.

        Requires v to be bad.  If every neighbor is bad the result is empty;
        if every neighbor is good the whole rotation is one cyclic section
        (flagged, since a linear start position is then a convention)."""
        if self.is_bimodal_vertex(v):
            raise EmbeddingError(f"vertex {v} is bimodal, it has no good edge-sections")
        row = self.rotation[v]
        good = [self.is_bimodal_vertex(self.other_endpoint(d)) for d in row]
        return [GoodEdgeSection(v, start, length, cyclic=length == len(row))
                for start, length in cyclic_runs(good) if good[start]]


@dataclass(frozen=True)
class Wedge:
    vertex: int
    start: int      # index into the vertex rotation
    length: int
    direction: str  # "i" or "o"


@dataclass(frozen=True)
class GoodEdgeSection:
    vertex: int
    start: int
    length: int
    cyclic: bool = False

    def darts(self, graph: PlaneDigraph) -> list[int]:
        row = graph.rotation[self.vertex]
        return [row[(self.start + j) % len(row)] for j in range(self.length)]


class IntWeights(NamedTuple):
    """Edge weights as integers over one common denominator: weight e is
    ``values[e] / scale``, and ``total`` is the sum of ``values``."""
    values: tuple[int, ...]
    scale: int
    total: int


@dataclass(frozen=True)
class Instance:
    """A plane digraph together with its edge weights.

    ``int_weights``, the weights scaled to integers, is computed on first
    use and then kept; it is not a field, so equality, hashing and the
    documents ignore it."""
    graph: PlaneDigraph
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.weights) != self.graph.edge_count:
            raise FormatError("weight list length differs from edge count")

    @cached_property
    def int_weights(self) -> IntWeights:
        """The weights rescaled to integers by their least common
        denominator; all solver-internal arithmetic runs on these."""
        scale = math.lcm(*(w.denominator for w in self.weights)) if self.weights else 1
        values = tuple(w.numerator * (scale // w.denominator) for w in self.weights)
        return IntWeights(values, scale, sum(values))

    @property
    def total_weight(self) -> Fraction:
        scaled = self.int_weights
        return Fraction(scaled.total, scaled.scale)


@dataclass(frozen=True)
class Solution:
    """A bimodal subgraph given by its kept edge set."""
    kept_edges: frozenset[int]
    kept_weight: Fraction
    deleted_weight: Fraction
    method: str
    certificate: tuple[int, ...]  # per-vertex switch counts of the kept subgraph

    def document(self) -> dict:
        return {
            "kept": sorted(self.kept_edges),
            "kept_weight": format_weight(self.kept_weight),
            "deleted_weight": format_weight(self.deleted_weight),
            "method": self.method,
            "certificate": list(self.certificate),
        }


def make_solution(instance: Instance, kept: Iterable[int], method: str) -> Solution:
    """Assemble a Solution for ``kept``, recomputing weights and the
    per-vertex switch certificate; refuses non-bimodal kept sets."""
    g = instance.graph
    kept = frozenset(map(int, kept))
    if kept and (min(kept) < 0 or max(kept) >= g.edge_count):
        e = next(e for e in kept if not 0 <= e < g.edge_count)
        raise FormatError(f"solution references unknown edge {excerpt(e)}")
    cert = tuple(g.switch_counts(kept))
    if max(cert, default=0) > 2:
        bad = [v for v, c in enumerate(cert) if c > 2]
        raise EmbeddingError(f"kept edge set is not bimodal at vertices {bad}")
    values, scale, total = instance.int_weights
    kept_w = sum([values[e] for e in kept])
    return Solution(kept, Fraction(kept_w, scale), Fraction(total - kept_w, scale),
                    method, cert)


# -- canonical instance documents -------------------------------------

def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def instance_document(instance: Instance) -> dict:
    g = instance.graph
    end_name = {TAIL: "tail", HEAD: "head"}
    return {
        "vertices": g.vertex_count,
        "edges": [
            {"id": e, "tail": t, "head": h, "weight": format_weight(instance.weights[e])}
            for e, (t, h) in enumerate(g.edges)
        ],
        "rotation": [
            [{"edge": dart_edge(d), "end": end_name[dart_end(d)]} for d in row]
            for row in g.rotation
        ],
    }


def encode_instance(instance: Instance) -> str:
    return canonical_json(instance_document(instance))


def parse_json(text: str, source: Optional[str] = None):
    """``json.loads`` with every parse failure a FormatError: bad syntax,
    an integer literal longer than the interpreter converts, or nesting
    deeper than the recursion limit.  ``source`` names the document in
    the message."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        subject = f"{source} is not" if source else "not"
        raise FormatError(f"{subject} valid JSON: {exc}") from None


def decode_instance(text: str) -> Instance:
    """Parse and fully validate a canonical instance document.

    Raises FormatError for grammar problems and EmbeddingError when the
    rotation system is not a sphere embedding."""
    return instance_from_document(parse_json(text))


_END_CODE = {"tail": TAIL, "head": HEAD}


def instance_from_document(doc) -> Instance:
    """Build an instance from a decoded JSON document, checking its grammar
    in one pass over each list.  Values must have the JSON types exactly
    (a boolean is not an integer), and each distinct weight string is
    parsed once."""
    if type(doc) is not dict:
        raise FormatError("instance document must be a JSON object")
    for key in ("vertices", "edges", "rotation"):
        if key not in doc:
            raise FormatError(f"instance document lacks {key!r}")
    n = doc["vertices"]
    if type(n) is not int or n < 0:
        raise FormatError("vertices must be a nonnegative integer")
    raw_edges = doc["edges"]
    if type(raw_edges) is not list:
        raise FormatError("edges must be a list")
    m = len(raw_edges)
    edges: list[Optional[tuple[int, int]]] = [None] * m
    weights: list[Optional[Fraction]] = [None] * m
    parsed: dict[str, Fraction] = {}
    for item in raw_edges:
        if type(item) is not dict:
            raise FormatError("each edge must be an object")
        try:
            e, t, h = item["id"], item["tail"], item["head"]
            w = item["weight"]
        except KeyError as exc:
            raise FormatError(f"edge lacks field {exc}") from None
        if type(e) is not int or not 0 <= e < m:
            raise FormatError(f"edge id {excerpt(e)} is not dense in 0..{m - 1}")
        if edges[e] is not None:
            raise FormatError(f"duplicate edge id {e}")
        if type(t) is not int or type(h) is not int:
            raise FormatError("edge endpoints must be integers")
        edges[e] = (t, h)
        value = parsed.get(w) if type(w) is str else None
        if value is None:
            value = parsed[w] = parse_weight(w)
        weights[e] = value
    raw_rot = doc["rotation"]
    if type(raw_rot) is not list or len(raw_rot) != n:
        raise FormatError("rotation must list one dart sequence per vertex")
    rotation = []
    for row in raw_rot:
        if type(row) is not list:
            raise FormatError("each rotation entry must be a list")
        darts = []
        for item in row:
            if type(item) is not dict or "edge" not in item or "end" not in item:
                raise FormatError("each dart must be an object with edge and end")
            e, end = item["edge"], item["end"]
            if type(e) is not int or not 0 <= e < m:
                raise FormatError(f"dart references unknown edge {excerpt(e)}")
            code = _END_CODE.get(end) if type(end) is str else None
            if code is None:
                raise FormatError(f"dart end must be 'tail' or 'head', got {excerpt(end)}")
            darts.append(2 * e + code)
        rotation.append(darts)
    graph = PlaneDigraph(n, edges, rotation)
    return Instance(graph, tuple(weights))


# -- dense renumbering ------------------------------------------------

def dense_instance(edges, rows, weights, vertex_ids: Sequence[int],
                   edge_ids: Sequence[int]) -> Instance:
    """Renumber the listed vertices and edges densely, in list order.

    ``edges``, ``rows`` and ``weights`` are indexed by the old ids (lists
    or dicts will do); a row's darts on edges not in ``edge_ids`` are
    dropped."""
    vmap = {v: i for i, v in enumerate(vertex_ids)}
    emap = {e: i for i, e in enumerate(edge_ids)}
    # dart arithmetic inlined: this runs once per dart of every derived instance
    graph = PlaneDigraph(
        len(vertex_ids),
        [(vmap[edges[e][0]], vmap[edges[e][1]]) for e in edge_ids],
        [[2 * emap[d >> 1] + (d & 1) for d in rows[v] if d >> 1 in emap]
         for v in vertex_ids])
    return Instance(graph, tuple(weights[e] for e in edge_ids))


# -- subgraph extraction ----------------------------------------------

def subgraph_by_edges(instance: Instance, edge_ids: Sequence[int]):
    """Restrict to a subset of edges with inherited rotation.

    Returns (sub_instance, vertex_ids, edge_ids) where the id lists map the
    dense sub-instance ids back to the originals.  Vertices that lose all
    their darts are dropped.  A subset that drops nothing, every edge of a
    graph with no isolated vertex, is ``instance`` itself, with identity
    ids and no copy; it is recognized before any sort, as m distinct ids
    that cover 0..m-1."""
    g = instance.graph
    m = g.edge_count
    distinct = set(edge_ids)
    if len(distinct) == m and distinct.issuperset(range(m)) and all(g.rotation):
        return instance, list(range(g.vertex_count)), list(range(m))
    edge_ids = sorted(set(map(int, distinct)))
    vertex_ids = sorted({v for e in edge_ids for v in g.edges[e]})
    sub = dense_instance(g.edges, g.rotation, instance.weights, vertex_ids, edge_ids)
    return sub, vertex_ids, edge_ids


def component_instances(instance: Instance):
    """Yield (sub-instance, original edge ids) of each connected component
    with edges, in ``components`` order, by ``subgraph_by_edges``: a
    component that spans the graph is the instance itself."""
    for _verts, edge_ids in instance.graph.components():
        if edge_ids:
            sub, _vids, eids = subgraph_by_edges(instance, edge_ids)
            yield sub, eids

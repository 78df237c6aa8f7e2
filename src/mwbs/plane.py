"""Embedded planar digraphs as rotation systems.

A graph is stored as a list of directed edges plus, for every vertex, the
clockwise cyclic order of its incident darts.  A dart is one end of one
edge, encoded as the integer ``2*edge_id + end`` where end 0 is the tail
(outgoing side) and end 1 is the head (incoming side).  All structural
notions used elsewhere (bimodality, wedges, good edge-sections, nooses,
configurations) are statements about this rotation order, so darts are the
primitive and everything else is derived.

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


def parse_weight(text: str) -> Fraction:
    """Parse a reduced ``"p/q"`` weight string; the value must be positive."""
    if not isinstance(text, str):
        raise FormatError(f"weight must be a string, got {text!r}")
    if not re.fullmatch(r"[0-9]+/[0-9]+", text):
        raise FormatError(f"weight {text!r} is not of the form p/q")
    num, den = (int(part) for part in text.split("/"))
    if den <= 0:
        raise FormatError(f"weight {text!r} has nonpositive denominator")
    if math.gcd(abs(num), den) != 1:
        raise FormatError(f"weight {text!r} is not reduced")
    value = Fraction(num, den)
    if value <= 0:
        raise FormatError(f"weight {text!r} is out of range")
    return value


def format_weight(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


class PlaneDigraph:
    """An immutable plane digraph: directed edges plus per-vertex clockwise
    rotations of darts.

    The constructor checks all structural invariants, including the genus-0
    Euler test applied to every connected component, so any constructed
    instance is a genuine sphere embedding.
    """

    def __init__(self, vertex_count: int, edges: Sequence[tuple[int, int]],
                 rotation: Sequence[Sequence[int]]):
        self.vertex_count = int(vertex_count)
        self.edges = tuple((int(t), int(h)) for t, h in edges)
        self.rotation = tuple(tuple(int(d) for d in row) for row in rotation)
        self._check_structure()
        self._index_darts()
        self._trace_faces()
        self._check_euler()

    # -- construction-time checks ------------------------------------

    def _check_structure(self):
        if self.vertex_count < 0:
            raise EmbeddingError("negative vertex count")
        if len(self.rotation) != self.vertex_count:
            raise EmbeddingError("rotation table length differs from vertex count")
        for e, (t, h) in enumerate(self.edges):
            if not (0 <= t < self.vertex_count and 0 <= h < self.vertex_count):
                raise EmbeddingError(f"edge {e} endpoint out of range")
            if t == h:
                raise EmbeddingError(f"edge {e} is a self-loop")

    def _index_darts(self):
        m = len(self.edges)
        self._dart_vertex = [-1] * (2 * m)
        self._dart_pos = [-1] * (2 * m)
        seen = 0
        for v, row in enumerate(self.rotation):
            for pos, d in enumerate(row):
                if not (0 <= d < 2 * m):
                    raise EmbeddingError(f"unknown dart {d} at vertex {v}")
                if self._dart_vertex[d] != -1:
                    raise EmbeddingError(f"dart {d} appears twice")
                want = self.edges[dart_edge(d)][dart_end(d)]
                if want != v:
                    raise EmbeddingError(
                        f"dart {d} listed at vertex {v} but belongs to vertex {want}")
                self._dart_vertex[d] = v
                self._dart_pos[d] = pos
                seen += 1
        if seen != 2 * m:
            raise EmbeddingError("some darts are missing from the rotation system")

    def _trace_faces(self):
        """Orbits of d -> successor(twin(d)) are the faces of the embedding."""
        m = len(self.edges)
        self._face_of = [-1] * (2 * m)
        faces = []
        for start in range(2 * m):
            if self._face_of[start] != -1:
                continue
            face = []
            d = start
            while self._face_of[d] == -1:
                self._face_of[d] = len(faces)
                face.append(d)
                d = self.next_face_dart(d)
            if d != start:
                raise EmbeddingError("face tracing did not close a cycle")
            faces.append(tuple(face))
        self.faces = tuple(faces)

    def _check_euler(self):
        """Find the connected components, which ``components`` then returns,
        and apply the Euler test to each."""
        self._components = self._find_components()
        for verts, edge_ids in self._components:
            if not edge_ids:
                continue  # isolated vertex: V - E + F = 1 - 0 + 1 = 2
            face_ids = {self._face_of[dart(e, TAIL)] for e in edge_ids}
            face_ids |= {self._face_of[dart(e, HEAD)] for e in edge_ids}
            euler = len(verts) - len(edge_ids) + len(face_ids)
            if euler != 2:
                raise EmbeddingError(
                    f"Euler check failed on a component: V={len(verts)} "
                    f"E={len(edge_ids)} F={len(face_ids)} gives {euler}, not 2")

    def _find_components(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        parent = list(range(self.vertex_count))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for t, h in self.edges:
            rt, rh = find(t), find(h)
            if rt != rh:
                parent[rt] = rh
        groups: dict[int, tuple[list[int], list[int]]] = {}
        for v in range(self.vertex_count):
            groups.setdefault(find(v), ([], []))[0].append(v)
        for e, (t, _h) in enumerate(self.edges):
            groups[find(t)][1].append(e)
        return tuple((tuple(verts), tuple(edge_ids))
                     for verts, edge_ids in (groups[r] for r in sorted(groups)))

    # -- basic queries -------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.rotation[v])

    def dart_position(self, d: int) -> int:
        """The position of dart ``d`` in its vertex's rotation."""
        return self._dart_pos[d]

    def next_face_dart(self, d: int) -> int:
        """The dart following ``d`` on its face: rotation successor of the twin."""
        t = d ^ 1
        v = self._dart_vertex[t]
        row = self.rotation[v]
        return row[(self._dart_pos[t] + 1) % len(row)]

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
        return [v for v, c in enumerate(self.switch_counts(present)) if c > 2]

    def switch_counts(self, present: Optional[set[int]] = None) -> list[int]:
        """``switch_count`` of every vertex, in id order."""
        if present is None:
            return [cyclic_switches([d & 1 for d in row]) for row in self.rotation]
        return [cyclic_switches([d & 1 for d in row if d >> 1 in present])
                for row in self.rotation]

    def wedges(self, v: int) -> list["Wedge"]:
        """Maximal cyclic runs of same-direction darts at v, in rotation order
        starting from the first run boundary.  Runs partition the darts and
        alternate direction; a bimodal vertex has at most two."""
        row = self.rotation[v]
        k = len(row)
        if k == 0:
            return []
        dirs = [dart_direction(d) for d in row]
        if all(x == dirs[0] for x in dirs):
            return [Wedge(v, 0, k, dirs[0])]
        # rotate so position `first` starts a run
        first = next(j for j in range(k) if dirs[j] != dirs[j - 1])
        out = []
        start = first
        while True:
            end = start
            while dirs[(end + 1) % k] == dirs[start % k]:
                end += 1
            out.append(Wedge(v, start % k, end - start + 1, dirs[start % k]))
            start = end + 1
            if start % k == first:
                break
        return out

    def good_edge_sections(self, v: int) -> list["GoodEdgeSection"]:
        """Maximal runs of v's darts whose edges lead to good vertices.

        Requires v to be bad.  If every neighbor is bad the result is empty;
        if every neighbor is good the whole rotation is one cyclic section
        (flagged, since a linear start position is then a convention)."""
        if self.is_bimodal_vertex(v):
            raise EmbeddingError(f"vertex {v} is bimodal, it has no good edge-sections")
        bad = set(self.bad_vertices())
        row = self.rotation[v]
        k = len(row)
        good_dart = [self.other_endpoint(d) not in bad for d in row]
        if not any(good_dart):
            return []
        if all(good_dart):
            return [GoodEdgeSection(v, 0, k, cyclic=True)]
        sections = []
        for j in range(k):
            if good_dart[j] and not good_dart[j - 1]:
                length = 1
                while good_dart[(j + length) % k]:
                    length += 1
                sections.append(GoodEdgeSection(v, j, length, cyclic=False))
        sections.sort(key=lambda s: s.start)
        return sections


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
        raise FormatError(f"solution references unknown edge {e}")
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


def decode_instance(text: str) -> Instance:
    """Parse and fully validate a canonical instance document.

    Raises FormatError for grammar problems and EmbeddingError when the
    rotation system is not a sphere embedding."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from None
    return instance_from_document(doc)


def _is_int(value) -> bool:
    """A JSON integer; booleans are ints to Python but not to the grammar."""
    return isinstance(value, int) and not isinstance(value, bool)


def instance_from_document(doc) -> Instance:
    if not isinstance(doc, dict):
        raise FormatError("instance document must be a JSON object")
    for key in ("vertices", "edges", "rotation"):
        if key not in doc:
            raise FormatError(f"instance document lacks {key!r}")
    n = doc["vertices"]
    if not _is_int(n) or n < 0:
        raise FormatError("vertices must be a nonnegative integer")
    raw_edges = doc["edges"]
    if not isinstance(raw_edges, list):
        raise FormatError("edges must be a list")
    m = len(raw_edges)
    edges: list[Optional[tuple[int, int]]] = [None] * m
    weights: list[Optional[Fraction]] = [None] * m
    for item in raw_edges:
        if not isinstance(item, dict):
            raise FormatError("each edge must be an object")
        try:
            e, t, h = item["id"], item["tail"], item["head"]
            w = item["weight"]
        except KeyError as exc:
            raise FormatError(f"edge lacks field {exc}") from None
        if not _is_int(e) or not (0 <= e < m):
            raise FormatError(f"edge id {e!r} is not dense in 0..{m - 1}")
        if edges[e] is not None:
            raise FormatError(f"duplicate edge id {e}")
        if not _is_int(t) or not _is_int(h):
            raise FormatError("edge endpoints must be integers")
        edges[e] = (t, h)
        weights[e] = parse_weight(w)
    raw_rot = doc["rotation"]
    if not isinstance(raw_rot, list) or len(raw_rot) != n:
        raise FormatError("rotation must list one dart sequence per vertex")
    end_code = {"tail": TAIL, "head": HEAD}
    rotation = []
    for row in raw_rot:
        if not isinstance(row, list):
            raise FormatError("each rotation entry must be a list")
        darts = []
        for item in row:
            if not isinstance(item, dict) or "edge" not in item or "end" not in item:
                raise FormatError("each dart must be an object with edge and end")
            e, end = item["edge"], item["end"]
            if not _is_int(e) or not (0 <= e < m):
                raise FormatError(f"dart references unknown edge {e!r}")
            if end not in end_code:
                raise FormatError(f"dart end must be 'tail' or 'head', got {end!r}")
            darts.append(dart(e, end_code[end]))
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
    their darts are dropped."""
    g = instance.graph
    edge_ids = sorted(set(int(e) for e in edge_ids))
    vertex_ids = sorted({v for e in edge_ids for v in g.edges[e]})
    sub = dense_instance(g.edges, g.rotation, instance.weights, vertex_ids, edge_ids)
    return sub, vertex_ids, edge_ids


def component_instances(instance: Instance):
    """Yield (sub-instance, original edge ids) for each connected component
    with edges, in ``components`` order.  A component spanning every
    vertex is the instance itself, with identity ids and no copy; any other
    is renumbered by ``subgraph_by_edges``."""
    g = instance.graph
    for verts, edge_ids in g.components():
        if not edge_ids:
            continue
        if len(verts) == g.vertex_count:
            yield instance, range(g.edge_count)
        else:
            sub, _vids, eids = subgraph_by_edges(instance, edge_ids)
            yield sub, eids

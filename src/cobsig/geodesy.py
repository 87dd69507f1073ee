"""Geodesic distance fields, diameters, and boundary injectivity radii.

Distances are graph shortest paths on a Steiner-refined 1-skeleton: every
edge is split into 2**s sub-edges, and for s >= 1 chords join refinement
points sitting on different edges of a common simplex.  Every node pair has
one owner, the smallest face holding both nodes: a triangle owns the chords
between its edges, and in 3D a tetrahedron owns only those between the
interior points of its opposite edges, so each chord is built once, from
its owner's edge lengths.  A chord's squared length is a fixed linear
combination of its owner's squared edge lengths (the Cayley-Menger / Gram
identity, with exact dyadic coefficients), so no face is embedded and the
construction works for deformed (non-embedded) metrics.

The refined graph at level s+1 contains the level-s graph edge-for-edge with
bit-identical weights (sub-edge lengths are exact halvings, coarse chords
reappear with the same endpoints, owner and coefficients), so distance
fields are exactly non-increasing in s.  Results are upper bounds on the
true geodesic distances and are deterministic across runs.

A graph is built in two parts.  Its pattern -- node layout, the node pair
of every sub-edge and chord, and the CSR ``indptr``/``indices`` -- depends
only on the complex's structure, the owner faces (the top simplices, and in
3D the facet table; or one region's facets) and s.  It reads its edge
table and the edge rows of its faces from the structure (``edges()``,
``simplex_edge_rows`` and ``facets`` for the whole complex; a region keeps
a compact table of its own edges, found once through ``edge_rows``), and is
kept on the structure that noise, relabelings and every signal on the
complex share.  Since no raw entry repeats a pair, scipy's COO -> CSR
conversion builds it.  Each metric then only refills the weights from
``lengths[rows]``: chord lengths from one constant coefficient table per
face dimension and s, and one scatter into the shared pattern, with no
search, no sort and no COO conversion.  The scheme is the Steiner-point
discretization of Lanthier, Maheshwari and Sack (Algorithmica 30, 2001)
and of Aleksandrov, Maheshwari and Sack (JACM 52(1), 2005).

A metric that differs from the pattern's first fill only inside a noise
ball costs work only there, and the ball, not the metric, is the unit of
that work.  The first fill is the pattern's reference: it keeps its lengths
and CSR ``data``, and the full field of each source set searched on it.  A
later fill compares its lengths with the reference's bit for bit.  The rows
that changed key the pattern's one plan (``_Plan``): the touched nodes, the
decoded CSR slots of the sub-edges of changed rows and of the chords of
faces holding one, and the hit faces.  The plan is built once per set of
changed rows, so every depth of the same ball only recomputes those
weights.  The graph is the reference ``data`` plus those weights; its full
CSR matrix is built only when a full search asks for it.

A field on such a graph is the reference field updated by the incremental
shortest-path scheme of Ramalingam and Reps (J. Algorithms 21(2), 1996), on
the plan's node set W, and the update only lowers: when an edge on which
the old distances are tight (fl(d(u) + w_uv) == d(v)) rose, the full search
runs.  W starts as the touched nodes and grows only by the nodes a failed
boundary check shows a lowering could reach.  W's subgraph is built from
the reference weights and kept on the plan until W grows; each update
writes this graph's weights of the plan's slots into it, seeds W's
boundary from the old distances and searches.  The result is kept only if
no boundary edge would lower an old distance outside W, and then it is
exact, not approximate.  Rounding is monotone, so Dijkstra returns at each
node the least left-to-right float sum over all paths.  The old search's
tree is built on tight edges and none of them rose, so every node outside
W keeps an old tree path whose weights did not rise, and the boundary
check shows that no path through W beats it: the update gives the full
search's bits.  That argument needs W to hold only the touched nodes; any
larger W serves as well, which is why one W serves every field and every
depth of a ball.  A deeper ball lowers more, so a sweep that starts from
its smallest epsilon grows W once.  When the check fails, W grows once and
is searched again, and after that the full search runs.  The update is
tried only while the touched rows hold at most 1/LOCAL_SHARE of the
entries.

A noise ball's own centre needs distances only out to its radius:
``distance_within`` stops Dijkstra at the radius plus BALL_ULPS ulp and
leaves inf beyond.  Every prefix of a shortest path sums no higher than the
path, so each vertex within the bound gets the full search's bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import dijkstra

from .complex import REGION_TAGS, edge_rows, edge_slots, region_vertices
from .errors import GeodesyError, RegionError
from .fields import ScalarField

__all__ = [
    "ScalarField",
    "InjectivityEstimate",
    "distance_field",
    "distance_to_vertex",
    "distance_within",
    "diameter",
    "injectivity_radius",
]

DEFAULT_STEINER_LEVEL = 2

#: Relative margin of the cut rule: an edge uv flags when its two feet lie
#: farther apart inside the region than (2 max(f_u, f_v) + l_uv)(1 + CUT_TAU).
CUT_TAU = 0.05

#: Sources per Dijkstra call when all pairwise distances are kept.
SEARCH_BLOCK = 64

#: Faces per block when a full fill computes chord lengths, which bounds
#: the fill's (faces, chords) float temporaries whatever the mesh size.
FILL_BLOCK = 256

#: Local work pays only for a small change: a fill is local while at most
#: 1/LOCAL_SHARE of the edge rows changed, and a field is updated on the
#: touched subgraph while the touched rows hold at most 1/LOCAL_SHARE of the
#: graph's entries.
LOCAL_SHARE = 8

#: ``distance_within(signal, p, radius)`` computes every vertex within
#: radius + BALL_ULPS ulp of p, so a vertex that close to a ball's radius
#: can be told apart from one inside it.
BALL_ULPS = 4


@dataclass(frozen=True)
class InjectivityEstimate:
    """Boundary injectivity radius of a region, with its provenance.

    ``method`` is "analytic" when the value came from a generator hint and
    "heuristic" when estimated from the mesh; the heuristic is advisory.
    """

    value: float
    method: str
    region: str

    def __post_init__(self):
        if not self.value > 0:
            raise GeodesyError("injectivity radius must be positive")


# ---------------------------------------------------------------------------
# Steiner-refined graph construction
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _chord_template(q: int, s: int):
    """Canonical refinement nodes of a q-simplex (q >= 2), the chords it
    owns and their Gram coefficients, as read-only arrays.

    ``nodes`` holds each node's integer barycentric numerators over 2**s:
    the q+1 vertices, then for each edge (i, j) in slot order (``edge_slots``)
    its 2**s - 1 interior points by m, with 2**s - m at i and m at j.  A
    node pair belongs to the smallest face that holds both nodes, so the
    q-simplex keeps a pair, in ``pairs``, only when the two supports
    together cover all q+1 vertices: for q = 2 every pair on different
    edges, for q = 3 only interior points of opposite edges.  No kept pair
    lies on a common edge, whose sub-edge chain already covers it.

    ``coef`` is the (n_slots, n_pairs) table taking a q-face's squared edge
    lengths to its squared chords: for barycentric w = a - b, |a - b|^2 =
    -sum_{i<j} w_i w_j l_ij^2 (the Gram identity behind the volumes).  Each
    w_i is a numerator over 2**s, so every entry is exact.
    """
    n, slots = 2**s, edge_slots(q)
    m = np.tile(np.arange(1, n), len(slots))
    ends = np.repeat(slots, n - 1, axis=0)
    inner = np.zeros((len(m), q + 1), dtype=np.int64)
    k = np.arange(len(m))
    inner[k, ends[:, 0]], inner[k, ends[:, 1]] = n - m, m
    nodes = np.concatenate([n * np.eye(q + 1, dtype=np.int64), inner])
    a, b = np.triu_indices(len(nodes), 1)
    keep = ((nodes[a] > 0) | (nodes[b] > 0)).all(axis=1)
    pairs = np.stack([a[keep], b[keep]], axis=1)
    w = (nodes[pairs[:, 0]] - nodes[pairs[:, 1]]) / n
    coef = np.array([-w[:, i] * w[:, j] for i, j in slots])
    for table in (nodes, pairs, coef):
        table.flags.writeable = False
    return nodes, pairs, coef


class _Pattern:
    """Metric-free part of a refined graph: node layout and CSR structure.

    ``edges`` is the pattern's edge table and ``cells`` a list of
    (faces, rows) pairs, one per face dimension: each face's vertices and
    the row in ``edges`` of each face edge, in slot order.  Both come from
    the complex's structure.  Faces below dimension 2 own no chords.  Node
    layout: indices 0..nv-1 are the original vertices; the interior points
    of edge row k occupy nv + k*(2**s - 1) .. in parameter order (measured
    from the smaller-index endpoint).

    The graph's raw entries are, in order, the sub-edges of every level
    t = 0..s (kept as skip edges so refinement can only shorten paths) and
    then the chords of each face, group by group.  Every node pair has one
    owner: the edge it lies on, or else the smallest face holding both
    nodes (``_chord_template``).  With each face listed once, every raw
    entry is a distinct pair, so scipy's COO -> CSR conversion, with the raw
    entry as payload, gives the canonical ``indptr``/``indices`` of the
    symmetric matrix, and ``slot_raw`` is the raw entry behind each slot.

    Per CSR entry the graph keeps 4 B of ``indices``, 4 B of ``slot_raw``
    and 8 B of ``data`` (16 B, plus ``indptr``).  The assembly allocates
    each full-size array once, at its final dtype: ``_raw_pairs`` writes
    the COO's int32 rows and columns in place, the mirror half is a slice
    copy, and the int32 payload becomes ``slot_raw`` in place.  So the
    conversion peaks at 20 B per entry (the COO's 12 B next to scipy's
    8 B of output), as does the first fill (``_full_data``): 1.25 times
    what the graph keeps.

    The first fill is the pattern's reference: its ``lengths`` and CSR
    ``data`` are kept, and so is every field searched on it (``fields``,
    keyed by source set).
    """

    def __init__(self, nv: int, edges: np.ndarray, cells: list, s: int):
        self.nv = nv
        self.s = s
        self.edges = edges
        self._interior = 2**s - 1
        self.n_nodes = nv + len(edges) * self._interior
        self.cells = [(faces, rows) for faces, rows in cells if faces.shape[1] > 2]
        self.n_sub = len(edges) * (2 ** (s + 1) - 1)  # sub-edge raw entries
        n = self.n_raw = self.n_sub + sum(
            len(faces) * len(_chord_template(faces.shape[1] - 1, s)[1])
            for faces, _ in self.cells)
        # the symmetric COO: raw entries (i, j), then their mirrors (j, i)
        row, col = np.empty((2, 2 * n), dtype=np.int32)
        self._raw_pairs(row[:n], col[:n])
        row[n:], col[n:] = col[:n], row[:n]
        # payload raw + 1, so that no stored value is an explicit zero
        raw = np.tile(np.arange(1, n + 1, dtype=np.int32), 2)
        m = coo_matrix((raw, (row, col)), shape=(self.n_nodes, self.n_nodes)).tocsr()
        # the conversion sums a repeated pair, which only a repeated simplex makes
        if m.nnz != 2 * n:
            raise GeodesyError("the complex lists a top simplex twice")
        m.data -= 1
        self.indptr, self.indices, self.slot_raw = m.indptr, m.indices, m.data
        self.reference = None
        self.fields = {}
        self.plan = None

    def _raw_pairs(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Write the node pair (i, j) of every raw entry, in order, into
        ``src`` and ``dst``."""
        s, ne = self.s, len(self.edges)
        rows = np.arange(ne, dtype=np.int64)
        pos = 0
        for t in range(s + 1):
            step = 2 ** (s - t)
            for j in range(2**t):
                src[pos:pos + ne] = self.node_ids(rows, j * step)
                dst[pos:pos + ne] = self.node_ids(rows, (j + 1) * step)
                pos += ne
        for faces, face_rows in self.cells:
            pairs = _chord_template(faces.shape[1] - 1, s)[1]
            gids = self._face_nodes(faces, face_rows)
            end = pos + len(faces) * len(pairs)
            shape = (len(faces), len(pairs))
            np.take(gids, pairs[:, 0], axis=1, out=src[pos:end].reshape(shape))
            np.take(gids, pairs[:, 1], axis=1, out=dst[pos:end].reshape(shape))
            pos = end

    def _face_nodes(self, faces: np.ndarray, face_rows: np.ndarray) -> np.ndarray:
        """Graph node of every template node of the given faces, in
        ``_chord_template`` order, as a (len(faces), n_template_nodes)
        int32 array: the face's vertices, then each slot's interior points
        by m, which lie at m or 2**s - m along the edge row, as the slot's
        first vertex is the row's smaller or larger one."""
        i, j = edge_slots(faces.shape[1] - 1).T
        m = np.arange(1, 2**self.s)
        m = np.where((faces[:, i] > faces[:, j])[:, :, None], 2**self.s - m, m)
        inner = self.nv + face_rows[:, :, None] * self._interior + (m - 1)
        return np.concatenate([faces, inner.reshape(len(faces), -1)], axis=1,
                              dtype=np.int32)

    def node_ids(self, rows: np.ndarray, m: np.ndarray) -> np.ndarray:
        """Graph node for parameter m/2**s along edge rows (m in 0..2**s)."""
        rows = np.asarray(rows, dtype=np.int64)
        m = np.asarray(m, dtype=np.int64)
        out = self.nv + rows * self._interior + (m - 1)
        out = np.where(m == 0, self.edges[rows, 0], out)
        out = np.where(m == 2**self.s, self.edges[rows, 1], out)
        return out

    def steiner_ids_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """All interior refinement nodes of the given edge rows."""
        if self._interior == 0 or len(rows) == 0:
            return np.empty(0, dtype=np.int64)
        base = self.nv + np.asarray(rows, dtype=np.int64)[:, None] * self._interior
        return (base + np.arange(self._interior)[None, :]).ravel()

    def fill(self, lengths: np.ndarray):
        """CSR ``data`` for per-edge ``lengths`` and the plan of a local fill.

        The first fill becomes the reference and gives no plan, as does a
        fill with the reference's lengths, which shares its ``data``.  A
        later fill that changes at most 1/LOCAL_SHARE of the rows is local:
        it gives no ``data``, only the plan of its changed rows, whose slots
        are the only ones that differ from the reference (``_Plan.weights``).
        The pattern keeps one ``_Plan`` and replaces it only when a fill
        changes other rows.  A fill that changes more rows is filled in
        full, with no plan.  No sort and no COO conversion runs here.
        """
        if self.reference is None:
            self.reference = (lengths, self._full_data(lengths))
            return self.reference[1], None
        ref_lengths, ref_data = self.reference
        # positive finite lengths: != compares them bit for bit
        changed = lengths != ref_lengths
        rows = np.flatnonzero(changed)
        if len(rows) == 0:
            return ref_data, None
        if LOCAL_SHARE * len(rows) > len(changed):
            return self._full_data(lengths), None
        if self.plan is None or not np.array_equal(self.plan.rows, rows):
            self.plan = _Plan(self, changed)
        return None, self.plan

    def _full_data(self, lengths: np.ndarray) -> np.ndarray:
        """The weight of every raw entry, scattered into the pattern.
        Sub-edges weigh ``lengths / 2**t``; chords come from each face's
        squared edge lengths through ``_chord_lengths``, FILL_BLOCK faces
        at a time.  Only the raw weights outlive a block: 4 B per CSR entry
        (each raw entry fills two slots), so with the pattern's 8 B and the
        returned 8 B of ``data`` the fill peaks at 20 B per entry."""
        ne = len(self.edges)
        w = np.empty(self.n_raw, dtype=np.float64)
        pos = 0
        for t in range(self.s + 1):
            seg_w = lengths / np.float64(2**t)
            for _ in range(2**t):
                w[pos:pos + ne] = seg_w
                pos += ne
        for faces, face_rows in self.cells:
            q = faces.shape[1] - 1
            for start in range(0, len(faces), FILL_BLOCK):
                block = face_rows[start:start + FILL_BLOCK]
                chords = _chord_lengths(lengths[block], q, self.s)
                w[pos:pos + len(chords)] = chords
                pos += len(chords)
        return w[self.slot_raw]


class _Plan:
    """The local work of one set of changed edge rows, kept on the pattern
    and reused by every fill that changes the same rows.

    ``touched`` holds the nodes whose CSR rows a local fill rewrites: the
    nodes of the changed rows and of every face holding one.  Both ends of
    a recomputed entry are such nodes, so only their rows are scanned,
    once, and each slot's raw entry is decoded from its position in the raw
    order (``_decode_slots``): ``slots`` holds the sub-edge slots of changed
    rows, each with its row and level, then the chord slots of hit faces,
    each with its index into the hit faces' chords, group after group
    (``hits``).  ``nnz`` counts the touched rows' entries.

    ``inside`` is the node set W of the field updates on graphs filled
    through this plan.  It starts as the touched nodes and only grows;
    ``sub`` caches W's subgraph until it does.
    """

    def __init__(self, pattern: _Pattern, changed: np.ndarray):
        self.rows = np.flatnonzero(changed)
        nodes = [pattern.edges[self.rows].ravel(), pattern.steiner_ids_of_rows(self.rows)]
        self.hits = []
        for faces, face_rows in pattern.cells:
            hit = np.flatnonzero(changed[face_rows].any(axis=1))
            self.hits.append(hit)
            nodes.append(pattern._face_nodes(faces[hit], face_rows[hit]).ravel())
        self.touched = np.unique(np.concatenate(nodes))
        self.nnz = int(np.sum(pattern.indptr[self.touched + 1] - pattern.indptr[self.touched]))
        self.slots, self.sub_rows, self.sub_level, self.chord_index = _decode_slots(
            pattern, changed, self.touched, self.hits)
        self.inside = np.zeros(pattern.n_nodes, dtype=bool)
        self.inside[self.touched] = True
        self.sub = None

    def weights(self, pattern: _Pattern, lengths: np.ndarray) -> np.ndarray:
        """The weights of ``slots`` for per-edge ``lengths``.

        Only the sub-edges of changed rows and the chords of faces holding a
        changed row are computed; every other raw entry has the same inputs
        as in the reference, so its reference weight is what a full fill
        computes.
        """
        sub = np.ldexp(lengths[self.sub_rows], -self.sub_level)  # lengths / 2**t
        chords = [_chord_lengths(lengths[face_rows[hit]], faces.shape[1] - 1, pattern.s)
                  for (faces, face_rows), hit in zip(pattern.cells, self.hits)]
        return np.concatenate([sub, np.concatenate([sub[:0], *chords])[self.chord_index]])

    def subgraph(self, pattern: _Pattern):
        """W's subgraph (``_subgraph``) with the reference weights, built
        once per W; each update writes only its weights of ``slots``.

        Every other slot an update reads keeps its reference weight on
        every graph of this plan.  A rewritten slot joins two touched
        nodes, and W holds the touched nodes, so it is an inner slot of W.
        A slot leaving W has one end outside W, and the rows ``_grow``
        walks belong to nodes outside W, so none of them is rewritten.
        """
        if self.sub is None:
            self.sub = _subgraph(pattern.indptr, pattern.indices, pattern.reference[1],
                                 self.inside, self.slots)
        return self.sub


def _decode_slots(pattern: _Pattern, changed: np.ndarray, touched: np.ndarray,
                  hits: list):
    """The CSR slots a local fill rewrites, decoded from the touched rows:
    the sub-edge slots of changed rows, then the chord slots of hit faces,
    in one array; the rows and levels of the sub-edge slots; and the index
    of each chord slot into the hit faces' chords laid end to end, group
    after group."""
    ne, s = len(pattern.edges), pattern.s
    slots = _row_slots(pattern.indptr, touched)
    raw = pattern.slot_raw[slots]

    # sub-edge raw entry c * ne + row, at level t with 2**t - 1 <= c < 2**(t+1) - 1
    sub = np.flatnonzero(raw < pattern.n_sub)
    c, row = np.divmod(raw[sub], ne)
    hit = changed[row]
    level = (np.frexp((c[hit] + 1).astype(np.float64))[1] - 1).astype(np.int8)

    at, index = [], []
    start = pattern.n_sub
    offset = 0
    for (faces, _), hit_faces in zip(pattern.cells, hits):
        n_pairs = len(_chord_template(faces.shape[1] - 1, s)[1])
        end = start + len(faces) * n_pairs
        grp = np.flatnonzero((raw >= start) & (raw < end))
        face, pair = np.divmod(raw[grp] - start, n_pairs)
        rank = np.full(len(faces), -1, dtype=np.int64)
        rank[hit_faces] = np.arange(len(hit_faces))
        rank = rank[face]
        found = rank >= 0
        at.append(slots[grp[found]])
        index.append(offset + rank[found] * n_pairs + pair[found])
        offset += len(hit_faces) * n_pairs
        start = end
    return (np.concatenate([slots[sub[hit]], *at]), row[hit], level,
            np.concatenate([slots[:0], *index]).astype(np.int32))


def _chord_lengths(face_lengths: np.ndarray, q: int, s: int) -> np.ndarray:
    """Chord lengths of q-faces, in ``_chord_template`` pair order;
    ``face_lengths`` holds each face's edge lengths in slot order.  Summed
    slot by slot in one order for every s (no matmul), so a coarse chord
    reappears bit-identical at level s+1; rounding below 0 clamps to 0."""
    coef = _chord_template(q, s)[2]
    sq = face_lengths * face_lengths
    total = np.zeros((len(sq), coef.shape[1]), dtype=np.float64)
    term = np.empty_like(total)
    for k in range(len(coef)):
        total += np.multiply(sq[:, k, None], coef[k], out=term)
    return np.sqrt(np.maximum(total, 0.0, out=total), out=total).ravel()


def _row_slots(indptr: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """The CSR slots of the given nodes' rows, row by row, in the dtype of
    ``indptr``."""
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    shift = (starts - np.cumsum(counts) + counts).astype(indptr.dtype)
    slots = np.arange(counts.sum(), dtype=indptr.dtype)
    slots += np.repeat(shift, counts)
    return slots


class _SteinerGraph:
    """A refined graph: a shared pattern weighted by one metric.

    ``reference`` is True when the weights are the pattern's reference
    bits.  After a local fill ``plan`` is the pattern's plan for the
    changed rows and ``weights`` holds the weights of its ``slots``; every
    other slot keeps its reference weight.  Otherwise ``plan`` is None and
    ``weights`` is the whole CSR ``data``.  ``matrix`` is built on first
    use, so a locally filled graph whose fields all settle on W's subgraph
    never builds it.
    """

    def __init__(self, pattern: _Pattern, lengths: np.ndarray):
        self.pattern = pattern
        self.nv = pattern.nv
        data, self.plan = pattern.fill(lengths)
        self.reference = data is pattern.reference[1]
        self.weights = data if self.plan is None else self.plan.weights(pattern, lengths)

    @cached_property
    def matrix(self) -> csr_matrix:
        """The CSR matrix: the reference ``data`` with the plan's slots
        rewritten after a local fill, and ``weights`` otherwise."""
        pattern, data = self.pattern, self.weights
        if self.plan is not None:
            data = pattern.reference[1].copy()
            data[self.plan.slots] = self.weights
        return csr_matrix((data, pattern.indices, pattern.indptr),
                          shape=(pattern.n_nodes, pattern.n_nodes))


def _graph(signal, s: int, tag: str | None = None) -> _SteinerGraph:
    """Refined graph of the whole complex (``tag`` None) or of a region.

    The whole complex's chord owners are its top simplices, and in 3D also
    every facet of its facet table; a region's are its own facets.  The
    pattern depends on the structure, the cell set and ``s`` alone, so it
    is kept on the complex's shared structure, keyed by the region's facet
    set: noise, relabelings and every later metric reuse it and only refill
    the weights.
    """
    cx = signal.complex
    facets = None if tag is None else cx.labels[tag]

    def pattern():
        if tag is None:
            cells = [(cx.simplices, cx.simplex_edge_rows)]
            if cx.dim == 3:
                cells.append(_facet_cells(cx))
            return None, _Pattern(cx.n_vertices, cx.edges(), cells, s)
        faces, face_rows = _facet_cells(cx, tag)
        rows, local = np.unique(face_rows, return_inverse=True)
        return rows, _Pattern(cx.n_vertices, cx.edges()[rows],
                              [(faces, local.reshape(face_rows.shape))], s)

    def build():
        signal.simplex_volumes()  # raises MetricError for a degenerate metric
        rows, pat = cx.cached(("pattern", s, facets), pattern)
        lengths = signal.metric.lengths
        return _SteinerGraph(pat, lengths if rows is None else lengths[rows])
    return signal.cached(("graph", s, facets), build)


def _facet_cells(cx, tag: str | None = None):
    """Facets and the edge-table row of each facet edge in slot order: the
    complex's facet table (``tag`` None) or a region's facets, sorted."""
    if tag is None:
        faces = cx.facets
    else:
        if not cx.labels[tag]:
            raise RegionError(f"region {tag!r} has no facets")
        faces = np.array(sorted(cx.labels[tag]), dtype=np.int64)
    return faces, edge_rows(cx.edges(), faces[:, edge_slots(faces.shape[1] - 1)])


def _region_sources(signal, graph: _SteinerGraph, tag: str) -> np.ndarray:
    """Vertex and refinement nodes lying on the closed region subcomplex, as
    a read-only array kept on the structure, keyed by the region's facets
    and s: every signal on the complex, noisy or relabeled, shares it."""
    cx = signal.complex

    def compute():
        verts = region_vertices(cx, tag)
        if len(verts) == 0:
            raise RegionError(f"region {tag!r} is empty")
        rows = np.unique(_facet_cells(cx, tag)[1])
        sources = np.concatenate([verts, graph.pattern.steiner_ids_of_rows(rows)])
        sources.flags.writeable = False
        return sources
    return cx.cached(("sources", graph.pattern.s, cx.labels[tag]), compute)


def _field(graph: _SteinerGraph, key, sources: np.ndarray) -> np.ndarray:
    """Distances from ``sources`` to every node of the graph.

    On the pattern's reference bits the result is kept on the pattern under
    ``key``.  A locally filled graph updates that field on a subgraph when
    it can (``_update_field``), and searches in full otherwise.
    """
    ref = graph.pattern.fields.get(key)
    if graph.reference:
        if ref is None:
            ref = graph.pattern.fields[key] = dijkstra(
                graph.matrix, directed=True, indices=sources, min_only=True)
        return ref
    if ref is not None and graph.plan is not None:
        dist = _update_field(graph, ref, sources)
        if dist is not None:
            return dist
    return dijkstra(graph.matrix, directed=True, indices=sources, min_only=True)


def _update_field(graph: _SteinerGraph, d_old: np.ndarray,
                  sources: np.ndarray) -> np.ndarray | None:
    """The reference field ``d_old`` updated to the graph's weights, bit for
    bit; None when the update does not apply or does not settle.

    The update only lowers: it does not apply when an old edge on which
    ``d_old`` is tight (fl(d_old(u) + w_uv) == d_old(v)) rose.  The old
    search's tree is built on tight edges, so otherwise every node outside
    the node set W of the graph's plan, which holds the touched nodes,
    keeps an old tree path whose weights did not rise.  ``_solve_inside``
    searches W's subgraph from the sources in W and from seeds through W's
    boundary; when no boundary edge leads outside to a smaller value, that
    is the full search's result.  Otherwise W grows by ``_grow`` and is
    searched again.
    The touched rows may hold at most 1/LOCAL_SHARE of the nnz and W twice
    that, so the worst case is two such searches and then the full one.
    W is kept on the plan for every later field and fill, so a field whose
    lowered nodes an earlier update already took in settles at once.
    """
    plan, pattern = graph.plan, graph.pattern
    indptr, indices, w_old = pattern.indptr, pattern.indices, pattern.reference[1]
    cap = len(indices) // LOCAL_SHARE
    if plan.nnz > cap or not np.all(np.isfinite(d_old)):
        return None
    risen = plan.slots[graph.weights > w_old[plan.slots]]
    heads = np.searchsorted(indptr, risen, side="right") - 1
    if np.any(d_old[indices[risen]] + w_old[risen] == d_old[heads]):
        return None
    is_source = np.zeros(pattern.n_nodes, dtype=bool)
    is_source[sources] = True
    for attempt in range(2):
        nodes, dist_in, low, low_at = _solve_inside(graph, d_old, is_source)
        if len(low) == 0:
            dist = d_old.copy()
            dist[nodes] = dist_in
            return dist
        grown = plan.inside.copy()
        if attempt or not _grow(indptr, indices, w_old, grown, d_old, low, low_at, 2 * cap):
            return None
        plan.inside, plan.sub = grown, None


def _subgraph(indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray,
              inside: np.ndarray, slots: np.ndarray):
    """The subgraph on the ``inside`` nodes W with the given CSR
    ``weights``, plus a super-source row k = |W| with one entry per W node
    on W's boundary.

    Returns W's nodes; the local row, the outside node and the weight of
    each slot leaving W; the first leaving slot of each boundary row; the
    position among the subgraph's entries of each of ``slots``, which all
    lie within W; and the subgraph, whose entries are those within W in
    slot order, then the super-source's, which each update writes.  Like
    the full graph it keeps 4 B of indices and 8 B of data per entry.  The
    build holds at most about 24 B per entry of W's rows (the int32 slots
    within W, the subgraph's arrays and one gathered temporary) and finds
    the local row only of the leaving slots.
    """
    nodes = np.flatnonzero(inside)
    k = len(nodes)
    local = np.full(len(inside), -1, dtype=np.int32)
    local[nodes] = np.arange(k, dtype=np.int32)
    row_slots = _row_slots(indptr, nodes)
    cols = local[indices[row_slots]]
    within = cols >= 0
    in_slots, leave = row_slots[within], row_slots[~within]
    del row_slots
    ends = indptr[nodes + 1]
    b_row = np.searchsorted(ends, leave, side="right")
    firsts = np.flatnonzero(np.diff(b_row, prepend=-1))
    n_in = len(in_slots)
    sub_indptr = np.zeros(k + 2, dtype=indptr.dtype)
    np.cumsum(ends - indptr[nodes] - np.bincount(b_row, minlength=k),
              out=sub_indptr[1:k + 1])
    sub_indptr[k + 1] = n_in + len(firsts)
    sub_indices = np.empty(n_in + len(firsts), dtype=indices.dtype)
    sub_indices[:n_in], sub_indices[n_in:] = cols[within], b_row[firsts]
    del cols, within
    data = np.zeros(n_in + len(firsts))
    data[:n_in] = weights[in_slots]
    sub = csr_matrix((data, sub_indices, sub_indptr), shape=(k + 1, k + 1))
    return (nodes, b_row, indices[leave], weights[leave], firsts,
            np.searchsorted(in_slots, slots), sub)


def _solve_inside(graph: _SteinerGraph, d_old, is_source):
    """Search the subgraph on the plan's node set W with the old distances
    outside held fixed.

    A super-source joins each W node with a boundary edge at weight
    min fl(d_old(x) + w) over its outside neighbours x, the float sum a full
    search forms at that edge; W's sources start at 0.  W's subgraph is
    built once per W (``_Plan.subgraph``) and only takes this graph's
    weights of the plan's slots and the seeds.  Returns W, its distances,
    and the outside ends of boundary edges that would lower an old
    distance, with the values they would give.
    """
    nodes, b_row, b_col, b_w, firsts, at, sub = graph.plan.subgraph(graph.pattern)
    k = len(nodes)
    sub.data[at] = graph.weights
    if len(firsts):
        np.minimum.reduceat(d_old[b_col] + b_w, firsts, out=sub.data[sub.indptr[k]:])
    starts = np.append(np.flatnonzero(is_source[nodes]), k)
    dist_in = dijkstra(sub, directed=True, indices=starts, min_only=True)[:k]
    exit_val = dist_in[b_row] + b_w
    low = exit_val < d_old[b_col]
    return nodes, dist_in, b_col[low], exit_val[low]


def _grow(indptr, indices, weights, inside, d_old, low, low_at, cap: int) -> bool:
    """Add to ``inside`` every outside node that a path from the lowered
    nodes could still lower; False once W's rows pass ``cap`` entries.

    ``weights`` are the reference's: every row walked belongs to a node
    outside W, and no such row holds a rewritten slot.  A path leaving W
    lowers each node it passes while its lead over the old distances
    lasts: the lead starts at d_old(x) - low_at(x) and drops, at each edge
    uv, by w_uv - (d_old(v) - d_old(u)) >= 0.  Leads spread by label
    correction over the outside nodes, with a few ulp of slack; the search
    after the growth decides exactness.
    """
    counts = np.diff(indptr)
    lead = np.full(len(d_old), -np.inf)
    np.maximum.at(lead, low, d_old[low] - low_at)
    outside = ~inside
    front = np.unique(low)
    while len(front):
        inside[front] = True
        if counts[inside].sum() > cap:
            return False
        slots = _row_slots(indptr, front)
        u = np.repeat(front, counts[front])
        v = indices[slots]
        left = lead[u] - weights[slots] + (d_old[v] - d_old[u])
        slack = 16 * np.finfo(np.float64).eps * d_old[v]
        step = outside[v] & (left > lead[v]) & (left > -slack)
        np.maximum.at(lead, v[step], left[step])
        front = np.unique(v[step])
    return True


def _distances_to_vertices(graph: _SteinerGraph, sources: np.ndarray,
                           columns: np.ndarray) -> np.ndarray:
    """Pairwise distances from each source to the given vertex columns.

    Runs the searches in blocks so only a (SEARCH_BLOCK, n_nodes) slab is
    ever materialized; the full per-node matrix would not fit for fine meshes.
    """
    out = np.empty((len(sources), len(columns)), dtype=np.float64)
    for start in range(0, len(sources), SEARCH_BLOCK):
        chunk = sources[start:start + SEARCH_BLOCK]
        dist = dijkstra(graph.matrix, directed=True, indices=chunk)
        out[start:start + SEARCH_BLOCK] = dist[:, columns]
    return out


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def distance_field(signal, region: str,
                   steiner_level: int = DEFAULT_STEINER_LEVEL) -> ScalarField:
    """Per-vertex geodesic distance to a closed labeled region.

    Multi-source shortest paths on the refined skeleton; the whole region
    subcomplex (vertices and its refinement nodes) is the source set, so the
    field vanishes exactly on the region and nowhere else.  Values are upper
    bounds on the true distances and non-increasing in ``steiner_level``.
    """
    if region not in REGION_TAGS:
        raise RegionError(f"unknown region tag {region!r}")
    s = int(steiner_level)
    if s < 0:
        raise GeodesyError("steiner_level must be >= 0")

    def compute():
        graph = _graph(signal, s)
        sources = _region_sources(signal, graph, region)
        key = ("field", signal.complex.labels[region])
        dist = _field(graph, key, sources)[: graph.nv]
        if np.any(np.isinf(dist)):
            k = int(np.argwhere(np.isinf(dist)).ravel()[0])
            raise GeodesyError(
                f"vertex {k} unreachable from region {region!r}; "
                "the complex must be connected"
            )
        return ScalarField(dist)

    return signal.cached(("field", signal.complex.labels[region], s), compute)


def distance_to_vertex(signal, p: int,
                       steiner_level: int = DEFAULT_STEINER_LEVEL) -> ScalarField:
    """Geodesic distance field from a single vertex (the noise center)."""
    p = int(p)
    if not 0 <= p < signal.complex.n_vertices:
        raise GeodesyError(f"vertex index {p} out of range")
    s = int(steiner_level)

    def compute():
        graph = _graph(signal, s)
        dist = _field(graph, ("vfield", p), np.array([p], dtype=np.int64))[: graph.nv]
        if np.any(np.isinf(dist)):
            raise GeodesyError(f"complex is disconnected from vertex {p}")
        return ScalarField(dist)

    return signal.cached(("vfield", p, s), compute)


def distance_within(signal, p: int, radius: float,
                    steiner_level: int = DEFAULT_STEINER_LEVEL) -> np.ndarray:
    """Geodesic distances from vertex ``p`` out to ``radius`` + BALL_ULPS
    ulp, and inf beyond, as a read-only per-vertex array.

    The search stops at that bound (Dijkstra's ``limit``), so a noise ball
    costs in proportion to its size.  Every prefix of a vertex's shortest
    path sums no higher than the path, so a vertex within the bound gets
    the bits of ``distance_to_vertex``.
    """
    p = int(p)
    if not 0 <= p < signal.complex.n_vertices:
        raise GeodesyError(f"vertex index {p} out of range")
    s = int(steiner_level)
    limit = radius + BALL_ULPS * np.spacing(radius)

    def compute():
        graph = _graph(signal, s)
        dist = dijkstra(graph.matrix, directed=True, indices=[p], min_only=True,
                        limit=limit)[: graph.nv]
        dist.flags.writeable = False
        return dist

    return signal.cached(("vball", p, s, limit), compute)


def diameter(signal, subset: str = "M",
             steiner_level: int = DEFAULT_STEINER_LEVEL) -> float:
    """Largest pairwise vertex distance, computed on the refined skeleton.

    ``subset`` is "M" for the whole complex or a region tag, in which case
    paths are restricted to the region's own facet subcomplex (the intrinsic
    diameter).  The value upper-bounds the smooth diameter.  It is cached on
    the signal, keyed like the region's graph.

    Single-source searches are pruned by eccentricity bounds (the
    BoundingDiameters scheme of Takes and Kosters, CIKM 2011): each search
    from v caps every vertex's row maximum by ecc(v) + d(v, w), and a
    vertex whose cap, widened by a rounding margin, falls below the best
    row maximum so far is never searched.  The result is bit-identical to
    the maximum over all pairwise searches; a square takes a handful of
    searches, and a rotationally symmetric mesh may still need one per
    vertex.
    """
    s = int(steiner_level)
    if subset in ("M", "all"):
        tag = None
    elif subset in REGION_TAGS:
        tag = subset
    else:
        raise RegionError(f"unknown subset {subset!r}")

    def compute():
        graph = _graph(signal, s, tag)
        if tag is None:
            verts = np.arange(signal.complex.n_vertices, dtype=np.int64)
        else:
            verts = region_vertices(signal.complex, tag)
            if len(verts) == 0:
                raise RegionError(f"region {tag!r} is empty")
        # A computed distance is a left-to-right float sum along a path of at
        # most n = n_nodes edges, within gamma_n = n u / (1 - n u) (u = eps/2;
        # Higham, ch. 4) of the exact shortest path D, which is symmetric and
        # obeys the triangle inequality.  So the computed row maximum of w is
        # at most (1 + gamma_n) / (1 - gamma_n) (ecc(v) + d(v, w)), and with
        # the rounding of that sum and of the widening below, at most
        # (1 + n eps + O(eps)) upper[w].  A margin of 4 n eps covers this, so
        # a pruned vertex's row maximum lies strictly below ``best``: it can
        # neither be the maximum nor tie with it.  Each searched row is the
        # row an all-pairs search computes from that source, so the result
        # is the same float.
        margin = 4.0 * graph.pattern.n_nodes * np.finfo(np.float64).eps
        upper = np.full(len(verts), np.inf)
        best = 0.0
        while True:
            # largest cap first, ties to the lowest index; once it is pruned,
            # so is every other vertex
            i = int(np.argmax(upper))
            if upper[i] * (1.0 + margin) < best:
                return float(best)
            row = dijkstra(graph.matrix, directed=True, indices=verts[i])[verts]
            ecc = row.max()
            if np.isinf(ecc):
                raise GeodesyError(f"subset {subset!r} is disconnected")
            best = max(best, ecc)
            np.minimum(upper, ecc + row, out=upper)
            upper[i] = -np.inf

    facets = None if tag is None else signal.complex.labels[tag]
    return signal.cached(("diam", s, facets), compute)


def _first_cut_estimate(f: np.ndarray, foot: np.ndarray, edges: np.ndarray,
                        lengths: np.ndarray, region_ids: np.ndarray, intra):
    """Smallest (f_u + f_v + l_uv) / 2 over edges uv flagged as crossing a
    cut: the distance to the region at which the fronts from u and v meet
    inside the edge, at least max(f_u, f_v) since |f_u - f_v| <= l_uv.

    ``foot`` holds each vertex's nearest region vertex; a region vertex is
    its own.  An edge with two different feet, not both endpoints in the
    region (such an edge would flag at f = 0), flags when its feet lie
    farther apart inside the region than (2 max(f_u, f_v) + l_uv)(1 + CUT_TAU):
    a path through the edge joins the feet in about 2 max(f_u, f_v) + l_uv,
    so a larger intrinsic separation means the normal collars of two parts
    of the region meet across uv.  ``intra(ends)`` gives the region-intrinsic
    distances between the given region vertices, a (len(ends), len(ends))
    array with inf across components; it is called once, on the distinct
    feet of the candidate edges.  Returns None when no edge flags.
    """
    inside = np.zeros(len(f), dtype=bool)
    inside[region_ids] = True
    u, v = edges[:, 0], edges[:, 1]
    candidate = ~(inside[u] & inside[v]) & (foot[u] != foot[v])
    if not np.any(candidate):
        return None
    u, v = u[candidate], v[candidate]
    ends, pos = np.unique(np.concatenate([foot[u], foot[v]]), return_inverse=True)
    sep = intra(ends)[pos[:len(u)], pos[len(u):]]
    lengths = lengths[candidate]
    flagged = sep > (2.0 * np.maximum(f[u], f[v]) + lengths) * (1.0 + CUT_TAU)
    if not np.any(flagged):
        return None
    return float(((f[u] + f[v] + lengths)[flagged] / 2.0).min())


def injectivity_radius(signal, region: str,
                       steiner_level: int = DEFAULT_STEINER_LEVEL) -> InjectivityEstimate:
    """Boundary injectivity radius of region A or X.

    Generator-provided analytic values win when present.  Otherwise a
    first-cut-locus heuristic runs, the discrete lambda-medial-axis test of
    Chazal and Lieutier (Graphical Models 67, 2005): one multi-source search
    from the region's vertices labels every vertex with its nearest one, its
    foot, and an edge flags a cut when its two feet lie farther apart inside
    the region than the edge can bridge, (2 max(f_u, f_v) + l_uv)(1 + CUT_TAU).
    The edge length widens the rule because neighbouring feet on a coarse
    mesh can be a few edges apart without any cut.  Intrinsic distances are
    searched only from the feet of edges whose feet differ.  The estimate is
    the smallest (f_u + f_v + l_uv) / 2 over flagged edges, where the two
    fronts meet inside the edge, or the largest distance to the region,
    max f_R, when no edge flags.  Both are sound caps, since the
    normal collar of R cannot reach past the farthest point from R:
    i_R <= sup f_R <= diam(M).  The heuristic is advisory and tagged as such.
    """
    if region not in ("A", "X"):
        raise RegionError(f"injectivity radius defined for A or X, got {region!r}")
    hint_key = f"i_{region}"
    if hint_key in signal.hints:
        return InjectivityEstimate(float(signal.hints[hint_key]), "analytic", region)

    s = int(steiner_level)
    f = distance_field(signal, region, s).values
    graph = _graph(signal, s)
    region_ids = region_vertices(signal.complex, region)
    _, _, foot = dijkstra(graph.matrix, directed=True, indices=region_ids,
                          min_only=True, return_predecessors=True)

    def intra(ends):
        return _distances_to_vertices(_graph(signal, s, region), ends, ends)

    est = _first_cut_estimate(f, foot[: graph.nv], signal.complex.edges(),
                              signal.metric.lengths, region_ids, intra)
    if est is None:
        est = float(f.max())
    return InjectivityEstimate(est, "heuristic", region)

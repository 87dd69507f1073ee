"""Geodesic distance fields, diameters, and boundary injectivity radii.

Distances are graph shortest paths on a Steiner-refined 1-skeleton: every
edge is split into 2**s sub-edges, and for s >= 1 chords join refinement
points sitting on different edges of a common simplex.  Every node pair has
one owner, the smallest face holding both nodes: an edge owns its sub-edges
of every level, a triangle owns the chords between its edges, and in 3D a
tetrahedron owns only those between the interior points of its opposite
edges, so each pair is built once, from its owner's edge lengths.  A pair's
squared length is a fixed linear combination of its owner's squared edge
lengths (the Cayley-Menger / Gram identity, with exact dyadic coefficients),
so no face is embedded and the construction works for deformed
(non-embedded) metrics.

The refined graph at level s+1 contains the level-s graph edge-for-edge with
bit-identical weights (a sub-edge's coefficient is an exact power of 1/4, so
its length is an exact halving, and coarse chords reappear with the same
endpoints, owner and coefficients), so distance fields are exactly
non-increasing in s.  Results are upper bounds on the true geodesic
distances and are deterministic across runs.

A graph is built in two parts.  Its pattern -- node layout, the node pair
of every raw entry and the CSR ``indptr``/``indices`` -- depends only on
the complex's structure, the owner faces (the edge table, the top
simplices, and in 3D the facet table; or one region's edges and facets) and
s.  Its raw entries come face group by face group, edges first: face f of a
group contributes its template's pairs (``_chord_template``) in order.  It
reads its edge table and the edge rows of its faces from the structure
(``edges()``, ``simplex_edge_rows`` and ``facets`` for the whole complex; a
region keeps a compact table of its own edges, found once through
``edge_rows``), and is kept on the structure that noise, relabelings and
every signal on the complex share.  Since no raw entry repeats a pair,
the n raw pairs convert to a CSR matrix A and scipy's canonical merge
builds the symmetric pattern as A + A^T, with the raw entry of each slot
stored as int32 in the upper half of a float64 buffer, the slot map.  The
pattern keeps ``indptr`` and ``indices``; a full fill writes each slot's
weight over a freshly assembled slot map in ascending blocks, and a slot's
8 B cover only map entries already read, so the map becomes the ``data``
in place.  The pattern is built with its first fill, which makes the map
it was assembled with the reference ``data``.  The graph then keeps 12 B
per CSR entry, and the assembly and a full fill each peak near 16 B per
entry.  A full fill computes the pair lengths from ``lengths[rows]``
through one constant coefficient table per face dimension and s and
gathers them through the slot map.  The scheme is the Steiner-point
discretization of Lanthier, Maheshwari and Sack (Algorithmica 30, 2001) and
of Aleksandrov, Maheshwari and Sack (JACM 52(1), 2005).

A metric that differs from the pattern's first fill only inside a noise
ball costs work only there, and the ball, not the metric, is the unit of
that work.  The first fill is the pattern's reference: it keeps its lengths
and CSR ``data``, and the full field of each source set searched on it.  A
later fill compares its lengths with the reference's bit for bit.  The rows
that changed key the pattern's one plan (``_Plan``): the touched nodes, the
CSR slots of the pairs of every face holding a changed edge, found by
matching their node-pair keys against the touched rows' sorted keys, and
those faces.  The plan is built once per set of changed rows, so every
depth of the same ball only recomputes those weights.  The graph is the
reference ``data`` plus those weights; its full CSR matrix is built only
when a full search asks for it.

A later fill goes through the plan while at most 1/FILL_SHARE (1/4) of
the edge rows changed; a fill past that is filled in full.  The bound lies
below the crossover of the two, measured for the fill and the A field's
search on square64 and shell48 (README, "Notes on the numerics"): up to
0.25 of the rows the plan costs less time and memory, from 0.3 it costs
more time on shell48 and from 0.5 more of both.

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
``distance_to_vertex`` is the same search with no bound, kept on the
signal, so no centre's full field is kept on the shared pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import dijkstra

from .complex import REGION_TAGS, as_int, edge_rows, edge_slots, region_vertices
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

#: Faces per block when a full fill computes pair lengths, which bounds
#: the fill's (faces, pairs) float temporaries whatever the mesh size.
FILL_BLOCK = 256

#: CSR slots per block when a full fill writes the weights over its slot
#: map, which bounds the gathered temporary.
SLOT_BLOCK = 2**16

#: A later fill goes through the pattern's plan while at most 1/FILL_SHARE
#: of the edge rows changed, below the crossover the module docstring
#: gives.
FILL_SHARE = 4

#: A field is updated on the touched subgraph while the touched rows hold
#: at most 1/LOCAL_SHARE of the graph's entries.
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
    """Canonical refinement nodes of a q-simplex (q >= 1), the node pairs it
    owns and their Gram coefficients, as read-only arrays.

    ``nodes`` holds each node's integer barycentric numerators over 2**s:
    the q+1 vertices, then for each edge (i, j) in slot order (``edge_slots``)
    its 2**s - 1 interior points by m, with 2**s - m at i and m at j.  A
    node pair belongs to the smallest face that holds both nodes, so the
    q-simplex keeps a pair, in ``pairs``, only when the two supports
    together cover all q+1 vertices: for q = 2 every pair on different
    edges, for q = 3 only interior points of opposite edges.  An edge
    (q = 1) owns every pair on it and keeps its sub-edges of every level
    t = 0..s, the dyadic intervals [j 2**(s-t), (j+1) 2**(s-t)] of its
    parameter: 2**(s+1) - 1 pairs, the coarser ones kept as skip edges so
    that refinement can only shorten paths.

    ``coef`` is the (n_slots, n_pairs) table taking a q-face's squared edge
    lengths to its squared pair lengths: for barycentric w = a - b,
    |a - b|^2 = -sum_{i<j} w_i w_j l_ij^2 (the Gram identity behind the
    volumes).  Each w_i is a numerator over 2**s, so every entry is exact;
    a level-t sub-edge's is 4**-t.
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
    if q == 1:
        # a sub-edge spans a power of two that divides its start
        lo, span = np.minimum(nodes[a, 1], nodes[b, 1]), np.abs(nodes[a, 1] - nodes[b, 1])
        keep &= (span & (span - 1) == 0) & (lo % span == 0)
    pairs = np.stack([a[keep], b[keep]], axis=1)
    w = (nodes[pairs[:, 0]] - nodes[pairs[:, 1]]) / n
    coef = np.array([-w[:, i] * w[:, j] for i, j in slots])
    for table in (nodes, pairs, coef):
        table.flags.writeable = False
    return nodes, pairs, coef


def _n_pairs(q: int, s: int) -> int:
    """The number of pairs ``_chord_template(q, s)`` keeps, in closed form,
    with k = 2**s - 1 interior points per edge: an edge's dyadic sub-edges
    number 2**(s+1) - 1; a triangle keeps k**2 pairs on each of its 3 pairs
    of edges and k per vertex and opposite edge; a tetrahedron keeps k**2
    on each of its 3 pairs of opposite edges."""
    k = 2**s - 1
    return {1: 2 * k + 1, 2: 3 * k * k + 3 * k, 3: 3 * k * k}[q]


class _Pattern:
    """Metric-free part of a refined graph: node layout and CSR structure.

    ``edges`` is the pattern's edge table.  ``cells`` lists the face
    groups, one per face dimension, as (faces, rows) pairs: each face's
    vertices and the row in ``edges`` of each face edge, in slot order.  The
    edge table itself is the first group, each edge its own row; the groups
    of faces of dimension 2 and 3 follow as given, from the complex's
    structure.  Node layout: indices 0..nv-1 are the original vertices; the
    interior points of edge row k occupy nv + k*(2**s - 1) .. in parameter
    order (measured from the smaller-index endpoint), and ``_face_nodes``
    is the one map from a face's template nodes to them.

    The graph's raw entries are laid out face group by face group: raw
    entry start_g + f * n_pairs + p is pair p of ``_chord_template`` of face
    f of group g.  Every node pair has one owner: the edge it lies on, or
    else the smallest face holding both nodes.  With each face listed once,
    every raw entry is a distinct pair, and ``_assemble`` builds the
    symmetric matrix as A + A^T from the raw pairs alone.

    The pattern is built with its reference, the fill of the first
    signal's per-edge ``lengths``: those lengths and the CSR ``data``
    written over the slot map just assembled are kept, and so is every
    field searched on it (``fields``, keyed by source set).  The pattern
    keeps ``indptr`` and ``indices`` (4 B per CSR entry), so the graph
    keeps 12 B per entry, plus ``indptr``, and the assembly and the fill
    each peak near 16 B per entry.
    """

    def __init__(self, nv: int, edges: np.ndarray, cells: list, s: int,
                 lengths: np.ndarray):
        self.nv = nv
        self.s = s
        self.edges = edges
        self._interior = 2**s - 1
        self.n_nodes = nv + len(edges) * self._interior
        self.cells = [(edges, np.arange(len(edges))[:, None])] + [
            (faces, rows) for faces, rows in cells if faces.shape[1] > 2]
        n = self.n_raw = sum(len(faces) * _n_pairs(faces.shape[1] - 1, s)
                             for faces, _ in self.cells)
        # node ids, indices and the slot map are int32, which numpy would wrap
        limit = np.iinfo(np.int32).max
        if self.n_nodes > limit or 2 * n > limit:
            raise GeodesyError(
                f"steiner level {s} needs {self.n_nodes} graph nodes and "
                f"{2 * n} graph entries, past the int32 limit {limit}")
        self.indptr, self.indices, slot_map = self._assemble()
        self.reference = (lengths, self._full_data(lengths, slot_map))
        self.fields = {}
        self.plan = None

    def _assemble(self):
        """``indptr``, ``indices`` and the slot map of the symmetric matrix.

        The n raw pairs (i, j), with payload raw + 1 so that no stored value
        is an explicit zero, convert to a CSR matrix A; scipy merges the
        canonical rows of A and A^T into the canonical rows of A + A^T.  The
        slot map is a float64 buffer of one element per CSR entry whose
        upper half, ``slot_map.view(np.int32)[len(slot_map):]``, holds the
        raw entry of each slot.  The conversion's sort touches n entries,
        and the peak is the merge's 8 B per CSR entry next to A and A^T's
        4 B each, or the slot map's 8 B next to the merged 8 B.
        """
        n = self.n_raw
        a = coo_matrix((np.arange(1, n + 1, dtype=np.int32), self._raw_pairs()),
                       shape=(self.n_nodes, self.n_nodes)).tocsr()
        m = a + a.T
        del a  # before the slot map exists, which bounds the peak
        # the merge sums a repeated pair, which only a repeated simplex makes
        if m.nnz != 2 * n:
            raise GeodesyError("the complex lists a top simplex twice")
        slot_map = np.empty(2 * n, dtype=np.float64)
        np.subtract(m.data, 1, out=slot_map.view(np.int32)[2 * n:])
        return m.indptr, m.indices, slot_map

    def _raw_pairs(self):
        """The node pair (i, j) of every raw entry, in order, as two int32
        arrays written in place."""
        src, dst = np.empty((2, self.n_raw), dtype=np.int32)
        pos = 0
        for faces, face_rows in self.cells:
            pairs = _chord_template(faces.shape[1] - 1, self.s)[1]
            gids = self._face_nodes(faces, face_rows)
            end = pos + len(faces) * len(pairs)
            shape = (len(faces), len(pairs))
            np.take(gids, pairs[:, 0], axis=1, out=src[pos:end].reshape(shape))
            np.take(gids, pairs[:, 1], axis=1, out=dst[pos:end].reshape(shape))
            pos = end
        return src, dst

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

    def fill(self, lengths: np.ndarray):
        """CSR ``data`` for per-edge ``lengths`` and the plan of a local fill.

        A fill with the reference's lengths shares its ``data`` and gives
        no plan.  A fill that changes at most 1/FILL_SHARE of the rows is
        local: it gives no ``data``, only the plan of its changed rows,
        whose slots are the only ones that differ from the reference
        (``_Plan.weights``).  The pattern keeps one ``_Plan`` and replaces
        it only when a fill changes other rows.  A fill that changes more
        rows is filled in full, with no plan, on a freshly assembled slot
        map; the bound sits below the crossover of the two (module
        docstring).
        """
        ref_lengths, ref_data = self.reference
        # positive finite lengths: != compares them bit for bit
        changed = lengths != ref_lengths
        rows = np.flatnonzero(changed)
        if len(rows) == 0:
            return ref_data, None
        if FILL_SHARE * len(rows) > len(changed):
            return self._full_data(lengths, self._assemble()[2]), None
        if self.plan is None or not np.array_equal(self.plan.rows, rows):
            self.plan = _Plan(self, changed)
        return None, self.plan

    def _full_data(self, lengths: np.ndarray, data: np.ndarray) -> np.ndarray:
        """The weight of every slot, written over the slot map ``data``.

        Each group's pair lengths come from its faces' edge lengths through
        ``_chord_lengths``, FILL_BLOCK faces at a time, into one raw weight
        per raw entry (4 B per CSR entry).  Slot k's weight, written at byte
        8k, covers the map entries 2k - N and 2k - N + 1 of N slots, both at
        most k: a block gathers its slots' weights through the map before
        writing them, so no block writes over a map entry still unread.
        With the pattern's 4 B and the map's 8 B, the fill peaks near 16 B
        per entry.
        """
        w = np.empty(self.n_raw, dtype=np.float64)
        pos = 0
        for faces, face_rows in self.cells:
            q = faces.shape[1] - 1
            for start in range(0, len(faces), FILL_BLOCK):
                block = face_rows[start:start + FILL_BLOCK]
                pairs = _chord_lengths(lengths[block], q, self.s)
                w[pos:pos + len(pairs)] = pairs
                pos += len(pairs)
        slot_raw = data.view(np.int32)[len(data):]
        for start in range(0, len(data), SLOT_BLOCK):
            data[start:start + SLOT_BLOCK] = w[slot_raw[start:start + SLOT_BLOCK]]
        return data


class _Plan:
    """The local work of one set of changed edge rows, kept on the pattern
    and reused by every fill that changes the same rows.

    ``hits`` holds, per face group of the pattern, the faces holding a
    changed row; in the edge group they are the changed rows themselves.
    ``touched`` holds the nodes whose CSR rows a local fill rewrites: the
    template nodes of every hit face.  Both ends of a recomputed entry are
    such nodes, so only their rows are scanned, once: the node pair of each
    hit face's raw entry, as a key row * n_nodes + column, is matched
    against the keys of the touched rows' slots, which CSR order sorts.
    ``slots`` is a (2, P) array: the slots (i, j) and (j, i) of the P pairs
    of the hit faces, group after group, in the order ``weights`` computes
    them.  ``nnz`` counts the touched rows' entries.

    ``inside`` is the node set W of the field updates on graphs filled
    through this plan.  It starts as the touched nodes and only grows;
    ``sub`` caches W's subgraph until it does.
    """

    def __init__(self, pattern: _Pattern, changed: np.ndarray):
        self.rows = np.flatnonzero(changed)
        self.hits, nodes, ends = [], [], []
        for faces, face_rows in pattern.cells:
            hit = np.flatnonzero(changed[face_rows].any(axis=1))
            self.hits.append(hit)
            gids = pattern._face_nodes(faces[hit], face_rows[hit])
            nodes.append(gids.ravel())
            ends.append(gids[:, _chord_template(faces.shape[1] - 1, pattern.s)[1]].reshape(-1, 2))
        self.touched = np.unique(np.concatenate(nodes))
        row_slots = _row_slots(pattern.indptr, self.touched)
        self.nnz = len(row_slots)
        # CSR order sorts the touched rows' keys row * n_nodes + column
        n = np.int64(pattern.n_nodes)
        keys = n * np.repeat(self.touched, np.diff(pattern.indptr)[self.touched])
        keys += pattern.indices[row_slots]
        i, j = np.concatenate(ends).T
        self.slots = row_slots[np.searchsorted(keys, [n * i + j, n * j + i])]
        self.inside = np.zeros(pattern.n_nodes, dtype=bool)
        self.inside[self.touched] = True
        self.sub = None

    def weights(self, pattern: _Pattern, lengths: np.ndarray) -> np.ndarray:
        """The weights of the pairs behind ``slots`` for per-edge
        ``lengths``, one per column of ``slots``.

        Only the pairs of faces holding a changed row are computed; every
        other raw entry has the same inputs as in the reference, so its
        reference weight is what a full fill computes.
        """
        return np.concatenate([
            _chord_lengths(lengths[face_rows[hit]], faces.shape[1] - 1, pattern.s)
            for (faces, face_rows), hit in zip(pattern.cells, self.hits)])

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
    changed rows and ``weights`` holds the weight of each pair behind its
    ``slots``; every other slot keeps its reference weight.  Otherwise ``plan`` is None and
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
    """Refined graph at Steiner level ``s`` of the whole complex (``tag``
    None) or of a region.

    This is the one place that reads a Steiner level: ``s`` must be an
    integer (``as_int``, so neither a float nor a bool) and at least 0, or
    GeodesyError is raised before any cache is read.  The pattern keeps it
    as a Python int, and the public queries key their caches by it.

    The whole complex's chord owners are its top simplices, and in 3D also
    every facet of its facet table; a region's are its own facets.  The
    pattern depends on the structure, the cell set and ``s`` alone, so it
    is kept on the complex's shared structure, keyed by the region's facet
    set: noise, relabelings and every later metric reuse it and only refill
    the weights.  The signal that first asks for it gives its reference.
    """
    s = as_int(s, GeodesyError, "steiner_level")
    if s < 0:
        raise GeodesyError("steiner_level must be >= 0")
    cx = signal.complex
    facets = None if tag is None else cx.labels[tag]
    lengths = signal.metric.lengths

    def pattern():
        if tag is None:
            cells = [(cx.simplices, cx.simplex_edge_rows)]
            if cx.dim == 3:
                cells.append(_facet_cells(cx))
            return None, _Pattern(cx.n_vertices, cx.edges(), cells, s, lengths)
        faces, face_rows = _facet_cells(cx, tag)
        rows, local = np.unique(face_rows, return_inverse=True)
        return rows, _Pattern(cx.n_vertices, cx.edges()[rows],
                              [(faces, local.reshape(face_rows.shape))], s, lengths[rows])

    def build():
        signal.simplex_volumes()  # raises MetricError for a degenerate metric
        rows, pat = cx.cached(("pattern", s, facets), pattern)
        return _SteinerGraph(pat, lengths if rows is None else lengths[rows])
    return signal.cached(("graph", s, facets), build)


def _facet_cells(cx, tag: str | None = None):
    """Facets and the edge-table row of each facet edge in slot order: the
    complex's facet table (``tag`` None) or a region's facets, sorted."""
    faces = cx.facets if tag is None else cx.region_facets(tag)
    if len(faces) == 0:
        raise RegionError(f"region {tag!r} has no facets")
    return faces, edge_rows(cx.edges(), faces[:, edge_slots(faces.shape[1] - 1)])


def _region_sources(signal, graph: _SteinerGraph, tag: str) -> np.ndarray:
    """Vertex and refinement nodes lying on the closed region subcomplex --
    the template nodes of its edges, sorted -- as a read-only array kept on
    the structure, keyed by the region's facets and s: every signal on the
    complex, noisy or relabeled, shares it."""
    cx = signal.complex

    def compute():
        rows = np.unique(_facet_cells(cx, tag)[1])
        pattern = graph.pattern
        sources = np.unique(pattern._face_nodes(pattern.edges[rows], rows[:, None]))
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
    graph = _graph(signal, steiner_level)

    def compute():
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

    return signal.cached(("field", signal.complex.labels[region], graph.pattern.s), compute)


def distance_to_vertex(signal, p: int,
                       steiner_level: int = DEFAULT_STEINER_LEVEL) -> ScalarField:
    """Geodesic distance field from a single vertex (the noise center):
    ``distance_within`` with an unbounded radius.  Like any ball, the field
    is kept on the signal alone, not on the shared pattern."""
    dist = distance_within(signal, p, np.inf, steiner_level)
    if np.any(np.isinf(dist)):
        raise GeodesyError(f"complex is disconnected from vertex {p}")
    return ScalarField(dist)


def distance_within(signal, p: int, radius: float,
                    steiner_level: int = DEFAULT_STEINER_LEVEL) -> np.ndarray:
    """Geodesic distances from vertex ``p`` out to ``radius`` + BALL_ULPS
    ulp, and inf beyond, as a read-only per-vertex array.

    The search stops at that bound (Dijkstra's ``limit``), so a noise ball
    costs in proportion to its size.  Every prefix of a vertex's shortest
    path sums no higher than the path, so a vertex within the bound gets
    the bits of the full search, which an infinite ``radius`` runs.
    """
    p = as_int(p, GeodesyError, "vertex index")
    if not 0 <= p < signal.complex.n_vertices:
        raise GeodesyError(f"vertex index {p} out of range")
    graph = _graph(signal, steiner_level)
    # np.spacing(inf) is nan, and a nan limit stops the search at p
    limit = np.inf if radius == np.inf else radius + BALL_ULPS * np.spacing(radius)

    def compute():
        dist = dijkstra(graph.matrix, directed=True, indices=[p], min_only=True,
                        limit=limit)[: graph.nv]
        dist.flags.writeable = False
        return dist

    return signal.cached(("vball", p, graph.pattern.s, limit), compute)


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
    if subset in ("M", "all"):
        tag = None
    elif subset in REGION_TAGS:
        tag = subset
    else:
        raise RegionError(f"unknown subset {subset!r}")
    graph = _graph(signal, steiner_level, tag)

    def compute():
        if tag is None:
            verts = np.arange(signal.complex.n_vertices, dtype=np.int64)
        else:
            verts = region_vertices(signal.complex, tag)
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
    return signal.cached(("diam", graph.pattern.s, facets), compute)


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

    Generator-provided analytic values win when present, and then no graph
    is built and ``steiner_level`` is not read.  Otherwise a
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

    graph = _graph(signal, steiner_level)
    s = graph.pattern.s
    f = distance_field(signal, region, s).values
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

"""Geodesic distance fields, diameters, and boundary injectivity radii.

Distances are graph shortest paths on a Steiner-refined 1-skeleton: every
edge is split into 2**s sub-edges, and for s >= 1 each top simplex gains
chords between refinement points sitting on different edges.  Chord lengths
come from the flat simplex determined by the metric's edge lengths, so the
construction works for deformed (non-embedded) metrics and in any dimension.

The refined graph at level s+1 contains the level-s graph edge-for-edge with
bit-identical weights (sub-edge lengths are exact halvings, coarse chords
reappear with the same endpoints), so distance fields are exactly
non-increasing in s.  Results are upper bounds on the true geodesic
distances and are deterministic across runs.

A graph is built in two parts.  Its pattern -- node layout, the node pairs
of every sub-edge and chord, how repeated pairs group, and the CSR
``indptr``/``indices`` -- depends only on the complex's structure, the cell
set (all top simplices, or one region's facets) and s.  It reads its edge
table and the edge rows of its cells from the structure (``edges()`` and
``simplex_edge_rows`` for the whole complex; a region keeps a compact table
of its own edges, found once through ``edge_rows``), and is kept on the
structure that noise, relabelings and every signal on the complex share.
Each metric then only refills the weights from ``lengths[rows]``: chord
lengths from the cells' flat embeddings, a per-pair minimum and a scatter
into the shared pattern, with no search, no sort and no COO conversion.
The scheme is the Steiner-point discretization of Lanthier, Maheshwari and
Sack (Algorithmica 30, 2001).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .complex import REGION_TAGS, edge_rows, region_vertices
from .errors import GeodesyError, RegionError
from .fields import ScalarField
from .metric import squared_lengths

__all__ = [
    "ScalarField",
    "InjectivityEstimate",
    "distance_field",
    "distance_to_vertex",
    "diameter",
    "injectivity_radius",
]

DEFAULT_STEINER_LEVEL = 2

#: Relative margin used by the first-cut-locus heuristic.
CUT_TAU = 0.05


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
    """Canonical refinement nodes of a q-simplex and the chord pairs to add.

    Nodes are the q+1 vertices plus the 2**s - 1 interior points of each of
    the q(q+1)/2 edges.  Chords connect nodes on different edges; pairs on a
    common edge are omitted because sub-edge chains already cover them.
    """
    slots = list(itertools.combinations(range(q + 1), 2))
    # descriptor: ("v", position) or ("e", slot_index, m)
    nodes = [("v", i) for i in range(q + 1)]
    for si in range(len(slots)):
        for m in range(1, 2**s):
            nodes.append(("e", si, m))

    def on_edges(desc):
        if desc[0] == "v":
            return {si for si, (i, j) in enumerate(slots) if desc[1] in (i, j)}
        return {desc[1]}

    pairs = []
    for a in range(len(nodes)):
        for b in range(a + 1, len(nodes)):
            if on_edges(nodes[a]) & on_edges(nodes[b]):
                continue
            pairs.append((a, b))
    pairs_arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return slots, nodes, pairs_arr


def _embed_cells(sq: np.ndarray, q: int) -> np.ndarray:
    """Local flat coordinates of each cell's vertices from squared lengths.

    Returns an (m, q+1, q) array; the layout is v0 at the origin, v1 on the
    first axis, and so on (a Cholesky-style unrolling of the Gram matrix).
    Degenerate cells surface as zero heights, which the metric volume checks
    reject upstream.
    """
    m = sq.shape[0]
    P = np.zeros((m, q + 1, q), dtype=np.float64)
    l01 = np.sqrt(sq[:, 0, 1])
    P[:, 1, 0] = l01
    x2 = (sq[:, 0, 1] + sq[:, 0, 2] - sq[:, 1, 2]) / (2.0 * l01)
    y2 = np.sqrt(np.maximum(sq[:, 0, 2] - x2 * x2, 0.0))
    P[:, 2, 0] = x2
    P[:, 2, 1] = y2
    if q == 3:
        x3 = (sq[:, 0, 1] + sq[:, 0, 3] - sq[:, 1, 3]) / (2.0 * l01)
        y3 = (sq[:, 0, 2] + sq[:, 0, 3] - sq[:, 2, 3] - 2.0 * x2 * x3) / (2.0 * y2)
        z3 = np.sqrt(np.maximum(sq[:, 0, 3] - x3 * x3 - y3 * y3, 0.0))
        P[:, 3, 0] = x3
        P[:, 3, 1] = y3
        P[:, 3, 2] = z3
    return P


class _Pattern:
    """Metric-free part of a refined graph: node layout and CSR structure.

    ``edges`` is the pattern's edge table and ``cell_rows`` the row in it of
    each cell edge, in slot order; both come from the complex's structure.
    Node layout: indices 0..nv-1 are the original vertices; the interior
    points of edge row k occupy nv + k*(2**s - 1) .. in parameter order
    (measured from the smaller-index endpoint).

    The graph's raw entries are, in order, the sub-edges of every level
    t = 0..s (kept as skip edges so refinement can only shorten paths) and
    then each cell's chords.  A node pair may occur twice: a 3D chord on a
    facet shared by two tetrahedra.  ``first`` holds the first raw entry of
    each distinct pair, ``dup_group``/``dup_raw`` the (pair, raw entry) of
    every repeat, and ``slot_pair`` the pair behind each slot of the
    canonical CSR ``indptr``/``indices`` of the symmetric matrix.
    """

    def __init__(self, nv: int, edges: np.ndarray, cells: np.ndarray,
                 cell_rows: np.ndarray, s: int):
        self.nv = nv
        self.s = s
        self.edges = edges
        self._interior = 2**s - 1
        self.n_nodes = nv + len(edges) * self._interior
        q = cells.shape[1] - 1
        self._q = q if q >= 2 and len(cells) else 0
        self.cell_rows = cell_rows
        code = self._raw_pairs(cells)
        self.n_raw = len(code)
        self.first, self.dup_group, self.dup_raw, code = _group_pairs(code)
        self.indptr, self.indices, self.slot_pair = _csr_pattern(code, self.n_nodes)

    def _raw_pairs(self, cells: np.ndarray) -> np.ndarray:
        """Node pair code lo * n_nodes + hi of every raw entry, in order."""
        s, ne = self.s, len(self.edges)
        src, dst = [], []
        rows = np.arange(ne, dtype=np.int64)
        for t in range(s + 1):
            step = 2 ** (s - t)
            for j in range(2**t):
                src.append(self.node_ids(rows, np.full(ne, j * step)))
                dst.append(self.node_ids(rows, np.full(ne, (j + 1) * step)))
        if self._q:
            slots, nodes, pairs = _chord_template(self._q, s)
            gids = np.empty((len(cells), len(nodes)), dtype=np.int64)
            for k, desc in enumerate(nodes):
                if desc[0] == "v":
                    gids[:, k] = cells[:, desc[1]]
                else:
                    si, m = desc[1], desc[2]
                    i, j = slots[si]
                    m_global = np.where(cells[:, i] > cells[:, j], 2**s - m, m)
                    gids[:, k] = self.node_ids(self.cell_rows[:, si], m_global)
            src.append(gids[:, pairs[:, 0]].ravel())
            dst.append(gids[:, pairs[:, 1]].ravel())
        i = np.concatenate(src)
        j = np.concatenate(dst)
        return np.minimum(i, j) * np.int64(self.n_nodes) + np.maximum(i, j)

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

    def _chord_lengths(self, lengths: np.ndarray) -> np.ndarray:
        """Chord lengths per cell, from each cell's flat embedding."""
        q, s = self._q, self.s
        slots, nodes, pairs = _chord_template(q, s)
        sq = squared_lengths(lengths[self.cell_rows], q)
        P = _embed_cells(sq, q).transpose(2, 0, 1)  # (axis, cell, vertex)
        coords = np.empty((q, len(self.cell_rows), len(nodes)), dtype=np.float64)
        for k, desc in enumerate(nodes):
            if desc[0] == "v":
                coords[:, :, k] = P[:, :, desc[1]]
            else:
                i, j = slots[desc[1]]
                t = np.float64(desc[2]) / np.float64(2**s)
                coords[:, :, k] = P[:, :, i] * (1.0 - t) + P[:, :, j] * t
        # summed axis by axis in the order np.sum takes: lengths stay bit-identical
        total = 0.0
        for x in coords:
            d = x[:, pairs[:, 0]] - x[:, pairs[:, 1]]
            total = total + d * d
        return np.sqrt(total).ravel()

    def fill(self, lengths: np.ndarray) -> csr_matrix:
        """The symmetric weight matrix for per-edge ``lengths``.

        Each node pair keeps the minimum weight over its raw entries: the
        first entry's weight, folded with the repeats by ``np.minimum.at``.
        That minimum is exact, so it does not depend on which cell a chord
        came from.  No sort and no COO conversion runs here.
        """
        ne = len(self.edges)
        w = np.empty(self.n_raw, dtype=np.float64)
        pos = 0
        for t in range(self.s + 1):
            seg_w = lengths / np.float64(2**t)
            for _ in range(2**t):
                w[pos:pos + ne] = seg_w
                pos += ne
        if self._q:
            w[pos:] = self._chord_lengths(lengths)
        pair_w = w[self.first]
        np.minimum.at(pair_w, self.dup_group, w[self.dup_raw])
        return csr_matrix((pair_w[self.slot_pair], self.indices, self.indptr),
                          shape=(self.n_nodes, self.n_nodes))


def _group_pairs(code: np.ndarray):
    """Group equal raw pair codes.

    Returns the first raw entry of each distinct code, the (group, raw
    entry) of every repeat, and the distinct codes in ascending order.
    """
    order = np.argsort(code, kind="stable")
    code = code[order]
    new = np.ones(len(code), dtype=bool)
    new[1:] = code[1:] != code[:-1]
    first = order[new].astype(np.int32)
    dup_group = (np.cumsum(new)[~new] - 1).astype(np.int32)
    dup_raw = order[~new].astype(np.int32)
    return first, dup_group, dup_raw, code[new]


def _csr_pattern(code: np.ndarray, n: int):
    """Canonical CSR structure of the symmetric matrix on distinct pairs.

    Every pair lo * n + hi fills slots (lo, hi) and (hi, lo); rows and the
    columns within a row ascend.  Returns ``indptr``, ``indices`` and the
    pair behind each slot.
    """
    n64 = np.int64(n)
    both = np.concatenate([code, (code % n64) * n64 + code // n64])
    perm = np.argsort(both)
    both = both[perm]
    slot_pair = (perm % len(code)).astype(np.int32)
    indices = (both % n64).astype(np.int32)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(both // n64, minlength=n), out=indptr[1:])
    return indptr, indices, slot_pair


class _SteinerGraph:
    """A refined graph: a shared pattern weighted by one metric."""

    def __init__(self, pattern: _Pattern, lengths: np.ndarray):
        self.pattern = pattern
        self.nv = pattern.nv
        self.matrix = pattern.fill(lengths)


def _graph(signal, s: int, tag: str | None = None) -> _SteinerGraph:
    """Refined graph of the whole complex (``tag`` None) or of a region.

    The pattern depends on the structure, the cell set and ``s`` alone, so
    it is kept on the complex's shared structure, keyed by the region's
    facet set: noise, relabelings and every later metric reuse it and only
    refill the weights.
    """
    cx = signal.complex
    facets = None if tag is None else cx.labels[tag]

    def pattern():
        if tag is None:
            return None, _Pattern(cx.n_vertices, cx.edges(), cx.simplices,
                                  cx.simplex_edge_rows, s)
        cells, cell_rows = _region_cells(cx, tag)
        rows, local = np.unique(cell_rows, return_inverse=True)
        return rows, _Pattern(cx.n_vertices, cx.edges()[rows], cells,
                              local.reshape(cell_rows.shape), s)

    def build():
        rows, pat = cx.cached(("pattern", s, facets), pattern)
        lengths = signal.metric.lengths
        return _SteinerGraph(pat, lengths if rows is None else lengths[rows])
    return signal.cached(("graph", s, facets), build)


def _region_cells(cx, tag: str):
    """A region's facets, sorted, and the edge-table row of each facet edge
    in slot order."""
    facets = sorted(cx.labels[tag])
    if not facets:
        raise RegionError(f"region {tag!r} has no facets")
    cells = np.array(facets, dtype=np.int64)
    slots = np.array(_chord_template(cells.shape[1] - 1, 0)[0])
    return cells, edge_rows(cx.edges(), cells[:, slots])


def _region_sources(signal, graph: _SteinerGraph, tag: str) -> np.ndarray:
    """Vertex and refinement nodes lying on the closed region subcomplex."""
    verts = region_vertices(signal.complex, tag)
    if len(verts) == 0:
        raise RegionError(f"region {tag!r} is empty")
    rows = np.unique(_region_cells(signal.complex, tag)[1])
    steiner = graph.pattern.steiner_ids_of_rows(rows)
    return np.concatenate([verts, steiner])


def _min_distances(graph: _SteinerGraph, sources: np.ndarray) -> np.ndarray:
    return dijkstra(graph.matrix, directed=True, indices=sources, min_only=True)


def _distances_to_vertices(graph: _SteinerGraph, sources: np.ndarray,
                           columns: np.ndarray, block: int = 64) -> np.ndarray:
    """Pairwise distances from each source to the given vertex columns.

    Runs the searches in blocks so only a (block, n_nodes) slab is ever
    materialized; the full per-node matrix would not fit for fine meshes.
    """
    out = np.empty((len(sources), len(columns)), dtype=np.float64)
    for start in range(0, len(sources), block):
        chunk = sources[start:start + block]
        dist = dijkstra(graph.matrix, directed=True, indices=chunk)
        out[start:start + block] = dist[:, columns]
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
        dist = _min_distances(graph, sources)[: graph.nv]
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
        dist = _min_distances(graph, np.array([p], dtype=np.int64))[: graph.nv]
        if np.any(np.isinf(dist)):
            raise GeodesyError(f"complex is disconnected from vertex {p}")
        return ScalarField(dist)

    return signal.cached(("vfield", p, s), compute)


def diameter(signal, subset: str = "M",
             steiner_level: int = DEFAULT_STEINER_LEVEL) -> float:
    """Largest pairwise vertex distance, computed on the refined skeleton.

    ``subset`` is "M" for the whole complex or a region tag, in which case
    paths are restricted to the region's own facet subcomplex (the intrinsic
    diameter).  The value upper-bounds the smooth diameter.  It is cached on
    the signal, keyed like the region's graph.
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
        sub = _distances_to_vertices(graph, verts, verts)
        if np.any(np.isinf(sub)):
            raise GeodesyError(f"subset {subset!r} is disconnected")
        return float(sub.max())

    facets = None if tag is None else signal.complex.labels[tag]
    return signal.cached(("diam", s, facets), compute)


def _first_cut_estimate(f: np.ndarray, feet: np.ndarray, intra: np.ndarray,
                        region_ids: np.ndarray, tau: float = CUT_TAU):
    """Smallest field value among vertices whose two nearest region vertices
    are mutually farther apart (within the region) than 2 f (1 + tau).

    Returns None when no vertex qualifies.  ``feet`` holds distances from
    each region vertex to every vertex; ``intra`` holds the region-intrinsic
    pairwise distances between region vertices (inf across components).
    """
    if feet.shape[0] < 2:
        return None
    mask = np.ones(feet.shape[1], dtype=bool)
    mask[region_ids] = False
    cols = np.argwhere(mask).ravel()
    if len(cols) == 0:
        return None
    sub = feet[:, cols]
    nearest_two = np.argsort(sub, axis=0, kind="stable")[:2, :]
    sep = intra[nearest_two[0], nearest_two[1]]
    qualifies = sep > 2.0 * f[cols] * (1.0 + tau)
    if not np.any(qualifies):
        return None
    return float(np.min(f[cols][qualifies]))


def injectivity_radius(signal, region: str,
                       steiner_level: int = DEFAULT_STEINER_LEVEL) -> InjectivityEstimate:
    """Boundary injectivity radius of region A or X.

    Generator-provided analytic values win when present.  Otherwise a
    first-cut-locus heuristic runs: a vertex flags a cut when its two nearest
    region vertices are far apart inside the region itself; the estimate is
    the smallest flagged distance, falling back to diam(M) when no vertex
    flags.  The heuristic is advisory and tagged as such.
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
    all_verts = np.arange(graph.nv, dtype=np.int64)
    feet = _distances_to_vertices(graph, region_ids, all_verts)
    rgraph = _graph(signal, s, region)
    intra = _distances_to_vertices(rgraph, region_ids, region_ids)
    est = _first_cut_estimate(f, feet, intra, region_ids)
    if est is None:
        if "diam_M" in signal.hints:
            est = float(signal.hints["diam_M"])
        else:
            est = diameter(signal, "M", s)
    return InjectivityEstimate(est, "heuristic", region)

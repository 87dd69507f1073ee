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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .complex import REGION_TAGS, region_vertices
from .errors import GeodesyError, RegionError
from .fields import ScalarField

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
    interior = 2**s - 1
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
    return slots, nodes, pairs_arr, interior


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


class _SteinerGraph:
    """Refined 1-skeleton graph with vertex nodes first.

    Node layout: indices 0..nv-1 are the original vertices; the interior
    points of edge row k occupy nv + k*(2**s - 1) .. in parameter order
    (measured from the smaller-index endpoint).
    """

    def __init__(self, nv, s, edges, lengths, matrix=None):
        self.nv = nv
        self.s = s
        self.edges = edges
        self.lengths = lengths
        self.matrix = matrix
        self.n_nodes = matrix.shape[0] if matrix is not None else 0
        self._interior = 2**s - 1
        nmax = int(edges.max()) + 1 if len(edges) else 1
        self._code_base = np.int64(nmax + 1)
        self._codes = edges[:, 0] * self._code_base + edges[:, 1]

    def node_ids(self, rows: np.ndarray, m: np.ndarray) -> np.ndarray:
        """Graph node for parameter m/2**s along edge rows (m in 0..2**s)."""
        rows = np.asarray(rows, dtype=np.int64)
        m = np.asarray(m, dtype=np.int64)
        out = self.nv + rows * self._interior + (m - 1)
        out = np.where(m == 0, self.edges[rows, 0], out)
        out = np.where(m == 2**self.s, self.edges[rows, 1], out)
        return out

    def edge_rows(self, pairs: np.ndarray) -> np.ndarray:
        p = np.asarray(pairs, dtype=np.int64)
        lo = np.minimum(p[:, 0], p[:, 1])
        hi = np.maximum(p[:, 0], p[:, 1])
        codes = lo * self._code_base + hi
        idx = np.searchsorted(self._codes, codes)
        bad = (idx >= len(self._codes)) | (
            self._codes[np.minimum(idx, len(self._codes) - 1)] != codes
        )
        if np.any(bad):
            k = int(np.argwhere(bad).ravel()[0])
            raise GeodesyError(f"pair {int(lo[k]), int(hi[k])} is not a skeleton edge")
        return idx

    def steiner_ids_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """All interior refinement nodes of the given edge rows."""
        if self._interior == 0 or len(rows) == 0:
            return np.empty(0, dtype=np.int64)
        base = self.nv + np.asarray(rows, dtype=np.int64)[:, None] * self._interior
        return (base + np.arange(self._interior)[None, :]).ravel()


def _build_graph(nv: int, edges: np.ndarray, lengths: np.ndarray,
                 cells: np.ndarray, s: int) -> _SteinerGraph:
    """Assemble the refined graph for one edge set and one cell set.

    ``cells`` may be top simplices (bulk geodesics) or region facets
    (intrinsic region geodesics); cells with fewer than 3 vertices add no
    chords.  Edge weights at every coarser level are kept as skip edges so
    refinement can only shorten paths.
    """
    ne = len(edges)
    interior = 2**s - 1
    n_nodes = nv + ne * interior
    graph = _SteinerGraph(nv, s, edges, lengths, None)

    src, dst, wgt = [], [], []
    rows = np.arange(ne, dtype=np.int64)
    for t in range(s + 1):
        step = 2 ** (s - t)
        seg_w = lengths / np.float64(2**t)
        for j in range(2**t):
            a = graph.node_ids(rows, np.full(ne, j * step, dtype=np.int64))
            b = graph.node_ids(rows, np.full(ne, (j + 1) * step, dtype=np.int64))
            src.append(a)
            dst.append(b)
            wgt.append(seg_w)

    q = cells.shape[1] - 1 if len(cells) else 0
    if q >= 2 and len(cells):
        slots, nodes, pairs, _ = _chord_template(q, s)
        sq = np.zeros((len(cells), q + 1, q + 1), dtype=np.float64)
        for i, j in itertools.combinations(range(q + 1), 2):
            # pair lengths looked up through the edge rows of this graph
            r = graph.edge_rows(cells[:, [i, j]])
            l = lengths[r]
            sq[:, i, j] = l * l
            sq[:, j, i] = sq[:, i, j]
        P = _embed_cells(sq, q)

        # local coordinates and global ids for every template node
        coords = np.empty((len(cells), len(nodes), q), dtype=np.float64)
        gids = np.empty((len(cells), len(nodes)), dtype=np.int64)
        slot_rows = {}
        slot_flip = {}
        for si, (i, j) in enumerate(slots):
            slot_rows[si] = graph.edge_rows(cells[:, [i, j]])
            slot_flip[si] = cells[:, i] > cells[:, j]
        for k, desc in enumerate(nodes):
            if desc[0] == "v":
                coords[:, k, :] = P[:, desc[1], :]
                gids[:, k] = cells[:, desc[1]]
            else:
                si, m = desc[1], desc[2]
                i, j = slots[si]
                t = np.float64(m) / np.float64(2**s)
                coords[:, k, :] = P[:, i, :] * (1.0 - t) + P[:, j, :] * t
                m_global = np.where(slot_flip[si], 2**s - m, m)
                gids[:, k] = graph.node_ids(slot_rows[si], m_global)

        diff = coords[:, pairs[:, 0], :] - coords[:, pairs[:, 1], :]
        clen = np.sqrt(np.sum(diff * diff, axis=2))
        src.append(gids[:, pairs[:, 0]].ravel())
        dst.append(gids[:, pairs[:, 1]].ravel())
        wgt.append(clen.ravel())

    i = np.concatenate(src)
    j = np.concatenate(dst)
    w = np.concatenate(wgt)

    # Deduplicate node pairs, keeping the minimum weight.  Duplicates occur
    # when two tetrahedra share a facet and both embed the same chord; exact
    # arithmetic would agree, floats may differ in the last ulp.
    lo = np.minimum(i, j)
    hi = np.maximum(i, j)
    code = lo * np.int64(n_nodes) + hi
    order = np.lexsort((w, code))
    code_sorted = code[order]
    first = np.empty(len(order), dtype=bool)
    if len(order):
        first[0] = True
        first[1:] = code_sorted[1:] != code_sorted[:-1]
    keep = order[first]
    lo, hi, w = lo[keep], hi[keep], w[keep]

    mat = csr_matrix(
        (np.concatenate([w, w]), (np.concatenate([lo, hi]), np.concatenate([hi, lo]))),
        shape=(n_nodes, n_nodes),
    )
    graph.matrix = mat
    graph.n_nodes = n_nodes
    return graph


def _full_graph(signal, s: int) -> _SteinerGraph:
    def build():
        m = signal.metric
        return _build_graph(
            signal.complex.n_vertices, m.edges, m.lengths,
            signal.complex.simplices, s,
        )
    return signal.cached(("graph", s, None), build)


def _region_graph(signal, tag: str, s: int) -> _SteinerGraph:
    def build():
        cx = signal.complex
        edges = cx.facet_edges(tag)
        lengths = signal.metric.pair_lengths(edges)
        cells = np.array(sorted(cx.labels[tag]), dtype=np.int64)
        return _build_graph(cx.n_vertices, edges, lengths, cells, s)
    # keyed by the facet set, not the tag: relabelings share the graph
    return signal.cached(("graph", s, signal.complex.labels[tag]), build)


def _region_sources(signal, graph: _SteinerGraph, tag: str) -> np.ndarray:
    """Vertex and refinement nodes lying on the closed region subcomplex."""
    verts = region_vertices(signal.complex, tag)
    if len(verts) == 0:
        raise RegionError(f"region {tag!r} is empty")
    sub_edges = signal.complex.facet_edges(tag)
    rows = graph.edge_rows(sub_edges)
    steiner = graph.steiner_ids_of_rows(rows)
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
        graph = _full_graph(signal, s)
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
        graph = _full_graph(signal, s)
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
    diameter).  The value upper-bounds the smooth diameter.
    """
    s = int(steiner_level)
    if subset in ("M", "all"):
        graph = _full_graph(signal, s)
        verts = np.arange(signal.complex.n_vertices, dtype=np.int64)
    elif subset in REGION_TAGS:
        graph = _region_graph(signal, subset, s)
        verts = region_vertices(signal.complex, subset)
        if len(verts) == 0:
            raise RegionError(f"region {subset!r} is empty")
    else:
        raise RegionError(f"unknown subset {subset!r}")
    sub = _distances_to_vertices(graph, verts, verts)
    if np.any(np.isinf(sub)):
        raise GeodesyError(f"subset {subset!r} is disconnected")
    return float(sub.max())


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
    graph = _full_graph(signal, s)
    region_ids = region_vertices(signal.complex, region)
    all_verts = np.arange(graph.nv, dtype=np.int64)
    feet = _distances_to_vertices(graph, region_ids, all_verts)
    rgraph = _region_graph(signal, region, s)
    intra = _distances_to_vertices(rgraph, region_ids, region_ids)
    est = _first_cut_estimate(f, feet, intra, region_ids)
    if est is None:
        if "diam_M" in signal.hints:
            est = float(signal.hints["diam_M"])
        else:
            est = diameter(signal, "M", s)
    return InjectivityEstimate(est, "heuristic", region)

"""Discrete Riemannian metrics as edge lengths.

The metric on a complex is a positive length per 1-skeleton edge, in the
style of piecewise-flat (edge-length) geometry: each simplex is the flat
simplex determined by its edge lengths, volumes come from the Cayley-Menger
determinant, and conformal deformation rescales edges by the square root of
the endpoint-averaged conformal factor.

A metric on a complex is aligned to the complex's edge table: its
``edges`` equal ``CobordismComplex.edges()`` row for row, which every
``Signal`` checks, so per-simplex quantities gather ``lengths`` through the
structure's ``simplex_edge_rows`` and search nothing.  Metrics derived from
one another share the table.

All metric fields are immutable after construction; the volume computations
are pure functions.
"""

from __future__ import annotations

import math

import numpy as np

from .complex import CobordismComplex, edge_rows, edge_slots, float_table, pair_table
from .errors import MetricError, RegionError

#: Simplex volumes below EPS_VOL * (mean edge length)^d are rejected.
EPS_VOL = 1e-10


class MetricField:
    """Positive lengths over a fixed edge set.

    Rows of ``edges`` are canonical (u < v) and lexsorted; ``source`` is
    "induced" for ambient-Euclidean metrics and "deformed" after conformal
    scaling.  The constructor canonicalises any edge order, as read from a
    file; metrics built on a complex's edge table share it as is.
    """

    def __init__(self, edges, lengths, source: str):
        e = pair_table(edges, MetricError, "edge")
        if np.any(e[:, 0] >= e[:, 1]):
            raise MetricError("edges must be canonical (u, v) pairs with u < v")
        ln = float_table(lengths, MetricError, "length", (len(e),))
        order = np.lexsort((e[:, 1], e[:, 0]))
        e = e[order]
        e.flags.writeable = False
        self._set(e, ln[order], source)

    @classmethod
    def _on_table(cls, edges: np.ndarray, lengths: np.ndarray, source: str):
        """A metric on an edge table that is already canonical, such as a
        complex's: the table is shared, not copied or sorted again."""
        metric = cls.__new__(cls)
        metric._set(edges, lengths, source)
        return metric

    def _set(self, edges, lengths, source):
        if np.any(~np.isfinite(lengths)) or np.any(lengths <= 0.0):
            k = int(np.argmin(lengths))
            raise MetricError(
                f"nonpositive length {float(lengths[k])!r} on edge "
                f"{tuple(edges[k].tolist())}"
            )
        lengths.flags.writeable = False
        self.edges = edges
        self.lengths = lengths
        self.source = source

    def length(self, u: int, v: int) -> float:
        return float(self.pair_lengths(np.array([[u, v]], dtype=np.int64))[0])

    def pair_lengths(self, pairs: np.ndarray) -> np.ndarray:
        """Lengths for an (..., 2) array of vertex pairs (any order)."""
        p = np.asarray(pairs, dtype=np.int64)
        rows = edge_rows(self.edges, p)
        missing = rows < 0
        if np.any(missing):
            u, v = sorted(p[missing][0].tolist())
            raise MetricError(f"edge {u, v} not in metric")
        return self.lengths[rows]


def induced_metric(cx: CobordismComplex) -> MetricField:
    """Edge lengths induced by the ambient Euclidean embedding."""
    edges = cx.edges()
    diff = cx.vertices[edges[:, 0]] - cx.vertices[edges[:, 1]]
    lengths = np.sqrt(np.sum(diff * diff, axis=1))
    if np.any(lengths <= 0.0):
        k = int(np.argmin(lengths))
        raise MetricError(
            f"coincident vertices on edge {tuple(edges[k].tolist())}: zero length"
        )
    return MetricField._on_table(edges, lengths, "induced")


def conformal_scale(metric: MetricField, factor) -> MetricField:
    """Deform a metric by a positive per-vertex conformal factor, a
    sequence or array of real numbers read by ``float_table``.

    Each edge (u, v) is rescaled by sqrt((a(u) + a(v)) / 2), i.e. the factor
    is sampled at the edge midpoint by the arithmetic mean of its endpoint
    values.  A factor identically 1 returns bit-identical lengths.  It
    holds one value per vertex: every vertex of a complex lies on an edge
    (``build_complex``), so the largest edge vertex is the last vertex.
    """
    nv = int(metric.edges.max(initial=-1)) + 1
    a = float_table(factor, MetricError, "conformal factor", (nv,))
    if np.any(a <= 0.0):
        k = int(np.argmin(a))
        raise MetricError(f"conformal factor {k} is {float(a[k])!r}: it must be positive")
    mean = (a[metric.edges[:, 0]] + a[metric.edges[:, 1]]) / 2.0
    return MetricField._on_table(metric.edges, metric.lengths * np.sqrt(mean),
                                 "deformed")


def _cayley_menger_vol2(lengths: np.ndarray, q: int) -> np.ndarray:
    """Squared q-volumes from each q-simplex's edge lengths in slot order,
    whose squares fill the bordered (m, q+2, q+2) Cayley-Menger matrix."""
    B = np.zeros((len(lengths), q + 2, q + 2), dtype=np.float64)
    B[:, 0, 1:] = B[:, 1:, 0] = 1.0
    i, j = (edge_slots(q) + 1).T
    B[:, i, j] = B[:, j, i] = lengths * lengths
    coeff = (-1.0) ** (q + 1) / (2.0**q * math.factorial(q) ** 2)
    return coeff * np.linalg.det(B)


def simplex_volumes(metric: MetricField, simplices) -> np.ndarray:
    """Cayley-Menger volumes of a batch of simplices (rows of indices).

    Raises MetricError when a simplex violates the simplex inequalities
    (nonpositive squared volume) or is thinner than the EPS_VOL threshold,
    which signals an invalid metric deformation.
    """
    simp = np.asarray(simplices, dtype=np.int64)
    if simp.ndim == 1:
        simp = simp[None, :]
    if simp.shape[1] == 2:
        return metric.pair_lengths(simp)
    return slot_volumes(metric.pair_lengths(simp[:, edge_slots(simp.shape[1] - 1)]), simp)


def slot_volumes(lengths: np.ndarray, simp: np.ndarray) -> np.ndarray:
    """Cayley-Menger volumes from each simplex's edge lengths in slot order,
    as ``simplex_volumes`` checks them; ``simp`` names the simplices in
    errors."""
    q = simp.shape[1] - 1
    vol2 = _cayley_menger_vol2(lengths, q)
    if np.any(vol2 <= 0.0):
        k = int(np.argmin(vol2))
        raise MetricError(
            f"simplex {tuple(simp[k].tolist())} has nonpositive squared volume "
            f"{vol2[k]:.3e}: metric violates the simplex inequalities"
        )
    vol = np.sqrt(vol2)
    mean_len = np.zeros(len(simp))
    for k in range(lengths.shape[1]):
        mean_len += lengths[:, k]
    mean_len /= lengths.shape[1]
    floor = EPS_VOL * mean_len**q
    if np.any(vol < floor):
        k = int(np.argmin(vol - floor))
        raise MetricError(
            f"simplex {tuple(simp[k].tolist())} is degenerate: volume {vol[k]:.3e} "
            f"below threshold {floor[k]:.3e}"
        )
    return vol


def lumped_vertex_volume(signal) -> np.ndarray:
    """Quadrature weights: each vertex gets 1/(d+1) of incident simplex volumes.

    The weights, a read-only float64 array, partition the total volume
    exactly (up to float summation).
    """
    cx = signal.complex
    vols = signal.simplex_volumes()
    d = cx.dim
    w = np.zeros(cx.n_vertices, dtype=np.float64)
    share = vols / (d + 1)
    for col in range(d + 1):
        np.add.at(w, cx.simplices[:, col], share)
    w.flags.writeable = False
    return w


def total_volume(signal) -> float:
    """Sum of top-simplex volumes."""
    return float(np.sum(signal.simplex_volumes()))


def region_volume(signal, tag: str) -> float:
    """Volume of a labeled boundary region with its induced metric.

    Facets are (d-1)-simplices; their Cayley-Menger volume uses the same
    edge lengths as the bulk metric.
    """
    facets = signal.complex.region_facets(tag)
    if len(facets) == 0:
        raise RegionError(f"region {tag!r} has no facets")
    return float(np.sum(simplex_volumes(signal.metric, facets)))

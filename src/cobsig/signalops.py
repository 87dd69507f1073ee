"""Noise injection, filter extraction, and composition of signals.

Noise is a local conformal deformation: a bump factor equal to epsilon on a
small inner ball, 1 outside a larger ball, and smoothly increasing between.
A filter keeps a connected subcomplex containing all of region A; freshly
exposed interior facets join region B.  Composition glues the Y boundary of
one signal to the X boundary of another along an explicit vertex
correspondence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .complex import as_int, build_complex, int_table, pair_table, region_vertices
from .errors import CobsigError, CompositionError, FilterError, NoiseError
from .fields import ScalarField
from .geodesy import DEFAULT_STEINER_LEVEL, distance_within
from .metric import MetricField, conformal_scale
from .signal import Signal, make_signal


@dataclass(frozen=True)
class NoiseSpec:
    """A conformal noise ball: center vertex, radii, and depth.

    The closed delta-ball must avoid the closures of regions A and X so the
    modulation integrals keep positive integrands; that geometric condition
    depends on the signal and is checked by ``check_noise_spec``.
    """

    center: int
    delta0: float
    delta: float
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_int(self.center, NoiseError, "noise centre"))
        if not 0.0 < self.delta0 < self.delta:
            raise NoiseError("need 0 < delta0 < delta")
        if not math.isfinite(self.delta):
            raise NoiseError("delta must be finite")
        if not 0.0 < self.epsilon < 1.0:
            raise NoiseError("epsilon must lie in (0, 1)")


@dataclass(frozen=True)
class Correspondence:
    """Explicit vertex pairing for gluing: rows of (left vertex, right vertex).

    Matched vertices must agree in coordinates within ``tolerance``, a
    finite number >= 0, and the left signal's Y facets must map exactly
    onto the right signal's X facets.
    """

    pairs: tuple
    tolerance: float

    def __post_init__(self):
        table = pair_table(self.pairs, CompositionError, "pair").tolist()
        object.__setattr__(self, "pairs", tuple(map(tuple, table)))
        tol = self.tolerance
        if isinstance(tol, bool) or not (isinstance(tol, Real) and 0 <= tol < math.inf):
            raise CompositionError(f"tolerance must be a finite number >= 0, got {tol!r}")


def check_noise_spec(signal: Signal, spec: NoiseSpec,
                     steiner_level: int = DEFAULT_STEINER_LEVEL) -> np.ndarray:
    """Verify the ball-avoidance invariant; returns the center's distances.

    They come from ``distance_within`` with the radius delta: exact out to
    delta + 4 ulp and inf beyond, which is all that ball membership, the
    bump and the nearest region distance reported on failure need.
    """
    if not 0 <= spec.center < signal.complex.n_vertices:
        raise NoiseError(f"center vertex {spec.center} out of range")
    rho = distance_within(signal, spec.center, spec.delta, steiner_level)
    for tag in ("A", "X"):
        ids = region_vertices(signal.complex, tag)
        closest = float(np.min(rho[ids]))
        if closest <= spec.delta:
            raise NoiseError(
                f"closed delta-ball (delta={spec.delta}) reaches region {tag} "
                f"(nearest vertex at {closest:.6g})"
            )
    return rho


def _smoothstep(t: np.ndarray) -> np.ndarray:
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def bump_field(signal: Signal, spec: NoiseSpec,
               steiner_level: int = DEFAULT_STEINER_LEVEL) -> ScalarField:
    """Conformal bump factor: epsilon inside the closed delta0-ball, 1 outside
    the open delta-ball, and a quintic-smoothstep blend in between.

    The plateaus are exact by construction, so edges whose endpoints both
    carry factor 1 are bit-identical after deformation.
    """
    rho = check_noise_spec(signal, spec, steiner_level)
    t = (rho - spec.delta0) / (spec.delta - spec.delta0)
    blend = spec.epsilon + (1.0 - spec.epsilon) * _smoothstep(np.clip(t, 0.0, 1.0))
    a = np.where(t <= 0.0, spec.epsilon, np.where(t >= 1.0, 1.0, blend))
    return ScalarField(a)


def apply_noise(signal: Signal, spec: NoiseSpec,
                steiner_level: int = DEFAULT_STEINER_LEVEL) -> Signal:
    """New signal with the conformally deformed metric.

    Edge lengths with both endpoints outside the open delta-ball are
    unchanged bit-exactly.  Hints are dropped: analytic values for the
    undeformed geometry do not survive the deformation.
    """
    a = bump_field(signal, spec, steiner_level)
    deformed = conformal_scale(signal.metric, a)
    return make_signal(signal.complex, deformed, hints={})


def keep_by_predicate(signal: Signal, predicate) -> np.ndarray:
    """Indices of top simplices whose vertices all satisfy ``predicate(coords)``."""
    cx = signal.complex
    flags = np.array([bool(predicate(p)) for p in cx.vertices])
    return np.argwhere(np.all(flags[cx.simplices], axis=1)).ravel()


def _connected(simplices: np.ndarray) -> bool:
    """Connectivity of the kept simplices through shared facets or vertices."""
    n, k = simplices.shape
    verts, inv = np.unique(simplices.ravel(), return_inverse=True)
    # a graph linking each simplex (nodes 0..n-1) to its vertices
    links = coo_matrix((np.ones(n * k), (np.repeat(np.arange(n), k), n + inv)),
                       shape=(n + len(verts),) * 2)
    return connected_components(links, directed=False, return_labels=False) == 1


def extract_filter(signal: Signal, kept_simplices) -> Signal:
    """Sub-signal over the kept top simplices.

    Requirements: the kept set is nonempty and connected, region A survives
    in full, and the sub-boundary decomposes into A' = A, X' within X,
    Y' within Y, surviving B facets, plus newly exposed interior facets
    which are labeled B'.  The corner strata of A with X and with Y must be
    preserved.  Whether a noise ball avoids the filter is the caller's
    concern (see the filter inequality check).
    """
    cx = signal.complex
    kept = int_table(kept_simplices, FilterError, "kept simplex")
    if kept.ndim != 1:
        raise FilterError(f"kept simplices must be a flat list of indices, got a table "
                          f"of shape {kept.shape}")
    kept = np.unique(kept)
    if len(kept) == 0:
        raise FilterError("kept simplex set is empty")
    if kept.min() < 0 or kept.max() >= cx.n_simplices:
        raise FilterError("kept simplex index out of range")
    sub_simplices = cx.simplices[kept]
    if not _connected(sub_simplices):
        raise FilterError("kept simplices are not connected")

    # renumber vertices; ``used`` ascends, so sorted facets stay sorted
    used = np.unique(sub_simplices)
    remap = -np.ones(cx.n_vertices, dtype=np.int64)
    remap[used] = np.arange(len(used))
    try:
        bare = build_complex(cx.vertices[used], remap[sub_simplices], {},
                             cx.signs[kept])
    except CobsigError as exc:
        raise FilterError(f"filter boundary fails validation: {exc}") from exc

    # label the sub-boundary by its facets' rows in the original complex:
    # the first of A, X, Y holding a facet tags it; old B facets and cut
    # facets (previously interior) join B
    sub_facets = bare.facets[bare.boundary]
    where = cx.facet_rows(used[sub_facets])
    regions = [cx.facet_rows(cx.region_facets(t)) for t in ("A", "X", "Y")]
    lost = ~np.isin(regions[0], where)
    if lost.any():
        facet = tuple(cx.region_facets("A")[lost][0].tolist())
        raise FilterError(f"filter drops part of region A (facet {facet})")
    tag = np.select([np.isin(where, r) for r in regions], [0, 1, 2], default=3)
    try:
        sub_cx = bare.with_labels({t: sub_facets[tag == k] for k, t in enumerate("AXYB")})
        sub_edges = sub_cx.edges()
        sub_metric = MetricField._on_table(
            sub_edges, signal.metric.pair_lengths(used[sub_edges]),
            signal.metric.source,
        )
        out = make_signal(sub_cx, sub_metric, hints={})
    except CobsigError as exc:
        raise FilterError(f"filter boundary fails validation: {exc}") from exc

    # corner strata with A must survive unchanged (in original vertex ids)
    for other in ("X", "Y"):
        after = used[out.complex.corner_table("A", other)]
        if not np.array_equal(after, cx.corner_table("A", other)):
            raise FilterError(
                f"filter changes the A-{other} corner stratum"
            )
    return out


def make_correspondence(left: Signal, right: Signal,
                        tolerance: float = 1e-9) -> Correspondence:
    """Pair left Y-vertices with right X-vertices by matching coordinates.

    This is an explicit construction step the caller opts into; composition
    itself never guesses a matching.
    """
    ly = region_vertices(left.complex, "Y")
    rx = region_vertices(right.complex, "X")
    if len(ly) != len(rx):
        raise CompositionError(
            f"cannot match {len(ly)} Y-vertices with {len(rx)} X-vertices"
        )
    from scipy.spatial import cKDTree  # imported on use: it adds 6 MB to every process

    gap, nearest = cKDTree(right.complex.vertices[rx]).query(left.complex.vertices[ly])
    far = np.flatnonzero(gap > tolerance)
    if len(far):
        raise CompositionError(
            f"no right X-vertex within {tolerance} of left vertex {int(ly[far[0]])}"
        )
    pairs = list(zip(ly.tolist(), rx[nearest].tolist()))
    if len({b for _, b in pairs}) != len(pairs):
        raise CompositionError("coordinate matching is not one-to-one")
    return Correspondence(tuple(pairs), tolerance)


def compose(left: Signal, right: Signal, corr: Correspondence) -> Signal:
    """Glue two signals along left-Y = right-X.

    Labels on the glued result: X from the left, Y from the right, A and B
    are unions of both sides.  The glued facets become interior.  The result
    must validate; in particular the combined A and B may share neither a
    facet nor a corner face.
    """
    lcx, rcx = left.complex, right.complex
    if lcx.dim != rcx.dim or lcx.ambient_dim != rcx.ambient_dim:
        raise CompositionError("dimension mismatch between the two signals")

    table = np.array(corr.pairs, dtype=np.int64).reshape(-1, 2)
    a, b = table.T
    # an exact duplicate pair names the same gluing and is dropped
    unique = np.unique(table, axis=0)
    if not (np.array_equal(unique[:, 0], region_vertices(lcx, "Y"))
            and np.array_equal(np.sort(unique[:, 1]), region_vertices(rcx, "X"))):
        raise CompositionError(
            "correspondence must biject left Y-vertices with right X-vertices"
        )
    gap = np.linalg.norm(lcx.vertices[a] - rcx.vertices[b], axis=1)
    far = np.flatnonzero(~(gap <= corr.tolerance))
    if len(far):
        k = far[0]
        raise CompositionError(
            f"glued vertices {a[k]}<->{b[k]} differ by {gap[k]:.3g} "
            f"(tolerance {corr.tolerance})"
        )
    to_right = np.full(lcx.n_vertices, -1, dtype=np.int64)
    to_right[a] = b
    mapped_y = np.sort(to_right[lcx.region_facets("Y")], axis=1)
    if not np.array_equal(mapped_y[np.lexsort(mapped_y.T[::-1])], rcx.region_facets("X")):
        raise CompositionError("Y facets do not map onto right X facets")

    from scipy.spatial import cKDTree  # imported on use, as in make_correspondence

    # interiors must be disjoint: only glued vertices may come within the
    # tolerance, which counts exact coincidences even at 0
    loose = np.setdiff1d(np.arange(rcx.n_vertices), b)
    near = cKDTree(lcx.vertices).query_ball_point(rcx.vertices[loose], corr.tolerance,
                                                  return_length=True)
    if np.any(near):
        raise CompositionError(
            f"right vertex {int(loose[np.argmax(near > 0)])} coincides with the "
            "left signal outside the glued region"
        )

    # merge vertex sets: left vertices keep their ids
    offset_map = np.empty(rcx.n_vertices, dtype=np.int64)
    offset_map[b] = a
    offset_map[loose] = lcx.n_vertices + np.arange(len(loose))
    merged_vertices = np.vstack([lcx.vertices, rcx.vertices[loose]])
    merged_simplices = np.vstack([lcx.simplices, offset_map[rcx.simplices]])
    merged_signs = np.concatenate([lcx.signs, rcx.signs])

    def both(tag):
        # the two sides' facets of ``tag`` in merged vertex ids
        return np.vstack([lcx.region_facets(tag), offset_map[rcx.region_facets(tag)]])

    labels = {"X": lcx.region_facets("X"), "Y": offset_map[rcx.region_facets("Y")],
              "A": both("A"), "B": both("B")}

    try:
        merged = build_complex(merged_vertices, merged_simplices, labels,
                               merged_signs)
        # both sides' edge tables in merged ids, coded u * nv + v; each
        # merged edge takes its first row, so left lengths win on glued
        # edges, where both sides agree within tolerance for induced metrics
        nv = len(merged_vertices)
        u, v = np.vstack([left.metric.edges,
                          np.sort(offset_map[right.metric.edges], axis=1)]).T
        _, first = np.unique(u * nv + v, return_index=True)
        lengths = np.concatenate([left.metric.lengths, right.metric.lengths])[first]
        metric = MetricField._on_table(merged.edges(), lengths, "induced"
                                       if left.metric.source == right.metric.source ==
                                       "induced" else "deformed")
        return make_signal(merged, metric, hints={})
    except CobsigError as exc:
        raise CompositionError(f"composed signal fails validation: {exc}") from exc

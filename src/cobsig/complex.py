"""Labeled simplicial complexes representing relative cobordisms with corners.

A complex stores straight d-simplices (d = 2 or 3) embedded in R^n, together
with orientation signs and boundary-facet labels for four regions X, Y, A, B.
The boundary of the underlying domain must decompose as X + Sigma + Y with
Sigma = A + B; corner strata (the (d-2)-faces shared between facets of two
regions) are derived on demand, never stored.

Complexes are immutable after construction and safe for concurrent reads.
``build_complex`` checks structural well-formedness only; the cobordism
invariants live in ``validate`` so that deliberately broken instances can be
constructed and inspected.

What depends only on (simplices, signs) is the complex's topology, and one
``_Structure`` owns it: the facet table, the boundary facets, the structural
half of ``validate`` (non-manifold facets and inconsistent orientation), the
canonical edge table that ``edges()`` returns, and ``simplex_edge_rows``, the
edge-table row of every edge of every top simplex.  ``build_complex`` builds
it once, with array operations, and every relabeling made with
``with_labels`` shares it; ``with_labels`` checks only the new labels (none
when they are the complex's own label sets, permuted) and ``validate`` adds
only the label checks.  Other modules index these tables
and derive no topology of their own; ``edge_rows`` is the one lookup from
vertex pairs to edge rows, and ``edge_slots`` the one order of a simplex's
edges.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import MeshError, RegionError

REGION_TAGS = ("X", "Y", "A", "B")

Facet = tuple[int, ...]


class CobordismComplex:
    """Immutable d-complex with ambient coordinates and region labels.

    Attributes
    ----------
    dim : int
        Dimension d of the top simplices (2 or 3).
    ambient_dim : int
        Dimension n >= d of the ambient coordinates.
    vertices : (nv, n) float array, read-only
    simplices : (nt, d+1) int array, read-only
    signs : (nt,) int array of +-1, read-only
    labels : dict mapping region tag to frozenset of facet tuples
    facets : (nf, d) int array, read-only
        Every distinct facet once, vertices ascending, rows lexsorted.
    boundary_facets : frozenset of the facet tuples with one simplex
    simplex_edge_rows : (nt, d(d+1)/2) int array, read-only
        Row in ``edges()`` of each simplex's edges, in slot order
        (``edge_slots``).
    """

    def __init__(self, vertices, simplices, signs, labels, structure):
        self.vertices = vertices
        self.simplices = simplices
        self.signs = signs
        self.labels = labels
        self._structure = structure
        self.facets = structure.facets
        self.boundary_facets = structure.boundary_facets
        self.simplex_edge_rows = structure.simplex_edge_rows

    # -- basic queries ----------------------------------------------------

    @property
    def dim(self) -> int:
        return self.simplices.shape[1] - 1

    @property
    def ambient_dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_simplices(self) -> int:
        return self.simplices.shape[0]

    def edges(self) -> np.ndarray:
        """All 1-skeleton edges as a read-only (ne, 2) array of sorted pairs,
        lexsorted: the structure's edge table, which metrics are aligned to."""
        return self._structure.edges

    def corner_faces(self, tag_a: str, tag_b: str) -> frozenset:
        """(d-2)-faces shared between facets of two regions."""
        for t in (tag_a, tag_b):
            if t not in REGION_TAGS:
                raise RegionError(f"unknown region tag {t!r}")
        k = self.dim - 1  # number of vertices in a (d-2)-face
        faces_a = {
            c for f in self.labels[tag_a] for c in itertools.combinations(f, k)
        }
        faces_b = {
            c for f in self.labels[tag_b] for c in itertools.combinations(f, k)
        }
        return frozenset(faces_a & faces_b)

    def cached(self, key, compute):
        """Memoize a value fixed by the structure (and any facet set in the
        key); every relabeling and every signal on this complex shares it."""
        cache = self._structure.cache
        if key not in cache:
            cache[key] = compute()
        return cache[key]

    # -- derived labelings -------------------------------------------------

    def with_labels(self, labels) -> "CobordismComplex":
        """Same geometry and structure with a different region labeling.

        A labeling of every region by this complex's own label sets, such as
        a permutation of its regions, is canonical and was checked when
        those sets were, so it is not cleaned again.
        """
        labels = dict(labels)
        own = self.labels.values()
        if (labels.keys() == set(REGION_TAGS)
                and all(any(f is g for g in own) for f in labels.values())):
            clean = {tag: labels[tag] for tag in REGION_TAGS}
        else:
            clean = _clean_labels(labels, self.dim, self._structure)
        return CobordismComplex(self.vertices, self.simplices, self.signs, clean,
                                self._structure)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "ambient_dim": self.ambient_dim,
            "vertices": [list(map(float, row)) for row in self.vertices],
            "simplices": [
                {"verts": list(map(int, s)), "sign": int(g)}
                for s, g in zip(self.simplices, self.signs)
            ],
            "labels": {
                tag: sorted(list(map(int, f)) for f in self.labels[tag])
                for tag in REGION_TAGS
            },
        }

    def __eq__(self, other):
        if not isinstance(other, CobordismComplex):
            return NotImplemented
        return (
            np.array_equal(self.vertices, other.vertices)
            and np.array_equal(self.simplices, other.simplices)
            and np.array_equal(self.signs, other.signs)
            and self.labels == other.labels
        )

    def __hash__(self):
        return id(self)

    def __repr__(self):
        return (
            f"CobordismComplex(dim={self.dim}, ambient_dim={self.ambient_dim}, "
            f"nv={self.n_vertices}, nt={self.n_simplices})"
        )


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the cobordism invariant checks.

    ``ok`` holds exactly when ``violations`` is empty; each violation is an
    (invariant-name, offending-item) pair and all violations are reported,
    not only the first.
    """

    ok: bool
    violations: tuple

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [list(v) for v in self.violations],
        }


def build_complex(vertices, simplices, labels, signs=None) -> CobordismComplex:
    """Assemble a labeled complex and derive its facet structure.

    Parameters
    ----------
    vertices : (nv, n) array-like of float coordinates
    simplices : (nt, d+1) array-like of vertex indices, d in {2, 3}
    labels : mapping from region tag (X/Y/A/B) to iterable of facet index
        tuples; every labeled facet must be a boundary facet
    signs : optional (nt,) iterable of orientation signs +-1 (default +1)

    The cobordism invariants (region coverage, disjointness, corners,
    orientation consistency) are *not* enforced here; run ``validate``.
    """
    verts = np.array(vertices, dtype=np.float64)
    if verts.ndim != 2:
        raise MeshError("vertices must be a 2d array of coordinates")
    simp = np.array(simplices, dtype=np.int64)
    if simp.ndim != 2 or simp.shape[0] == 0:
        raise MeshError("simplices must be a nonempty 2d array of index tuples")
    d = simp.shape[1] - 1
    if d not in (2, 3):
        raise MeshError(f"only dimensions 2 and 3 are supported, got d={d}")
    if verts.shape[1] < d:
        raise MeshError(
            f"ambient dimension {verts.shape[1]} below complex dimension {d}"
        )
    nv = verts.shape[0]
    if simp.min() < 0 or simp.max() >= nv:
        raise MeshError("simplex vertex index out of range")
    ordered = np.sort(simp, axis=1)
    repeats = np.any(ordered[:, 1:] == ordered[:, :-1], axis=1)
    if np.any(repeats):
        k = int(np.argmax(repeats))
        raise MeshError(f"simplex {k} repeats a vertex: {tuple(simp[k].tolist())}")

    if signs is None:
        sgn = np.ones(len(simp), dtype=np.int64)
    else:
        sgn = np.array(signs, dtype=np.int64)
        if sgn.shape != (len(simp),) or not np.all(np.abs(sgn) == 1):
            raise MeshError("signs must be +-1, one per top simplex")

    structure = _Structure(simp, sgn)
    clean_labels = _clean_labels(labels, d, structure)
    verts.flags.writeable = False
    simp.flags.writeable = False
    sgn.flags.writeable = False
    return CobordismComplex(verts, simp, sgn, clean_labels, structure)


class _Structure:
    """The topology of a complex, fixed by its simplices and signs alone.

    ``facets`` is the lexsorted table of distinct facets, ``boundary_facets``
    the set of those with one incident simplex, and ``violations`` the
    label-independent findings of ``validate``.  ``edges`` is the lexsorted
    table of distinct edges, and ``simplex_edge_rows`` holds, per top
    simplex, the row of each of its edges in slot order.  ``cache`` holds
    what ``CobordismComplex.cached`` derives from the structure, such as
    refined-graph patterns.
    """

    def __init__(self, simp: np.ndarray, sgn: np.ndarray):
        nt, k = simp.shape
        d = k - 1
        # row t * k + o is simplex t without its vertex at position o
        omit = np.array([[j for j in range(k) if j != o] for o in range(k)])
        faces = simp[:, omit].reshape(-1, d)
        inversions = sum((faces[:, i] > faces[:, j]).astype(np.int64)
                         for i, j in edge_slots(d - 1))
        # the orientation simplex t induces on its face o, relative to the
        # face's sorted vertex order
        orient = (np.repeat(sgn, k) * np.tile((-1) ** np.arange(k), nt)
                  * (1 - 2 * (inversions % 2)))
        facets, group, order = _group_rows(np.sort(faces, axis=1))
        count = np.bincount(group, minlength=len(facets))
        # an interior facet must be induced with opposite orientations by
        # its two simplices; equal rows keep their order, so t1 < t2
        net = np.bincount(group, weights=orient, minlength=len(facets))
        twisted = np.flatnonzero((count == 2) & (net != 0))
        first = (np.cumsum(count) - count)[twisted]
        crowded = count > 2
        bad = [("nonmanifold-facet", f"{tuple(f)} borders {c} simplices")
               for f, c in zip(facets[crowded].tolist(), count[crowded].tolist())]
        bad += [("inconsistent-orientation", f"facet {tuple(f)} between simplices {t1},{t2}")
                for f, t1, t2 in zip(facets[twisted].tolist(),
                                     (order[first] // k).tolist(),
                                     (order[first + 1] // k).tolist())]

        slots = edge_slots(d)
        self.edges, rows, _ = _group_rows(np.sort(simp[:, slots], axis=2).reshape(-1, 2))
        self.simplex_edge_rows = rows.reshape(nt, len(slots))
        self.facets = facets
        self.boundary_facets = frozenset(map(tuple, facets[count == 1].tolist()))
        self.violations = tuple(bad)
        self.cache: dict = {}
        for table in (self.edges, self.simplex_edge_rows, self.facets):
            table.flags.writeable = False


@lru_cache(maxsize=None)
def edge_slots(q: int) -> np.ndarray:
    """The vertex positions (i, j) of each edge of a q-simplex, in slot
    order: pairs i < j in ``itertools.combinations`` order, as a read-only
    (q(q+1)/2, 2) array.  Every per-edge table of a simplex, its edge rows,
    lengths and chord coefficients, follows this one order."""
    slots = np.stack(np.triu_indices(q + 1, 1), axis=1)
    slots.flags.writeable = False
    return slots


def _group_rows(rows: np.ndarray):
    """Distinct rows of an int array by one stable lexsort.

    Returns the distinct rows in lexicographic order, the group of each
    input row, and the sort order, in which equal rows keep their input
    order.
    """
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    group = np.empty(len(rows), dtype=np.int64)
    group[order] = np.cumsum(new) - 1
    return ordered[new], group, order


def edge_rows(edges: np.ndarray, pairs) -> np.ndarray:
    """Row of each vertex pair (either order) in a canonical, lexsorted edge
    table such as ``CobordismComplex.edges()``, or -1 where it is no edge.

    A pair is coded lo * base + hi, with base one more than the table's
    largest vertex; pairs outside [0, base) are no edge and get no code, so
    codes stay below base**2 and cannot overflow for any mesh that fits in
    memory.
    """
    p = np.asarray(pairs, dtype=np.int64)
    lo = np.minimum(p[..., 0], p[..., 1])
    hi = np.maximum(p[..., 0], p[..., 1])
    if len(edges) == 0:
        return np.full(lo.shape, -1, dtype=np.int64)
    base = np.int64(edges.max()) + 1
    table = edges[:, 0] * base + edges[:, 1]
    codes = np.where((lo >= 0) & (hi < base), lo * base + hi, -1)
    rows = np.minimum(np.searchsorted(table, codes), len(table) - 1)
    return np.where(table[rows] == codes, rows, -1)


def _clean_labels(labels, d: int, structure: _Structure) -> dict[str, frozenset]:
    """Canonical labels, each facet checked to be a boundary facet."""
    labels = dict(labels)
    for tag in labels:
        if tag not in REGION_TAGS:
            raise MeshError(f"unknown region tag {tag!r}")
    clean: dict[str, frozenset] = {}
    for tag in REGION_TAGS:
        facets = set()
        for f in labels.get(tag, ()):
            ft = tuple(sorted(int(v) for v in f))
            if len(ft) != d or len(set(ft)) != d:
                raise MeshError(f"label {tag}: {ft} is not a (d-1)-simplex")
            if ft not in structure.boundary_facets:
                if not np.any(np.all(structure.facets == ft, axis=1)):
                    raise MeshError(f"label {tag}: {ft} is not a facet of the complex")
                raise MeshError(f"label {tag}: {ft} is not a boundary facet")
            facets.add(ft)
        clean[tag] = frozenset(facets)
    return clean


def validate(cx: CobordismComplex) -> ValidationReport:
    """Check every cobordism invariant; violations are data, not errors.

    The report depends only on the structure and the labels, so it is
    computed once per labeling and kept in the structure cache.
    """
    key = ("validate",) + tuple(cx.labels[tag] for tag in REGION_TAGS)
    return cx.cached(key, lambda: _validate(cx))


def _validate(cx: CobordismComplex) -> ValidationReport:
    bad: list[tuple[str, str]] = list(cx._structure.violations)

    labeled: dict[Facet, list[str]] = {}
    for tag in REGION_TAGS:
        for f in cx.labels[tag]:
            labeled.setdefault(f, []).append(tag)

    for f in sorted(cx.boundary_facets):
        tags = labeled.get(f, [])
        if not tags:
            bad.append(("unlabeled-boundary-facet", str(f)))
        elif len(tags) > 1:
            bad.append(("multiply-labeled-facet", f"{f} in {sorted(tags)}"))
    for f in sorted(labeled):
        if f not in cx.boundary_facets:
            bad.append(("interior-facet-labeled", str(f)))

    for tag in REGION_TAGS:
        if not cx.labels[tag]:
            bad.append(("empty-region", tag))

    if cx.labels["X"] & cx.labels["Y"]:
        bad.append(("X-Y-shared-facet", str(sorted(cx.labels["X"] & cx.labels["Y"]))))
    if cx.labels["A"] & cx.labels["B"]:
        bad.append(("A-B-shared-facet", str(sorted(cx.labels["A"] & cx.labels["B"]))))
    shared_corner = cx.corner_faces("A", "B")
    if shared_corner:
        bad.append(("A-B-shared-corner-face", str(sorted(shared_corner))))

    if cx.labels["A"] and cx.labels["X"] and not cx.corner_faces("A", "X"):
        bad.append(("A-X-corner-empty", "no shared (d-2)-face between A and X"))

    bad.sort()
    return ValidationReport(ok=not bad, violations=tuple(bad))


def region_vertices(cx: CobordismComplex, tag: str) -> np.ndarray:
    """Vertex indices of a closed region, or of a derived corner stratum.

    ``tag`` is one of X/Y/A/B, or a two-letter corner tag such as "AX"
    naming the (d-2)-faces shared between the two regions' facets.  Corner
    vertices belong to every incident closed region.
    """
    if tag in REGION_TAGS:
        faces = cx.labels[tag]
    elif len(tag) == 2 and tag[0] in REGION_TAGS and tag[1] in REGION_TAGS:
        faces = cx.corner_faces(tag[0], tag[1])
    else:
        raise RegionError(f"unknown region tag {tag!r}")
    return np.unique(np.array(list(faces), dtype=np.int64))

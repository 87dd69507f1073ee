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

What depends only on (simplices, signs) -- the facet incidence, the boundary
facets and the structural half of ``validate`` (non-manifold facets and
inconsistent orientation) -- is computed once by ``build_complex`` and shared
by every relabeling made with ``with_labels``, which checks only the new
labels.  ``validate`` then runs only the label checks on top of it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import MeshError, RegionError

REGION_TAGS = ("X", "Y", "A", "B")

Facet = tuple[int, ...]


def _sorted_tuple(verts) -> Facet:
    return tuple(sorted(int(v) for v in verts))


def _perm_parity(a, b) -> int:
    """Sign of the permutation taking ordering ``a`` to ordering ``b``."""
    index = {v: i for i, v in enumerate(b)}
    perm = [index[v] for v in a]
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        cycle_len = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            cycle_len += 1
        if cycle_len % 2 == 0:
            sign = -sign
    return sign


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
    """

    def __init__(self, vertices, simplices, signs, labels, structure):
        self.vertices = vertices
        self.simplices = simplices
        self.signs = signs
        self.labels = labels
        self._structure = structure
        self.boundary_facets = structure.boundary_facets

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
        """All 1-skeleton edges as a (ne, 2) array of sorted pairs, lexsorted."""
        d = self.dim
        pairs = []
        for i, j in itertools.combinations(range(d + 1), 2):
            pairs.append(self.simplices[:, [i, j]])
        e = np.vstack(pairs)
        e.sort(axis=1)
        return np.unique(e, axis=0)

    def facet_edges(self, tag: str) -> np.ndarray:
        """Edges of the subcomplex spanned by the facets labeled ``tag``."""
        facets = sorted(self.labels[tag])
        if not facets:
            raise RegionError(f"region {tag!r} has no facets")
        pairs = []
        for f in facets:
            for u, v in itertools.combinations(f, 2):
                pairs.append((u, v))
        e = np.array(pairs, dtype=np.int64)
        return np.unique(e, axis=0)

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
        """Same geometry and structure with a different region labeling."""
        return CobordismComplex(
            self.vertices, self.simplices, self.signs,
            _clean_labels(labels, self.dim, self._structure), self._structure,
        )

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
    for k, s in enumerate(simp):
        if len(set(s.tolist())) != d + 1:
            raise MeshError(f"simplex {k} repeats a vertex: {tuple(s)}")

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
    """The part of a complex fixed by its simplices and signs alone.

    ``incidence`` maps each facet to its (simplex index, omitted position)
    pairs, and ``violations`` holds the label-independent findings of
    ``validate``.  ``cache`` holds what ``CobordismComplex.cached`` derives
    from the structure, such as refined-graph patterns.
    """

    def __init__(self, simp: np.ndarray, sgn: np.ndarray):
        incidence: dict[Facet, list] = {}
        for t, s in enumerate(simp):
            for omit in range(len(s)):
                f = _sorted_tuple(np.delete(s, omit))
                incidence.setdefault(f, []).append((t, omit))

        bad = []
        for f, inc in incidence.items():
            if len(inc) > 2:
                bad.append(("nonmanifold-facet", f"{f} borders {len(inc)} simplices"))
            elif len(inc) == 2:
                # each interior facet must be induced with opposite
                # orientations by its two incident top simplices
                (t1, o1), (t2, o2) = inc
                f1 = tuple(np.delete(simp[t1], o1))
                f2 = tuple(np.delete(simp[t2], o2))
                m1 = int(sgn[t1]) * (-1) ** o1
                m2 = int(sgn[t2]) * (-1) ** o2
                if m1 * m2 * _perm_parity(f1, f2) != -1:
                    bad.append(("inconsistent-orientation",
                                f"facet {f} between simplices {t1},{t2}"))

        self.incidence = incidence
        self.boundary_facets = frozenset(
            f for f, inc in incidence.items() if len(inc) == 1
        )
        self.violations = tuple(bad)
        self.cache: dict = {}


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
            ft = _sorted_tuple(f)
            if len(ft) != d or len(set(ft)) != d:
                raise MeshError(f"label {tag}: {ft} is not a (d-1)-simplex")
            if ft not in structure.incidence:
                raise MeshError(f"label {tag}: {ft} is not a facet of the complex")
            if ft not in structure.boundary_facets:
                raise MeshError(f"label {tag}: {ft} is not a boundary facet")
            facets.add(ft)
        clean[tag] = frozenset(facets)
    return clean


def validate(cx: CobordismComplex) -> ValidationReport:
    """Check every cobordism invariant; violations are data, not errors."""
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
        out = set()
        for f in cx.labels[tag]:
            out.update(f)
        return np.array(sorted(out), dtype=np.int64)
    if len(tag) == 2 and tag[0] in REGION_TAGS and tag[1] in REGION_TAGS:
        faces = cx.corner_faces(tag[0], tag[1])
        out = set()
        for f in faces:
            out.update(f)
        return np.array(sorted(out), dtype=np.int64)
    raise RegionError(f"unknown region tag {tag!r}")

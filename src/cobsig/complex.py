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
``with_labels`` shares it; ``with_labels`` checks only the new labels, in a
few whole-array passes, and ``validate`` adds only the label checks.  A
region's facets are kept once per facet set as a lexsorted table
(``region_facets``), which every other module reads instead of converting
the label set.  Other modules index these tables and derive no topology of
their own; ``edge_rows`` is the one lookup from vertex pairs to edge rows,
``facet_rows`` the one from vertex tuples to facet rows, and ``edge_slots``
the one order of a simplex's edges.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np

from .errors import MeshError, RegionError

REGION_TAGS = ("X", "Y", "A", "B")


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
    boundary : (nf,) bool array, read-only
        Which rows of ``facets`` have one simplex.
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
        self.boundary = structure.boundary
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

    def facet_rows(self, rows) -> np.ndarray:
        """Row in ``facets`` of each row of the (k, d) int array ``rows``,
        vertices ascending, or -1 where it is no facet."""
        return self._structure.facet_rows(rows)

    def region_facets(self, tag: str) -> np.ndarray:
        """The facets of region ``tag`` as a read-only (k, d) int64 table,
        vertices ascending, rows lexsorted.  It is kept on the structure
        under the region's facet set (``_clean_labels``), so every
        relabeling with that set shares it."""
        if tag not in REGION_TAGS:
            raise RegionError(f"unknown region tag {tag!r}")
        return self._structure.cache[("facets", self.labels[tag])]

    def corner_table(self, tag_a: str, tag_b: str) -> np.ndarray:
        """(d-2)-faces shared between facets of two regions, as a lexsorted
        (m, d-1) int64 table: vertices when d = 2, edges when d = 3."""
        faces = [self.region_facets(tag) for tag in (tag_a, tag_b)]
        if self.dim == 2:
            return np.intersect1d(*faces)[:, None]
        rows = [edge_rows(self.edges(), f[:, edge_slots(2)]) for f in faces]
        return self.edges()[np.intersect1d(*rows)]

    def corner_faces(self, tag_a: str, tag_b: str) -> frozenset:
        """(d-2)-faces shared between facets of two regions."""
        return frozenset(map(tuple, self.corner_table(tag_a, tag_b).tolist()))

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
        clean = _clean_labels(labels, self.dim, self._structure)
        return CobordismComplex(self.vertices, self.simplices, self.signs, clean,
                                self._structure)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "ambient_dim": self.ambient_dim,
            "vertices": self.vertices.tolist(),
            "simplices": [
                {"verts": s, "sign": g}
                for s, g in zip(self.simplices.tolist(), self.signs.tolist())
            ],
            "labels": {tag: self.region_facets(tag).tolist() for tag in REGION_TAGS},
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
    simplices : (nt, d+1) array-like of integer vertex indices, d in {2, 3}
    labels : mapping from region tag (X/Y/A/B) to iterable of facet index
        tuples; every labeled facet must be a boundary facet
    signs : optional (nt,) iterable of integer orientation signs +-1
        (default +1)

    The cobordism invariants (region coverage, disjointness, corners,
    orientation consistency) are *not* enforced here; run ``validate``.
    """
    verts = np.array(vertices, dtype=np.float64)
    if verts.ndim != 2:
        raise MeshError("vertices must be a 2d array of coordinates")
    simp = int_table(simplices, MeshError, "simplex")
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
        sgn = int_table(signs, MeshError, "sign")
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

    ``facets`` is the lexsorted table of distinct facets, ``boundary`` marks
    its rows with one incident simplex, ``boundary_facets`` is the set of
    those, and ``violations`` holds the label-independent findings of
    ``validate``.  ``edges`` is the lexsorted table of distinct edges, and
    ``simplex_edge_rows`` holds, per top simplex, the row of each of its
    edges in slot order.  ``cache`` holds what ``CobordismComplex.cached``
    derives from the structure, such as refined-graph patterns and region
    facet tables.
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
        self.boundary = count == 1
        self.boundary_facets = frozenset(map(tuple, facets[self.boundary].tolist()))
        self.violations = tuple(bad)
        self.cache: dict = {}
        # a row's code is the row of the first facet with its leading pair,
        # times the vertex count, plus its last vertex: the codes ascend with
        # ``facets`` and stay below the facet count times the vertex count;
        # leading pairs are coded as in ``_group_rows``
        self._base = np.int64(facets.max()) + 1
        self._lead = facets[:, 0] * self._base + facets[:, 1]
        self._codes = self._code(facets)
        for table in (self.edges, self.simplex_edge_rows, self.facets, self.boundary):
            table.flags.writeable = False

    def _code(self, rows: np.ndarray) -> np.ndarray:
        r = np.clip(rows, 0, self._base - 1)
        start = np.searchsorted(self._lead, r[:, 0] * self._base + r[:, 1])
        return start * self._base + r[:, -1]

    def facet_rows(self, rows: np.ndarray) -> np.ndarray:
        """Row in ``facets`` of each row of ascending vertex ids, or -1; a
        code only guides the search, equal rows decide."""
        at = np.searchsorted(self._codes, self._code(rows)).clip(max=len(self.facets) - 1)
        return np.where(np.all(self.facets[at] == rows, axis=1), at, -1)


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
    """Distinct rows of a nonnegative (n, 2) or (n, 3) int array by one
    stable sort.

    Returns the distinct rows in lexicographic order, the group of each
    input row, and the sort order, in which equal rows keep their input
    order.  The leading pair is sorted as one code lo * base + hi, as in
    ``edge_rows``; with base one more than the largest entry, the codes
    stay below base**2 and cannot overflow int64 below 3e9 vertices.
    """
    base = rows.max(initial=0) + 1
    code = rows[:, 0] * base
    code += rows[:, 1]
    if rows.shape[1] == 2:
        order = np.argsort(code, kind="stable")
    else:
        order = np.lexsort((rows[:, 2], code))
    code = code[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = code[1:] != code[:-1]
    if rows.shape[1] == 3:
        last = rows[order, 2]
        new[1:] |= last[1:] != last[:-1]
    group = np.empty(len(rows), dtype=np.int64)
    group[order] = np.cumsum(new) - 1
    # gather only the distinct rows: a sorted copy of every row would raise
    # the memory peak of loading a mesh
    return rows[order[new]], group, order


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


def check_ints(values) -> None:
    """Raise TypeError unless every item of ``values``, an iterable or an
    array, is an integer.  A float or a bool is none: np.int64 would
    truncate the one and read the other as 0 or 1, so an index table would
    be built silently wrong.  An array is judged by its dtype."""
    kinds = {values.dtype.type} if isinstance(values, np.ndarray) else set(map(type, values))
    bad = sorted(k.__name__ for k in kinds if not issubclass(k, Integral) or issubclass(k, bool))
    if bad:
        raise TypeError("expected integers, got " + ", ".join(bad))


def as_int(value, error, what: str) -> int:
    """``value`` as a Python int once ``check_ints`` finds it an integer;
    otherwise ``error`` naming it as ``what``."""
    try:
        check_ints([value])
    except TypeError as exc:
        raise error(f"{what} is {value!r}: {exc}") from exc
    return int(value)


def int_table(entries, error, what: str) -> np.ndarray:
    """``entries``, integers or rows of integers, as an int64 array once
    ``check_ints`` finds every one an integer; otherwise ``error`` naming
    the first entry that is not, or that holds one that is not, by
    ``what`` and position.  An array is judged by its dtype, so an integer
    array costs no pass over its entries."""
    if not isinstance(entries, np.ndarray):
        entries = list(entries)  # one pass, so an iterator is read once
    try:
        check_ints(entries if isinstance(entries, np.ndarray) else itertools.chain.from_iterable(
            e if np.iterable(e) else (e,) for e in entries))
    except TypeError:
        for k, entry in enumerate(entries):
            try:
                check_ints(entry if np.iterable(entry) else [entry])
            except TypeError as exc:
                shown = entry.tolist() if isinstance(entry, (np.ndarray, np.generic)) else entry
                shown = tuple(shown) if isinstance(shown, list) else shown
                raise error(f"{what} {k} is {shown!r}: {exc}") from exc
    return np.array(entries, dtype=np.int64)


def _clean_labels(labels, d: int, structure: _Structure) -> dict[str, frozenset]:
    """Canonical labels: per region, the set of its facets as tuples of
    ascending Python ints, with the region's table (``region_facets``) kept
    in the structure cache under that set.

    Each label value must be a collection of entries, read once, and every
    entry must hold integers (``check_ints``) and be a boundary facet.  The
    entries of all regions are checked by tag in X, Y, A, B order and then
    in input order, first for integers and then as one table, so the first
    that fails is the one named.
    """
    labels = dict(labels)
    for tag in labels:
        if tag not in REGION_TAGS:
            raise MeshError(f"unknown region tag {tag!r}")
    groups = []
    for tag in REGION_TAGS:
        group = labels.get(tag, ())
        try:
            listed = list(group)  # one pass, so an iterator is read once
        except TypeError as exc:
            raise MeshError(f"label {tag}: {group!r} is not a collection of "
                            f"(d-1)-simplices ({exc})") from exc
        try:
            check_ints(group if isinstance(group, np.ndarray)
                       else itertools.chain.from_iterable(listed))
        except TypeError:
            for entry in listed:
                try:
                    check_ints(entry)
                except TypeError as exc:
                    shown = tuple(entry.tolist()) if isinstance(entry, np.ndarray) else entry
                    raise MeshError(f"label {tag}: {shown!r} is not a (d-1)-simplex "
                                    f"({exc})") from exc
        groups.append(listed)
    ends = np.cumsum([len(g) for g in groups])
    entries = list(itertools.chain.from_iterable(groups))
    # the entries before the first one of another size form an (n, d) table
    sized = np.fromiter(map(len, entries), np.int64, len(entries)) == d
    n = len(entries) if sized.all() else int(np.argmin(sized))
    rows = np.sort(np.array(entries[:n], dtype=np.int64).reshape(n, d), axis=1)
    found = structure.facet_rows(rows)
    bad = (found < 0) | ~structure.boundary[found]
    if n < len(entries) or bad.any():
        i = int(np.argmax(bad)) if bad.any() else n
        tag = REGION_TAGS[np.searchsorted(ends, i, side="right")]
        ft = tuple(sorted(map(int, entries[i])))
        what = ("a (d-1)-simplex" if i == n or len(set(ft)) < d
                else "a facet of the complex" if found[i] < 0 else "a boundary facet")
        raise MeshError(f"label {tag}: {ft} is not {what}")
    clean: dict[str, frozenset] = {}
    for tag, part in zip(REGION_TAGS, np.split(found, ends[:-1])):
        table = structure.facets[np.unique(part)]
        table.flags.writeable = False
        clean[tag] = frozenset(map(tuple, table.tolist()))
        structure.cache.setdefault(("facets", clean[tag]), table)
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

    # every labeled facet is a boundary facet (``_clean_labels``)
    labels = cx.labels
    bad += [("unlabeled-boundary-facet", str(f))
            for f in cx.boundary_facets.difference(*labels.values())]
    multiple = frozenset().union(*(labels[a] & labels[b]
                                   for a, b in itertools.combinations(REGION_TAGS, 2)))
    bad += [("multiply-labeled-facet",
             f"{f} in {sorted(tag for tag in REGION_TAGS if f in labels[tag])}")
            for f in multiple]

    for tag in REGION_TAGS:
        if not labels[tag]:
            bad.append(("empty-region", tag))

    if labels["X"] & labels["Y"]:
        bad.append(("X-Y-shared-facet", str(sorted(labels["X"] & labels["Y"]))))
    if labels["A"] & labels["B"]:
        bad.append(("A-B-shared-facet", str(sorted(labels["A"] & labels["B"]))))
    shared_corner = cx.corner_faces("A", "B")
    if shared_corner:
        bad.append(("A-B-shared-corner-face", str(sorted(shared_corner))))

    if labels["A"] and labels["X"] and not cx.corner_faces("A", "X"):
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
        faces = cx.region_facets(tag)
    elif len(tag) == 2 and tag[0] in REGION_TAGS and tag[1] in REGION_TAGS:
        faces = cx.corner_table(tag[0], tag[1])
    else:
        raise RegionError(f"unknown region tag {tag!r}")
    return np.unique(faces)

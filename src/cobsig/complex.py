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
``_Structure`` owns it: the facet table and its boundary mask, the
structural half of ``validate`` (non-manifold facets and inconsistent
orientation), the canonical edge table that ``edges()`` returns, and
``simplex_edge_rows``, the edge-table row of every edge of every top
simplex.  ``build_complex`` builds it once, with array operations, from one
sort of each simplex's vertices and one integer code per table row, and
every relabeling made with ``with_labels`` shares it; ``with_labels``
checks only the new labels, in a few whole-array passes, and ``validate``
adds only the label checks, on facet rows.  A region has one form, its
read-only lexsorted facet table (``region_facets``), interned on the
structure by the table's bytes: every relabeling with the same facets gets
the same table, and every cache of a region is keyed by the region's facet
table, as its bytes.  ``labels``, the frozensets of facet tuples, is a view
derived from the tables on first access.  Other modules index these tables
and derive no topology of their own; ``edge_rows`` is the one lookup from
vertex pairs to edge rows, ``facet_rows`` the one from vertex tuples to
facet rows, and ``edge_slots`` the one order of a simplex's edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, repeat
from numbers import Integral
from operator import length_hint

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
        A view of the region tables (``region_facets``), built on first
        access.
    facets : (nf, d) int array, read-only
        Every distinct facet once, vertices ascending, rows lexsorted.
    boundary : (nf,) bool array, read-only
        Which rows of ``facets`` have one simplex.
    simplex_edge_rows : (nt, d(d+1)/2) int array, read-only
        Row in ``edges()`` of each simplex's edges, in slot order
        (``edge_slots``).
    """

    def __init__(self, vertices, simplices, signs, regions, structure):
        self.vertices = vertices
        self.simplices = simplices
        self.signs = signs
        self._regions = regions
        self._structure = structure
        self.facets = structure.facets
        self.boundary = structure.boundary
        self.simplex_edge_rows = structure.simplex_edge_rows

    # -- basic queries ----------------------------------------------------

    @cached_property
    def labels(self) -> dict[str, frozenset]:
        return {tag: frozenset(_tuples(table)) for tag, table in self._regions.items()}

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
        vertices ascending, rows lexsorted.  It is interned on the
        structure by its bytes (``_clean_labels``), so every relabeling
        with these facets shares it."""
        if tag not in REGION_TAGS:
            raise RegionError(f"unknown region tag {tag!r}")
        return self._regions[tag]

    def corner_table(self, tag_a: str, tag_b: str) -> np.ndarray:
        """(d-2)-faces shared between facets of two regions, as a lexsorted
        (m, d-1) int64 table: vertices when d = 2, edges when d = 3."""
        faces = [self.region_facets(tag) for tag in (tag_a, tag_b)]
        if self.dim == 2:
            return np.intersect1d(*faces)[:, None]
        rows = [edge_rows(self.edges(), f[:, edge_slots(2)]) for f in faces]
        return self.edges()[np.intersect1d(*rows)]

    def cached(self, key, compute):
        """Memoize a value fixed by the structure (and any region table's
        bytes in the key); every relabeling and every signal on this complex
        shares it."""
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
            and all(np.array_equal(self.region_facets(tag), other.region_facets(tag))
                    for tag in REGION_TAGS)
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
    vertices : (nv, n) array-like of finite float coordinates
    simplices : (nt, d+1) array-like of integer vertex indices, d in {2, 3}
    labels : mapping from region tag (X/Y/A/B) to iterable of facet index
        tuples; every labeled facet must be a boundary facet
    signs : optional (nt,) iterable of integer orientation signs +-1
        (default +1)

    The cobordism invariants (region coverage, disjointness, corners,
    orientation consistency) are *not* enforced here; run ``validate``.
    """
    try:
        # the cast would drop an imaginary part and read a bool as 0 or 1
        if isinstance(vertices, np.ndarray) and vertices.dtype.kind in "bc":
            raise TypeError(f"their dtype is {vertices.dtype}")
        verts = np.array(vertices, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MeshError(f"vertices are not one table of floats: {exc}") from exc
    if verts.ndim != 2:
        raise MeshError("vertices must be a 2d array of coordinates")
    bad = np.flatnonzero(~np.isfinite(verts).all(axis=1))
    if len(bad):
        raise MeshError(f"vertex {bad[0]} has a non-finite coordinate: "
                        f"{tuple(verts[bad[0]].tolist())}")
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

    sgn = int_table(np.ones(len(simp), np.int64) if signs is None else signs, MeshError, "sign")
    if sgn.shape != (len(simp),) or not np.all(np.abs(sgn) == 1):
        raise MeshError("signs must be +-1, one per top simplex")

    structure = _Structure(simp, ordered, sgn, nv)
    regions = _clean_labels(labels, d, structure)
    for table in (verts, simp, sgn):
        table.flags.writeable = False
    return CobordismComplex(verts, simp, sgn, regions, structure)


class _Structure:
    """The topology of a complex, fixed by its simplices and signs alone.

    ``facets`` is the lexsorted table of distinct facets, ``boundary`` marks
    its rows with one incident simplex, and ``violations`` holds the
    label-independent findings of ``validate``.  ``edges`` is the lexsorted
    table of distinct edges, and ``simplex_edge_rows`` holds, per top
    simplex, the row of each of its edges in slot order.  ``cache`` holds
    each region's facet table under the table's bytes, and what
    ``CobordismComplex.cached`` derives from the structure, such as
    refined-graph patterns, keyed by those bytes where a region fixes it.

    ``ordered`` holds each simplex's vertices sorted, the one sort that
    ``build_complex`` makes.  The face of simplex t without its o-th
    smallest vertex is ``ordered[t]`` less position o, ascending as cut,
    and t induces on it its sign times (-1)**o times the parity of t's
    vertex order.  Edge and facet rows are grouped by one stable sort of
    one int64 code each (``_row_codes``): an edge (lo, hi) is coded
    lo * nv + hi, below nv**2, and a triangle facet the edge row of its
    leading pair times nv plus its last vertex, below (number of edges) *
    nv, so neither overflows for a mesh that fits in memory.  Both codes
    ascend with lexsorted rows, and ``facet_rows`` searches the very facet
    codes that the grouping made.
    """

    def __init__(self, simp: np.ndarray, ordered: np.ndarray, sgn: np.ndarray, nv: int):
        nt, k = simp.shape
        d = k - 1
        slots = edge_slots(d)
        self._nv = nv
        self.edges, self._edge_codes, rows, _ = _group_rows(
            np.sort(simp[:, slots], axis=2).reshape(-1, 2), nv)
        # row t * k + o is simplex t without its o-th smallest vertex
        omit = np.array([[j for j in range(k) if j != o] for o in range(k)])
        inversions = sum(simp[:, i] > simp[:, j] for i, j in slots)
        orient = (np.repeat(sgn * (1 - 2 * (inversions % 2)), k)
                  * np.tile((-1) ** np.arange(k), nt))
        facets, self._codes, group, order = _group_rows(
            ordered[:, omit].reshape(-1, d), nv, self._edge_codes)
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

        self.simplex_edge_rows = rows.reshape(nt, len(slots))
        self.facets = facets
        self.boundary = count == 1
        self.violations = tuple(bad)
        self.cache: dict = {}
        for table in (self.edges, self.simplex_edge_rows, self.facets, self.boundary):
            table.flags.writeable = False

    def facet_rows(self, rows: np.ndarray) -> np.ndarray:
        """Row in ``facets`` of each row of ascending vertex ids, or -1; a
        code only guides the search, equal rows decide."""
        codes = _row_codes(rows, self._nv, self._edge_codes)
        at = np.searchsorted(self._codes, codes).clip(max=len(self.facets) - 1)
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


def _row_codes(rows: np.ndarray, nv: int, edge_codes=None) -> np.ndarray:
    """The code of each row of an (n, 2) or (n, 3) int array of ascending
    vertex ids below ``nv``: lo * nv + hi for a pair, and for a triple the
    row of its leading pair among the ascending pair codes ``edge_codes``,
    times nv, plus its last vertex.  Codes ascend with lexsorted rows; pair
    codes stay below nv**2, and triple codes below len(edge_codes) * nv."""
    lead = rows[:, 0] if rows.shape[1] == 2 else np.searchsorted(
        edge_codes, _row_codes(rows[:, :2], nv))
    return lead * nv + rows[:, -1]


def _group_rows(rows: np.ndarray, nv: int, edge_codes=None):
    """Distinct rows of an (n, 2) or (n, 3) int array by one stable sort of
    their codes (``_row_codes``).

    Returns the distinct rows in lexicographic order, their codes, the
    group of each input row, and the sort order, in which equal rows keep
    their input order.
    """
    codes = _row_codes(rows, nv, edge_codes)
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = codes[1:] != codes[:-1]
    group = np.empty(len(rows), dtype=np.int64)
    group[order] = np.cumsum(new) - 1
    # gather only the distinct rows: a sorted copy of every row would raise
    # the memory peak of loading a mesh
    return rows[order[new]], codes[new], group, order


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
    """Raise TypeError unless every item of the sequence ``values`` is an
    integer, and OverflowError if one lies past int64.  A float or a bool
    is none: np.int64 would truncate the one and read the other as 0 or 1,
    so an index table would be built silently wrong, and numpy would wrap
    an unsigned integer past int64 to a negative one."""
    bad = sorted({type(v).__name__ for v in values
                  if not isinstance(v, Integral) or isinstance(v, bool)})
    if bad:
        raise TypeError("expected integers, got " + ", ".join(bad))
    np.array(values, dtype=np.int64)  # an OverflowError past int64, unsigned or not


def as_int(value, error, what: str) -> int:
    """``value`` as a Python int once ``check_ints`` finds it an integer
    within int64; otherwise ``error`` naming it as ``what``."""
    try:
        check_ints([value])
    except (TypeError, OverflowError) as exc:
        raise error(f"{what} is {value!r}: {exc}") from exc
    return int(value)


def _listed(entries, error, what: str) -> list:
    """``entries`` as a list, read in one pass so an iterator is read once;
    ``error`` naming the ``what`` table if it is no collection."""
    try:
        return list(entries)
    except TypeError as exc:
        raise error(f"the {what} table {entries!r} is not a collection ({exc})") from exc


def _shown(entry):
    """``entry`` as a message shows it: numpy values as Python ones, and a
    row, at any depth, as a tuple."""
    shown = entry.tolist() if isinstance(entry, (np.ndarray, np.generic)) else entry
    return tuple(map(_shown, shown)) if isinstance(shown, (list, tuple)) else shown


def int_table(entries, error, what: str) -> np.ndarray:
    """``entries``, a collection of integers or of rows of integers, as an
    int64 array.  This is the one reader of index input from outside the
    package.  It raises ``error`` naming the table if it is no collection,
    else the first entry, by ``what`` and position, that is no integer or
    holds one that is not (``check_ints``: a float, a bool, one past int64),
    or whose length differs from the first's.

    The common case costs one type scan and one conversion: an integer
    array is judged by its dtype, and a list by the types of its entries,
    or of its rows' entries when its first entry is a row, where int64
    holds every value of the type.  Any other input, a uint64 array or
    value included, is judged entry by entry."""
    if not isinstance(entries, np.ndarray) or not entries.ndim:
        entries = _listed(entries, error, what)
    try:
        kinds = {entries.dtype.type} if isinstance(entries, np.ndarray) else set(map(type, (
            chain.from_iterable(entries) if entries and np.iterable(entries[0]) else entries)))
        # numpy would wrap a uint64 value past int64 to a negative one
        if all(np.can_cast(k, np.int64) and not issubclass(k, (bool, np.bool_)) for k in kinds):
            return np.array(entries, dtype=np.int64)
    # a scalar among rows is a TypeError to the scan, a ragged table a
    # ValueError to numpy and an entry past int64 an OverflowError
    except (TypeError, ValueError, OverflowError):
        pass
    for k, entry in enumerate(entries):
        try:
            check_ints(list(entry) if np.iterable(entry) else [entry])
            if np.shape(entry) != np.shape(entries[0]):
                raise TypeError(f"its length differs from {what} 0's")
            np.array(entry, dtype=np.int64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise error(f"{what} {k} is {_shown(entry)!r}: {exc}") from exc
    return np.array(entries, dtype=np.int64)


def pair_table(entries, error, what: str) -> np.ndarray:
    """``entries`` as an (n, 2) int64 table of vertex pairs by ``int_table``;
    a table of another shape is ``error``, so no row is read across two."""
    table = int_table(entries, error, what)
    if len(table) and table.shape[1:] != (2,):
        raise error(f"{what}s must be vertex pairs, got a table of shape {table.shape}")
    return table.reshape(-1, 2)


def _clean_labels(labels, d: int, structure: _Structure) -> dict[str, np.ndarray]:
    """Canonical labels: per region, its read-only lexsorted int64 facet
    table (``region_facets``), interned in the structure cache by the
    table's bytes, so equal facets give the same table object.

    Each label value is a collection of entries, read once.  Tag by tag in
    X, Y, A, B order, the entries before the first that is no row of d
    values are read by ``int_table``, which names one that is not integers;
    then the first of them in input order that is no boundary facet, which
    a row that repeats a vertex is not, or else the first entry of another
    width, is named.  A tag other than these four is named after them.
    """
    try:
        labels = dict(labels)
    except (TypeError, ValueError) as exc:
        raise MeshError("labels must be a mapping from region tag to facets, not "
                        f"{type(labels).__name__} ({exc})") from exc
    clean: dict[str, np.ndarray] = {}
    for tag in REGION_TAGS:
        what = f"label {tag} entry"
        group = labels.pop(tag, ())
        if not isinstance(group, np.ndarray) or not group.ndim:
            group = _listed(group, MeshError, what)
        # the length of an entry that has none counts as -1; each row of an
        # array of two or more dimensions has the array's row length
        widths = (np.full(len(group), group.shape[1])
                  if isinstance(group, np.ndarray) and group.ndim > 1
                  else np.fromiter(map(length_hint, group, repeat(-1)), np.int64, len(group)))
        n = int(np.argmin(np.append(widths == d, False)))
        rows = np.sort(int_table(group[:n], MeshError, what).reshape(-1, d), axis=1)
        found = structure.facet_rows(rows)
        bad = np.append((found < 0) | ~structure.boundary[found], n < len(group))
        if bad.any():
            i = int(np.argmax(bad))
            ft = _shown(rows[i] if i < n else group[n])
            ft = tuple(sorted(ft)) if isinstance(ft, tuple) and {*map(type, ft)} <= {int} else ft
            fault = ("a (d-1)-simplex" if i == n or len(set(ft)) < d
                     else "a facet of the complex" if found[i] < 0 else "a boundary facet")
            raise MeshError(f"label {tag}: {ft!r} is not {fault}")
        table = structure.facets[np.unique(found)]
        table.flags.writeable = False
        clean[tag] = structure.cache.setdefault(table.tobytes(), table)
    if labels:
        raise MeshError(f"unknown region tag {next(iter(labels))!r}")
    return clean


def validate(cx: CobordismComplex) -> ValidationReport:
    """Check every cobordism invariant; violations are data, not errors.

    The report depends only on the structure and the region tables, so it
    is computed once per labeling and kept in the structure cache.
    """
    key = ("validate",) + tuple(cx.region_facets(tag).tobytes() for tag in REGION_TAGS)
    return cx.cached(key, lambda: _validate(cx))


def _tuples(table: np.ndarray) -> list:
    """The rows of an int table as tuples of Python ints, in table order."""
    return list(map(tuple, table.tolist()))


def _validate(cx: CobordismComplex) -> ValidationReport:
    bad: list[tuple[str, str]] = list(cx._structure.violations)

    # every labeled facet is a boundary facet (``_clean_labels``); the rows
    # of a lexsorted region table are distinct and ascend, as do its tuples
    rows = {tag: cx.facet_rows(cx.region_facets(tag)) for tag in REGION_TAGS}
    count = np.bincount(np.concatenate(list(rows.values())), minlength=len(cx.facets))
    bad += [("unlabeled-boundary-facet", str(f))
            for f in _tuples(cx.facets[cx.boundary & (count == 0)])]
    multiple = np.flatnonzero(count > 1)
    held = {tag: np.isin(multiple, rows[tag], assume_unique=True) for tag in sorted(REGION_TAGS)}
    bad += [("multiply-labeled-facet", f"{f} in {[tag for tag in held if held[tag][i]]}")
            for i, f in enumerate(_tuples(cx.facets[multiple]))]
    bad += [("empty-region", tag) for tag in REGION_TAGS if not len(rows[tag])]

    # what two regions may not share, each as a lexsorted table; a facet in
    # two regions is among the multiply-labeled ones
    shared = {f"{a}-{b}-shared-facet": cx.facets[multiple[held[a] & held[b]]]
              for a, b in ("XY", "AB")}
    shared["A-B-shared-corner-face"] = cx.corner_table("A", "B")
    bad += [(name, str(_tuples(table))) for name, table in shared.items() if len(table)]

    if len(rows["A"]) and len(rows["X"]) and not len(cx.corner_table("A", "X")):
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

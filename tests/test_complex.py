"""Complex construction, validation, regions, and serialization."""

import itertools

import numpy as np
import pytest

import cobsig as cs
from cobsig.complex import _group_rows, _row_codes, build_complex, region_vertices, validate
from cobsig.errors import (CobsigError, CompositionError, FilterError, MeshError, MetricError, NoiseError,
                           RegionError)
from cobsig.fileio import complex_from_dict
from cobsig.metric import MetricField
from cobsig.signalops import NoiseSpec, extract_filter

STRUCTURAL = ("nonmanifold-facet", "inconsistent-orientation")

UNIT_SQUARE_VERTS = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
UNIT_SQUARE_TRIS = [(0, 1, 2), (0, 2, 3)]
UNIT_SQUARE_LABELS = {
    "X": [(0, 1)],
    "Y": [(2, 3)],
    "A": [(0, 3)],
    "B": [(1, 2)],
}


def unit_square():
    return build_complex(UNIT_SQUARE_VERTS, UNIT_SQUARE_TRIS, UNIT_SQUARE_LABELS)


def test_unit_square_builds_and_validates():
    cx = unit_square()
    assert cx.dim == 2
    assert cx.ambient_dim == 2
    report = validate(cx)
    assert report.ok
    assert report.violations == ()


def test_boundary_facet_count_structured_grid(square16):
    # 4 sides, n facets per side
    cx = square16.complex
    assert len(cx.facets[cx.boundary]) == 4 * 16
    for tag in "XYAB":
        assert len(cx.labels[tag]) == 16


def test_grid_4x4_facets_per_region():
    sig = cs.gen_square(4)
    cx = sig.complex
    assert cx.n_simplices == 32
    assert len(cx.facets[cx.boundary]) == 16
    for tag in "XYAB":
        assert len(cx.labels[tag]) == 4


def test_single_triangle_all_edges_A_rejected():
    cx = build_complex(
        [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
        [(0, 1, 2)],
        {"A": [(0, 1), (1, 2), (0, 2)]},
    )
    report = validate(cx)
    assert not report.ok
    names = {v[0] for v in report.violations}
    assert "empty-region" in names


def test_overlapping_A_B_label_reported():
    labels = dict(UNIT_SQUARE_LABELS)
    labels["B"] = [(1, 2), (0, 3)]  # B also claims the left edge
    cx = build_complex(UNIT_SQUARE_VERTS, UNIT_SQUARE_TRIS, labels)
    report = validate(cx)
    assert not report.ok
    names = {v[0] for v in report.violations}
    assert "A-B-shared-facet" in names
    assert "multiply-labeled-facet" in names


def test_unlabeled_boundary_facet_reported():
    labels = {k: v for k, v in UNIT_SQUARE_LABELS.items()}
    labels["B"] = []
    cx = build_complex(UNIT_SQUARE_VERTS, UNIT_SQUARE_TRIS, labels)
    report = validate(cx)
    names = {v[0] for v in report.violations}
    assert "unlabeled-boundary-facet" in names
    assert "empty-region" in names


def test_build_rejects_bad_indices():
    with pytest.raises(MeshError):
        build_complex(UNIT_SQUARE_VERTS, [(0, 1, 7)], UNIT_SQUARE_LABELS)


def test_build_rejects_repeated_vertex():
    with pytest.raises(MeshError):
        build_complex(UNIT_SQUARE_VERTS, [(0, 1, 1), (0, 2, 3)], {})
    # the first bad simplex is named, in plain ints
    with pytest.raises(MeshError) as err:
        build_complex(UNIT_SQUARE_VERTS, [(0, 1, 2), (3, 0, 3), (1, 1, 2)], {})
    assert str(err.value) == "simplex 1 repeats a vertex: (3, 0, 3)"


def test_build_rejects_interior_facet_label():
    labels = dict(UNIT_SQUARE_LABELS)
    labels["A"] = [(0, 2)]  # the shared diagonal is interior
    with pytest.raises(MeshError):
        build_complex(UNIT_SQUARE_VERTS, UNIT_SQUARE_TRIS, labels)
    with pytest.raises(MeshError):
        unit_square().with_labels(labels)


LABEL_ERRORS = [
    # (0, 2) is the interior diagonal and (0, 5) no facet at all
    ({"A": [(0, 3), (2, 0)]}, "label A: (0, 2) is not a boundary facet"),
    ({"A": [(3, 0), (0, 5)]}, "label A: (0, 5) is not a facet of the complex"),
    ({"A": [(0, 3), (3, 3)]}, "label A: (3, 3) is not a (d-1)-simplex"),
    ({"A": [(0, 3), (2, 1, 0)]}, "label A: (0, 1, 2) is not a (d-1)-simplex"),
    # the first offending facet in input order, tags in X, Y, A, B order
    ({"A": [(0, 3), (0, 2), (1,)]}, "label A: (0, 2) is not a boundary facet"),
    ({"A": [(0, 3), (1,), (0, 2)]}, "label A: (1,) is not a (d-1)-simplex"),
    ({"A": [(0, 2)], "X": [(0, 1), (5, 0)]},
     "label X: (0, 5) is not a facet of the complex"),
]


@pytest.mark.parametrize("labels, message", LABEL_ERRORS)
def test_label_errors_name_the_first_offending_facet(labels, message):
    with pytest.raises(MeshError) as err:
        build_complex(UNIT_SQUARE_VERTS, UNIT_SQUARE_TRIS, labels)
    assert str(err.value) == message
    with pytest.raises(MeshError) as err:
        unit_square().with_labels(labels)
    assert str(err.value) == message


# on gen_annular_shell(1, 2, 2, 8), (0, 3, 9) is a facet of A, (0, 1, 4) an
# interior facet and (0, 1, 40) no facet at all
SHELL_LABEL_ERRORS = [
    ({"A": [(9, 3, 0), (4, 1, 0)]}, "label A: (0, 1, 4) is not a boundary facet"),
    ({"A": [(0, 3, 9), (40, 0, 1)]}, "label A: (0, 1, 40) is not a facet of the complex"),
    ({"A": [(0, 3, 9), (3, 0, 0)]}, "label A: (0, 0, 3) is not a (d-1)-simplex"),
    ({"A": [(0, 3, 9), (3, 0)]}, "label A: (0, 3) is not a (d-1)-simplex"),
    # four vertices, three of them distinct
    ({"A": [(0, 3, 9), (9, 3, 0, 0)]}, "label A: (0, 0, 3, 9) is not a (d-1)-simplex"),
]


@pytest.mark.parametrize("labels, message", SHELL_LABEL_ERRORS)
def test_label_errors_name_the_first_offending_facet_in_3d(labels, message):
    cx = cs.gen_annular_shell(1, 2, 2, 8).complex
    with pytest.raises(MeshError) as err:
        build_complex(cx.vertices, cx.simplices, labels, cx.signs)
    assert str(err.value) == message
    with pytest.raises(MeshError) as err:
        cx.with_labels(labels)
    assert str(err.value) == message


def test_label_entries_must_be_integers():
    # a float would be truncated and a bool read as 0 or 1, as the file
    # loader already refuses; integer arrays of any width, as compose and
    # extract_filter pass, are accepted
    with pytest.raises(MeshError) as err:
        build_complex([(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 1, 2), (0, 2, 3)],
                      {"X": [(0.5, 1.9)], "A": [(True, 2)]})
    assert str(err.value) == "label X entry 0 is (0.5, 1.9): expected integers, got float"
    for labels, message in (
            ({"X": [(0, 1)], "A": [(0, 3), (True, 2)]},
             "label A entry 1 is (True, 2): expected integers, got bool"),
            ({"B": np.array([(1.0, 2.0)])},
             "label B entry 0 is (1.0, 2.0): expected integers, got float64"),
            ({"B": np.array([(True, False)])},
             "label B entry 0 is (True, False): expected integers, got bool"),
            # one facet where a list of facets belongs
            ({"A": (0, 3)}, "label A: 0 is not a (d-1)-simplex"),
            # one vertex where a list of facets belongs
            ({"X": 5}, "the label X entry table 5 is not a collection "
                       "('int' object is not iterable)"),
            # numpy would raise a bare OverflowError past int64
            ({"X": [(0, 1)], "Y": [(2, 3), (0, 2**70)]},
             "label Y entry 1 is (0, 1180591620717411303424): "
             "Python int too large to convert to C long"),
            # a row of an array is an array, and numpy would raise a bare
            # TypeError on an object array of lists
            ({"A": np.array([[0, 3], [1, 2, 3]], dtype=object)},
             "label A entry 0 is (0, 3): expected integers, got list")):
        for make in (lambda: build_complex(UNIT_SQUARE_VERTS, UNIT_SQUARE_TRIS, labels),
                     lambda: unit_square().with_labels(labels)):
            with pytest.raises(MeshError) as err:
                make()
            assert str(err.value) == message
    tables = {"X": np.array([(0, 1)], dtype=np.int32), "Y": [np.array([3, 2])],
              "A": np.array([(0, 3)], dtype=np.uint8), "B": [(np.int64(1), 2)]}
    assert build_complex(UNIT_SQUARE_VERTS, UNIT_SQUARE_TRIS, tables).labels == \
        unit_square().labels


def test_labels_must_be_a_mapping():
    # Python's dict() would raise a bare TypeError or ValueError; whatever
    # it reads, a mapping or a sequence of (tag, facets) pairs, is accepted
    for labels, fault in ((3, "int ('int' object is not iterable)"),
                          (None, "NoneType ('NoneType' object is not iterable)"),
                          ([1, 2], "list (cannot convert dictionary update sequence "
                                   "element #0 to a sequence)"),
                          (["XA", "Y"], "list (dictionary update sequence element #1 "
                                        "has length 1; 2 is required)")):
        for make in (lambda: build_complex(UNIT_SQUARE_VERTS, UNIT_SQUARE_TRIS, labels),
                     lambda: unit_square().with_labels(labels)):
            with pytest.raises(MeshError) as err:
                make()
            assert str(err.value) == ("labels must be a mapping from region tag to "
                                      f"facets, not {fault}")
    pairs = list(UNIT_SQUARE_LABELS.items())
    assert build_complex(UNIT_SQUARE_VERTS, UNIT_SQUARE_TRIS, pairs).labels == \
        unit_square().labels
    assert unit_square().with_labels(iter(pairs)).labels == unit_square().labels
    # a mesh file's labels stay malformed mesh data
    data = dict(unit_square().to_dict(), labels=[1, 2])
    with pytest.raises(CobsigError, match="^malformed mesh data: cannot convert"):
        complex_from_dict(data)


def _object_rows(rows):
    """``rows`` as a 1-D numpy object array whose entries are lists."""
    table = np.empty(len(rows), dtype=object)
    for k, row in enumerate(rows):
        table[k] = list(row)
    return table


def test_index_tables_must_be_integers():
    # a float simplex entry or sign would be truncated and a bool read as
    # 0 or 1; the first offending or ragged entry is named, and integer
    # arrays of any width are accepted by their dtype
    for simplices, signs, message in (
            ([(0.7, 1, 2), (0, 2, 3)], None,
             "simplex 0 is (0.7, 1, 2): expected integers, got float"),
            ([(0, 1, 2), (0, True, 3)], None,
             "simplex 1 is (0, True, 3): expected integers, got bool"),
            (np.array(UNIT_SQUARE_TRIS, dtype=float), None,
             "simplex 0 is (0.0, 1.0, 2.0): expected integers, got float64"),
            (UNIT_SQUARE_TRIS, [1.5, -1.9], "sign 0 is 1.5: expected integers, got float"),
            (UNIT_SQUARE_TRIS, [1, True], "sign 1 is True: expected integers, got bool"),
            (UNIT_SQUARE_TRIS, np.array([1.0, 1.0]),
             "sign 0 is 1.0: expected integers, got float64"),
            # numpy would refuse a ragged table with a bare ValueError
            ([(0, 1, 2), (0, 2)], None, "simplex 1 is (0, 2): its length differs from simplex 0's"),
            ([(0, 1, 2), 3], None, "simplex 1 is 3: its length differs from simplex 0's"),
            (UNIT_SQUARE_TRIS, [1, (1, 1)], "sign 1 is (1, 1): its length differs from sign 0's"),
            # numpy would raise a bare OverflowError past int64, and Python a
            # bare TypeError on a table that is no collection
            ([(0, 1, 2), (0, 2, 2**70)], None, "simplex 1 is (0, 2, 1180591620717411303424): "
                                                "Python int too large to convert to C long"),
            (UNIT_SQUARE_TRIS, [1, -2**70], "sign 1 is -1180591620717411303424: "
                                            "Python int too large to convert to C long"),
            (5, None, "the simplex table 5 is not a collection ('int' object is not iterable)"),
            (UNIT_SQUARE_TRIS, 5, "the sign table 5 is not a collection "
                                  "('int' object is not iterable)"),
            # a row of an array is an array, not a list in an object array
            (_object_rows(UNIT_SQUARE_TRIS), None,
             "simplex 0 is (0, 1, 2): expected integers, got list")):
        with pytest.raises(MeshError) as err:
            build_complex(UNIT_SQUARE_VERTS, simplices, UNIT_SQUARE_LABELS, signs)
        assert str(err.value) == message
    cx = build_complex(UNIT_SQUARE_VERTS, np.array(UNIT_SQUARE_TRIS, dtype=np.int32),
                       UNIT_SQUARE_LABELS, [np.int64(1), 1])
    assert cx == unit_square()


BIG = 2**64 - 1  # past int64, so an unsigned cast to int64 would wrap it to -1


def _uint64_array(values):
    return np.array(values, dtype=np.uint64)


def _uint64_scalars(values):
    """``values``, nested lists of ints, with each int as a numpy uint64."""
    return [_uint64_scalars(v) for v in values] if isinstance(values, list) else np.uint64(values)


def _facets(sig, tag):
    return sig.complex.region_facets(tag).tolist()


#: Every entry point that reads an index table: how it is called on square8
#: with a table, the table's values in range and with one entry past int64,
#: its error, and the message that names that entry.
UNSIGNED_ENTRY_POINTS = {
    "build_complex-simplices": (
        lambda sig, t: build_complex(sig.complex.vertices, t, {}),
        lambda sig: sig.complex.simplices.tolist(), [[0, 1, 2], [0, 2, BIG]],
        MeshError, "simplex 1 is (0, 2, 18446744073709551615)"),
    "build_complex-signs": (
        lambda sig, t: build_complex(sig.complex.vertices, sig.complex.simplices, {}, t),
        lambda sig: [1] * sig.complex.n_simplices, [1, BIG] + [1] * 126,
        MeshError, "sign 1 is 18446744073709551615"),
    "build_complex-labels": (
        lambda sig, t: build_complex(sig.complex.vertices, sig.complex.simplices, {"A": t}),
        lambda sig: _facets(sig, "A"), [[0, 9], [BIG, 0]],
        MeshError, "label A entry 1 is (18446744073709551615, 0)"),
    "with_labels": (
        lambda sig, t: sig.complex.with_labels({"X": _facets(sig, "X"), "B": t}),
        lambda sig: _facets(sig, "B"), [[BIG, 0]],
        MeshError, "label B entry 0 is (18446744073709551615, 0)"),
    "MetricField": (
        lambda sig, t: MetricField(t, sig.metric.lengths, "deformed").edges.tolist(),
        lambda sig: sig.metric.edges.tolist(), [[0, BIG]],
        MetricError, "edge 0 is (0, 18446744073709551615)"),
    "Correspondence": (
        lambda sig, t: cs.Correspondence(t, 1e-9),
        lambda sig: [[0, 1], [2, 3]], [[0, 1], [0, BIG]],
        CompositionError, "pair 1 is (0, 18446744073709551615)"),
    "extract_filter": (
        lambda sig, t: extract_filter(sig, t).complex,
        lambda sig: list(range(sig.complex.n_simplices)), [0, BIG],
        FilterError, "kept simplex 1 is 18446744073709551615"),
    # a centre is one value: the 0-d array's item or the scalar itself
    "NoiseSpec-centre": (
        lambda sig, t: NoiseSpec(t[()], 0.1, 0.2, 0.5),
        lambda sig: 40, BIG, NoiseError, "noise centre is np.uint64(18446744073709551615)"),
}


@pytest.mark.parametrize("make", [_uint64_array, _uint64_scalars], ids=["array", "scalars"])
@pytest.mark.parametrize("entry_point", list(UNSIGNED_ENTRY_POINTS))
def test_unsigned_entries_past_int64_are_refused(square8, entry_point, make):
    # numpy casts an unsigned value past int64 to a negative one without a
    # word; every index reader refuses it with its module's error, naming
    # the entry, and reads an unsigned table in range as its int64 twin
    call, good, bad, error, named = UNSIGNED_ENTRY_POINTS[entry_point]
    with pytest.raises(error) as err:
        call(square8, make(bad))
    assert str(err.value) == named + ": Python int too large to convert to C long"
    values = good(square8)
    assert call(square8, make(values)) == call(square8, np.array(values, dtype=np.int64))


def test_build_rejects_misshapen_tables():
    for verts, tris, signs, message in (
            ([0.0, 1.0, 2.0], UNIT_SQUARE_TRIS, None,
             "the vertex table has shape (3,), not (any, any)"),
            (UNIT_SQUARE_VERTS, [], None,
             "simplices must be a nonempty 2d array of index tuples"),
            (UNIT_SQUARE_VERTS, [0, 1, 2], None,
             "simplices must be a nonempty 2d array of index tuples"),
            ([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)], [(0, 1, 2, 3)], None,
             "ambient dimension 2 below complex dimension 3"),
            (UNIT_SQUARE_VERTS, UNIT_SQUARE_TRIS, [1, 2],
             "signs must be +-1, one per top simplex"),
            (UNIT_SQUARE_VERTS, UNIT_SQUARE_TRIS, [1],
             "signs must be +-1, one per top simplex"),
            # a per-vertex table, such as a conformal factor, has one value
            # per vertex of an edge
            (UNIT_SQUARE_VERTS + [(5.0, 5.0)], UNIT_SQUARE_TRIS, None,
             "vertex 4 is in no simplex"),
            ([(5.0, 5.0)] + UNIT_SQUARE_VERTS,
             [(a + 1, b + 1, c + 1) for a, b, c in UNIT_SQUARE_TRIS], None,
             "vertex 0 is in no simplex")):
        with pytest.raises(MeshError) as err:
            build_complex(verts, tris, {}, signs)
        assert str(err.value) == message


@pytest.mark.parametrize("verts, message", [
    ("ab", "vertex 0 is 'a': expected real numbers, got str"),
    ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0, 2.0]],
     "vertex 2 is (0.0, 1.0, 2.0): its length differs from vertex 0's"),
    ([[0.0, 0.0], [1.0, 0.0], [0.0, float("nan")]],
     "vertex 2 is (0.0, nan): expected finite numbers"),
    ([[0.0, 0.0], [-float("inf"), 0.0], [0.0, 1.0]],
     "vertex 1 is (-inf, 0.0): expected finite numbers"),
    (np.array([[0, 0], [1, 0], [0, 1 + 2j]]),
     "vertex 0 is (0j, 0j): expected real numbers, got complex128"),
    (np.array([[False, False], [True, False], [False, True]]),
     "vertex 0 is (False, False): expected real numbers, got bool"),
], ids=["string", "ragged", "nan", "inf", "complex", "bool"])
def test_build_refuses_vertices_that_are_not_finite_floats(verts, message):
    # numpy's own ValueError, a NaN that built a complex, and the float
    # cast of a complex or bool array, which would drop the imaginary parts
    # or read the bools as 0 and 1, all become MeshError, naming the entry
    with pytest.raises(MeshError) as err:
        build_complex(verts, [(0, 1, 2)], {})
    assert str(err.value) == message


def test_label_iterators_are_read_once():
    # an iterator of facets is read once, not emptied by the integer check
    labels = build_complex(UNIT_SQUARE_VERTS, UNIT_SQUARE_TRIS,
                           {"X": (facet for facet in [(0, 1)])}).labels
    assert labels["X"] == frozenset({(0, 1)})


def test_facet_rows_match_a_linear_search(square8, shell16):
    # facets, near misses, vertices out of range and rows whose code
    # collides with a facet's: a code only guides the search
    rng = np.random.default_rng(0)
    for sig in (square8, shell16):
        cx = sig.complex
        nv, d = cx.n_vertices, cx.dim
        rows = np.vstack([cx.facets[::7],
                          rng.integers(-2, nv + 2, size=(300, d)),
                          cx.facets[::5] + np.eye(d, dtype=np.int64)[-1] * nv,
                          [[0] * (d - 1) + [2**62]]])
        rows.sort(axis=1)
        want = [next((i for i, f in enumerate(cx.facets.tolist()) if f == r), -1)
                for r in rows.tolist()]
        assert cx.facet_rows(rows).tolist() == want
        assert (np.array(want) >= 0).sum() >= len(cx.facets[::7])


def _clean_labels_by_loop(cx, labels):
    """Label cleaning by the per-facet loop that the array passes replaced;
    kept as the reference they must match: the cleaned sets, or the error."""
    facets = set(map(tuple, cx.facets.tolist()))
    boundary = set(map(tuple, cx.facets[cx.boundary].tolist()))
    clean = {}
    for tag in "XYAB":
        clean[tag] = set()
        for f in labels.get(tag, ()):
            ft = tuple(sorted(int(v) for v in f))
            if len(ft) != cx.dim or len(set(ft)) != cx.dim:
                return f"label {tag}: {ft} is not a (d-1)-simplex"
            if ft not in boundary:
                what = "boundary facet" if ft in facets else "facet of the complex"
                return f"label {tag}: {ft} is not a {what}"
            clean[tag].add(ft)
    return clean


def test_label_cleaning_matches_the_reference_loop(square8, shell16):
    rng = np.random.default_rng(1)
    for sig in (square8, shell16):
        cx = sig.complex
        boundary = list(map(tuple, cx.facets[cx.boundary].tolist()))
        interior = cx.facets[~cx.boundary].tolist()
        outcomes = set()
        for trial in range(60):
            labels = {}
            for tag in "XYAB":
                picks = [boundary[i] for i in rng.integers(0, len(boundary), 5)]
                if rng.random() < 0.3:  # shuffled vertices, repeated facets
                    picks = [tuple(rng.permutation(f)) for f in picks + picks[:2]]
                if rng.random() < 0.15:
                    picks.insert(rng.integers(0, 6), [
                        interior[rng.integers(len(interior))],
                        rng.integers(0, cx.n_vertices + 3, cx.dim).tolist(),
                        [0] * cx.dim, [1] * (cx.dim + 1), [2], [3, 3] + [4] * (cx.dim - 1),
                    ][rng.integers(6)])
                labels[tag] = picks
            want = _clean_labels_by_loop(cx, labels)
            if isinstance(want, str):
                with pytest.raises(MeshError) as err:
                    cx.with_labels(labels)
                got = str(err.value)
            else:
                got = {t: set(f) for t, f in cx.with_labels(labels).labels.items()}
            assert got == want
            outcomes.add(want.split(" is ")[1] if isinstance(want, str) else "ok")
        assert len(outcomes) >= 4


def test_corner_faces_match_the_combinations_loop(square8, shell16):
    import itertools
    for sig in (square8, shell16):
        cx = sig.complex
        k = cx.dim - 1
        for a, b in itertools.product("XYAB", repeat=2):
            faces = [{c for f in cx.labels[t] for c in itertools.combinations(f, k)}
                     for t in (a, b)]
            assert set(map(tuple, cx.corner_table(a, b).tolist())) == faces[0] & faces[1]


def test_region_facets_are_the_sorted_label_sets(square8, shell16):
    for sig in (square8, shell16):
        cx = sig.complex
        for tag in "XYAB":
            table = cx.region_facets(tag)
            assert table.dtype == np.int64 and not table.flags.writeable
            assert list(map(tuple, table.tolist())) == sorted(cx.labels[tag])
            # a relabeling with the same facets, in any order, gets the same table
            assert cx.with_labels({tag: table[::-1]}).region_facets(tag) is table
        assert cx.with_labels({}).region_facets("B").shape == (0, cx.dim)
    with pytest.raises(RegionError):
        square8.complex.region_facets("Q")


def test_build_rejects_unknown_tag():
    with pytest.raises(MeshError):
        build_complex(UNIT_SQUARE_VERTS, UNIT_SQUARE_TRIS, {"Q": [(0, 1)]})
    with pytest.raises(MeshError):
        unit_square().with_labels({"Q": [(0, 1)]})


def test_build_leaves_caller_signs_writeable():
    signs = np.ones(2, dtype=np.int64)
    cx = build_complex(UNIT_SQUARE_VERTS, UNIT_SQUARE_TRIS, UNIT_SQUARE_LABELS,
                       signs)
    assert signs.flags.writeable
    assert not cx.signs.flags.writeable
    signs[0] = -1
    assert cx.signs[0] == 1


def test_build_rejects_unsupported_dimension():
    with pytest.raises(MeshError):
        build_complex([(0.0,), (1.0,)], [(0, 1)], {})


def test_orientation_mismatch_reported():
    # flip one triangle: the shared diagonal is then induced twice with the
    # same orientation
    cx = build_complex(
        UNIT_SQUARE_VERTS,
        [(0, 1, 2), (0, 3, 2)],
        UNIT_SQUARE_LABELS,
    )
    # the structural finding is shared by relabelings, not lost
    relabeled = cx.with_labels({"X": [(2, 3)], "Y": [(0, 1)],
                                "A": [(1, 2)], "B": [(0, 3)]})
    for c in (cx, relabeled):
        names = {v[0] for v in validate(c).violations}
        assert "inconsistent-orientation" in names


def test_orientation_sign_flag_restores_consistency():
    cx = build_complex(
        UNIT_SQUARE_VERTS,
        [(0, 1, 2), (0, 3, 2)],
        UNIT_SQUARE_LABELS,
        signs=[1, -1],
    )
    assert validate(cx).ok


def test_region_vertices_square(square8):
    cx = square8.complex
    left = region_vertices(cx, "A")
    coords = cx.vertices[left]
    assert np.all(coords[:, 0] == 0.0)
    assert len(left) == 9


def test_region_vertices_corner(square8):
    cx = square8.complex
    corner = region_vertices(cx, "AX")
    assert len(corner) == 1
    assert np.allclose(cx.vertices[corner[0]], (0.0, 0.0))


def test_region_vertices_unknown_tag(square8):
    with pytest.raises(RegionError):
        region_vertices(square8.complex, "Q")


def test_corner_strata_nonempty_all_pairs(square8):
    cx = square8.complex
    for a, b in (("A", "X"), ("A", "Y"), ("B", "X"), ("B", "Y")):
        assert len(cx.corner_table(a, b))


def test_labeled_sets_partition_boundary(square16, shell16):
    for sig in (square16, shell16):
        cx = sig.complex
        union = set()
        total = 0
        for tag in "XYAB":
            union |= cx.labels[tag]
            total += len(cx.labels[tag])
        boundary = set(map(tuple, cx.facets[cx.boundary].tolist()))
        assert union == boundary
        assert total == len(boundary)


def test_corner_vertices_lie_on_both_regions(shell16):
    cx = shell16.complex
    ax = set(region_vertices(cx, "AX").tolist())
    a = set(region_vertices(cx, "A").tolist())
    x = set(region_vertices(cx, "X").tolist())
    assert ax and ax <= (a & x)


def test_serialization_round_trip(square8):
    cx = square8.complex
    data = cx.to_dict()
    back = build_complex(
        data["vertices"],
        [s["verts"] for s in data["simplices"]],
        data["labels"],
        [s["sign"] for s in data["simplices"]],
    )
    assert back == cx


def test_region_vertices_of_annular_inner_wall(shell16):
    cx = shell16.complex
    inner = region_vertices(cx, "X")
    radii = np.hypot(cx.vertices[inner, 0], cx.vertices[inner, 1])
    assert np.allclose(radii, 1.0, atol=1e-12)


def test_orientation_mismatch_reported_3d(shell16):
    cx = shell16.complex
    simp = cx.simplices.copy()
    simp[0] = simp[0][[0, 1, 3, 2]]  # flip one tetrahedron, keep its sign
    flipped = build_complex(cx.vertices, simp,
                            {t: sorted(cx.labels[t]) for t in "XYAB"},
                            cx.signs)
    names = {v[0] for v in validate(flipped).violations}
    assert "inconsistent-orientation" in names


def test_nonmanifold_facet_reported():
    # three triangles on the edge (0, 1)
    cx = build_complex([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (1.0, 1.0)],
                       [(0, 1, 2), (1, 0, 3), (0, 1, 4)], {})
    assert ("nonmanifold-facet", "(0, 1) borders 3 simplices") in validate(cx).violations
    assert [0, 1] not in cx.facets[cx.boundary].tolist()


def _reference_structure(simp, sgn):
    """Boundary facets and structural violations by the per-facet loop that
    the array build replaced; kept as the reference it must match."""
    def sorted_tuple(verts):
        return tuple(sorted(int(v) for v in verts))

    def perm_parity(a, b):
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

    incidence = {}
    for t, s in enumerate(simp):
        for omit in range(len(s)):
            incidence.setdefault(sorted_tuple(np.delete(s, omit)), []).append((t, omit))
    bad = []
    for f, inc in incidence.items():
        if len(inc) > 2:
            bad.append(("nonmanifold-facet", f"{f} borders {len(inc)} simplices"))
        elif len(inc) == 2:
            (t1, o1), (t2, o2) = inc
            m1 = int(sgn[t1]) * (-1) ** o1
            m2 = int(sgn[t2]) * (-1) ** o2
            f1 = tuple(np.delete(simp[t1], o1))
            f2 = tuple(np.delete(simp[t2], o2))
            if m1 * m2 * perm_parity(f1, f2) != -1:
                bad.append(("inconsistent-orientation",
                            f"facet {f} between simplices {t1},{t2}"))
    boundary = frozenset(f for f, inc in incidence.items() if len(inc) == 1)
    return boundary, sorted(bad)


def test_structure_matches_reference_loop(square16, shell16):
    cases = []
    for sig in (square16, shell16):
        cx = sig.complex
        k = cx.dim + 1
        for seed in range(4):
            signs = cx.signs.copy()
            rng = np.random.default_rng(seed)
            signs[rng.choice(cx.n_simplices, size=5 * seed, replace=False)] *= -1
            cases.append((cx.vertices, cx.simplices, cx.labels, signs))
            # each simplex's vertices shuffled, with and without the sign
            # flip that the shuffle's parity needs: orientation comes from
            # the parity of each simplex's sort
            perm = rng.permuted(np.tile(np.arange(k), (cx.n_simplices, 1)), axis=1)
            parity = np.prod([np.where(perm[:, i] > perm[:, j], -1, 1)
                              for i, j in itertools.combinations(range(k), 2)], axis=0)
            shuffled = np.take_along_axis(cx.simplices, perm, axis=1)
            cases.append((cx.vertices, shuffled, cx.labels, signs))
            cases.append((cx.vertices, shuffled, cx.labels, signs * parity))
    # square16 with a fin on an interior edge: a non-manifold facet, and
    # the fin's other edges join the boundary
    cx = square16.complex
    u, v = cx.edges()[len(cx.edges()) // 2]
    verts = np.vstack([cx.vertices, [(2.0, 2.0)]])
    simp = np.vstack([cx.simplices, [(u, v, cx.n_vertices)]])
    cases.append((verts, simp, {}, np.ones(len(simp), dtype=np.int64)))

    twisted = []
    for verts, simp, labels, signs in cases:
        built = build_complex(verts, simp, labels, signs)
        boundary, bad = _reference_structure(simp, signs)
        assert set(map(tuple, built.facets[built.boundary].tolist())) == boundary
        got = [v for v in validate(built).violations if v[0] in STRUCTURAL]
        assert got == bad
        twisted.append(bool(bad))
    assert any(name == "nonmanifold-facet" for name, _ in bad)
    # each mesh gives three cases per seed; seed 0 flips no sign, so its
    # shuffle is twisted unless the parity's flip undoes it
    assert twisted[0:3] == twisted[12:15] == [False, True, False]


def _lexsort_group_rows(rows):
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    group = np.empty(len(rows), dtype=np.int64)
    group[order] = np.cumsum(new) - 1
    return ordered[new], group, order


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("high", [6, 2**31])
def test_group_rows_matches_the_lexsort_reference(k, high):
    # repeated rows check that equal rows keep their input order; small
    # values make rows that share their leading pair and differ after it
    rng = np.random.default_rng(k)
    distinct = rng.integers(0, high, size=(200, k), endpoint=True)
    distinct[0] = high
    rows = distinct[rng.integers(0, len(distinct), size=1000)]
    nv = high + 1
    # a triple is coded by the row of its leading pair among the pair codes
    pair_codes = _group_rows(rows[:, :2], nv)[1]
    got_rows, codes, group, order = _group_rows(rows, nv, pair_codes)
    for g, w in zip((got_rows, group, order), _lexsort_group_rows(rows)):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)
    assert len(got_rows) < len(rows)
    # the grouping's codes ascend strictly and are the distinct rows' codes
    assert np.all(np.diff(codes) > 0)
    assert np.array_equal(codes, _row_codes(got_rows, nv, pair_codes))


def _label_violations_by_loop(cx):
    labeled = {}
    for tag in "XYAB":
        for f in cx.labels[tag]:
            labeled.setdefault(f, []).append(tag)
    boundary = set(map(tuple, cx.facets[cx.boundary].tolist()))
    bad = []
    for f in sorted(boundary):
        tags = labeled.get(f, [])
        if not tags:
            bad.append(("unlabeled-boundary-facet", str(f)))
        elif len(tags) > 1:
            bad.append(("multiply-labeled-facet", f"{f} in {sorted(tags)}"))
    for f in sorted(labeled):
        if f not in boundary:
            bad.append(("interior-facet-labeled", str(f)))
    for tag in "XYAB":
        if not cx.labels[tag]:
            bad.append(("empty-region", tag))
    for a, b in ("XY", "AB"):
        shared = sorted(cx.labels[a] & cx.labels[b])
        if shared:
            bad.append((f"{a}-{b}-shared-facet", str(shared)))
    return sorted(bad)


def test_label_checks_match_the_reference_loop(square8, shell16):
    kinds = ("unlabeled-boundary-facet", "multiply-labeled-facet",
             "interior-facet-labeled", "empty-region", "X-Y-shared-facet",
             "A-B-shared-facet")
    for sig in (square8, shell16):
        cx = sig.complex
        x, y, a, b = (sorted(cx.labels[tag]) for tag in "XYAB")
        found = set()
        # two facets of B unlabeled, one A facet in X as well, one Y facet in
        # X, A and B; two X facets in Y as well, and B empty; one B facet in
        # A as well; every boundary facet in X, the other regions empty
        for k, labels in enumerate((
                {"X": x + a[:1] + y[:1], "Y": y, "A": a + y[:1], "B": b[2:] + y[:1]},
                {"X": x, "Y": y + x[-2:], "A": a},
                {"X": x, "Y": y, "A": a + b[1:2], "B": b},
                {"X": x + y + a + b})):
            relabeled = cx.with_labels(labels)
            got = [v for v in validate(relabeled).violations if v[0] in kinds]
            assert got == _label_violations_by_loop(relabeled)
            found |= {name for name, _ in got}
            if k == 0:
                assert f"{y[0]} in ['A', 'B', 'X', 'Y']" in {item for _, item in got}
        assert found == set(kinds) - {"interior-facet-labeled"}

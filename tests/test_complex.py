"""Complex construction, validation, regions, and serialization."""

import numpy as np
import pytest

import cobsig as cs
from cobsig.complex import _group_rows, build_complex, region_vertices, validate
from cobsig.errors import MeshError, RegionError

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
    assert len(cx.boundary_facets) == 4 * 16
    for tag in "XYAB":
        assert len(cx.labels[tag]) == 16


def test_grid_4x4_facets_per_region():
    sig = cs.gen_square(4)
    cx = sig.complex
    assert cx.n_simplices == 32
    assert len(cx.boundary_facets) == 16
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
    assert str(err.value) == ("label X: (0.5, 1.9) is not a (d-1)-simplex "
                              "(expected integers, got float)")
    for labels, message in (
            ({"X": [(0, 1)], "A": [(0, 3), (True, 2)]},
             "label A: (True, 2) is not a (d-1)-simplex (expected integers, got bool)"),
            ({"B": np.array([(1.0, 2.0)])},
             "label B: (1.0, 2.0) is not a (d-1)-simplex (expected integers, got float64)"),
            ({"B": np.array([(True, False)])},
             "label B: (True, False) is not a (d-1)-simplex (expected integers, got bool)"),
            # one facet where a list of facets belongs
            ({"A": (0, 3)}, "label A: 0 is not a (d-1)-simplex ('int' object is not iterable)"),
            # one vertex where a list of facets belongs
            ({"X": 5}, "label X: 5 is not a collection of (d-1)-simplices "
                       "('int' object is not iterable)")):
        for make in (lambda: build_complex(UNIT_SQUARE_VERTS, UNIT_SQUARE_TRIS, labels),
                     lambda: unit_square().with_labels(labels)):
            with pytest.raises(MeshError) as err:
                make()
            assert str(err.value) == message
    tables = {"X": np.array([(0, 1)], dtype=np.int32), "Y": [np.array([3, 2])],
              "A": np.array([(0, 3)], dtype=np.uint8), "B": [(np.int64(1), 2)]}
    assert build_complex(UNIT_SQUARE_VERTS, UNIT_SQUARE_TRIS, tables).labels == \
        unit_square().labels


def test_index_tables_must_be_integers():
    # a float simplex entry or sign would be truncated and a bool read as
    # 0 or 1; the first offending entry is named, and integer arrays of any
    # width are accepted by their dtype
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
             "sign 0 is 1.0: expected integers, got float64")):
        with pytest.raises(MeshError) as err:
            build_complex(UNIT_SQUARE_VERTS, simplices, UNIT_SQUARE_LABELS, signs)
        assert str(err.value) == message
    cx = build_complex(UNIT_SQUARE_VERTS, np.array(UNIT_SQUARE_TRIS, dtype=np.int32),
                       UNIT_SQUARE_LABELS, [np.int64(1), 1])
    assert cx == unit_square()


def test_label_iterators_are_read_once():
    # an iterator of facets is read once, not emptied by the integer check
    labels = build_complex(UNIT_SQUARE_VERTS, UNIT_SQUARE_TRIS,
                           {"X": (facet for facet in [(0, 1)])}).labels
    assert labels["X"] == frozenset({(0, 1)})


def test_facet_rows_match_a_linear_search(square8, shell16):
    # facets, near misses, vertices out of range and rows whose code would
    # collide with a facet's if the last vertex were not clipped
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
    clean = {}
    for tag in "XYAB":
        clean[tag] = set()
        for f in labels.get(tag, ()):
            ft = tuple(sorted(int(v) for v in f))
            if len(ft) != cx.dim or len(set(ft)) != cx.dim:
                return f"label {tag}: {ft} is not a (d-1)-simplex"
            if ft not in cx.boundary_facets:
                what = "boundary facet" if ft in facets else "facet of the complex"
                return f"label {tag}: {ft} is not a {what}"
            clean[tag].add(ft)
    return clean


def test_label_cleaning_matches_the_reference_loop(square8, shell16):
    rng = np.random.default_rng(1)
    for sig in (square8, shell16):
        cx = sig.complex
        boundary = sorted(cx.boundary_facets)
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
            assert cx.corner_faces(a, b) == faces[0] & faces[1]


def test_region_facets_are_the_sorted_label_sets(square8, shell16):
    for sig in (square8, shell16):
        cx = sig.complex
        for tag in "XYAB":
            table = cx.region_facets(tag)
            assert table.dtype == np.int64 and not table.flags.writeable
            assert list(map(tuple, table.tolist())) == sorted(cx.labels[tag])
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
        assert cx.corner_faces(a, b)


def test_labeled_sets_partition_boundary(square16, shell16):
    for sig in (square16, shell16):
        cx = sig.complex
        union = set()
        total = 0
        for tag in "XYAB":
            union |= cx.labels[tag]
            total += len(cx.labels[tag])
        assert union == set(cx.boundary_facets)
        assert total == len(cx.boundary_facets)


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
    assert (0, 1) not in cx.boundary_facets


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
        for seed in range(4):
            signs = cx.signs.copy()
            rng = np.random.default_rng(seed)
            signs[rng.choice(cx.n_simplices, size=5 * seed, replace=False)] *= -1
            cases.append((cx.vertices, cx.simplices, cx.labels, signs))
    # square16 with a fin on an interior edge: a non-manifold facet, and
    # the fin's other edges join the boundary
    cx = square16.complex
    u, v = cx.edges()[len(cx.edges()) // 2]
    verts = np.vstack([cx.vertices, [(2.0, 2.0)]])
    simp = np.vstack([cx.simplices, [(u, v, cx.n_vertices)]])
    cases.append((verts, simp, {}, np.ones(len(simp), dtype=np.int64)))

    for verts, simp, labels, signs in cases:
        built = build_complex(verts, simp, labels, signs)
        boundary, bad = _reference_structure(simp, signs)
        assert built.boundary_facets == boundary
        got = [v for v in validate(built).violations if v[0] in STRUCTURAL]
        assert got == bad
    assert any(name == "nonmanifold-facet" for name, _ in bad)


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
    got, want = _group_rows(rows), _lexsort_group_rows(rows)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)
    assert len(got[0]) < len(rows)


def _label_violations_by_loop(cx):
    labeled = {}
    for tag in "XYAB":
        for f in cx.labels[tag]:
            labeled.setdefault(f, []).append(tag)
    bad = []
    for f in sorted(cx.boundary_facets):
        tags = labeled.get(f, [])
        if not tags:
            bad.append(("unlabeled-boundary-facet", str(f)))
        elif len(tags) > 1:
            bad.append(("multiply-labeled-facet", f"{f} in {sorted(tags)}"))
    for f in sorted(labeled):
        if f not in cx.boundary_facets:
            bad.append(("interior-facet-labeled", str(f)))
    return sorted(bad)


def test_label_checks_match_the_reference_loop(square8, shell16):
    kinds = ("unlabeled-boundary-facet", "multiply-labeled-facet",
             "interior-facet-labeled")
    for sig in (square8, shell16):
        cx = sig.complex
        x, y, a, b = (sorted(cx.labels[tag]) for tag in "XYAB")
        # two facets of B unlabeled, one A facet in X as well, one Y facet
        # in X, A and B
        labels = {"X": x + a[:1] + y[:1], "Y": y, "A": a + y[:1], "B": b[2:] + y[:1]}
        relabeled = cx.with_labels(labels)
        got = [v for v in validate(relabeled).violations if v[0] in kinds]
        want = _label_violations_by_loop(relabeled)
        assert got == want
        assert {name for name, _ in got} == set(kinds[:2])
        assert f"{y[0]} in ['A', 'B', 'X', 'Y']" in {item for _, item in got}

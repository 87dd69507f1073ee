"""Noise, filter extraction, and composition."""

import math

import numpy as np
import pytest

import cobsig as cs
from cobsig.errors import CompositionError, FilterError, NoiseError
from cobsig.geodesy import distance_to_vertex
from cobsig.signalops import (NoiseSpec, apply_noise, bump_field, compose,
                              extract_filter, keep_by_predicate,
                              make_correspondence)


@pytest.fixture(scope="module")
def noise_spec(square16):
    p = cs.vertex_at(square16, (0.75, 0.5))
    return NoiseSpec(p, 0.1, 0.2, 0.25)


def test_noise_spec_basic_invariants():
    with pytest.raises(NoiseError):
        NoiseSpec(0, 0.2, 0.1, 0.5)
    with pytest.raises(NoiseError):
        NoiseSpec(0, 0.1, 0.2, 1.5)
    # an infinite ball would make the centre search's limit NaN
    for delta0, delta in ((0.1, math.inf), (0.1, math.nan), (math.nan, 0.2)):
        with pytest.raises(NoiseError):
            NoiseSpec(0, delta0, delta, 0.5)


def test_noise_spec_ball_avoidance(square16):
    # a ball around a vertex near the left edge reaches region A
    p = cs.vertex_at(square16, (0.125, 0.5))
    with pytest.raises(NoiseError):
        bump_field(square16, NoiseSpec(p, 0.1, 0.2, 0.25))


def test_bump_plateaus_and_midpoint(square8):
    p = cs.vertex_at(square8, (0.5, 0.5))
    spec = NoiseSpec(p, 0.125, 0.375, 0.25)
    a = bump_field(square8, spec).values
    rho = distance_to_vertex(square8, p).values
    assert np.all(a[rho <= 0.125] == 0.25)
    assert np.all(a[rho >= 0.375] == 1.0)
    mid = cs.vertex_at(square8, (0.75, 0.5))  # rho = 0.25, t = 0.5
    assert a[mid] == pytest.approx(0.25 + 0.75 * 0.5, rel=1e-12)
    between = (rho > 0.125) & (rho < 0.375)
    assert np.all((a[between] > 0.25) & (a[between] < 1.0))


def test_bump_monotone_in_distance(square16, noise_spec):
    a = bump_field(square16, noise_spec).values
    rho = distance_to_vertex(square16, noise_spec.center).values
    order = np.argsort(rho)
    assert np.all(np.diff(a[order]) >= -1e-15)


def test_noise_locality_bit_exact(square16, noise_spec):
    noisy = apply_noise(square16, noise_spec)
    rho = distance_to_vertex(square16, noise_spec.center).values
    m0, m1 = square16.metric, noisy.metric
    assert np.array_equal(m0.edges, m1.edges)
    outside = (rho[m0.edges[:, 0]] >= noise_spec.delta) & (
        rho[m0.edges[:, 1]] >= noise_spec.delta
    )
    assert outside.any()
    assert np.array_equal(m0.lengths[outside], m1.lengths[outside])
    assert not np.array_equal(m0.lengths, m1.lengths)


def test_noise_inner_ball_scaling(square16, noise_spec):
    # epsilon = 0.25: edges inside the closed delta0-ball scale by exactly 0.5
    noisy = apply_noise(square16, noise_spec)
    rho = distance_to_vertex(square16, noise_spec.center).values
    m0, m1 = square16.metric, noisy.metric
    inner = (rho[m0.edges[:, 0]] <= noise_spec.delta0) & (
        rho[m0.edges[:, 1]] <= noise_spec.delta0
    )
    assert inner.any()
    assert np.array_equal(m1.lengths[inner], 0.5 * m0.lengths[inner])


def test_noise_epsilon_near_one_is_identity(square16):
    p = cs.vertex_at(square16, (0.75, 0.5))
    spec = NoiseSpec(p, 0.1, 0.2, 1.0 - 1e-12)
    noisy = apply_noise(square16, spec)
    rel = np.abs(noisy.metric.lengths / square16.metric.lengths - 1.0)
    assert np.max(rel) <= 1e-6


def test_extract_filter_left_half(square16):
    kept = keep_by_predicate(square16, lambda p: p[0] <= 0.5 + 1e-12)
    filt = extract_filter(square16, kept)
    cx = filt.complex
    assert cs.validate(cx).ok
    # A' = all of A, B' = the cut at x = 0.5
    a_x = cx.vertices[[v for f in cx.labels["A"] for v in f], 0]
    b_x = cx.vertices[[v for f in cx.labels["B"] for v in f], 0]
    assert np.all(a_x == 0.0)
    assert np.all(b_x == 0.5)
    assert len(cx.labels["X"]) == 8
    assert len(cx.labels["Y"]) == 8


def test_extract_filter_identity(square8):
    filt = extract_filter(square8, np.arange(square8.complex.n_simplices))
    assert filt.complex.labels == square8.complex.labels
    assert np.array_equal(filt.metric.lengths, square8.metric.lengths)


def test_extract_filter_requires_all_of_A(square8):
    kept = keep_by_predicate(square8, lambda p: p[0] >= 0.5 - 1e-12)
    with pytest.raises(FilterError):
        extract_filter(square8, kept)


def test_extract_filter_rejects_disconnected(square8):
    # two opposite corner cells only
    with pytest.raises(FilterError):
        extract_filter(square8, [0, square8.complex.n_simplices - 1])


def test_extract_filter_corner_damage_rejected(square8):
    # dropping the lower-left bottom triangle removes the A-X corner
    kept = [
        k for k in range(square8.complex.n_simplices)
        if not np.allclose(
            square8.complex.vertices[square8.complex.simplices[k]].mean(axis=0),
            (1.0 / 12.0, 1.0 / 24.0), atol=1e-9,
        )
    ]
    assert len(kept) == square8.complex.n_simplices - 1
    with pytest.raises(FilterError):
        extract_filter(square8, kept)


def stacked_pair(n=8):
    lower = cs.gen_rectangle(1.0, 1.0, n)
    upper = cs.gen_rectangle(1.0, 1.0, n, origin=(0.0, 1.0))
    return lower, upper


def test_compose_stacked_squares():
    lower, upper = stacked_pair()
    corr = make_correspondence(lower, upper)
    glued = compose(lower, upper, corr)
    cx = glued.complex
    assert cs.validate(cx).ok
    ys = cx.vertices[:, 1]
    assert ys.min() == 0.0 and ys.max() == 2.0
    # interface facets became interior
    assert len(cx.facets[cx.boundary]) == 8 * 6
    assert cs.total_volume(glued) == pytest.approx(
        cs.total_volume(lower) + cs.total_volume(upper), rel=1e-12
    )


def test_compose_label_geometry():
    lower, upper = stacked_pair()
    glued = compose(lower, upper, make_correspondence(lower, upper))
    cx = glued.complex
    a_coords = cx.vertices[[v for f in cx.labels["A"] for v in f]]
    assert np.all(a_coords[:, 0] == 0.0)
    y_coords = cx.vertices[[v for f in cx.labels["Y"] for v in f]]
    assert np.all(y_coords[:, 1] == 2.0)
    x_coords = cx.vertices[[v for f in cx.labels["X"] for v in f]]
    assert np.all(x_coords[:, 1] == 0.0)


def test_compose_rejects_shifted_correspondence():
    lower = cs.gen_rectangle(1.0, 1.0, 8)
    shifted = cs.gen_rectangle(1.0, 1.0, 8, origin=(0.1, 1.0))
    with pytest.raises(CompositionError):
        make_correspondence(lower, shifted)
    # force a correspondence by index and let compose itself reject it
    ly = cs.region_vertices(lower.complex, "Y")
    rx = cs.region_vertices(shifted.complex, "X")
    corr = cs.Correspondence(tuple(zip(ly.tolist(), rx.tolist())), 1e-9)
    with pytest.raises(CompositionError):
        compose(lower, shifted, corr)


def test_compose_three_way_associative_on_labels():
    n = 4
    s1 = cs.gen_rectangle(1.0, 1.0, n)
    s2 = cs.gen_rectangle(1.0, 1.0, n, origin=(0.0, 1.0))
    s3 = cs.gen_rectangle(1.0, 1.0, n, origin=(0.0, 2.0))

    l12 = compose(s1, s2, make_correspondence(s1, s2))
    left = compose(l12, s3, make_correspondence(l12, s3))
    r23 = compose(s2, s3, make_correspondence(s2, s3))
    right = compose(s1, r23, make_correspondence(s1, r23))

    def coord_label_set(sig, tag):
        cx = sig.complex
        return {
            tuple(sorted(map(tuple, np.round(cx.vertices[list(f)], 9))))
            for f in cx.labels[tag]
        }

    for tag in "XYAB":
        assert coord_label_set(left, tag) == coord_label_set(right, tag)


def test_compose_rejects_overlapping_interiors():
    a = cs.gen_rectangle(1.0, 1.0, 4)
    b = cs.gen_rectangle(1.0, 1.0, 4)  # same footprint
    with pytest.raises(CompositionError):
        compose(a, b, make_correspondence(a, cs.gen_rectangle(1.0, 1.0, 4,
                                                              origin=(0.0, 1.0))))


def test_compose_rejects_near_coincidence_across_rounding_cells():
    # a right vertex 0.4 tol from a left vertex that is not glued: on a
    # tol-spaced rounding grid the two fall in different cells
    tol = 2.0**-10
    lower = cs.gen_rectangle(1.0, 1.0, 4, origin=(0.3 * tol, 0.0))
    upper = cs.gen_rectangle(1.0, 1.0, 4, origin=(0.3 * tol, 1.0))
    cx = upper.complex
    verts = cx.vertices.copy()
    left = lower.complex.vertices[cs.vertex_at(lower, (0.5 + 0.3 * tol, 0.5))]
    verts[cs.vertex_at(upper, (1.0 + 0.3 * tol, 2.0))] = left + (0.4 * tol, 0.0)
    moved = cs.make_signal(cs.build_complex(verts, cx.simplices, cx.labels, cx.signs))
    corr = make_correspondence(lower, moved, tolerance=tol)
    with pytest.raises(CompositionError, match="coincides with the left signal"):
        compose(lower, moved, corr)


def test_compose_has_no_absolute_coincidence_floor():
    # squares of side 1e-12 matched at 1e-21 glue as unit squares do: a
    # fixed floor of 1e-12 found their vertices, 2.5e-13 apart,
    # coincident with the left signal outside the glued region
    lower, upper = stacked_pair(4)
    unit = compose(lower, upper, make_correspondence(lower, upper))
    tiny_lower = cs.gen_rectangle(1e-12, 1e-12, 4 * 10**12)
    tiny_upper = cs.gen_rectangle(1e-12, 1e-12, 4 * 10**12, origin=(0.0, 1e-12))
    tiny = compose(tiny_lower, tiny_upper,
                   make_correspondence(tiny_lower, tiny_upper, tolerance=1e-21))
    assert np.array_equal(tiny.complex.simplices, unit.complex.simplices)
    assert tiny.complex.labels == unit.complex.labels
    assert cs.energy(tiny) == pytest.approx(1e-36 * cs.energy(unit), rel=1e-13)
    # at tolerance 0 an exact coincidence outside the glued region is refused
    cx = upper.complex
    verts = cx.vertices.copy()
    verts[cs.vertex_at(upper, (1.0, 2.0))] = lower.complex.vertices[cs.vertex_at(lower, (0.5, 0.5))]
    moved = cs.make_signal(cs.build_complex(verts, cx.simplices, cx.labels, cx.signs))
    with pytest.raises(CompositionError, match="^right vertex 24 coincides with the left signal"):
        compose(lower, moved, make_correspondence(lower, moved, tolerance=0.0))


# -- integer inputs and rarely reached refusals ------------------------------


def test_index_inputs_must_be_integers(square8):
    # a float would be truncated and a bool read as 0 or 1; each is refused
    # with the module's own error, naming the first offending entry
    n = square8.complex.n_simplices
    for make, error, message in (
            (lambda: NoiseSpec(40.6, 0.1, 0.2, 0.5), NoiseError,
             "noise centre is 40.6: expected integers, got float"),
            (lambda: NoiseSpec(True, 0.1, 0.2, 0.5), NoiseError,
             "noise centre is True: expected integers, got bool"),
            (lambda: extract_filter(square8, [0.7, 1.2] + list(range(2, n))), FilterError,
             "kept simplex 0 is 0.7: expected integers, got float"),
            (lambda: extract_filter(square8, np.arange(n, dtype=float)), FilterError,
             "kept simplex 0 is 0.0: expected integers, got float64"),
            (lambda: cs.Correspondence(((0.5, 1),), 1e-9), CompositionError,
             "pair 0 is (0.5, 1): expected integers, got float"),
            (lambda: cs.Correspondence(((0, 1), (True, 2)), 1e-9), CompositionError,
             "pair 1 is (True, 2): expected integers, got bool"),
            (lambda: cs.Correspondence(((0, 1), (2,)), 1e-9), CompositionError,
             "pair 1 is (2,): its length differs from pair 0's"),
            (lambda: cs.Correspondence(((0, 1), 2), 1e-9), CompositionError,
             "pair 1 is 2: its length differs from pair 0's"),
            # numpy would raise a bare OverflowError past int64, and Python a
            # bare TypeError on a table that is no collection
            (lambda: cs.Correspondence(((2**70, 0),), 1e-9), CompositionError,
             "pair 0 is (1180591620717411303424, 0): Python int too large to convert to C long"),
            (lambda: extract_filter(square8, [2**70]), FilterError,
             "kept simplex 0 is 1180591620717411303424: Python int too large to convert to C long"),
            (lambda: cs.Correspondence(5, 1e-9), CompositionError,
             "the pair table 5 is not a collection ('int' object is not iterable)"),
            # a table of another width: unpacked with a bare ValueError, or
            # read as a set of simplices
            (lambda: cs.Correspondence(((0, 1, 2),), 1e-9), CompositionError,
             "pairs must be vertex pairs, got a table of shape (1, 3)"),
            (lambda: extract_filter(square8, [list(range(n))]), FilterError,
             f"kept simplices must be a flat list of indices, got a table of shape (1, {n})")):
        with pytest.raises(error) as err:
            make()
        assert str(err.value) == message
    spec = NoiseSpec(np.int64(3), 0.1, 0.2, 0.5)
    assert type(spec.center) is int and spec.center == 3
    corr = cs.Correspondence(((np.int64(0), np.int32(1)),), 0.0)
    assert corr.pairs == ((0, 1),) and all(type(v) is int for v in corr.pairs[0])
    kept = extract_filter(square8, np.arange(n, dtype=np.int32))
    assert kept.complex.labels == square8.complex.labels


def test_extract_filter_rejects_empty_and_out_of_range_sets(square8):
    n = square8.complex.n_simplices
    for kept, message in (([], "kept simplex set is empty"),
                          ([0, n], "kept simplex index out of range"),
                          ([-1, 0], "kept simplex index out of range")):
        with pytest.raises(FilterError) as err:
            extract_filter(square8, kept)
        assert str(err.value) == message


def test_noise_centre_out_of_range(square8):
    nv = square8.complex.n_vertices
    for centre in (nv, -1):
        with pytest.raises(NoiseError, match=f"^center vertex {centre} out of range$"):
            bump_field(square8, NoiseSpec(centre, 0.1, 0.2, 0.5))


def test_make_correspondence_rejects_a_many_to_one_match():
    # with a loose tolerance the two leftmost Y vertices both find the
    # right signal's leftmost X vertex nearest
    lower = cs.gen_rectangle(1.0, 1.0, 4)
    upper = cs.gen_rectangle(1.0, 1.0, 4, origin=(0.6, 1.0))
    with pytest.raises(CompositionError, match="^coordinate matching is not one-to-one$"):
        make_correspondence(lower, upper, tolerance=1.0)


def test_compose_rejects_mismatched_dimensions_and_facets():
    with pytest.raises(CompositionError, match="^dimension mismatch between the two signals$"):
        compose(cs.gen_square(4), cs.gen_annular_shell(1.0, 2.0, 2.0, 8),
                cs.Correspondence((), 0.0))
    # a bijection of the glued vertices, within its tolerance, that swaps
    # the two ends of the interface, so Y facets map onto no X facet
    lower, upper = stacked_pair(4)
    pairs = list(make_correspondence(lower, upper).pairs)
    (a, b), (c, d) = pairs[0], pairs[-1]
    pairs[0], pairs[-1] = (a, d), (c, b)
    with pytest.raises(CompositionError, match="^Y facets do not map onto right X facets$"):
        compose(lower, upper, cs.Correspondence(tuple(pairs), 2.0))


def test_compose_requires_a_bijection():
    lower, upper = stacked_pair(4)
    pairs = make_correspondence(lower, upper).pairs
    (a, b), (c, d) = pairs[0], pairs[1]
    interior = cs.vertex_at(lower, (0.5, 0.5))
    for bad in (pairs[1:],                                 # a Y vertex left out
                ((a, d),) + pairs[1:],                     # two onto one X vertex
                ((interior, b),) + pairs[1:],              # a vertex off Y
                pairs + ((a, d),)):                        # one Y vertex twice
        with pytest.raises(CompositionError, match="^correspondence must biject left "
                                                   "Y-vertices with right X-vertices$"):
            compose(lower, upper, cs.Correspondence(bad, 1e-9))
    # an exact duplicate pair names the same bijection
    twice = compose(lower, upper, cs.Correspondence(pairs + (pairs[2],), 1e-9))
    assert twice.complex == compose(lower, upper, cs.Correspondence(pairs, 1e-9)).complex


def test_compose_wraps_a_failed_validation():
    # the upper square's A and B swap sides, so the glued A and B meet in
    # a corner vertex of the interface
    lower, upper = stacked_pair(4)
    cx = upper.complex
    swapped = cs.make_signal(cx.with_labels(dict(cx.labels, A=cx.labels["B"],
                                                 B=cx.labels["A"])))
    with pytest.raises(CompositionError, match="^composed signal fails validation: "
                                               "complex fails validation: "
                                               "A-B-shared-corner-face$"):
        compose(lower, swapped, make_correspondence(lower, swapped))


def test_correspondence_tolerance_must_be_finite_and_nonnegative():
    # a nan tolerance would pass every gap test, and an infinite one would
    # find every right vertex coincident with the left signal
    for tol in (float("nan"), float("inf"), -1.0, -1e-300, "1e-9", True, None):
        with pytest.raises(CompositionError,
                           match=r"^tolerance must be a finite number >= 0, got "):
            cs.Correspondence(((0, 1),), tol)
    for tol in (0.0, 0, 1e-9, np.float64(2.0)):
        assert cs.Correspondence(((0, 1),), tol).tolerance == tol


def test_make_correspondence_rejects_a_count_mismatch():
    lower = cs.gen_rectangle(1.0, 1.0, 4)
    upper = cs.gen_rectangle(1.0, 1.0, 8, origin=(0.0, 1.0))
    with pytest.raises(CompositionError, match="^cannot match 5 Y-vertices with 9 X-vertices$"):
        make_correspondence(lower, upper)


def test_compose_merges_the_edge_tables_by_code():
    # both sides deformed, differently, on the glued edges: the glued
    # metric keeps the left lengths there and each side's lengths elsewhere
    lower, upper = stacked_pair(4)
    corr = make_correspondence(lower, upper)
    left = cs.make_signal(lower.complex, cs.conformal_scale(
        lower.metric, np.full(lower.complex.n_vertices, 0.81)))
    right = cs.make_signal(upper.complex, cs.conformal_scale(
        upper.metric, np.full(upper.complex.n_vertices, 1.21)))
    glued = compose(left, right, corr)
    edges = glued.complex.edges()
    nv = glued.complex.n_vertices
    # the merged codes u * nv + v, as compose forms them, are the edge table
    to_merged = np.full(upper.complex.n_vertices, -1)
    to_merged[[b for _, b in corr.pairs]] = [a for a, _ in corr.pairs]
    loose = to_merged < 0
    to_merged[loose] = lower.complex.n_vertices + np.arange(loose.sum())
    right_edges = np.sort(to_merged[upper.metric.edges], axis=1)
    codes = np.unique(np.concatenate([lower.metric.edges @ (nv, 1), right_edges @ (nv, 1)]))
    assert np.array_equal(codes, edges @ (nv, 1))
    assert glued.metric.source == "deformed"
    ys = glued.complex.vertices[edges][..., 1]
    below, above = ys.max(axis=1) <= 1.0, ys.min(axis=1) >= 1.0
    ref = cs.induced_metric(glued.complex).lengths
    assert np.allclose(glued.metric.lengths[below], 0.9 * ref[below], rtol=1e-14)
    assert np.allclose(glued.metric.lengths[~below], 1.1 * ref[~below], rtol=1e-14)
    assert (below & above).sum() == 4  # the glued edges

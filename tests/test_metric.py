"""Metric construction, Cayley-Menger volumes, conformal scaling, lumping."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cobsig as cs
from cobsig.errors import MetricError
from cobsig.fields import ScalarField
from cobsig.complex import edge_slots
from cobsig.metric import (MetricField, conformal_scale, induced_metric,
                           lumped_vertex_volume, region_volume,
                           simplex_volume, simplex_volumes, slot_volumes,
                           total_volume)


def right_triangle_metric():
    edges = [(0, 1), (0, 2), (1, 2)]
    lengths = [1.0, 1.0, math.sqrt(2.0)]
    return MetricField(edges, lengths, "induced")


def test_unit_right_triangle_area():
    m = right_triangle_metric()
    assert simplex_volume(m, (0, 1, 2)) == pytest.approx(0.5, rel=1e-14)


def test_regular_tetrahedron_volume():
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    m = MetricField(edges, [1.0] * 6, "induced")
    assert simplex_volume(m, (0, 1, 2, 3)) == pytest.approx(
        1.0 / (6.0 * math.sqrt(2.0)), rel=1e-13
    )


def test_triangle_inequality_violation_rejected():
    m = MetricField([(0, 1), (0, 2), (1, 2)], [1.0, 1.0, 3.0], "induced")
    with pytest.raises(MetricError):
        simplex_volume(m, (0, 1, 2))


def test_nonpositive_length_rejected():
    with pytest.raises(MetricError):
        MetricField([(0, 1)], [0.0], "induced")
    # messages print plain numbers, not numpy reprs
    with pytest.raises(MetricError) as err:
        MetricField([(1, 2), (0, 1)], [1.0, -0.5], "induced")
    assert str(err.value) == "nonpositive length -0.5 on edge (0, 1)"


def test_induced_metric_square_lengths(square8):
    m = square8.metric
    assert m.length(0, 1) == pytest.approx(1.0 / 8.0, abs=0)
    # cell diagonal
    d = m.length(0, 10)  # (0,0) to (1/8, 1/8) with row-major ids
    assert d == pytest.approx(math.sqrt(2.0) / 8.0, rel=1e-15)


def test_induced_metric_coincident_vertices_error():
    cx = cs.build_complex(
        [(0.0, 0.0), (0.0, 0.0), (0.0, 1.0)],
        [(0, 1, 2)],
        {"A": [(0, 1)], "B": [(1, 2)], "X": [(0, 2)], "Y": []},
    )
    with pytest.raises(MetricError):
        induced_metric(cx)


def test_conformal_identity_is_bit_exact(square8):
    ones = ScalarField(np.ones(square8.complex.n_vertices))
    scaled = conformal_scale(square8.metric, ones)
    assert np.array_equal(scaled.lengths, square8.metric.lengths)
    assert scaled.source == "deformed"


def test_conformal_rejects_nonpositive_factor(square8):
    a = np.ones(square8.complex.n_vertices)
    a[3] = 0.0
    with pytest.raises(MetricError):
        conformal_scale(square8.metric, a)


@settings(max_examples=25, deadline=None)
@given(c=st.floats(min_value=0.05, max_value=20.0))
def test_constant_conformal_homogeneity_triangle(c):
    m = right_triangle_metric()
    scaled = conformal_scale(m, np.full(3, c))
    v0 = simplex_volume(m, (0, 1, 2))
    v1 = simplex_volume(scaled, (0, 1, 2))
    assert v1 == pytest.approx(c * v0, rel=1e-12)


@pytest.mark.parametrize("c", [0.25, 4.0])
def test_dyadic_conformal_volume_scaling_3d(shell16, c):
    a = np.full(shell16.complex.n_vertices, c)
    scaled = conformal_scale(shell16.metric, a)
    v0 = simplex_volumes(shell16.metric, shell16.complex.simplices)
    v1 = simplex_volumes(scaled, shell16.complex.simplices)
    assert np.allclose(v1, c**1.5 * v0, rtol=1e-12)


def test_lumped_partition_square(square16):
    w = lumped_vertex_volume(square16)
    total = total_volume(square16)
    assert abs(float(np.sum(w.values)) - total) <= 1e-12 * total


def test_lumped_partition_shell(shell16):
    w = lumped_vertex_volume(shell16)
    total = total_volume(shell16)
    assert abs(float(np.sum(w.values)) - total) <= 1e-12 * total


def test_lumped_single_triangle_equal_split():
    cx = cs.build_complex(
        [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
        [(0, 1, 2)],
        {"A": [(0, 2)], "B": [(1, 2)], "X": [(0, 1)], "Y": []},
    )
    sig = cs.Signal(cx, induced_metric(cx))
    w = lumped_vertex_volume(sig)
    assert np.allclose(w.values, 0.5 / 3.0, rtol=1e-14)


def test_total_volume_square_exact(square32):
    assert total_volume(square32) == pytest.approx(1.0, rel=1e-12)


def test_region_volume_square_left_edge(square32):
    assert region_volume(square32, "A") == pytest.approx(1.0, rel=1e-12)


def test_shell_volume_within_one_percent(shell32):
    exact = 0.44 * math.pi
    assert total_volume(shell32) == pytest.approx(exact, rel=0.01)


def test_shell_region_volumes(shell32):
    # bottom annulus and inner cylinder wall areas
    assert region_volume(shell32, "A") == pytest.approx(
        math.pi * (1.2**2 - 1.0), rel=0.01
    )
    assert region_volume(shell32, "X") == pytest.approx(
        2.0 * math.pi, rel=0.01
    )


def test_missing_edge_raises(square8):
    with pytest.raises(MetricError):
        square8.metric.length(0, square8.complex.n_vertices - 1)


def test_signal_rejects_metric_on_another_edge_set(square8):
    cx, m = square8.complex, square8.metric
    fewer = MetricField(m.edges[1:], m.lengths[1:], "deformed")
    more = MetricField(np.vstack([m.edges, [(0, cx.n_vertices - 1)]]),
                       np.append(m.lengths, 2.0), "deformed")
    for metric in (fewer, more):
        with pytest.raises(MetricError, match="metric edge set does not match"):
            cs.Signal(cx, metric)
        with pytest.raises(MetricError, match="metric edge set does not match"):
            cs.make_signal(cx, metric)


def test_shell_radial_edge_length(shell16):
    # radial edge between the walls at the same angle and height
    cx = shell16.complex
    u = cs.vertex_at(shell16, (1.0, 0.0, 0.0))
    v = cs.vertex_at(shell16, (1.2, 0.0, 0.0))
    assert shell16.metric.length(u, v) == pytest.approx(0.2, rel=1e-12)


def test_flat_triangle_rejected():
    # exactly degenerate: the three points are collinear
    m = MetricField([(0, 1), (0, 2), (1, 2)], [1.0, 1.0, 2.0], "induced")
    with pytest.raises(MetricError):
        simplex_volume(m, (0, 1, 2))


def test_needle_triangle_below_the_volume_floor_rejected():
    # a positive squared area, but the area is below EPS_VOL * mean length^2
    m = MetricField([(0, 1), (0, 2), (1, 2)], [1e-11, 1.0, 1.0], "induced")
    with pytest.raises(MetricError, match=r"^simplex \(0, 1, 2\) is degenerate: volume "
                                          r"5\.000e-12 below threshold 4\.444e-11$"):
        simplex_volume(m, (0, 1, 2))
    assert simplex_volume(MetricField(m.edges, [1e-9, 1.0, 1.0], "induced"),
                          (0, 1, 2)) == pytest.approx(5e-10, rel=1e-6)


def test_metric_edges_must_be_integers():
    # np.int64 would truncate 1.7 to 1 and read True as 1
    for edges, message in (([(0, 1.7), (1, 2)], "edge 0 is (0, 1.7): expected integers, got float"),
                           ([(0, 1), (True, 2)], "edge 1 is (True, 2): expected integers, got bool"),
                           (np.array([[0.0, 1.0]]), "edge 0 is (0.0, 1.0): expected integers, "
                                                    "got float64"),
                           ([(0, 1), (2,)], "edge 1 is (2,): its length differs from edge 0's"),
                           ([(0, 2**70)], "edge 0 is (0, 1180591620717411303424): Python int too large to convert to C long")):
        with pytest.raises(MetricError) as err:
            MetricField(edges, [1.0] * len(edges), "deformed")
        assert str(err.value) == message
    # a table of another width was read two entries at a time
    for edges, lengths, shape in (([(0, 1, 2), (3, 4, 5)], [1.0] * 3, (2, 3)),
                                  ([0, 1, 2, 3], [1.0] * 2, (4,))):
        with pytest.raises(MetricError) as err:
            MetricField(edges, lengths, "deformed")
        assert str(err.value) == f"edges must be vertex pairs, got a table of shape {shape}"
    assert MetricField([], [], "deformed").edges.shape == (0, 2)
    m = MetricField(np.array([[1, 2], [0, 1]], dtype=np.int32), [2.0, 1.0], "deformed")
    assert m.edges.tolist() == [[0, 1], [1, 2]] and m.lengths.tolist() == [1.0, 2.0]


def test_lumped_interior_vertex_weight(square8):
    # a structured-grid interior vertex touches 6 triangles of area
    # 1/(2 n^2), so its share is 6 * area / 3 = 1 / n^2
    w = lumped_vertex_volume(square8)
    v = cs.vertex_at(square8, (0.5, 0.5))
    assert w.values[v] == pytest.approx(1.0 / 64.0, rel=1e-12)


@pytest.mark.parametrize("name, simplices", [
    ("square8", lambda cx: cx.simplices),
    ("shell16", lambda cx: cx.simplices),
    ("shell16", lambda cx: cx.facets),
], ids=["square8-triangles", "shell16-tetrahedra", "shell16-facets"])
def test_slot_volumes_match_an_explicit_cayley_menger_matrix(request, name, simplices):
    # the bordered matrix [[0, 1...], [1..., l_ij^2]] built pair by pair,
    # with no slot table, gives the same bits
    sig = request.getfixturevalue(name)
    simp = simplices(sig.complex)
    q = simp.shape[1] - 1
    B = np.ones((len(simp), q + 2, q + 2))
    B[:, range(q + 2), range(q + 2)] = 0.0
    for a, b in itertools.combinations(range(q + 1), 2):
        ln = sig.metric.pair_lengths(simp[:, [a, b]])
        B[:, a + 1, b + 1] = B[:, b + 1, a + 1] = ln * ln
    coeff = (-1.0) ** (q + 1) / (2.0**q * math.factorial(q) ** 2)
    expected = np.sqrt(coeff * np.linalg.det(B))
    lengths = sig.metric.pair_lengths(simp[:, edge_slots(q)])
    assert np.array_equal(slot_volumes(lengths, simp), expected)

"""Distance fields, diameters, and the injectivity-radius estimator."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import dijkstra

import cobsig as cs
from cobsig import geodesy
from cobsig.complex import edge_rows, edge_slots, region_vertices
from cobsig.energy import FOURIER_PERMUTATION
from cobsig.errors import GeodesyError, MetricError, RegionError
from cobsig.fileio import signal_from_dict, signal_to_dict
from cobsig.geodesy import (_chord_lengths, _chord_template, _n_pairs,
                            _first_cut_estimate, _graph, diameter,
                            distance_field, distance_to_vertex,
                            distance_within, injectivity_radius)
from cobsig.metric import MetricField, conformal_scale, induced_metric, lumped_vertex_volume
from cobsig.signal import Signal
from cobsig.errors import FilterError, NoiseError
from cobsig.signalops import NoiseSpec, apply_noise, bump_field, check_noise_spec
from cobsig import verify
from cobsig.verify import check_filter, eps_sweep


def test_square_distance_to_left_edge_is_x(square16):
    for s in (0, 1, 2):
        f = distance_field(square16, "A", s)
        assert np.allclose(f, square16.complex.vertices[:, 0], atol=1e-13)


def test_zero_set_matches_region(square8):
    f = distance_field(square8, "A")
    ids = set(cs.region_vertices(square8.complex, "A").tolist())
    for v in range(square8.complex.n_vertices):
        if v in ids:
            assert f[v] == 0.0
        else:
            assert f[v] > 0.0


def test_field_converts_to_an_array_as_numpy_asks(square8):
    f = distance_field(square8, "A")
    shared = np.asarray(f)
    assert np.shares_memory(shared, f) and not shared.flags.writeable
    copied = np.array(f, copy=True)
    assert not np.shares_memory(copied, f) and copied.flags.writeable
    copied += 1.0
    assert np.array_equal(shared, f)
    assert np.array(f, dtype=np.float32).dtype == np.float32
    with pytest.raises(ValueError):
        np.array(f, dtype=np.float32, copy=False)


@pytest.mark.parametrize("field", [
    lambda sig, p: distance_field(sig, "A"),
    lambda sig, p: distance_to_vertex(sig, p),
    lambda sig, p: distance_within(sig, p, 0.25),
    lambda sig, p: bump_field(sig, NoiseSpec(p, 0.125, 0.375, 0.25)),
    lambda sig, p: lumped_vertex_volume(sig),
], ids=["distance_field", "distance_to_vertex", "distance_within", "bump_field",
        "lumped_vertex_volume"])
def test_fields_are_read_only_float64_arrays(square8, field):
    f = field(square8, cs.vertex_at(square8, (0.5, 0.5)))
    assert type(f) is np.ndarray and f.dtype == np.float64
    assert f.shape == (square8.complex.n_vertices,)
    with pytest.raises(ValueError):
        f[0] = 1.0


# the largest relative overestimate of the corner distance on a square
# mesh per Steiner level s = 0-3, the same for every n
CORNER_OVERESTIMATE = (8.239e-2, 2.748e-2, 1.013e-2, 3.096e-3)


@pytest.mark.parametrize("n", [16, 32])
def test_corner_distance_against_hypot(n):
    # the chords against a closed form: the distance from the corner (0, 0)
    # of the unit square is hypot(x, y)
    sig = cs.gen_square(n)
    xy = sig.complex.vertices
    corner = int(np.flatnonzero(~xy.any(axis=1))[0])
    want = np.hypot(xy[:, 0], xy[:, 1])
    far = want > 0
    eps = np.finfo(np.float64).eps
    for s, pinned in enumerate(CORNER_OVERESTIMATE):
        got = distance_to_vertex(sig, corner, s)
        # every graph edge is a straight segment in the square, so every
        # path is at least hypot long.  Each weight is within 8 eps of its
        # segment's length (a norm of dyadic coordinates, or the square root
        # of a three-term Gram sum with exact coefficients), and a computed
        # distance sums a simple path, at most n_nodes terms, left to right,
        # each addition losing at most eps/2 relative.
        n_nodes = _graph(sig, s).pattern.n_nodes
        assert np.all(got >= want * (1.0 - (8 + n_nodes) * eps)), s
        worst = np.max((got[far] - want[far]) / want[far])
        assert worst == pytest.approx(pinned, rel=0.01), s


# the largest and the median relative overestimate of straight 3D distances
# on the shell (1, 2, 2, n) per Steiner level s = 0-3
SEGMENT_OVERESTIMATE = {
    16: ((4.256e-1, 9.587e-2, 5.257e-2, 4.538e-2),
         (1.455e-1, 1.697e-2, 1.292e-2, 8.577e-3)),
    24: ((4.626e-1, 1.293e-1, 7.860e-2, 6.421e-2),
         (1.804e-1, 3.564e-2, 2.083e-2, 1.231e-2)),
}


def _straight_in_shell(xy, p, r_min):
    """Vertices whose straight segment from vertex p keeps its distance
    from the shell's axis at r_min or more, from the segment's closest
    point to the axis in the xy-plane."""
    a, b = xy[p], xy - xy[p]
    bb = np.einsum("ij,ij->i", b, b)
    t = np.clip(-(b @ a) / np.where(bb > 0, bb, 1.0), 0.0, 1.0)
    ok = np.hypot(*(a + t[:, None] * b).T) >= r_min
    ok[p] = False
    return ok


def _gram_condition(sig, s):
    """The largest ratio sum_k |c_k| l_k^2 / sum_k c_k l_k^2 over the
    chords of the mesh's triangles and tetrahedra at level s, and 1 when
    there are none, as on a sub-edge."""
    cx, sq = sig.complex, sig.metric.lengths ** 2
    kappa = 1.0
    cells = [(cx.dim, cx.simplex_edge_rows)]
    if cx.dim == 3:
        cells.append((2, geodesy._facet_cells(cx)[1]))
    for q, rows in cells:
        coef = _chord_template(q, s)[2]
        if coef.size:
            kappa = max(kappa, np.max((sq[rows] @ np.abs(coef)) / (sq[rows] @ coef)))
    return kappa


@pytest.mark.parametrize("n", sorted(SEGMENT_OVERESTIMATE))
def test_straight_3d_distance_against_the_segment(n):
    # from the outer-wall vertex nearest (2, 0, 1), a segment that keeps
    # r >= 1.05 stays inside the polyhedral shell, so it is the geodesic
    # and its length the closed form
    sig = cs.gen_annular_shell(1.0, 2.0, 2.0, n)
    xyz = sig.complex.vertices
    p = int(np.argmin(np.linalg.norm(xyz - [2.0, 0.0, 1.0], axis=1)))
    far = _straight_in_shell(xyz[:, :2], p, 1.05)
    want = np.linalg.norm(xyz[far] - xyz[p], axis=1)
    eps = np.finfo(np.float64).eps
    for s, (pinned_max, pinned_median) in enumerate(zip(*SEGMENT_OVERESTIMATE[n])):
        got = distance_to_vertex(sig, p, s)[far]
        # every graph edge is a straight segment in the shell, so every
        # path is at least |v - p| long.  A weight is the square root of
        # sum_k c_k l_k^2 with exact c_k and lengths within 3 eps, so its
        # squared value errs by at most 8 eps sum_k |c_k| l_k^2: by at most
        # 8 kappa eps relative (``_gram_condition``).  A computed distance
        # sums at most n_nodes terms left to right.
        kappa = _gram_condition(sig, s)
        n_nodes = _graph(sig, s).pattern.n_nodes
        assert np.all(got >= want * (1.0 - (8 * kappa + n_nodes) * eps)), s
        over = (got - want) / want
        assert over.max() == pytest.approx(pinned_max, rel=0.01), s
        assert np.median(over) == pytest.approx(pinned_median, rel=0.01), s


def jittered(signal, a, seed):
    """``signal``, a unit square ``gen_square(n)`` or a shell
    ``gen_annular_shell(r0, r1, h, n)``, with every interior vertex moved by
    a uniform offset of up to ``a`` grid steps in each coordinate; boundary
    vertices, labels, simplices and signs are kept.  The step is 1/n on the
    square and the arc step 2 pi r / n at the mean radius r on the shell.
    On the square the distance to A is still x, and on the shell, whose
    walls stay vertical, still z; neither is exact along mesh edges."""
    cx = signal.complex
    n = signal.hints["resolution"]
    if cx.dim == 2:
        step = 1.0 / n
    else:
        radius = np.hypot(cx.vertices[:, 0], cx.vertices[:, 1])
        step = math.pi * (radius.min() + radius.max()) / n
    inner = np.setdiff1d(np.arange(cx.n_vertices), cx.facets[cx.boundary])
    moved = cx.vertices.copy()
    moved[inner] += np.random.default_rng(seed).uniform(
        -a * step, a * step, size=(len(inner), cx.ambient_dim))
    labels = {tag: cx.region_facets(tag) for tag in "XYAB"}
    return cs.make_signal(cs.build_complex(moved, cx.simplices, labels, cx.signs))


# E's relative error against the same lumped weights times x (square16) or
# z (shell24), both jittered at a = 0.3 with seed 1, per Steiner level s = 0-3
JITTERED_ENERGY_ERROR = {
    "square16": (2.397e-2, 1.632e-2, 5.559e-3, 2.270e-3),
    "shell24": (2.868e-2, 1.877e-2, 8.480e-3, 5.579e-3),
}


@pytest.mark.parametrize("mesh", sorted(JITTERED_ENERGY_ERROR))
def test_jittered_energy_against_the_coordinate(mesh):
    # off the grid the distance to A runs along Steiner chords, so the
    # error falls with s; the pinned values see one chord dropped from the
    # triangle template, which neither the decrease nor the bound does
    base = cs.gen_square(16) if mesh == "square16" else cs.gen_annular_shell(1.0, 2.0, 2.0, 24)
    sig = jittered(base, 0.3, seed=1)
    want = sig.complex.vertices[:, 0 if sig.dim == 2 else 2]
    reference = float(np.dot(lumped_vertex_volume(sig), want))
    eps = np.finfo(np.float64).eps
    errors = []
    for s in range(4):
        got = distance_field(sig, "A", s)
        # every graph edge is a straight segment in the domain, and A is
        # where the coordinate is 0, so every path is at least the
        # coordinate long; rounding is bounded as for straight 3D segments
        kappa = _gram_condition(sig, s)
        n_nodes = _graph(sig, s).pattern.n_nodes
        assert np.all(got >= want * (1.0 - (8 * kappa + n_nodes) * eps)), s
        errors.append(cs.energy(sig, s) / reference - 1.0)
    assert all(coarse > fine for coarse, fine in zip(errors, errors[1:]))
    assert errors[2] < 1e-2
    assert errors == pytest.approx(JITTERED_ENERGY_ERROR[mesh], rel=0.01)


def test_lipschitz_along_edges(square8, shell16):
    for sig in (square8, shell16):
        for region in ("A", "X"):
            f = distance_field(sig, region)
            m = sig.metric
            gaps = np.abs(f[m.edges[:, 0]] - f[m.edges[:, 1]])
            assert np.all(gaps <= m.lengths * (1.0 + 1e-12) + 1e-15)


def test_steiner_monotone_refinement(square8, shell16):
    for sig in (square8, shell16):
        for region in ("A", "X"):
            f0 = distance_field(sig, region, 0)
            f1 = distance_field(sig, region, 1)
            f2 = distance_field(sig, region, 2)
            assert np.all(f1 <= f0)
            assert np.all(f2 <= f1)


def test_shell_distance_to_inner_wall(shell32):
    f = distance_field(shell32, "X", 2)
    v = shell32.complex.vertices
    radial = np.hypot(v[:, 0], v[:, 1]) - 1.0
    err = np.abs(f - radial)
    assert np.max(err) <= 0.03 * 0.2  # 3% of the shell thickness


def test_distance_field_unknown_region(square8):
    with pytest.raises(RegionError):
        distance_field(square8, "Q")


def test_distance_to_vertex_zero_at_center(square8):
    p = cs.vertex_at(square8, (0.5, 0.5))
    f = distance_to_vertex(square8, p)
    assert f[p] == 0.0
    q = cs.vertex_at(square8, (0.5, 0.75))
    assert f[q] == pytest.approx(0.25, rel=1e-12)


def test_disconnected_graph_raises():
    # two disjoint triangles; region A is an edge of the first only
    cx = cs.build_complex([(0, 0), (1, 0), (0, 1), (3, 0), (4, 0), (3, 1)],
                          [(0, 1, 2), (3, 4, 5)], {"A": [(0, 2)]})
    sig = Signal(cx, induced_metric(cx))
    with pytest.raises(GeodesyError, match="unreachable from region 'A'"):
        distance_field(sig, "A")
    with pytest.raises(GeodesyError, match="^complex is disconnected from vertex 0$"):
        distance_to_vertex(sig, 0)


def test_vertex_index_must_be_an_integer_in_range(square8):
    nv = square8.complex.n_vertices
    for p in (nv, -1):
        with pytest.raises(GeodesyError, match=f"^vertex index {p} out of range$"):
            distance_within(square8, p, 0.5)
    # a float vertex would be truncated to its neighbour's index
    with pytest.raises(GeodesyError) as err:
        distance_to_vertex(square8, 3.9)
    assert str(err.value) == "vertex index is 3.9: expected integers, got float"


def test_radius_must_be_a_number_at_least_zero(square8):
    # a nan limit would stop the search at the source, a string would fail
    # in np.spacing and a negative radius in scipy
    for radius in (float("nan"), "0.5", -1.0, True, None):
        with pytest.raises(GeodesyError, match="^radius must be a number >= 0, got "):
            distance_within(square8, 0, radius)
    assert distance_within(square8, 0, 0)[0] == 0.0
    assert np.array_equal(distance_within(square8, 0, np.inf),
                          distance_to_vertex(square8, 0))


def test_steiner_level_is_checked_before_any_cache(square8):
    # the level is read once, by _graph, before any cache lookup: a kept
    # level-1 result answers no True and no 1.5, and a bad level fails as a
    # GeodesyError, not inside numpy
    sig = Signal(square8.complex, square8.metric, hints={})
    distance_field(sig, "A", 1)
    diameter(sig, "M", 1)
    queries = {
        "distance_field": lambda s: distance_field(sig, "A", s),
        "distance_within": lambda s: distance_within(sig, 0, 0.5, s),
        "diameter": lambda s: diameter(sig, "M", s),
        "injectivity_radius": lambda s: injectivity_radius(sig, "A", s),
    }
    for name, query in queries.items():
        for level, message in ((-1, "steiner_level must be >= 0"),
                               (True, "steiner_level is True: expected integers, got bool"),
                               (1.5, "steiner_level is 1.5: expected integers, got float")):
            with pytest.raises(GeodesyError) as err:
                query(level)
            assert str(err.value) == message, name
    # a numpy integer is the same level, and finds the same kept result
    assert distance_field(sig, "A", np.int64(1)) is distance_field(sig, "A", 1)
    assert diameter(sig, "M", np.int32(1)) == diameter(sig, "M", 1)


def test_simplex_violating_metric_gets_no_graph():
    # the longest edge of a triangle stretched past the other two together
    sig = cs.gen_square(4)
    lengths = sig.metric.lengths.copy()
    lengths[np.argmax(lengths)] *= 3.0
    bad = Signal(sig.complex, MetricField(sig.metric.edges, lengths, "deformed"))
    with pytest.raises(MetricError, match="simplex inequalities"):
        distance_field(bad, "A")


def _embedded_chords(points, s):
    """Euclidean chord lengths of one embedded simplex, in template pair
    order, from the interpolated ambient points."""
    nodes, pairs, _ = _chord_template(len(points) - 1, s)
    at = nodes / 2**s @ points
    return np.linalg.norm(at[pairs[:, 0]] - at[pairs[:, 1]], axis=1)


def _well_shaped(rng, q, ambient, count):
    """Random well-shaped simplices: a corner simplex with its corner
    pulled back (so no angle is right), jittered, rotated, scaled and
    moved."""
    base = np.vstack([np.zeros(ambient), np.eye(ambient)])[: q + 1]
    base[0] = -0.3
    out = []
    for _ in range(count):
        rot, _ = np.linalg.qr(rng.normal(size=(ambient, ambient)))
        pts = base + rng.uniform(-0.15, 0.15, size=base.shape)
        out.append(rng.uniform(0.01, 100.0) * pts @ rot + rng.normal(size=ambient))
    return out


@pytest.mark.parametrize("q", [1, 2, 3])
def test_pair_counts_match_the_template(q):
    for s in range(5):
        assert _n_pairs(q, s) == len(_chord_template(q, s)[1])


def test_pattern_past_int32_is_refused_before_allocating(square8, shell16):
    # s = 15 passes int32 in graph entries only, s = 31 in nodes too; no
    # level builds a template first
    _chord_template.cache_clear()
    for sig in (square8, shell16):
        for s in (15, 31, 40):
            with pytest.raises(GeodesyError, match=f"steiner level {s} needs"):
                distance_field(sig, "A", steiner_level=s)
    assert _chord_template.cache_info().currsize == 0


@pytest.mark.parametrize("q, ambient", [(1, 3), (2, 2), (2, 3), (3, 3)])
def test_chord_lengths_match_embedded_distances(q, ambient):
    rng = np.random.default_rng(7)
    slots = edge_slots(q)
    simplices = _well_shaped(rng, q, ambient, 50)
    lengths = np.array([[np.linalg.norm(p[i] - p[j]) for i, j in slots]
                        for p in simplices])
    for s in (1, 2, 3):
        got = _chord_lengths(lengths, q, s).reshape(len(simplices), -1)
        want = np.array([_embedded_chords(p, s) for p in simplices])
        assert np.all(np.abs(got - want) <= 1e-14 * want)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_chords_reappear_bit_identical_at_the_next_level(shell16, q):
    cx = shell16.complex
    rows = {1: np.arange(len(cx.edges()))[:, None], 2: geodesy._facet_cells(cx)[1],
            3: cx.simplex_edge_rows}[q]
    lengths = shell16.metric.lengths[rows]
    for s in (1, 2, 3):
        coarse_nodes, coarse_pairs, _ = _chord_template(q, s)
        fine_nodes, fine_pairs, _ = _chord_template(q, s + 1)
        # a node's numerators over 2**s, doubled, are its numerators over
        # 2**(s+1)
        index = {tuple(row): k for k, row in enumerate(fine_nodes.tolist())}
        lift = [index[tuple(row)] for row in (2 * coarse_nodes).tolist()]
        fine_at = {(a, b): k for k, (a, b) in enumerate(fine_pairs.tolist())}
        at = [fine_at[(lift[a], lift[b])] for a, b in coarse_pairs.tolist()]
        coarse = _chord_lengths(lengths, q, s).reshape(len(lengths), -1)
        fine = _chord_lengths(lengths, q, s + 1).reshape(len(lengths), -1)
        assert coarse.tobytes() == fine[:, at].tobytes()


def test_edge_pairs_are_exact_halvings():
    # an edge's template pairs are its sub-edges of every level t = 0..s,
    # the dyadic intervals [j 2**(s-t), (j+1) 2**(s-t)], and the edge group
    # weighs each at l / 2**t bit for bit, across the float range
    lengths = 10.0 ** np.random.default_rng(5).uniform(-150, 150, 1000)
    nv = len(lengths) + 1
    edges = np.stack([np.arange(nv - 1), np.arange(1, nv)], axis=1)
    for s in range(5):
        n = 2**s
        pattern = geodesy._Pattern(nv, edges, [], s, lengths)
        data = pattern.reference[1]
        nodes, pairs, _ = _chord_template(1, s)
        # each end's numerator at the second vertex
        lo, hi = np.sort(nodes[:, 1][pairs], axis=1).T
        intervals = sorted(zip((hi - lo).tolist(), lo.tolist()))
        assert intervals == sorted((n >> t, j * (n >> t))
                                   for t in range(s + 1) for j in range(2**t))
        assert pattern.n_raw == len(edges) * (2 ** (s + 1) - 1)

        def node(row, at):
            # an edge's end, or its interior point at/2**s along it
            return np.where(at == 0, edges[row, 0], np.where(
                at == n, edges[row, 1], nv + row * (n - 1) + at - 1))
        rows = np.arange(len(edges))[:, None]
        m = csr_matrix((data, pattern.indices, pattern.indptr))
        got = np.asarray(m[node(rows, lo).ravel(), node(rows, hi).ravel()])
        want = lengths[:, None] / 2.0 ** (s - np.log2(hi - lo).astype(int))
        assert got.ravel().tobytes() == want.ravel().tobytes(), s


def test_repeated_simplex_raises():
    # a triangle listed twice would give its chords two raw entries, which
    # the CSR conversion would sum; the pattern refuses it instead
    cx = cs.build_complex([(0, 0), (1, 0), (0, 1), (1, 1)],
                          [(0, 1, 2), (1, 3, 2), (1, 3, 2)],
                          {"A": [(0, 2)], "X": [(0, 1)]}, signs=[1, 1, -1])
    sig = Signal(cx, induced_metric(cx))
    with pytest.raises(GeodesyError, match="lists a top simplex twice"):
        distance_field(sig, "A", 1)


def test_diameter_square(square16):
    d = diameter(square16, "M", 2)
    assert math.sqrt(2.0) - 1e-9 <= d <= 1.02 * math.sqrt(2.0)


def test_diameter_region_edge(square16):
    assert diameter(square16, "A", 2) == pytest.approx(1.0, abs=1e-12)


def test_diameter_cylinder_wall(shell32):
    exact = math.hypot(math.pi, 1.0)
    d = diameter(shell32, "X", 2)
    assert d == pytest.approx(exact, rel=0.03)


def test_diameter_unknown_subset(square8):
    # "M" is the whole complex's one name; "all" is no subset
    for subset in ("W", "all"):
        with pytest.raises(RegionError) as err:
            diameter(square8, subset)
        assert str(err.value) == f"unknown subset {subset!r}"


def test_distance_scaling_under_dyadic_conformal_factor(square8):
    # constant factor c scales every distance by sqrt(c) exactly for dyadic c
    for c in (0.25, 4.0):
        scaled = Signal(square8.complex,
                        conformal_scale(square8.metric,
                                        np.full(square8.complex.n_vertices, c)))
        f0 = distance_field(square8, "A", 2)
        f1 = distance_field(scaled, "A", 2)
        assert np.allclose(f1, math.sqrt(c) * f0, rtol=1e-12, atol=1e-15)


def test_injectivity_analytic_from_hints(square16, shell16):
    est = injectivity_radius(square16, "A")
    assert est.method == "analytic"
    assert est.value == 1.0
    est_x = injectivity_radius(shell16, "X")
    assert est_x.method == "analytic"
    assert est_x.value == pytest.approx(0.2)


INJECTIVITY_CASES = {
    "square": lambda: cs.gen_square(16),
    "rectangle": lambda: cs.gen_rectangle(2.0, 1.0, 16),
    "thin-shell": lambda: cs.gen_annular_shell(1.0, 1.2, 1.0, 16),
    "shell": lambda: cs.gen_annular_shell(1.0, 2.0, 2.0, 8),
}


NO_CUT_CASES = dict(INJECTIVITY_CASES, **{
    "thin-shell-32": lambda: cs.gen_annular_shell(1.0, 1.2, 1.0, 32),
    "shell-24": lambda: cs.gen_annular_shell(1.0, 2.0, 2.0, 24),
})


@pytest.mark.parametrize("name", sorted(NO_CUT_CASES))
def test_injectivity_without_hints_matches_analytic(name):
    # no edge flags a cut on these geometries, so the estimate is max f_R
    # itself, which the radial (or straight) edges make the analytic i_R to
    # rounding; on the thin shell at n = 16 the rule without the edge length
    # flags on X, where diagonal neighbours' feet are two angular steps apart
    sig = NO_CUT_CASES[name]()
    stripped = Signal(sig.complex, sig.metric, hints={})
    for region in ("A", "X"):
        est = injectivity_radius(stripped, region)
        assert est.method == "heuristic"
        assert est.value == distance_field(stripped, region).max()
        assert est.value == pytest.approx(sig.hints[f"i_{region}"], rel=1e-12)


def test_injectivity_unknown_region(square8):
    with pytest.raises(RegionError):
        injectivity_radius(square8, "B")


def _all_pairs_diameter(sig, subset, s):
    """The maximum over all pairwise searches, which ``diameter`` must
    reproduce bit for bit."""
    graph = _graph(sig, s, None if subset == "M" else subset)
    verts = (np.arange(sig.complex.n_vertices) if subset == "M"
             else cs.region_vertices(sig.complex, subset))
    return geodesy._distances_to_vertices(graph, verts, verts).max()


@pytest.mark.parametrize("metric", ["induced", "conformal"])
@pytest.mark.parametrize("name", sorted(INJECTIVITY_CASES))
def test_pruned_diameter_equals_the_all_pairs_maximum(name, metric):
    # the exact pruning keeps the all-pairs result bit for bit
    sig = INJECTIVITY_CASES[name]()
    met = sig.metric
    if metric == "conformal":
        factors = np.random.default_rng(9).uniform(0.9, 1.1, sig.complex.n_vertices)
        met = conformal_scale(sig.metric, factors)
    for subset in ("M", "A", "X"):
        for s in (1, 2):
            fresh = Signal(sig.complex, met, hints={})
            assert (diameter(fresh, subset, s)
                    == _all_pairs_diameter(fresh, subset, s)), (subset, s)


def test_pruned_diameter_keeps_rows_one_ulp_above_their_cap():
    # on this coarse mesh some row maxima round one ulp above a cap that
    # equals the best so far (seeds 3 and 5 at s = 0); pruning them without
    # the rounding margin would return a diameter one ulp short
    sig = cs.gen_rectangle(2.0, 1.0, 4)
    for seed in range(6):
        factors = np.random.default_rng(seed).uniform(0.9, 1.1, sig.complex.n_vertices)
        met = conformal_scale(sig.metric, factors)
        for s in (0, 1, 2):
            fresh = Signal(sig.complex, met, hints={})
            assert diameter(fresh, "M", s) == _all_pairs_diameter(fresh, "M", s), (seed, s)


def test_diameter_without_hints_takes_few_searches(square64, monkeypatch):
    # ROADMAP item 4: the all-pairs search took 4,225 searches here
    stripped = Signal(square64.complex, square64.metric, hints={})
    search = geodesy.dijkstra
    sources = []

    def counting(csgraph, *args, indices=None, **kwargs):
        sources.extend(np.atleast_1d(indices).tolist())
        return search(csgraph, *args, indices=indices, **kwargs)

    monkeypatch.setattr(geodesy, "dijkstra", counting)
    assert diameter(stripped, "M", 2) == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert len(sources) <= 8


def test_disconnected_region_diameter_raises(square8):
    # two boundary edges of A that share no vertex
    cx = square8.complex
    a_facets = sorted(cx.labels["A"])
    labels = {tag: sorted(cx.labels[tag]) for tag in cx.labels}
    labels["A"] = [a_facets[0], a_facets[-1]]
    relabeled = Signal(cx.with_labels(labels), square8.metric, hints={})
    with pytest.raises(GeodesyError, match="subset 'A' is disconnected"):
        diameter(relabeled, "A", 2)


# A path 0 - 1 - 2 - 3 of edges 0.5 long whose ends are the region: vertices
# 1 and 2 take their feet from opposite ends, so only edge (1, 2) is a
# candidate; ``intra`` gives the region-intrinsic distance between its feet.
PATH_F = np.array([0.0, 0.5, 0.5, 0.0])
PATH_FOOT = np.array([0, 0, 3, 3])
PATH_EDGES = np.array([[0, 1], [1, 2], [2, 3]])
PATH_REGION = np.array([0, 3])


def _path_cut(sep, edges=PATH_EDGES, foot=PATH_FOOT):
    intra = np.array([[0.0, sep], [sep, 0.0]])

    def separation(ends):
        local = np.searchsorted(PATH_REGION, ends)
        return intra[np.ix_(local, local)]
    return _first_cut_estimate(PATH_F, foot, edges, np.full(len(edges), 0.5),
                               PATH_REGION, separation)


def test_first_cut_estimate_fires_on_synthetic_data():
    # the two ends are separate region components (intrinsic separation
    # inf); the fronts meet mid-edge, at (0.5 + 0.5 + 0.5) / 2
    assert _path_cut(np.inf) == pytest.approx(0.75)


def test_first_cut_estimate_silent_when_feet_close():
    assert _path_cut(0.05) is None


def test_first_cut_estimate_widens_by_the_edge_length():
    # the bound is (2 max(f_u, f_v) + l_uv)(1 + CUT_TAU) = 1.5 * 1.05 = 1.575:
    # a separation above 2 f (1 + CUT_TAU) = 1.05 but within it does not flag
    assert _path_cut(1.5) is None
    assert _path_cut(1.6) == pytest.approx(0.75)


def test_first_cut_estimate_skips_edges_inside_the_region():
    # an edge joining two region vertices would flag at f = 0; an edge with
    # one endpoint in the region flags where the fronts meet on it, at
    # (0.5 + 0 + 0.5) / 2
    assert _path_cut(np.inf, edges=np.array([[0, 3]])) is None
    assert _path_cut(np.inf, edges=np.array([[1, 3]])) == pytest.approx(0.5)


def _split_a(sig, k):
    """``sig`` without hints, with A relabeled to its first and last k
    facets: two components of A with a gap between them."""
    cx = sig.complex
    a_facets = sorted(cx.labels["A"])
    labels = {tag: sorted(cx.labels[tag]) for tag in cx.labels}
    labels["A"] = a_facets[:k] + a_facets[-k:]
    return Signal(cx.with_labels(labels), sig.metric, hints={})


@pytest.mark.parametrize("n, k, expected", [
    (8, 1, 0.375), (8, 3, 0.125), (9, 1, 7 / 18), (9, 2, 5 / 18), (9, 3, 1 / 6),
    (17, 1, 15 / 34), (17, 3, 11 / 34)])
def test_first_cut_fires_between_region_components(n, k, expected):
    # the cut between the two components of A on the left side of the square
    # lies at half the gap from A, (n - 2k) / (2n): 3/8 for one facet per
    # end of square8 and 1/8 for three.  With three, the flagged edge joins
    # the gap vertex (0, 1/2) to the component it does not take its foot
    # from; skipping every edge that touches A would flag only one ring out.
    # On an odd gap the fronts meet inside the flagged edge, at the
    # half-gap too (7/18 on square9 comes out 1 ulp low)
    est = injectivity_radius(_split_a(cs.gen_square(n), k), "A", 2)
    assert est.method == "heuristic"
    assert expected == (n - 2 * k) / (2 * n)
    assert est.value == pytest.approx(expected, rel=1e-12)


def test_injectivity_without_hints_searches_the_full_graph_once(square64, monkeypatch):
    # one multi-source search labels every vertex with its foot; the
    # intrinsic distances come from searches on the small region graph
    stripped = Signal(square64.complex, square64.metric, hints={})
    for region in ("A", "X"):
        distance_field(stripped, region, 2)  # the field's own search
    full = _graph(stripped, 2).matrix
    search = geodesy.dijkstra
    calls = []

    def counting(csgraph, *args, indices=None, **kwargs):
        calls.append((csgraph is full, np.size(indices)))
        return search(csgraph, *args, indices=indices, **kwargs)

    monkeypatch.setattr(geodesy, "dijkstra", counting)
    for region in ("A", "X"):
        calls.clear()
        injectivity_radius(stripped, region, 2)
        assert [c for c in calls if c[0]] == [(True, 65)]


@settings(max_examples=10, deadline=None)
@given(n=st.integers(min_value=2, max_value=6))
def test_distance_field_nonnegative_and_finite(n):
    sig = cs.gen_square(n)
    f = distance_field(sig, "A", 1)
    assert np.all(f >= 0.0)
    assert np.all(np.isfinite(f))


def test_scalar_field_json_round_trip(square8):
    import json
    f = distance_field(square8, "A")
    data = json.loads(json.dumps(f.tolist()))
    assert data == f.tolist()
    assert len(data) == square8.complex.n_vertices


# Noise balls that change edge lengths on the region named with them: on the
# squares the ball reaches the right edge B, on the shell it sits on the
# outer wall Y; all avoid A and X as noise requires.  On square8 the ball
# changes 84 of the 208 edge rows (0.40), more than 1/FILL_SHARE, so its
# graphs are filled in full; on square32 and shell16 they are filled
# through a plan (test_noise_cases_lie_on_both_sides_of_the_fill_bound).
NOISE_CASES = {
    "square8": ((0.75, 0.5), 0.125, 0.375, "B"),
    "square32": ((0.875, 0.5), 0.0625, 0.1875, "B"),
    "shell16": ((1.2, 0.0, 0.5), 0.05, 0.15, "Y"),
}


SWEEP = (0.4, 0.2, 0.1, 0.05)


def _copy(sig):
    """``sig`` on a complex loaded afresh: no pattern, reference fill or
    kept field is shared with it."""
    return signal_from_dict(signal_to_dict(sig))


def _fresh(noisy):
    """A deformed signal on a complex loaded afresh, with no reference."""
    return signal_from_dict(signal_to_dict(noisy))


def _sweep(sig, name):
    """(centre, noisy signal) for each eps of SWEEP in the noise case
    ``name``.  Where the deformed metric breaks a simplex, the local volume
    path must raise the message of a fresh complex, and the eps is
    skipped."""
    centre, delta0, delta, _ = NOISE_CASES[name]
    p = cs.vertex_at(sig, centre, tol=1e-6)
    for eps in SWEEP:
        spec = NoiseSpec(p, delta0, delta, eps)
        try:
            noisy = apply_noise(sig, spec)
        except MetricError as exc:
            assert str(exc) == _fresh_volume_error(sig, spec)
            continue
        yield p, noisy


def _fresh_volume_error(sig, spec):
    """The MetricError message of the noisy metric's volumes on a fresh
    complex, where they are computed in full."""
    deformed = conformal_scale(sig.metric, bump_field(sig, spec))
    fresh = _copy(sig)
    with pytest.raises(MetricError) as err:
        Signal(fresh.complex, MetricField(deformed.edges, deformed.lengths,
                                          "deformed")).simplex_volumes()
    return str(err.value)


@pytest.mark.parametrize("name", sorted(NOISE_CASES))
def test_noise_cases_lie_on_both_sides_of_the_fill_bound(request, name):
    sig = _copy(request.getfixturevalue(name))
    _graph(sig, 2)
    shares = set()
    for _, noisy in _sweep(sig, name):
        changed = noisy.metric.lengths != sig.metric.lengths
        shares.add((np.count_nonzero(changed), len(changed)))
        full = geodesy.FILL_SHARE * np.count_nonzero(changed) > len(changed)
        assert full == (name == "square8")
        assert (_graph(noisy, 2).plan is None) == full
    if name == "square8":
        assert shares == {(84, 208)}


@pytest.mark.parametrize("name", sorted(NOISE_CASES))
@pytest.mark.parametrize("whole", [True, False])
def test_noise_refills_the_shared_pattern(request, name, whole):
    sig = _copy(request.getfixturevalue(name))
    tag = None if whole else NOISE_CASES[name][3]
    base = _graph(sig, 2, tag)
    pattern, reference = base.pattern, base.pattern.reference
    ref_data = reference[1].copy()
    assert base.reference and base.plan is None
    # a fill that changes one of the pattern's rows leaves a plan on it
    rows = edge_rows(sig.complex.edges(), pattern.edges)
    lengths = sig.metric.lengths.copy()
    lengths[rows[0]] *= 1.001
    planned = _graph(Signal(sig.complex, MetricField(sig.metric.edges, lengths, "deformed")),
                     2, tag).plan
    assert planned is not None and planned is pattern.plan
    refilled = 0
    for _, noisy in _sweep(sig, name):
        graph = _graph(noisy, 2, tag)
        assert graph.pattern is pattern
        # every refill starts from the first fill, which stays the reference
        assert graph.pattern.reference is reference
        assert reference[1].tobytes() == ref_data.tobytes()
        assert not graph.reference
        # a local fill takes the pattern's plan; a full refill leaves it
        changed = noisy.metric.lengths[rows] != sig.metric.lengths[rows]
        if geodesy.FILL_SHARE * np.count_nonzero(changed) > len(changed):
            assert graph.plan is None and pattern.plan is planned
        else:
            assert graph.plan is pattern.plan is not None
        assert graph.matrix.indptr is base.matrix.indptr
        assert np.shares_memory(graph.matrix.indices, base.matrix.indices)
        assert not np.array_equal(graph.matrix.data, base.matrix.data)

        # a complex loaded afresh shares no pattern, and builds the same graph
        fresh = _fresh(noisy)
        ref = _graph(fresh, 2, tag)
        assert ref.pattern is not base.pattern
        for key in ("data", "indices", "indptr"):
            got, want = getattr(graph.matrix, key), getattr(ref.matrix, key)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert noisy.simplex_volumes().tobytes() == fresh.simplex_volumes().tobytes()
        refilled += 1
    assert refilled


def test_local_volumes_raise_the_fresh_complex_error():
    # the simplex the error names lies in the noise ball, so only the local
    # path computes it; a fresh complex computes every volume
    sig = cs.gen_annular_shell(1.0, 2.0, 2.0, 32)
    centre = int(np.argmin(np.linalg.norm(sig.complex.vertices - [2.0, 0.0, 1.0],
                                          axis=1)))
    spec = NoiseSpec(centre, 0.25, 0.9, 0.05)
    message = ("simplex (1013, 1021, 29, 30) has nonpositive squared volume "
               "-7.448e-08: metric violates the simplex inequalities")
    with pytest.raises(MetricError) as err:
        apply_noise(sig, spec)
    assert str(err.value) == message
    assert _fresh_volume_error(sig, spec) == message


def _fields(p):
    return {"X": lambda s: distance_field(s, "X"),
            "A": lambda s: distance_field(s, "A"),
            "vertex": lambda s: distance_to_vertex(s, p)}


def _inner_weights(graph):
    """The weights of the built matrix on the slots within W of the
    graph's plan, in slot order."""
    nodes, m = graph.plan.sub[0], graph.matrix
    inside = np.zeros(m.shape[0], dtype=bool)
    inside[nodes] = True
    slots = np.concatenate([np.arange(m.indptr[u], m.indptr[u + 1]) for u in nodes])
    return m.data[slots[inside[m.indices[slots]]]]


@pytest.mark.parametrize("name", sorted(NOISE_CASES))
def test_field_update_matches_a_fresh_search(request, name, monkeypatch):
    sig = _copy(request.getfixturevalue(name))
    for region in ("A", "X"):
        distance_field(sig, region)  # the reference fields
    solve, updates = geodesy._solve_inside, []

    def checking(graph, *args):
        # W's subgraph holds the reference weights with this graph's
        # weights of the plan's slots written over them
        out = solve(graph, *args)
        sub = graph.plan.sub[-1]
        inner = sub.data[:sub.indptr[len(graph.plan.sub[0])]]
        assert inner.tobytes() == _inner_weights(graph).tobytes()
        updates.append(graph)
        return out

    monkeypatch.setattr(geodesy, "_solve_inside", checking)
    for p, noisy in _sweep(sig, name):
        fresh = _fresh(noisy)
        for field in _fields(p).values():
            assert field(noisy).tobytes() == field(fresh).tobytes()
    assert bool(updates) == (name != "square8")


def _count_searches(monkeypatch, n_nodes):
    """A list that records "full" or "sub" for each later Dijkstra call,
    by the size of the graph searched."""
    search = geodesy.dijkstra
    calls = []

    def counting(csgraph, *args, **kwargs):
        calls.append("full" if csgraph.shape[0] == n_nodes else "sub")
        return search(csgraph, *args, **kwargs)

    monkeypatch.setattr(geodesy, "dijkstra", counting)
    return calls


def _count_assemblies(monkeypatch):
    """A list that records each later pattern whose slot map is assembled."""
    assemble = geodesy._Pattern._assemble
    assembled = []

    def counting(pattern):
        assembled.append(pattern)
        return assemble(pattern)

    monkeypatch.setattr(geodesy._Pattern, "_assemble", counting)
    return assembled


def test_field_update_settles_grows_or_falls_back(shell16, monkeypatch):
    # on the shell16 ball at eps 0.4 the X field settles on the touched
    # nodes; A lowers nodes past them and settles after one growth; the
    # centre's own field, kept on the pattern here as a region field is,
    # lowers nearly everywhere, so its growth passes the cap and the full
    # search runs
    sig = _copy(shell16)
    for region in ("A", "X"):
        distance_field(sig, region)
    p, noisy = next(_sweep(sig, "shell16"))
    nv = sig.complex.n_vertices
    fields = dict(_fields(p), vertex=lambda s: geodesy._field(
        _graph(s, 2), ("centre", p), np.array([p]))[:nv])
    fields["vertex"](sig)  # the reference
    graph = _graph(noisy, 2)
    indptr = graph.pattern.indptr
    counts = np.diff(indptr)
    assert counts[graph.plan.touched].sum() * geodesy.LOCAL_SHARE <= indptr[-1]
    calls = _count_searches(monkeypatch, graph.pattern.n_nodes)
    for key, want in (("X", ["sub"]), ("A", ["sub", "sub"]),
                      ("vertex", ["sub", "full"])):
        calls.clear()
        got = np.asarray(fields[key](noisy))
        assert calls == want, key
        assert got.tobytes() == _fields(p)[key](_fresh(noisy)).tobytes()


def _risen_tree_chords(graph, reference, sources):
    """Chord entries whose weight rose on tree edges of the reference
    graph's search from ``sources``."""
    pred = dijkstra(reference.matrix, directed=True, indices=sources,
                    min_only=True, return_predecessors=True)[1]
    m, pattern = graph.matrix, graph.pattern
    child = np.flatnonzero(pred >= 0)
    # the slot of (child, pred) in the sorted CSR rows
    slot = np.array([m.indptr[c] + np.searchsorted(m.indices[m.indptr[c]:m.indptr[c + 1]],
                                                  pred[c]) for c in child])
    rose = m.data[slot] > reference.matrix.data[slot]
    # the edge group's sub-edges come first in the raw order
    n_sub = len(pattern.edges) * len(_chord_template(1, pattern.s)[1])
    return np.count_nonzero(rose & (_slot_raw(pattern)[slot] >= n_sub))


def test_field_update_from_a_noisy_reference(shell16, monkeypatch):
    # the reverse direction: the noisy metric is the reference and the base
    # metric the target, so weights rise across the ball, chords among them,
    # on tree edges; the update only lowers, so each field is one full search
    sig = _copy(shell16)
    p, noisy = next(_sweep(sig, "shell16"))
    ref = _fresh(noisy)
    for field in _fields(p).values():
        field(ref)
    reference = _graph(ref, 2)
    target = Signal(ref.complex, MetricField(sig.metric.edges, sig.metric.lengths,
                                             "induced"))
    graph = _graph(target, 2)
    assert graph.plan is not None
    calls = _count_searches(monkeypatch, graph.pattern.n_nodes)
    for key, field in _fields(p).items():
        sources = (np.array([p]) if key == "vertex"
                   else geodesy._region_sources(ref, reference, key))
        assert _risen_tree_chords(graph, reference, sources) > 0, key
        calls.clear()
        got = field(target)
        assert calls == ["full"], key
        assert got.tobytes() == field(sig).tobytes()


def test_eps_sweep_updates_the_x_fields_on_the_subgraph(shell16, monkeypatch):
    sig = _copy(shell16)
    p = cs.vertex_at(sig, NOISE_CASES["shell16"][0], tol=1e-6)
    want = eps_sweep(_copy(shell16), NoiseSpec(p, 0.05, 0.15, 0.5), [0.5, 0.4])
    distance_to_vertex(sig, p)
    calls = _count_searches(monkeypatch, _graph(sig, 2).pattern.n_nodes)
    fields = []
    field = geodesy._field

    def recording(graph, key, sources):
        before = len(calls)
        out = field(graph, key, sources)
        fields.append((key[0], key[1] == sig.complex.region_facets("X").tobytes(),
                       calls[before:]))
        return out

    monkeypatch.setattr(geodesy, "_field", recording)
    got = eps_sweep(sig, NoiseSpec(p, 0.05, 0.15, 0.5), [0.5, 0.4])
    assert got.to_dict() == want.to_dict()
    # the base fields are full searches, kept as the reference; each eps
    # updates X on the subgraph alone
    x_fields = [c for kind, is_x, c in fields if kind == "field" and is_x]
    assert x_fields == [["full"], ["sub"], ["sub"]]


def test_check_filter_searches_the_noisy_field_in_full(monkeypatch):
    # the glue-filter set-up: its ball changes 932 of the 7,008 edge rows,
    # between 1/LOCAL_SHARE and 1/FILL_SHARE, so the noisy graph is filled
    # through a plan, with no second slot map; its touched rows hold more
    # than 1/LOCAL_SHARE of the entries, so the noisy fields are full
    # searches on the reference data plus the plan's weights
    sig = cs.gen_square(48)
    filt = cs.extract_filter(sig, cs.keep_by_predicate(sig, lambda q: q[0] <= 0.5 + 1e-12))
    spec = NoiseSpec(cs.vertex_at(sig, (0.75, 0.5)), 0.1, 0.2, 0.25)
    pattern = _graph(sig, 2).pattern
    sizes = []
    search = geodesy.dijkstra

    def sizing(csgraph, *args, **kwargs):
        sizes.append(csgraph.shape[0])
        return search(csgraph, *args, **kwargs)

    monkeypatch.setattr(geodesy, "dijkstra", sizing)
    assembled = _count_assemblies(monkeypatch)
    report = cs.check_filter(sig, filt, spec, 2)
    assert pattern not in assembled
    deformed = apply_noise(sig, spec)
    changed = deformed.metric.lengths != sig.metric.lengths
    assert np.count_nonzero(changed) == 932 and len(changed) == 7008
    graph = _graph(deformed, 2)
    assert graph.plan is not None
    assert graph.plan.nnz * geodesy.LOCAL_SHARE > len(pattern.indices)
    filter_nodes = _graph(filt, 2).pattern.n_nodes
    assert set(sizes) == {pattern.n_nodes, filter_nodes}
    # the base centre field, the base and the noisy A fields
    assert sizes.count(pattern.n_nodes) == 3

    # the noisy fields and energy are those of a fresh complex's full fill
    monkeypatch.undo()
    fresh = _fresh(deformed)
    for region in ("A", "X"):
        got, want = distance_field(deformed, region), distance_field(fresh, region)
        assert got.tobytes() == want.tobytes()
    assert report.energy_noisy == cs.energy(fresh)


@pytest.mark.parametrize("name", ["square16", "shell16"])
def test_fills_below_the_fill_bound_assemble_no_map(request, name, monkeypatch):
    # a later metric whose first k edge rows are scaled, with k between
    # 1/LOCAL_SHARE and 1/FILL_SHARE of the rows, is filled through a plan:
    # no slot map is assembled again, and its fields are a fresh complex's
    sig = _copy(request.getfixturevalue(name))
    _graph(sig, 2)
    for region in ("A", "X"):
        distance_field(sig, region)
    n_rows = len(sig.metric.lengths)
    k = n_rows // 5
    assert geodesy.LOCAL_SHARE * k > n_rows >= geodesy.FILL_SHARE * k
    lengths = sig.metric.lengths.copy()
    lengths[:k] *= 1.1
    other = Signal(sig.complex, MetricField(sig.metric.edges, lengths, "deformed"))
    assembled = _count_assemblies(monkeypatch)
    p = sig.complex.n_vertices - 1
    got = {key: field(other) for key, field in _fields(p).items()}
    assert _graph(other, 2).plan is not None
    assert assembled == []
    monkeypatch.undo()
    fresh = _fresh(other)
    for key, field in _fields(p).items():
        assert got[key].tobytes() == field(fresh).tobytes(), key


def test_eps_sweep_plans_each_ball_once(shell16, monkeypatch):
    # the smallest eps runs first: A lowers nodes past the touched set there
    # and grows W once; every larger eps reuses the plan and its W, so each
    # field settles in one subgraph search (below 0.3 the ball breaks a tet)
    sweep = (0.5, 0.45, 0.4, 0.3)
    centre, delta0, delta, _ = NOISE_CASES["shell16"]
    sig = _copy(shell16)
    spec = NoiseSpec(cs.vertex_at(sig, centre, tol=1e-6), delta0, delta, 0.5)
    pattern = _graph(sig, 2).pattern
    calls = _count_searches(monkeypatch, pattern.n_nodes)
    now, eps_of, fields, grows, built = {"eps": None}, {}, [], [], []
    deformed = []
    noise, field = verify.apply_noise, geodesy._field
    grow, subgraph = geodesy._grow, geodesy._subgraph

    def noting(signal, spec, s):
        noisy = noise(signal, spec, s)
        eps_of[id(noisy)] = spec.epsilon
        deformed.append(noisy)
        return noisy

    def fielding(signal, region, s):
        now["eps"] = eps_of[id(signal)]
        return distance_field(signal, region, s)

    def recording(graph, key, sources):
        now["key"], before = key[1], len(calls)
        out = field(graph, key, sources)
        fields.append((now["eps"], key[1], calls[before:]))
        return out

    def growing(*args):
        grows.append((now["eps"], now["key"]))
        return grow(*args)

    def building(*args):
        built.append(now["eps"])
        return subgraph(*args)

    for name, wrapper in (("_field", recording), ("_grow", growing),
                          ("_subgraph", building)):
        monkeypatch.setattr(geodesy, name, wrapper)
    monkeypatch.setattr(verify, "apply_noise", noting)
    monkeypatch.setattr(verify, "distance_field", fielding)
    got = eps_sweep(sig, spec, sweep)
    a, x = (sig.complex.region_facets(tag).tobytes() for tag in "AX")
    assert grows == [(min(sweep), a)]
    assert len(built) <= 2
    noisy = [(eps, key, c) for eps, key, c in fields if eps is not None]
    assert [(eps, key) for eps, key, _ in noisy] == [
        (eps, key) for eps in sorted(sweep) for key in (x, a)]
    assert all(c == ["sub"] for eps, key, c in noisy
               if eps > min(sweep) or key == x)
    # every field settled on W's subgraph, so no noisy graph built its matrix
    graphs = [_graph(d, 2) for d in deformed]
    assert len(graphs) == len(sweep)
    assert all(g.plan is not None and "matrix" not in vars(g) for g in graphs)

    # the same sweep with the plan dropped before every eps
    again = _copy(shell16)
    fresh = _graph(again, 2).pattern

    def dropping(signal, region, s):
        if region == "X":
            fresh.plan = None
        return distance_field(signal, region, s)

    monkeypatch.setattr(verify, "apply_noise", noise)
    monkeypatch.setattr(verify, "distance_field", dropping)
    want = eps_sweep(again, spec, sweep)
    assert fresh.plan is not None
    assert json.dumps(got.to_dict()).encode() == json.dumps(want.to_dict()).encode()


def test_eps_sweep_names_the_first_eps_that_breaks_a_simplex(shell16):
    # the fields run smallest eps first, but the metrics are deformed in the
    # given order: 0.2 is the first of SWEEP to break a tet on shell16
    centre, delta0, delta, _ = NOISE_CASES["shell16"]
    p = cs.vertex_at(shell16, centre, tol=1e-6)
    errors = {}
    for eps in (0.2, 0.05):
        with pytest.raises(MetricError) as err:
            apply_noise(_copy(shell16), NoiseSpec(p, delta0, delta, eps))
        errors[eps] = str(err.value)
    assert errors[0.2] != errors[0.05]
    with pytest.raises(MetricError) as err:
        eps_sweep(_copy(shell16), NoiseSpec(p, delta0, delta, 0.5), SWEEP)
    assert str(err.value) == errors[0.2]


@pytest.mark.parametrize("name", ["square32", "shell16"])
def test_distance_within_matches_the_full_field_inside_its_bound(request, name):
    sig = request.getfixturevalue(name)
    centre, _, delta, _ = NOISE_CASES[name]
    p = cs.vertex_at(sig, centre, tol=1e-6)
    full = distance_to_vertex(sig, p)
    reached = []
    for radius in (delta, 0.5):
        got = distance_within(sig, p, radius)
        within = full <= radius + geodesy.BALL_ULPS * np.spacing(radius)
        assert got[within].tobytes() == full[within].tobytes()
        assert np.all(np.isinf(got[~within]))
        reached.append(np.count_nonzero(within))
    assert 1 <= reached[0] < reached[1] < len(full)


@pytest.mark.parametrize("name", ["square8", "shell16"])
def test_distance_to_vertex_is_the_unbounded_ball(request, name):
    # every vertex's field is the full search's bits, and no centre's field
    # is kept on the shared pattern
    sig = _copy(request.getfixturevalue(name))
    graph = _graph(sig, 2)
    kept = dict(graph.pattern.fields)
    for p in range(sig.complex.n_vertices):
        want = dijkstra(graph.matrix, directed=True, indices=np.array([p]),
                        min_only=True)[:graph.nv]
        assert distance_to_vertex(sig, p).tobytes() == want.tobytes()
    assert graph.pattern.fields == kept


def test_distance_within_reaches_four_ulp_past_the_radius(square8):
    # the grid neighbours of the centre at 3/8 lie two ulp past this radius
    p = cs.vertex_at(square8, (0.5, 0.5))
    radius = 0.375 - 2.0 * np.spacing(0.375)
    got = distance_within(square8, p, radius)
    assert np.count_nonzero(got == 0.375) == 4
    assert np.all((got <= radius) | (got == 0.375) | np.isinf(got))


def test_ball_errors_keep_the_full_field_distances(square32):
    # a ball that reaches A and one that reaches a filter name the nearest
    # distance of the full centre field
    p = cs.vertex_at(square32, (0.125, 0.5))
    rho = distance_to_vertex(square32, p)
    closest = rho[region_vertices(square32.complex, "A")].min()
    with pytest.raises(NoiseError) as err:
        check_noise_spec(_copy(square32), NoiseSpec(p, 0.1, 0.2, 0.25))
    assert str(err.value) == ("closed delta-ball (delta=0.2) reaches region A "
                              f"(nearest vertex at {closest:.6g})")

    filt = cs.extract_filter(square32, cs.keep_by_predicate(
        square32, lambda q: q[0] <= 0.5 + 1e-12))
    p = cs.vertex_at(square32, (0.625, 0.5))
    rho = distance_to_vertex(square32, p)
    coords = {tuple(q): i for i, q in enumerate(square32.complex.vertices)}
    hit = next(i for i in (coords[tuple(q)] for q in filt.complex.vertices)
               if rho[i] < 0.2)
    assert 0.0 < rho[hit] < 0.2
    with pytest.raises(FilterError) as err:
        check_filter(_copy(square32), filt, NoiseSpec(p, 0.1, 0.2, 0.25))
    assert str(err.value) == (f"noise ball intersects the filter (vertex {hit} at "
                              f"distance {rho[hit]:.6g} < delta=0.2)")


@pytest.mark.parametrize("name", ["square8", "shell16"])
def test_pattern_indices_are_sorted_within_rows(request, name):
    # scipy's COO -> CSR conversion returns canonical rows; the pattern
    # relies on it and sorts nothing itself
    sig = request.getfixturevalue(name)
    for tag in (None, "A"):
        pattern = _graph(sig, 2, tag).pattern
        rows = np.repeat(np.arange(pattern.n_nodes), np.diff(pattern.indptr))
        same_row = np.diff(rows) == 0
        assert np.all(np.diff(pattern.indices)[same_row] > 0)


@pytest.mark.parametrize("name", ["square8", "shell16"])
def test_every_raw_entry_is_a_distinct_pair(request, name):
    # each node pair has one owner, so no raw entry repeats a pair
    sig = request.getfixturevalue(name)
    for s in range(4):
        for tag in (None, "A", "X"):
            graph = _graph(sig, s, tag)
            assert graph.matrix.nnz == 2 * graph.pattern.n_raw


def _slot_raw(pattern):
    """The raw entry of every CSR slot of ``pattern``, from a freshly
    assembled slot map: the int32 upper half of its float64 buffer."""
    slot_map = pattern._assemble()[2]
    return slot_map.view(np.int32)[len(slot_map):]


def _pattern_the_concatenated_way(pattern):
    """``indptr``, ``indices`` and the slot map of ``pattern`` rebuilt from
    int64 raw pairs gathered per group, node ids computed here from the
    template numerators, both halves of the COO concatenated and the payload
    decremented in a copy: the reference for the pattern's A + A^T
    assembly."""
    s, nv, interior = pattern.s, pattern.nv, 2**pattern.s - 1
    src, dst = [], []
    for faces, face_rows in pattern.cells:
        q = faces.shape[1] - 1
        nodes, pairs, _ = _chord_template(q, s)
        slot = {pair: k for k, pair in enumerate(map(tuple, edge_slots(q).tolist()))}
        gids = np.empty((len(faces), len(nodes)), dtype=np.int64)
        for k, row in enumerate(nodes.tolist()):
            # a vertex has one nonzero numerator; a point on the face's
            # edge (i, j) has two, m over 2**s at j, and lies m steps from
            # the edge's smaller vertex when that vertex is i
            ends = [i for i, x in enumerate(row) if x]
            if len(ends) == 1:
                gids[:, k] = faces[:, ends[0]]
            else:
                i, j = ends
                m = np.where(faces[:, i] > faces[:, j], 2**s - row[j], row[j])
                gids[:, k] = nv + face_rows[:, slot[i, j]] * interior + m - 1
        src.append(gids[:, pairs[:, 0]].ravel())
        dst.append(gids[:, pairs[:, 1]].ravel())
    i = np.concatenate(src, dtype=np.int32)
    j = np.concatenate(dst, dtype=np.int32)
    raw = np.arange(1, len(i) + 1, dtype=np.int32)
    m = coo_matrix((np.concatenate([raw, raw]),
                    (np.concatenate([i, j]), np.concatenate([j, i]))),
                   shape=(pattern.n_nodes, pattern.n_nodes)).tocsr()
    return m.indptr, m.indices, m.data - 1


@pytest.mark.parametrize("name", ["square8", "shell16"])
def test_pattern_matches_the_concatenated_build(request, name):
    sig = request.getfixturevalue(name)
    for s in range(4):
        for tag in (None, "A", "X"):
            pattern = _graph(sig, s, tag).pattern
            want = _pattern_the_concatenated_way(pattern)
            indptr, indices, _ = pattern._assemble()
            got = (indptr, indices, _slot_raw(pattern))
            for a, b in zip(got, want):
                assert a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()
            assert pattern.indptr.tobytes() == indptr.tobytes()
            assert pattern.indices.tobytes() == indices.tobytes()


def _raw_weights(pattern, lengths):
    """The weight of every raw entry, all faces of a group at once."""
    return np.concatenate([_chord_lengths(lengths[face_rows], faces.shape[1] - 1, pattern.s)
                           for faces, face_rows in pattern.cells])


@pytest.mark.parametrize("make", [lambda: cs.gen_square(8),
                                  lambda: cs.gen_annular_shell(1, 1.2, 1, 16)],
                         ids=["square8", "shell16"])
def test_full_fills_write_the_plain_gather_in_place(make):
    # the pattern is built with its reference fill, and a later full fill
    # writes over a freshly assembled map.  Both give the plain gather over
    # a freshly assembled map
    sig = make()
    rng = np.random.default_rng(4)
    for s in range(4):
        graph = _graph(sig, s)
        pattern = graph.pattern
        assert graph.reference and graph.plan is None
        want = _raw_weights(pattern, sig.metric.lengths)[_slot_raw(pattern)]
        assert graph.weights.tobytes() == want.tobytes()

        factors = rng.uniform(0.9, 1.1, sig.complex.n_vertices)
        other = Signal(sig.complex, conformal_scale(sig.metric, factors))
        changed = other.metric.lengths != sig.metric.lengths
        assert np.count_nonzero(changed) * geodesy.FILL_SHARE > len(changed)
        refilled = _graph(other, s)
        assert refilled.pattern is pattern and refilled.plan is None
        assert not refilled.reference
        want = _raw_weights(pattern, other.metric.lengths)[_slot_raw(pattern)]
        assert refilled.weights.tobytes() == want.tobytes()
        assert pattern.reference[1].tobytes() == graph.weights.tobytes()


def _decoded_slots(pattern, plan):
    """The slots a local fill rewrites, decoded from the raw entry of every
    slot of the touched rows, and the index of each into the hit faces'
    pairs laid end to end: the reference for the plan's key matching.  Raw
    entry start_g + f * n_pairs + p is pair p of face f of group g."""
    slots = geodesy._row_slots(pattern.indptr, plan.touched)
    raw = _slot_raw(pattern)[slots]
    at, index = [], []
    start = offset = 0
    for (faces, _), hit_faces in zip(pattern.cells, plan.hits):
        n_pairs = _n_pairs(faces.shape[1] - 1, pattern.s)
        end = start + len(faces) * n_pairs
        grp = np.flatnonzero((raw >= start) & (raw < end))
        face, pair = np.divmod(raw[grp] - start, n_pairs)
        rank = np.full(len(faces), -1, dtype=np.int64)
        rank[hit_faces] = np.arange(len(hit_faces))
        rank = rank[face]
        found = rank >= 0
        at.append(slots[grp[found]])
        index.append(offset + rank[found] * n_pairs + pair[found])
        offset += len(hit_faces) * n_pairs
        start = end
    return np.concatenate(at), np.concatenate(index)


@pytest.mark.parametrize("name", sorted(NOISE_CASES))
def test_plan_slots_match_the_decoded_slots(request, name):
    # the plan finds its slots by node-pair keys; each slot appears once,
    # the set is the decoded one, and the noisy data written through either
    # is the same bits
    sig = _copy(request.getfixturevalue(name))
    planned = 0
    for tag in (None, NOISE_CASES[name][3]):
        _graph(sig, 2, tag)
        for _, noisy in _sweep(sig, name):
            graph = _graph(noisy, 2, tag)
            plan, pattern = graph.plan, graph.pattern
            if plan is None:
                continue
            slots, index = _decoded_slots(pattern, plan)
            assert plan.slots.shape == (2, len(graph.weights))
            assert len(np.unique(plan.slots)) == plan.slots.size
            assert np.array_equal(np.sort(plan.slots, axis=None), np.sort(slots))
            data = pattern.reference[1].copy()
            data[slots] = graph.weights[index]
            assert graph.matrix.data.tobytes() == data.tobytes()
            planned += 1
    assert bool(planned) == (name != "square8")


@pytest.mark.parametrize("name", ["square8", "shell16"])
def test_full_fill_does_not_depend_on_the_chord_block(request, name, monkeypatch):
    # every chord is computed face by face, so blocks of any size, one
    # block included, give the first fill's bytes
    sig = request.getfixturevalue(name)
    for s in (1, 2, 3):
        for tag in (None, "A"):
            pattern = _graph(sig, s, tag).pattern
            lengths, data = pattern.reference
            for block in (7, 1, 10**9):
                monkeypatch.setattr(geodesy, "FILL_BLOCK", block)
                fresh = pattern._full_data(lengths, pattern._assemble()[2])
                assert fresh.tobytes() == data.tobytes()


@pytest.mark.parametrize("n", [16, 24])
def test_graph_assembly_peaks_near_the_bytes_it_keeps(n):
    # the graph keeps indptr, indices and data, 12 B per CSR entry plus
    # indptr; the A + A^T assembly and the first fill over the slot map
    # each peak near 16 B per entry, and no (faces, chords) temporary grows
    # with the mesh.  At n = 16 fixed tables dominate, so the bound there is
    # 1.4 times the 16 B an entry took with the slot map kept
    sig = cs.gen_annular_shell(1, 2, 2, n)
    tracemalloc.start()
    try:
        graph = _graph(sig, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pattern = graph.pattern
    assert graph.weights is pattern.reference[1]
    kept = pattern.indptr.nbytes + pattern.indices.nbytes + graph.weights.nbytes
    assert kept == 4 * (pattern.n_nodes + 1) + 12 * len(pattern.indices)
    assert peak <= {16: 22.4, 24: 18.5}[n] * len(pattern.indices)


def test_region_sources_are_kept_on_the_structure(shell16, monkeypatch):
    sig = _copy(shell16)
    distance_field(sig, "A")
    calls = []
    real = geodesy._facet_cells

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(geodesy, "_facet_cells", counted)
    _, noisy = next(_sweep(sig, "shell16"))
    distance_field(noisy, "A")
    # relabeled like fourier_relabel, but on a cache of its own
    cx = sig.complex
    labels = {new: cx.labels[old] for new, old in FOURIER_PERMUTATION.items()}
    distance_field(Signal(cx.with_labels(labels), sig.metric, hints={}), "X")
    assert calls == []
    sources = geodesy._region_sources(noisy, _graph(noisy, 2), "A")
    assert not sources.flags.writeable


def _global_nodes(pattern, rows, nodes):
    """Full-graph ids of a region graph's nodes; ``rows`` are the region's
    rows in the complex's edge table."""
    k = pattern._interior
    inner = nodes >= pattern.nv
    local = np.where(inner, nodes - pattern.nv, 0)
    return np.where(inner, pattern.nv + rows[local // k] * k + local % k, nodes)


def test_full_graph_weights_on_a_facet_match_the_region_graph(shell16):
    # a facet's chords come from the facet's own edge lengths, in the full
    # 3D graph as in the region graph, so both carry the same bytes
    cx = shell16.complex
    for s in (1, 2):
        full = _graph(shell16, s).matrix
        for tag in ("A", "X"):
            region = _graph(shell16, s, tag)
            rows = np.unique(geodesy._facet_cells(cx, tag)[1])
            coo = region.matrix.tocoo()
            i = _global_nodes(region.pattern, rows, coo.row)
            j = _global_nodes(region.pattern, rows, coo.col)
            got = np.asarray(full[i, j]).ravel()
            assert np.all(got > 0)
            assert got.tobytes() == coo.data.tobytes()


def test_reversed_tet_order_gives_the_same_weights(shell16):
    cx = shell16.complex
    rev = cs.build_complex(cx.vertices, cx.simplices[::-1], cx.labels,
                           cx.signs[::-1])
    fwd_graph = _graph(shell16, 2).matrix
    rev_graph = _graph(Signal(rev, induced_metric(rev)), 2).matrix
    for key in ("data", "indices", "indptr"):
        assert (getattr(fwd_graph, key).tobytes()
                == getattr(rev_graph, key).tobytes())


def test_eps_sweep_builds_one_full_pattern(monkeypatch):
    sig = cs.gen_square(8)  # a fresh complex: no pattern is stored yet
    built = []
    make = geodesy._Pattern

    def counting(nv, edges, cells, *args):
        built.append(cells[0][0].shape[1])
        return make(nv, edges, cells, *args)

    monkeypatch.setattr(geodesy, "_Pattern", counting)
    p = cs.vertex_at(sig, (0.75, 0.5))
    eps_sweep(sig, NoiseSpec(p, 0.125, 0.375, 0.5), [0.4, 0.2, 0.1, 0.05])
    assert built.count(3) == 1  # triangles: the full graph

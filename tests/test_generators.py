"""Generator contracts: counts, labels, analytic hints."""

import math

import numpy as np
import pytest

import cobsig as cs
from cobsig.errors import MeshError


def test_square_counts_n2():
    sig = cs.gen_square(2)
    assert sig.complex.n_vertices == 9
    assert sig.complex.n_simplices == 8
    for tag in "XYAB":
        assert len(sig.complex.labels[tag]) == 2


def test_square_validates(square16):
    assert cs.validate(square16.complex).ok


def test_square_rejects_small_n():
    with pytest.raises(MeshError):
        cs.gen_square(1)


def test_resolutions_must_be_integers():
    # a float resolution would be truncated to a coarser mesh
    for make, message in (
            (lambda: cs.gen_square(2.9), "square resolution is 2.9"),
            (lambda: cs.gen_rectangle(1.0, 1.0, 2.5), "rectangle resolution is 2.5"),
            (lambda: cs.gen_annular_shell(1.0, 2.0, 2.0, 8.5), "shell resolution is 8.5")):
        with pytest.raises(MeshError) as err:
            make()
        assert str(err.value) == message + ": expected integers, got float"
    assert cs.gen_square(np.int64(2)).complex.n_vertices == 9


def test_square_hints(square16):
    h = square16.hints
    assert h["E"] == 0.5
    assert h["EF"] == 0.5
    assert h["i_A"] == 1.0
    assert h["diam_M"] == pytest.approx(math.sqrt(2.0))
    assert h["vol_M"] == 1.0


def test_rectangle_hints_1x2():
    sig = cs.gen_rectangle(1.0, 2.0, 8)
    assert sig.hints["E"] == pytest.approx(1.0)
    assert sig.hints["EF"] == pytest.approx(2.0)
    assert sig.hints["vol_M"] == pytest.approx(2.0)
    assert cs.validate(sig.complex).ok


def test_rectangle_unit_matches_square_labeling():
    a = cs.gen_rectangle(1.0, 1.0, 4)
    b = cs.gen_square(4)
    assert a.complex.labels == b.complex.labels
    assert np.array_equal(a.complex.simplices, b.complex.simplices)


def test_rectangle_rejects_nonpositive_dims():
    with pytest.raises(MeshError):
        cs.gen_rectangle(0.0, 1.0, 4)


def test_shell_validates_with_all_regions(shell32):
    assert cs.validate(shell32.complex).ok
    for tag in "XYAB":
        assert len(shell32.complex.labels[tag]) > 0


def test_shell_every_boundary_facet_labeled(shell32):
    labeled = set()
    for tag in "XYAB":
        labeled |= shell32.complex.labels[tag]
    assert labeled == set(shell32.complex.boundary_facets)


def test_shell_hints(shell32):
    h = shell32.hints
    assert h["vol_M"] == pytest.approx(0.44 * math.pi)
    assert h["E"] == pytest.approx(0.22 * math.pi)
    exact_ef = 2 * math.pi * ((1.2**3 - 1) / 3 - (1.2**2 - 1) / 2)
    assert h["EF"] == pytest.approx(exact_ef)
    assert h["i_X"] == pytest.approx(0.2)
    assert h["i_A"] == pytest.approx(1.0)
    assert h["diam_X"] == pytest.approx(math.hypot(math.pi, 1.0))


def test_shell_parameter_validation():
    with pytest.raises(MeshError):
        cs.gen_annular_shell(1.2, 1.0, 1.0, 16)
    with pytest.raises(MeshError):
        cs.gen_annular_shell(1.0, 1.2, 1.0, 4)
    with pytest.raises(MeshError):
        cs.gen_annular_shell(1.0, 1.2, -1.0, 16)


def test_refinement_keeps_label_structure():
    for n in (4, 8):
        sig = cs.gen_square(n)
        cx = sig.complex
        for tag in "XYAB":
            assert len(cx.labels[tag]) == n
        for pair in (("A", "X"), ("A", "Y"), ("B", "X"), ("B", "Y")):
            assert cx.corner_faces(*pair)


def test_shell_refinement_keeps_regions():
    for res in (8, 16):
        sig = cs.gen_annular_shell(1.0, 1.2, 1.0, res)
        assert cs.validate(sig.complex).ok
        for tag in "XYAB":
            assert len(sig.complex.labels[tag]) > 0


def test_vertex_at(square8):
    p = cs.vertex_at(square8, (0.5, 0.5))
    assert np.allclose(square8.complex.vertices[p], (0.5, 0.5))
    with pytest.raises(MeshError):
        cs.vertex_at(square8, (0.5 + 0.01, 0.5))


def test_shell_orientation_positive(shell16):
    cx = shell16.complex
    p = cx.vertices[cx.simplices]
    det = np.linalg.det(p[:, 1:] - p[:, :1])
    assert np.all(det > 0)
    assert np.all(cx.signs == 1)


def test_hints_match_oracle_square(square16, square_oracle):
    h = square16.hints
    assert h["E"] == pytest.approx(square_oracle["E"], abs=1e-4)
    assert h["EF"] == pytest.approx(square_oracle["EF"], abs=1e-4)
    assert h["vol_M"] == pytest.approx(square_oracle["vol_M"], rel=1e-12)
    assert h["diam_M"] == pytest.approx(square_oracle["diam_M"], rel=1e-12)
    assert h["diam_A"] == pytest.approx(square_oracle["diam_A"], rel=1e-12)


def test_hints_match_oracle_shell(shell16, shell_oracle):
    h = shell16.hints
    assert h["E"] == pytest.approx(shell_oracle["E"], rel=1e-4)
    assert h["EF"] == pytest.approx(shell_oracle["EF"], rel=1e-4)
    assert h["vol_M"] == pytest.approx(shell_oracle["vol_M"], rel=1e-12)
    assert h["diam_X"] == pytest.approx(shell_oracle["diam_X"], rel=1e-12)
    assert h["diam_A"] == pytest.approx(shell_oracle["diam_A"], rel=1e-12)
    assert h["vol_X"] == pytest.approx(shell_oracle["vol_X"], rel=1e-12)

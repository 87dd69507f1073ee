"""Energy functionals, the label-exchange transform, and scaling laws."""

import math

import numpy as np
import pytest

import cobsig as cs
from cobsig.energy import energy, energy_ratio, fourier_energy, fourier_relabel
from cobsig.errors import CobsigError
from cobsig.geodesy import distance_field
from cobsig.metric import conformal_scale, lumped_vertex_volume
from cobsig.signal import Signal


def test_square_energy_matches_closed_form(square32, square_oracle):
    e = energy(square32)
    assert e == pytest.approx(square_oracle["E"], rel=0.02)
    assert e == pytest.approx(0.5, rel=0.02)


def test_square_fourier_energy(square32, square_oracle):
    ef = fourier_energy(square32)
    assert ef == pytest.approx(square_oracle["EF"], rel=0.02)


def test_square_ratio_unity_by_symmetry(square32):
    assert energy_ratio(square32) == pytest.approx(1.0, rel=0.04)


def test_shell_energies(shell32, shell_oracle):
    e = energy(shell32)
    ef = fourier_energy(shell32)
    assert e == pytest.approx(0.22 * math.pi, rel=0.03)
    assert ef == pytest.approx(shell_oracle["EF"], rel=0.03)
    exact_ratio = shell_oracle["EF"] / shell_oracle["E"]
    assert energy_ratio(shell32) == pytest.approx(exact_ratio, rel=0.06)


def test_fourier_relabel_permutation(square8):
    out = fourier_relabel(square8)
    cx, ox = out.complex, square8.complex
    assert cx.labels["X"] == ox.labels["A"]
    assert cx.labels["Y"] == ox.labels["B"]
    assert cx.labels["A"] == ox.labels["X"]
    assert cx.labels["B"] == ox.labels["Y"]


def test_fourier_relabel_involution(square8, shell16):
    for sig in (square8, shell16):
        twice = fourier_relabel(fourier_relabel(sig))
        for tag in "XYAB":
            assert twice.complex.labels[tag] == sig.complex.labels[tag]
        assert twice.hints == sig.hints


def test_fourier_relabel_shares_cache_entries(shell16):
    # a relabeling is cleaned like any labeling; its label sets equal the
    # original's and key the same validation, pattern and region-source
    # entries of the shared structure
    from cobsig.complex import validate
    from cobsig.geodesy import DEFAULT_STEINER_LEVEL, _graph, _region_sources
    twice = fourier_relabel(fourier_relabel(shell16))
    cx, tx = shell16.complex, twice.complex
    assert tx.labels == cx.labels
    assert validate(tx) is validate(cx)
    s = DEFAULT_STEINER_LEVEL
    assert _graph(twice, s, "A").pattern is _graph(shell16, s, "A").pattern
    graph = _graph(shell16, s)
    assert _region_sources(twice, graph, "X") is _region_sources(shell16, graph, "X")
    for tag in "XYAB":
        assert tx.region_facets(tag) is cx.region_facets(tag)


def test_fourier_relabel_shares_region_fields(square8):
    assert distance_field(fourier_relabel(square8), "A") is distance_field(square8, "X")


def test_energy_ratio_after_both_energies_starts_no_search(monkeypatch):
    import cobsig.geodesy as geodesy
    searches = []
    real = geodesy.dijkstra

    def counted(*args, **kwargs):
        searches.append(kwargs.get("indices"))
        return real(*args, **kwargs)

    monkeypatch.setattr(geodesy, "dijkstra", counted)
    sig = cs.gen_square(4)
    energy(sig)
    fourier_energy(sig)
    assert len(searches) == 2  # one multi-source search per region field
    energy_ratio(sig)
    assert len(searches) == 2


def test_fourier_relabel_swaps_hints(shell16):
    out = fourier_relabel(shell16)
    assert out.hints["E"] == shell16.hints["EF"]
    assert out.hints["i_A"] == shell16.hints["i_X"]
    assert out.hints["diam_X"] == shell16.hints["diam_A"]
    assert out.hints["vol_M"] == shell16.hints["vol_M"]


def test_fourier_energy_is_energy_of_relabeled(square16):
    assert fourier_energy(square16) == energy(fourier_relabel(square16))


def test_annular_relabel_description(shell16):
    # inner/outer walls become the A/B pair and vice versa
    out = fourier_relabel(shell16)
    assert out.complex.labels["A"] == shell16.complex.labels["X"]
    assert out.complex.labels["Y"] == shell16.complex.labels["B"]


def test_energy_scaling_constant_conformal(square16):
    # lengths x sqrt(c) => distances x sqrt(c), volumes x c^(d/2),
    # energy x c^((d+1)/2)
    d = square16.dim
    e0 = energy(square16)
    for c in (0.25, 4.0):
        scaled = Signal(
            square16.complex,
            conformal_scale(square16.metric,
                            np.full(square16.complex.n_vertices, c)),
        )
        e1 = energy(scaled)
        assert e1 == pytest.approx(c ** ((d + 1) / 2.0) * e0, rel=1e-6)


def test_ratio_invariant_under_constant_scaling(square16):
    r0 = energy_ratio(square16)
    scaled = Signal(
        square16.complex,
        conformal_scale(square16.metric,
                        np.full(square16.complex.n_vertices, 4.0)),
    )
    assert energy_ratio(scaled) == pytest.approx(r0, rel=1e-6)


def test_barycentric_quadrature_agrees_with_lumped(square16, shell16):
    # the sum over simplices of volume times the mean of f and the sum of f
    # against the lumped weights rearrange each other term for term
    for sig in (square16, shell16):
        f = distance_field(sig, "A")
        barycentric = np.dot(sig.simplex_volumes(), f[sig.complex.simplices].mean(axis=1))
        lumped = np.dot(f, lumped_vertex_volume(sig))
        assert barycentric == pytest.approx(lumped, rel=1e-12)
        assert lumped == energy(sig)


def test_energy_nonnegative(square8, shell16):
    assert energy(square8) >= 0.0
    assert energy(shell16) >= 0.0


def test_zero_energy_ratio_guard(monkeypatch):
    import importlib
    energy_mod = importlib.import_module("cobsig.energy")
    sig = cs.gen_square(2)
    monkeypatch.setattr(energy_mod, "energy", lambda s, steiner_level=2: 0.0)
    with pytest.raises(CobsigError):
        energy_ratio(sig)


def test_relabel_rejects_touching_new_A_B():
    # 2x2 square grid with X and Y sharing a corner vertex on the bottom
    # edge: valid as X/Y, but the exchange would make A and B touch there
    sig = cs.gen_square(2)
    cx = sig.complex
    by_mid = {}
    for f in map(tuple, cx.facets[cx.boundary].tolist()):
        mid = tuple(np.round(cx.vertices[list(f)].mean(axis=0), 6))
        by_mid[mid] = f
    labels = {
        "X": [by_mid[(0.25, 0.0)], by_mid[(0.25, 1.0)], by_mid[(0.75, 1.0)]],
        "Y": [by_mid[(0.75, 0.0)]],
        "B": [by_mid[(1.0, 0.25)], by_mid[(1.0, 0.75)]],
        "A": [by_mid[(0.0, 0.25)], by_mid[(0.0, 0.75)]],
    }
    cx2 = cs.build_complex(cx.vertices, cx.simplices, labels, cx.signs)
    assert cs.validate(cx2).ok
    tweaked = cs.make_signal(cx2)
    with pytest.raises(CobsigError):
        fourier_relabel(tweaked)

"""Inequality checks, the expansion sweep, the oracle, and refinement."""

import math
import tracemalloc

import numpy as np
import pytest

import cobsig as cs
from cobsig import geodesy
from cobsig.errors import FilterError, NoiseError
from cobsig.signal import Signal
from cobsig.signalops import NoiseSpec, extract_filter, keep_by_predicate, \
    make_correspondence
from cobsig.verify import (check_composition, check_filter, check_thm1_bounds,
                           eps_sweep, grid_oracle, refinement_study)


# -- two-sided ratio bound ---------------------------------------------------


def test_thm1_square(square32):
    rep = check_thm1_bounds(square32)
    assert rep.holds
    assert rep.ratio == pytest.approx(1.0, rel=0.04)
    assert rep.upper_bound == pytest.approx(1.0 + 4.0 * (math.sqrt(2.0) + 2.0),
                                            rel=1e-9)
    assert rep.lower_bound == pytest.approx(
        1.0 / (1.0 + 4.0 * (math.sqrt(2.0) + 2.0)), rel=1e-9
    )
    assert rep.inputs["i_A"] == (1.0, "analytic")
    assert rep.inputs["vol_M"][1] == "computed"


def test_thm1_shell(shell32):
    rep = check_thm1_bounds(shell32)
    assert rep.holds
    exact_ratio = 0.14241886696273695 / (0.22 * math.pi)
    assert rep.ratio == pytest.approx(exact_ratio, rel=0.06)
    assert rep.inputs["i_X"] == (pytest.approx(0.2), "analytic")


def test_thm1_heuristic_inputs_still_hold(square16):
    stripped = Signal(square16.complex, square16.metric, hints={})
    rep = check_thm1_bounds(stripped)
    assert rep.holds
    assert rep.inputs["i_A"][1] == "heuristic"
    assert rep.inputs["diam_M"][1] == "computed"


THM1_KEYS = ["E", "EF", "vol_M", "vol_A", "vol_X", "diam_M", "diam_A", "diam_X",
             "i_A", "i_X"]


@pytest.mark.parametrize("hinted, sources", [
    (True, ["computed"] * 5 + ["analytic"] * 5),
    (False, ["computed"] * 8 + ["heuristic"] * 2),
], ids=["hinted", "hint-free"])
def test_thm1_inputs_are_named_in_order_with_their_sources(square8, hinted, sources):
    sig = square8 if hinted else Signal(square8.complex, square8.metric, hints={})
    rep = check_thm1_bounds(sig)
    assert list(rep.inputs) == THM1_KEYS
    assert [source for _, source in rep.inputs.values()] == sources
    assert list(rep.to_dict()["inputs"]) == THM1_KEYS


def test_thm1_without_hints_computes_diam_m_once(square8, monkeypatch):
    # one diam(M) computation is a fixed sequence of single-source searches
    # on the full graph, none from the same vertex twice; the check must
    # make that sequence exactly once
    from cobsig import geodesy
    search = geodesy.dijkstra
    full_nodes = geodesy._graph(square8, 2).pattern.n_nodes
    sources = []

    def counting(csgraph, *args, indices=None, **kwargs):
        if np.ndim(indices) == 0 and csgraph.shape[0] == full_nodes:
            sources.append(int(indices))
        return search(csgraph, *args, indices=indices, **kwargs)

    monkeypatch.setattr(geodesy, "dijkstra", counting)
    geodesy.diameter(Signal(square8.complex, square8.metric, hints={}), "M", 2)
    one_computation = sources[:]
    assert one_computation
    assert len(set(one_computation)) == len(one_computation)

    sources.clear()
    rep = check_thm1_bounds(Signal(square8.complex, square8.metric, hints={}))
    assert rep.inputs["diam_M"][1] == "computed"
    assert rep.inputs["i_A"][1] == rep.inputs["i_X"][1] == "heuristic"
    assert sources == one_computation


def test_thm1_symmetric_signal_brackets_unity(square16):
    rep = check_thm1_bounds(square16)
    assert rep.lower_bound <= 1.0 <= rep.upper_bound


def test_thm1_rectangle_with_analytic_inputs():
    rep = check_thm1_bounds(cs.gen_rectangle(1.0, 2.0, 8))
    assert rep.holds
    assert rep.ratio == pytest.approx(2.0, rel=0.05)


# -- expansion sweep ---------------------------------------------------------


def test_eps_sweep_identity_limit(square16):
    p = cs.vertex_at(square16, (0.75, 0.5))
    spec = NoiseSpec(p, 0.1, 0.2, 0.5)
    rep = eps_sweep(square16, spec, [1.0 - 1e-12])
    row = rep.rows[0]
    assert row["measured_ratio"] == pytest.approx(rep.base_ratio, abs=1e-9)


def test_eps_sweep_rows_structure(square16):
    p = cs.vertex_at(square16, (0.75, 0.5))
    spec = NoiseSpec(p, 0.1, 0.2, 0.5)
    rep = eps_sweep(square16, spec, [0.4, 0.2])
    assert [r["eps"] for r in rep.rows] == [0.4, 0.2]
    for r in rep.rows:
        assert r["beta"] > 0 and r["gamma"] > 0
        assert np.isfinite(r["residual"])
        assert np.isfinite(r["residual_fixed"])


def test_eps_sweep_validates_the_base_complex_once(monkeypatch):
    # the report is kept on the complex, so no noisy signal re-validates it
    from cobsig import complex as complex_module
    body = complex_module._validate
    seen = []

    def counting(cx):
        seen.append(cx)
        return body(cx)

    monkeypatch.setattr(complex_module, "_validate", counting)
    sig = cs.gen_square(8)
    p = cs.vertex_at(sig, (0.75, 0.5))
    eps_sweep(sig, NoiseSpec(p, 0.125, 0.375, 0.5), [0.4, 0.2, 0.1])
    assert sum(cx is sig.complex for cx in seen) == 1


def test_eps_sweep_requires_descending(square16):
    p = cs.vertex_at(square16, (0.75, 0.5))
    spec = NoiseSpec(p, 0.1, 0.2, 0.5)
    with pytest.raises(ValueError):
        eps_sweep(square16, spec, [0.1, 0.2])
    with pytest.raises(ValueError):
        eps_sweep(square16, spec, [0.4, 1.2])


def test_eps_sweep_ball_near_region_rejected(square16):
    p = cs.vertex_at(square16, (0.125, 0.5))
    spec = NoiseSpec(p, 0.1, 0.2, 0.5)
    with pytest.raises(NoiseError):
        eps_sweep(square16, spec, [0.4, 0.2])


# -- filter inequalities -----------------------------------------------------


@pytest.fixture(scope="module")
def filter_setup(square32):
    kept = keep_by_predicate(square32, lambda q: q[0] <= 0.5 + 1e-12)
    filt = extract_filter(square32, kept)
    p = cs.vertex_at(square32, (0.75, 0.5))
    spec = NoiseSpec(p, 0.1, 0.2, 0.25)
    return filt, spec


def test_filter_energies_and_inequalities(square32, filter_setup):
    filt, spec = filter_setup
    rep = check_filter(square32, filt, spec)
    assert rep.holds
    assert rep.energy_filter == pytest.approx(0.125, rel=0.03)
    assert rep.slack_signal > 0
    assert rep.slack_noisy > 0


def test_filter_nested_halves_monotone(square32):
    halves = keep_by_predicate(square32, lambda q: q[0] <= 0.5 + 1e-12)
    quarters = keep_by_predicate(square32, lambda q: q[0] <= 0.25 + 1e-12)
    e_half = cs.energy(extract_filter(square32, halves))
    e_quarter = cs.energy(extract_filter(square32, quarters))
    assert e_half == pytest.approx(1.0 / 8.0, rel=0.03)
    assert e_quarter == pytest.approx(1.0 / 32.0, rel=0.03)
    assert e_quarter < e_half


def test_filter_overlapping_noise_rejected(square32, filter_setup):
    filt, _ = filter_setup
    p = cs.vertex_at(square32, (0.5, 0.5))  # on the cut line
    bad = NoiseSpec(p, 0.1, 0.2, 0.25)
    with pytest.raises(FilterError):
        check_filter(square32, filt, bad)


def test_filter_report_to_dict(square32, filter_setup):
    filt, spec = filter_setup
    rep = check_filter(square32, filt, spec)
    assert rep.to_dict() == {"E_filter": rep.energy_filter, "E_signal": rep.energy_signal,
                             "E_noisy": rep.energy_noisy, "holds": True,
                             "slack_signal": rep.slack_signal,
                             "slack_noisy": rep.slack_noisy}


def test_filter_vertex_foreign_to_the_signal_rejected(square32, filter_setup):
    _, spec = filter_setup
    moved = cs.gen_rectangle(0.5, 1.0, 32, origin=(1e-3, 0.0))
    with pytest.raises(FilterError, match="^filter vertex does not belong to the signal$"):
        check_filter(square32, moved, spec)


def test_eps_sweep_rejects_an_empty_list(square16):
    spec = NoiseSpec(cs.vertex_at(square16, (0.75, 0.5)), 0.1, 0.2, 0.5)
    with pytest.raises(ValueError, match="^eps list is empty$"):
        eps_sweep(square16, spec, [])


# -- composition inequalities ------------------------------------------------


def stacked(n):
    lower = cs.gen_rectangle(1.0, 1.0, n)
    upper = cs.gen_rectangle(1.0, 1.0, n, origin=(0.0, 1.0))
    return lower, upper, make_correspondence(lower, upper)


def test_composition_equality_case():
    lower, upper, corr = stacked(16)
    rep = check_composition(lower, upper, corr)
    assert rep.holds
    assert rep.energy_composed == pytest.approx(rep.energy_sum, rel=0.02)
    assert rep.energy_composed == pytest.approx(1.0, rel=0.02)
    assert rep.fourier_composed == pytest.approx(2.0, rel=0.03)
    assert rep.fourier_composed >= rep.fourier_left


def _traced_peak(call):
    """``call()`` and the peak of its traced allocations."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _energies_with_the_glued_graph_kept(left, right, corr):
    """E and EF of the glued signal and of its parts, computed while the
    glued signal, and so its graph, stays alive."""
    composed = cs.compose(left, right, corr)
    e_comp = cs.energy(composed)
    e_sum = cs.energy(left) + cs.energy(right)
    return e_comp, e_sum, cs.fourier_energy(composed), cs.fourier_energy(left)


def test_composition_frees_the_glued_graph_before_the_parts():
    # the glued graph keeps 12 B per CSR entry and its build peaks near 16 B;
    # dropping it before the parts' graphs are built takes it out of the
    # peak, less that build's own excess over what it keeps
    n = 24
    check_composition(*stacked(4))  # chord templates and lazy imports
    parts, again = stacked(n), stacked(n)
    report, peak = _traced_peak(lambda: check_composition(*parts))
    want, kept_peak = _traced_peak(lambda: _energies_with_the_glued_graph_kept(*again))
    assert (report.energy_composed, report.energy_sum, report.fourier_composed,
            report.fourier_left) == want
    pattern = geodesy._graph(cs.compose(*stacked(n)), 2).pattern
    kept = pattern.indptr.nbytes + pattern.indices.nbytes + pattern.reference[1].nbytes
    assert kept_peak - peak >= 0.75 * kept


def test_composition_three_stack():
    n = 8
    s1 = cs.gen_rectangle(1.0, 1.0, n)
    s2 = cs.gen_rectangle(1.0, 1.0, n, origin=(0.0, 1.0))
    s3 = cs.gen_rectangle(1.0, 1.0, n, origin=(0.0, 2.0))
    l12 = cs.compose(s1, s2, make_correspondence(s1, s2))
    l123 = cs.compose(l12, s3, make_correspondence(l12, s3))
    assert cs.energy(l123) == pytest.approx(1.5, rel=0.02)
    assert cs.energy(l123) <= 1.02 * (cs.energy(s1) + cs.energy(s2)
                                      + cs.energy(s3))


def test_split_A_composition_strictly_subadditive():
    # when the glued A sits on opposite sides, the summed energies strictly
    # exceed the energy of the union; exercised through the oracle because
    # such a labeling violates the A/B corner disjointness of the data model
    oracle = grid_oracle("rectangle_split_A",
                         {"width": 1.0, "height": 2.0}, 512)
    e_union = oracle["E"]
    e_parts = 0.5 + 0.5
    assert e_union < e_parts - 0.05
    assert e_union > 0


# -- oracle ------------------------------------------------------------------


def test_oracle_square(square_oracle):
    assert square_oracle["E"] == pytest.approx(0.5, abs=1e-4)
    assert square_oracle["EF"] == pytest.approx(0.5, abs=1e-4)
    assert square_oracle["diam_M"] == pytest.approx(math.sqrt(2.0))


def test_oracle_rectangle():
    o = grid_oracle("rectangle", {"width": 1.0, "height": 2.0}, 1024)
    assert o["E"] == pytest.approx(1.0, abs=1e-4)
    assert o["EF"] == pytest.approx(2.0, abs=1e-4)


def test_oracle_shell(shell_oracle):
    exact_ef = 2 * math.pi * ((1.2**3 - 1) / 3 - (1.2**2 - 1) / 2)
    assert shell_oracle["E"] == pytest.approx(0.22 * math.pi, abs=1e-3)
    assert shell_oracle["EF"] == pytest.approx(exact_ef, abs=1e-3)
    assert shell_oracle["vol_M"] == pytest.approx(0.44 * math.pi)


def test_oracle_unknown_kind():
    with pytest.raises(ValueError):
        grid_oracle("torus", {}, 64)


@pytest.mark.parametrize("kind, params, m", [
    ("square", {}, 0),
    ("square", {}, -4),
    ("rectangle", {"width": -1.0}, 64),
    ("rectangle_split_A", {"height": 0.0}, 64),
    ("annular_shell", {"r0": 1.0, "r1": 1.0, "height": 1.0}, 64),
])
def test_oracle_rejects_bad_parameters(kind, params, m):
    with pytest.raises(ValueError):
        grid_oracle(kind, params, m)


def test_oracle_independent_of_mesh_quadrature(monkeypatch, square_oracle):
    # corrupting the mesh pipeline's quadrature must not move the oracle
    import importlib
    metric_mod = importlib.import_module("cobsig.metric")
    monkeypatch.setattr(metric_mod, "simplex_volumes",
                        lambda *a, **k: (_ for _ in ()).throw(RuntimeError))
    monkeypatch.setattr(metric_mod, "lumped_vertex_volume",
                        lambda *a, **k: (_ for _ in ()).throw(RuntimeError))
    again = grid_oracle("square", {}, 1024)
    assert again == square_oracle


# -- refinement study --------------------------------------------------------


def test_refinement_study_square_structure():
    rep = refinement_study("square", {}, [8, 16], oracle_resolution=256)
    assert len(rep.rows) == 2
    assert math.isnan(rep.rows[0]["rel_change_E"])
    assert rep.rows[1]["rel_change_E"] >= 0.0
    assert rep.oracle["E"] == pytest.approx(0.5, abs=1e-3)


def test_refinement_study_shell_small_change():
    rep = refinement_study("annular_shell",
                           {"r0": 1.0, "r1": 1.2, "height": 1.0},
                           [16, 32], oracle_resolution=256)
    assert rep.rows[1]["rel_change_E"] < 0.05


def test_refinement_study_needs_two_levels():
    with pytest.raises(ValueError):
        refinement_study("square", {}, [8])


@pytest.mark.parametrize("resolutions", [[4, 4], [4, 8, 4]])
def test_refinement_study_rejects_repeated_resolutions(resolutions):
    # log(4 / 4) = 0 would make both observed orders NaN
    with pytest.raises(ValueError, match="distinct"):
        refinement_study("square", {}, resolutions, oracle_resolution=64)


def test_oracle_and_study_sizes_must_be_integers():
    # a float would be truncated: the oracle to 1 cell, the study's row to
    # a resolution it did not ask for
    with pytest.raises(ValueError, match=r"^fine_resolution is 1\.5: expected integers, got float$"):
        grid_oracle("square", {}, 1.5)
    with pytest.raises(ValueError, match=r"^resolution is 2\.5: expected integers, got float$"):
        refinement_study("square", {}, [2.5, 4], oracle_resolution=64)


def test_refinement_scaling_between_geometries():
    # doubling the rectangle should scale E by the closed-form factor
    small = refinement_study("rectangle", {"width": 1.0, "height": 1.0},
                             [4, 8], oracle_resolution=128)
    big = refinement_study("rectangle", {"width": 2.0, "height": 2.0},
                           [4, 8], oracle_resolution=128)
    # E scales like w^2 h: factor 8
    assert big.rows[-1]["E"] == pytest.approx(8.0 * small.rows[-1]["E"],
                                              rel=0.03)


# -- report payloads ---------------------------------------------------------


def _containers(obj) -> list:
    """Every dict and list in ``obj``, itself included, at any depth."""
    if isinstance(obj, dict):
        return [obj] + [c for v in obj.values() for c in _containers(v)]
    if isinstance(obj, (list, tuple)):
        return [obj] + [c for v in obj for c in _containers(v)]
    return []


def _payload_cases():
    sq = cs.gen_square(8)
    spec = NoiseSpec(cs.vertex_at(sq, (0.75, 0.5)), 0.1, 0.2, 0.25)
    lower = cs.gen_rectangle(1.0, 1.0, 4)
    upper = cs.gen_rectangle(1.0, 1.0, 4, origin=(0.0, 1.0))
    left_half = keep_by_predicate(sq, lambda p: p[0] <= 0.5 + 1e-12)
    return {
        "thm1": lambda: check_thm1_bounds(sq),
        "sweep": lambda: eps_sweep(sq, spec, [0.4, 0.2]),
        "filter": lambda: check_filter(sq, extract_filter(sq, left_half), spec),
        "composition": lambda: check_composition(lower, upper,
                                                 make_correspondence(lower, upper)),
        "refinement": lambda: refinement_study("square", {}, [4, 8], oracle_resolution=64),
    }


_INPUT_COLUMNS = ",".join(f"inputs.{k}.value,inputs.{k}.source" for k in THM1_KEYS)

#: Each report's payload keys, in order, and the header of its CSV.
PAYLOADS = {
    "thm1": (["ratio", "lower_bound", "upper_bound", "inputs", "holds_lower",
              "holds_upper", "holds"],
             f"ratio,lower_bound,upper_bound,{_INPUT_COLUMNS},holds_lower,holds_upper,holds"),
    "sweep": (["rows", "residual_order", "residual_order_fixed", "base_ratio"],
              "eps,measured_ratio,beta,gamma,C,predicted,residual,predicted_fixed,"
              "residual_fixed"),
    "filter": (["E_filter", "E_signal", "E_noisy", "holds", "slack_signal", "slack_noisy"],
               "E_filter,E_signal,E_noisy,holds,slack_signal,slack_noisy"),
    "composition": (["E_composed", "E_sum", "EF_composed", "EF_left", "holds_energy",
                     "holds_fourier", "holds"],
                    "E_composed,E_sum,EF_composed,EF_left,holds_energy,holds_fourier,holds"),
    "refinement": (["rows", "oracle", "observed_order_E", "observed_order_EF"],
                   "resolution,steiner_level,E,EF,err_E,err_EF,rel_change_E,rel_change_EF"),
}


@pytest.mark.parametrize("case", list(PAYLOADS))
def test_report_payloads_are_pinned_and_fresh(case):
    from cobsig.cli import _to_csv
    report = _payload_cases()[case]()
    keys, header = PAYLOADS[case]
    first, second = report.to_dict(), report.to_dict()
    assert list(first) == keys
    assert first == second
    # lists rather than tuples, and no container shared with another call
    # or with the report itself
    assert not any(isinstance(c, tuple) for c in _containers(first))
    ours = {id(c) for c in _containers(first)}
    assert ours.isdisjoint(id(c) for c in _containers(second))
    assert ours.isdisjoint(id(c) for c in _containers(vars(report)))
    assert _to_csv(first).splitlines()[0] == header

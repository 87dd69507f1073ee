"""Tests of the benchmark itself: its checks catch a 1e-9 relative error, its
tracer's self times add up, and BENCHMARK.json names only metrics it makes.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
from spans import Tracer

HERE = Path(__file__).resolve().parent
PERTURB = 1e-9

SHELL_N, SHELL_NV = 48, 3168


def _exact_reports():
    """(check, exact report, closed-form keys) for every closed-form check."""
    upper = checks.thm1_upper_square()
    f = checks.shell_factor(SHELL_N)
    sweep = {"base_ratio": 5.0 / 9.0, "residual_order": 2.73,
             "rows": [{"residual": r} for r in (1e-3, 1e-4, 1e-5, 1e-6)]}
    nohints = {"holds": True, "inputs": {
        "E": {"value": 0.5, "source": "computed"},
        "EF": {"value": 0.5, "source": "computed"},
        "diam_A": {"value": 1.0, "source": "computed"},
        "diam_X": {"value": 1.0, "source": "computed"},
        "diam_M": {"value": math.sqrt(2.0), "source": "computed"},
        "i_A": {"value": 0.5, "source": "heuristic"},
        "i_X": {"value": 0.5, "source": "heuristic"}}}
    return [
        (lambda r: checks.square_energy(r, 64),
         {"E": 0.5, "EF": 0.5, "ratio": 1.0}, ["E", "EF", "ratio"]),
        (lambda r: checks.square_thm1(r, 64),
         {"holds": True, "ratio": 1.0, "upper_bound": upper,
          "lower_bound": 1.0 / upper}, ["ratio", "upper_bound", "lower_bound"]),
        (lambda r: checks.shell_energy(r, SHELL_N, SHELL_NV),
         {"E": 6.0 * math.pi * f, "EF": 10.0 * math.pi / 3.0 * f, "ratio": 5.0 / 9.0},
         ["E", "EF", "ratio"]),
        (lambda r: checks.shell_sweep(r, SHELL_NV, 4), sweep, ["base_ratio"]),
        (lambda r: checks.nohints_thm1(r, 20, 2), nohints,
         ["inputs.E", "inputs.EF", "inputs.diam_A", "inputs.diam_X",
          "inputs.diam_M"]),
        (lambda r: checks.composition(r, 48),
         {"holds": True, "E_composed": 1.0, "EF_composed": 2.0, "E_sum": 1.0,
          "EF_left": 0.5}, ["E_composed", "EF_composed", "E_sum", "EF_left"]),
        (lambda r: checks.filter_report(r, 48),
         {"holds": True, "E_filter": 0.125, "E_signal": 0.5, "E_noisy": 0.45},
         ["E_filter", "E_signal"]),
    ]


def _scaled(report, key, factor):
    out = json.loads(json.dumps(report))
    if key.startswith("inputs."):
        out["inputs"][key[len("inputs."):]]["value"] *= factor
    else:
        out[key] *= factor
    return out


@pytest.mark.parametrize("check, report, keys", _exact_reports())
def test_closed_form_checks_pass_exact_and_fail_perturbed(check, report, keys):
    assert check(report) == []
    for key in keys:
        for factor in (1.0 + PERTURB, 1.0 - PERTURB):
            assert check(_scaled(report, key, factor)), (key, factor)


def test_rounding_bounds_are_far_below_the_perturbation():
    # the largest sum behind any check: the ratio on the square n = 64
    assert checks.rounding_tol(2 * 65**2 + 1, 1.0) < PERTURB / 100


def test_property_checks_fail_on_violations():
    _, sweep, _ = _exact_reports()[3]
    bad_order = dict(sweep, residual_order=2.29)
    rising = dict(sweep, rows=[{"residual": r} for r in (1e-3, 1e-4, 1e-4, 1e-6)])
    assert checks.shell_sweep(bad_order, SHELL_NV, 4)
    assert checks.shell_sweep(rising, SHELL_NV, 4)

    _, nohints, _ = _exact_reports()[4]
    analytic = json.loads(json.dumps(nohints))
    analytic["inputs"]["i_A"]["source"] = "analytic"
    too_big = json.loads(json.dumps(nohints))
    too_big["inputs"]["i_X"]["value"] = 1.5
    assert checks.nohints_thm1(analytic, 20, 2)
    assert checks.nohints_thm1(too_big, 20, 2)

    _, filt, _ = _exact_reports()[6]
    assert checks.filter_report(dict(filt, E_noisy=0.5), 48)
    assert checks.glued_size(49 * 97, 48) == []
    assert checks.glued_size(49 * 97 - 1, 48)


def test_self_times_exclude_nested_spans():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    inner_t = tracer.wrap("m.inner", inner)

    def outer():
        time.sleep(0.01)
        inner_t()
        inner_t()

    tracer.wrap("m.outer", outer)()
    assert tracer.calls == {"m.inner": 2, "m.outer": 1}
    assert 0.04 <= tracer.self_s["m.inner"] < 0.1
    assert 0.01 <= tracer.self_s["m.outer"] < 0.04
    (_, parent, name, start, end), = [s for s in tracer.spans if s[2] == "m.outer"]
    assert parent == -1
    assert end - start == pytest.approx(
        tracer.self_s["m.inner"] + tracer.self_s["m.outer"])
    assert all(s[1] == tracer.spans[-1][0] for s in tracer.spans[:-1])


def test_benchmark_json_names_only_traced_metrics():
    # installs the tracer in a separate process: it rebinds cobsig's functions
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "from spans import Tracer; t = Tracer(); t.install(); "
            "print(json.dumps(sorted(t.snapshot())))")
    out = subprocess.run([sys.executable, "-c", code, str(HERE)], check=True,
                         capture_output=True, text=True).stdout
    made = set(json.loads(out))
    assert {m["name"] for m in bench["per_layer"]} <= made
    assert {m["name"] for m in bench["end_to_end"]} == {"setup_s", "run_s",
                                                       "peak_rss_mb"}

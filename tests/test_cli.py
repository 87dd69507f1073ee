"""CLI round trips, exit codes, file formats, and determinism."""

import importlib
import json
import csv
import math
import time
from pathlib import Path

import numpy as np
import pytest

import cobsig as cs
from cobsig import cli
from cobsig.cli import dispatch
from cobsig.fileio import (load_correspondence, load_signal,
                           save_correspondence, save_signal, signal_to_dict)
from cobsig.signalops import make_correspondence

# the package's ``energy`` function shadows its module of that name
energy_module = importlib.import_module("cobsig.energy")


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- file round trips --------------------------------------------------------


def test_signal_file_round_trip(tmp_path, square8):
    path = tmp_path / "sq.json"
    save_signal(square8, path)
    back = load_signal(path)
    assert back.complex == square8.complex
    assert np.array_equal(back.metric.lengths, square8.metric.lengths)
    assert back.hints == square8.hints


def test_deformed_metric_round_trip(tmp_path, square8):
    spec = cs.NoiseSpec(cs.vertex_at(square8, (0.75, 0.5)), 0.1, 0.2, 0.25)
    noisy = cs.apply_noise(square8, spec)
    path = tmp_path / "noisy.json"
    save_signal(noisy, path)
    back = load_signal(path)
    assert np.array_equal(back.metric.lengths, noisy.metric.lengths)
    assert back.metric.source == "deformed"


def test_correspondence_round_trip(tmp_path):
    lower = cs.gen_rectangle(1.0, 1.0, 4)
    upper = cs.gen_rectangle(1.0, 1.0, 4, origin=(0.0, 1.0))
    corr = make_correspondence(lower, upper)
    path = tmp_path / "corr.json"
    save_correspondence(corr, path)
    assert load_correspondence(path) == corr


def _per_element_text(signal) -> str:
    """A mesh file's text with every number converted one element at a
    time, as files were written before whole-array conversion."""
    cx = signal.complex
    out = {
        "dim": cx.dim,
        "ambient_dim": cx.ambient_dim,
        "vertices": [list(map(float, row)) for row in cx.vertices],
        "simplices": [{"verts": list(map(int, s)), "sign": int(g)}
                      for s, g in zip(cx.simplices, cx.signs)],
        "labels": {tag: sorted(list(map(int, f)) for f in cx.labels[tag])
                   for tag in "XYAB"},
    }
    if signal.metric.source != "induced":
        out["metric"] = [{"edge": [int(u), int(v)], "length": float(l)}
                         for (u, v), l in zip(signal.metric.edges,
                                              signal.metric.lengths)]
    if signal.hints:
        out["hints"] = {k: float(v) for k, v in sorted(signal.hints.items())}
    return json.dumps(out) + "\n"


def _noisy_square():
    sig = cs.gen_square(8)
    return cs.apply_noise(sig, cs.NoiseSpec(cs.vertex_at(sig, (0.75, 0.5)),
                                            0.1, 0.2, 0.25))


def _glued_rectangles():
    lower = cs.gen_rectangle(1.0, 1.0, 4)
    upper = cs.gen_rectangle(1.0, 1.0, 4, origin=(0.0, 1.0))
    return cs.compose(lower, upper, make_correspondence(lower, upper))


def _left_half_filter():
    sig = cs.gen_square(8)
    return cs.extract_filter(sig, cs.keep_by_predicate(sig, lambda p: p[0] <= 0.5 + 1e-12))


@pytest.mark.parametrize("make", [
    lambda: cs.gen_square(5),
    lambda: cs.gen_rectangle(2, 1, 3, origin=(0.5, -1)),
    lambda: cs.gen_annular_shell(1, 2, 2, 8),
    _noisy_square,
    _glued_rectangles,
    _left_half_filter,
], ids=["square", "rectangle", "shell", "noisy", "compose", "filter"])
def test_saved_text_matches_the_per_element_writer(tmp_path, make):
    sig = make()
    path = tmp_path / "mesh.json"
    save_signal(sig, path)
    text = path.read_text()
    assert text == _per_element_text(sig)
    assert ('"metric"' in text) == (sig.metric.source != "induced")


# -- subcommands -------------------------------------------------------------


def test_generate_validate_energy_pipeline(tmp_path, capsys):
    mesh = str(tmp_path / "sq.json")
    code, _, _ = run(capsys, "generate", "--kind", "square",
                     "--resolution", "16", "--out", mesh)
    assert code == 0
    code, out, _ = run(capsys, "validate", mesh)
    assert code == 0
    assert json.loads(out)["ok"] is True
    code, out, _ = run(capsys, "energy", mesh)
    assert code == 0
    payload = json.loads(out)
    assert payload["E"] == pytest.approx(0.5, rel=0.02)
    assert payload["steiner_level"] == 2
    assert payload["resolution"] == 16.0


def test_cli_fourier(tmp_path, capsys):
    mesh = str(tmp_path / "sq.json")
    run(capsys, "generate", "--kind", "square", "--resolution", "8",
        "--out", mesh)
    out_mesh = str(tmp_path / "sqF.json")
    code, out, _ = run(capsys, "fourier", mesh, "--transformed-out", out_mesh)
    assert code == 0
    relabeled = load_signal(out_mesh)
    original = load_signal(mesh)
    assert relabeled.complex.labels["A"] == original.complex.labels["X"]


def test_cli_verify_thm1_exit_zero(tmp_path, capsys):
    mesh = str(tmp_path / "sq.json")
    run(capsys, "generate", "--kind", "square", "--resolution", "16",
        "--out", mesh)
    code, out, _ = run(capsys, "verify-thm1", mesh)
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_cli_verify_thm1_thin_shell_without_hints(tmp_path, capsys, shell16):
    # the no-hints injectivity estimate is max f_R (0.2 for X), not diam(M)
    mesh = tmp_path / "shell.json"
    save_signal(cs.Signal(shell16.complex, shell16.metric, hints={}), mesh)
    code, out, _ = run(capsys, "verify-thm1", str(mesh))
    assert code == 0
    rep = json.loads(out)
    assert rep["holds"] is True
    assert rep["inputs"]["i_X"]["source"] == "heuristic"
    assert rep["inputs"]["i_X"]["value"] == pytest.approx(0.2, rel=1e-12)


def test_cli_noise_filter(tmp_path, capsys):
    mesh = str(tmp_path / "sq.json")
    run(capsys, "generate", "--kind", "square", "--resolution", "16",
        "--out", mesh)
    sig = load_signal(mesh)
    p = cs.vertex_at(sig, (0.75, 0.5))
    noisy = str(tmp_path / "noisy.json")
    code, out, _ = run(capsys, "noise", mesh, "--center-vertex", str(p),
                       "--delta0", "0.1", "--delta", "0.2",
                       "--epsilon", "0.25", "--out", noisy)
    assert code == 0
    keep = tmp_path / "keep.json"
    keep.write_text(json.dumps({"axis": 0, "max": 0.5}))
    filt = str(tmp_path / "filt.json")
    code, out, _ = run(capsys, "filter", mesh, "--keep", str(keep),
                       "--out", filt)
    assert code == 0
    assert json.loads(out)["E"] == pytest.approx(0.125, rel=0.03)


def test_cli_compose_and_verify_thm2(tmp_path, capsys):
    lower = cs.gen_rectangle(1.0, 1.0, 8)
    upper = cs.gen_rectangle(1.0, 1.0, 8, origin=(0.0, 1.0))
    lpath, rpath = str(tmp_path / "l.json"), str(tmp_path / "r.json")
    save_signal(lower, lpath)
    save_signal(upper, rpath)
    corr = make_correspondence(lower, upper)
    cpath = str(tmp_path / "corr.json")
    save_correspondence(corr, cpath)

    out_mesh = str(tmp_path / "glued.json")
    code, out, _ = run(capsys, "compose", "--left", lpath, "--right", rpath,
                       "--corr", cpath, "--out", out_mesh)
    assert code == 0
    assert json.loads(out)["E"] == pytest.approx(1.0, rel=0.03)

    code, out, _ = run(capsys, "verify-thm2", "--left", lpath, "--right",
                       rpath, "--corr", cpath)
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_cli_sweep_and_study_and_oracle(tmp_path, capsys):
    mesh = str(tmp_path / "sq.json")
    run(capsys, "generate", "--kind", "square", "--resolution", "16",
        "--out", mesh)
    sig = load_signal(mesh)
    p = cs.vertex_at(sig, (0.75, 0.5))
    code, out, _ = run(capsys, "sweep-eps", mesh, "--center-vertex", str(p),
                       "--delta0", "0.1", "--delta", "0.2",
                       "--eps", "0.4,0.2")
    assert code == 0
    assert len(json.loads(out)["rows"]) == 2

    code, out, _ = run(capsys, "refine-study", "--kind", "square",
                       "--resolutions", "4,8", "--oracle-resolution", "128")
    assert code == 0
    assert len(json.loads(out)["rows"]) == 2

    code, out, _ = run(capsys, "oracle", "--kind", "square",
                       "--fine-resolution", "256")
    assert code == 0
    assert json.loads(out)["E"] == pytest.approx(0.5, abs=1e-3)


def test_cli_sweep_warns_when_vertices_sit_on_a_ball_radius(tmp_path, capsys):
    # grid neighbours of the centre lie exactly at delta0 = 2/8; shifting
    # delta0 by 1/64 moves every vertex off both radii
    mesh = str(tmp_path / "sq.json")
    run(capsys, "generate", "--kind", "square", "--resolution", "8",
        "--out", mesh)
    p = cs.vertex_at(load_signal(mesh), (0.5, 0.5))
    codes = []
    for delta0, warns in ((0.25, True), (0.25 + 1.0 / 64.0, False)):
        code, out, err = run(capsys, "sweep-eps", mesh, "--center-vertex", str(p),
                             "--delta0", repr(delta0), "--delta", "0.4",
                             "--eps", "0.4,0.2")
        codes.append(code)
        assert len(json.loads(out)["rows"]) == 2
        if warns:
            assert err == ("warning: 4 vertices lie within 4 ulp of delta0 or "
                           "delta; their ball membership rests on rounding\n")
        else:
            assert err == ""
    assert codes[0] == codes[1] == 0


def test_cli_sweep_warns_when_vertices_sit_on_delta(tmp_path, capsys):
    # grid neighbours of the centre lie exactly at 3/8: at delta itself, and
    # two ulp past a delta just below it, which the centre search must still
    # reach; delta0 sits off the grid
    mesh = str(tmp_path / "sq.json")
    run(capsys, "generate", "--kind", "square", "--resolution", "8",
        "--out", mesh)
    p = cs.vertex_at(load_signal(mesh), (0.5, 0.5))
    below = float(0.375 - 2.0 * np.spacing(0.375))
    for delta in (0.375, below):
        code, out, err = run(capsys, "sweep-eps", mesh, "--center-vertex", str(p),
                             "--delta0", repr(0.25 + 1.0 / 64.0),
                             "--delta", repr(delta), "--eps", "0.4,0.2")
        assert code == 0
        assert len(json.loads(out)["rows"]) == 2
        assert err == ("warning: 4 vertices lie within 4 ulp of delta0 or "
                       "delta; their ball membership rests on rounding\n")


def test_cli_energy_relabels_once(tmp_path, capsys, monkeypatch):
    mesh = str(tmp_path / "sq.json")
    run(capsys, "generate", "--kind", "square", "--resolution", "8",
        "--out", mesh)
    sig = load_signal(mesh)
    want = {"E": cs.energy(sig), "EF": cs.fourier_energy(sig),
            "ratio": cs.energy_ratio(sig), "steiner_level": 2,
            "resolution": 8.0}
    relabel = energy_module.fourier_relabel
    calls = []

    def counting(signal):
        calls.append(signal)
        return relabel(signal)

    monkeypatch.setattr(energy_module, "fourier_relabel", counting)
    code, out, _ = run(capsys, "energy", mesh)
    assert code == 0
    assert len(calls) == 1
    assert out == json.dumps(want, indent=2) + "\n"


def test_zero_energy_has_no_ratio(tmp_path, capsys, monkeypatch, square8):
    mesh = str(tmp_path / "sq.json")
    run(capsys, "generate", "--kind", "square", "--resolution", "8",
        "--out", mesh)
    monkeypatch.setattr(energy_module, "energy", lambda signal, s=2: 0.0)
    with pytest.raises(cs.CobsigError, match="^energy is zero; ratio undefined$"):
        energy_module.energy_ratio(square8)
    monkeypatch.setattr(cli, "energy", lambda signal, s=2: 0.0)
    code, out, err = run(capsys, "energy", mesh)
    assert (code, out) == (1, "")
    assert err == "error: energy is zero; ratio undefined\n"


def test_cli_csv_format(tmp_path, capsys):
    mesh = str(tmp_path / "sq.json")
    run(capsys, "generate", "--kind", "square", "--resolution", "8",
        "--out", mesh)
    code, out, _ = run(capsys, "energy", mesh, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("E,EF,ratio")
    assert len(lines) == 2


def test_cli_csv_of_a_nested_report(tmp_path, capsys):
    # verify-thm1 nests each input as {"value", "source"}: the CSV row
    # flattens every leaf under its dotted path, in the report's order
    mesh = str(tmp_path / "sq.json")
    run(capsys, "generate", "--kind", "square", "--resolution", "4", "--out", mesh)
    code, out, _ = run(capsys, "verify-thm1", mesh)
    assert code == 0
    report = json.loads(out)
    code, out, _ = run(capsys, "verify-thm1", mesh, "--format", "csv")
    assert code == 0
    (row,) = list(csv.DictReader(out.splitlines()))

    def leaves(obj, prefix=""):
        for k, v in obj.items():
            if isinstance(v, dict):
                yield from leaves(v, f"{prefix}{k}.")
            else:
                yield f"{prefix}{k}", str(v)
    assert list(row.items()) == list(leaves(report))
    assert "inputs.diam_M.source" in row


# -- exit codes and determinism ----------------------------------------------


def test_cli_missing_file_exits_2(tmp_path, capsys):
    # each file argument of each subcommand in turn names a missing file
    present = tmp_path / "present.json"
    present.write_text("{}")
    missing = str(tmp_path / "missing.json")
    ball = ["--center-vertex", "0", "--delta0", "0.1", "--delta", "0.2"]
    commands = {  # file arguments, then the other required arguments
        "validate": (["path"], []),
        "energy": (["path"], []),
        "fourier": (["path"], []),
        "verify-thm1": (["path"], []),
        "noise": (["path"], ball + ["--epsilon", "0.2", "--out", "o.json"]),
        "sweep-eps": (["path"], ball + ["--eps", "0.4"]),
        "filter": (["path", "--keep"], ["--out", "o.json"]),
        "compose": (["--left", "--right", "--corr"], ["--out", "o.json"]),
        "verify-thm2": (["--left", "--right", "--corr"], []),
    }
    for command, (files, rest) in commands.items():
        for absent in files:
            argv = [command, *rest]
            for name in files:
                value = missing if name == absent else str(present)
                argv += [value] if name == "path" else [name, value]
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert out == ""
            assert err.startswith(f"usage: cobsig {command} ")
            assert err.endswith(f"error: argument {absent}: cannot read {missing}\n")


def test_cli_unknown_command_exits_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_cli_bad_parameters_exit_2(tmp_path, capsys):
    mesh = str(tmp_path / "sq.json")
    run(capsys, "generate", "--kind", "square", "--resolution", "8",
        "--out", mesh)
    code, _, err = run(capsys, "sweep-eps", mesh, "--center-vertex", "0",
                       "--delta0", "0.3", "--delta", "0.2", "--eps", "0.4")
    assert code == 2
    code, _, err = run(capsys, "generate", "--kind", "square",
                       "--resolution", "1", "--out", str(tmp_path / "x.json"))
    assert code == 2
    # malformed comma lists are bad parameters too: ties, no values, words,
    # one resolution, a resolution below 2, a repeated resolution
    for eps in ("0.4,0.4", ",", "abc"):
        code, out, err = run(capsys, "sweep-eps", mesh, "--center-vertex", "0",
                             "--delta0", "0.2", "--delta", "0.3", "--eps", eps)
        assert (code, out) == (2, ""), eps
        assert "--eps" in err, eps
    for resolutions in ("8,x", "8", "1,4", "4,4", "4,8,4"):
        code, out, err = run(capsys, "refine-study", "--kind", "square",
                             "--resolutions", resolutions)
        assert (code, out) == (2, ""), resolutions
        assert "--resolutions" in err, resolutions
    # numbers out of range: resolutions below 1, negative sizes and levels
    for argv in (["oracle", "--kind", "square", "--fine-resolution", "0"],
                 ["oracle", "--kind", "square", "--fine-resolution", "-4"],
                 ["oracle", "--kind", "rectangle", "--width", "-1"],
                 ["refine-study", "--kind", "square", "--resolutions", "4,8",
                  "--oracle-resolution", "0"],
                 ["generate", "--kind", "rectangle", "--resolution", "4",
                  "--out", str(tmp_path / "x.json"), "--height", "0"],
                 ["energy", mesh, "--steiner-level", "-1"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert argv[-2] in err, argv


def test_cli_bad_noise_flags_exit_2(tmp_path, capsys):
    # the ball radii are positive and finite, the depth lies in (0, 1)
    mesh = str(tmp_path / "sq.json")
    run(capsys, "generate", "--kind", "square", "--resolution", "8", "--out", mesh)
    good = {"--delta0": "0.1", "--delta": "0.2", "--epsilon": "0.5"}
    bad = {"--delta0": ("0", "-0.1", "nan", "inf"), "--delta": ("inf", "nan", "-1"),
           "--epsilon": ("1.5", "1", "0", "nan", "x")}
    for flag, values in bad.items():
        for value in values:
            for command in ("noise", "sweep-eps"):
                if command == "sweep-eps" and flag == "--epsilon":
                    continue
                flags = dict(good, **{flag: value})
                argv = [command, mesh, "--center-vertex", "0"]
                for name in ("--delta0", "--delta"):
                    argv += [name, flags[name]]
                argv += (["--epsilon", flags["--epsilon"], "--out", "o.json"]
                         if command == "noise" else ["--eps", "0.4"])
                code, out, err = run(capsys, *argv)
                assert (code, out) == (2, ""), argv
                assert err.startswith(f"usage: cobsig {command} "), argv
                assert f"error: argument {flag}: " in err, argv


def test_cli_mesh_dims_must_match_the_arrays(tmp_path, capsys):
    data = signal_to_dict(cs.gen_annular_shell(1, 2, 2, 8))
    for field, value in (("dim", 2), ("ambient_dim", 7)):
        mesh = tmp_path / f"{field}.json"
        mesh.write_text(json.dumps(dict(data, **{field: value})))
        code, out, err = run(capsys, "energy", str(mesh))
        assert (code, out) == (1, ""), field
        assert err.startswith(f"error: malformed mesh data: {field} {value} "), field
        assert err.count("\n") == 1
        code, out, _ = run(capsys, "validate", str(mesh))
        assert code == 1
        assert [v[0] for v in json.loads(out)["violations"]] == ["unbuildable"]
    # both fields may be left out
    mesh = tmp_path / "bare.json"
    mesh.write_text(json.dumps({k: v for k, v in data.items()
                                if k not in ("dim", "ambient_dim")}))
    assert run(capsys, "validate", str(mesh))[0] == 0


def test_cli_unwritable_output_exits_1(tmp_path, capsys):
    # an output path in a missing directory gives one error line, no traceback
    mesh = str(tmp_path / "sq.json")
    run(capsys, "generate", "--kind", "square", "--resolution", "4", "--out", mesh)
    gone = tmp_path / "missing"
    for argv in (["energy", mesh, "--out", str(gone / "r.json")],
                 ["generate", "--kind", "square", "--resolution", "4",
                  "--out", str(gone / "x.json")]):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith(f"error: cannot write {argv[-1]}: ")
        assert err.count("\n") == 1


def test_cli_steiner_level_past_int32_exits_1(tmp_path, capsys):
    # the pattern counts its nodes and entries in closed form before it
    # allocates: s = 40 asks for 2**40 - 1 points per edge
    mesh = str(tmp_path / "sq.json")
    run(capsys, "generate", "--kind", "square", "--resolution", "8", "--out", mesh)
    start = time.perf_counter()
    code, out, err = run(capsys, "energy", mesh, "--steiner-level", "40")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err.startswith("error: steiner level 40 needs ")
    assert err.count("\n") == 1


def test_cli_out_of_memory_exits_1(tmp_path, capsys, monkeypatch):
    def exhaust(args):
        raise MemoryError("Unable to allocate 8.00 TiB for an array")

    mesh = str(tmp_path / "sq.json")
    run(capsys, "generate", "--kind", "square", "--resolution", "4", "--out", mesh)
    monkeypatch.setitem(cli.COMMANDS, "energy", exhaust)
    code, out, err = run(capsys, "energy", mesh)
    assert (code, out) == (1, "")
    assert err == "error: out of memory: Unable to allocate 8.00 TiB for an array\n"


def test_cli_validation_failure_exits_1(tmp_path, capsys):
    # the labels fail validation but the complex builds: each violation is
    # reported with its item, not one "unbuildable" line
    from cobsig.fileio import signal_to_dict
    mesh = tmp_path / "bad.json"
    data = signal_to_dict(cs.gen_square(4))
    data["labels"]["B"] = []
    shared = tuple(data["labels"]["X"][0])
    data["labels"]["Y"].append(list(shared))
    mesh.write_text(json.dumps(data))
    code, out, _ = run(capsys, "validate", str(mesh))
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert ["empty-region", "B"] in report["violations"]
    assert ["X-Y-shared-facet", str([shared])] in report["violations"]
    assert all(v[0] != "unbuildable" for v in report["violations"])
    # the other subcommands still refuse the mesh with one error line
    code, out, err = run(capsys, "energy", str(mesh))
    assert (code, out) == (1, "")
    assert err.startswith("error: complex fails validation: ")
    assert err.count("\n") == 1


def test_cli_byte_identical_reports(tmp_path, capsys):
    mesh = str(tmp_path / "sq.json")
    run(capsys, "generate", "--kind", "square", "--resolution", "16",
        "--out", mesh)
    first = run(capsys, "verify-thm1", mesh)
    second = run(capsys, "verify-thm1", mesh)
    assert first == second

    mesh2 = str(tmp_path / "sq2.json")
    run(capsys, "generate", "--kind", "square", "--resolution", "16",
        "--out", mesh2)
    assert Path(mesh).read_text() == Path(mesh2).read_text()


def _square2_with_metric():
    """gen_square(2)'s mesh data with its metric written out: a conformal
    factor of 1 gives the induced lengths bit for bit, tagged "deformed"."""
    sig = cs.gen_square(2)
    metric = cs.conformal_scale(sig.metric, np.ones(sig.complex.n_vertices))
    return signal_to_dict(cs.Signal(sig.complex, metric, sig.hints))


def test_load_rejects_metric_edge_mismatch(tmp_path):
    from cobsig.errors import CobsigError
    data = _square2_with_metric()
    data["metric"] = data["metric"][:-1]  # drop one edge
    path = tmp_path / "bad_metric.json"
    path.write_text(json.dumps(data))
    with pytest.raises(CobsigError):
        load_signal(path)


def test_load_rejects_duplicated_metric_edge(tmp_path):
    from cobsig.errors import CobsigError
    data = _square2_with_metric()
    # every complex edge is listed, one of them twice with another length
    data["metric"].append({"edge": data["metric"][0]["edge"], "length": 5.0})
    path = tmp_path / "dup_metric.json"
    path.write_text(json.dumps(data))
    with pytest.raises(CobsigError, match="metric edge set does not match"):
        load_signal(path)


def test_cli_unbuildable_mesh_exits_1(tmp_path, capsys):
    from cobsig.fileio import signal_to_dict
    bad_label = signal_to_dict(cs.gen_square(2))
    bad_label["labels"]["A"] = [[0, 8]]  # not a facet of the complex
    short_metric = _square2_with_metric()
    short_metric["metric"] = short_metric["metric"][:-1]  # the labels validate
    big_label = signal_to_dict(cs.gen_square(2))
    big_label["labels"]["A"] = [[0, 2**70]]  # past int64
    for data, message in ((bad_label, "label A: (0, 8) is not a facet of the complex"),
                          (big_label, "label A entry 0 is (0, 1180591620717411303424): "
                                      "Python int too large to convert to C long"),
                          (short_metric, "metric edge set does not match the complex")):
        mesh = tmp_path / "broken.json"
        mesh.write_text(json.dumps(data))
        code, out, _ = run(capsys, "validate", str(mesh))
        assert code == 1
        assert json.loads(out) == {"ok": False,
                                   "violations": [["unbuildable", message]]}


@pytest.mark.parametrize("corr", [
    {"pairs": []},
    {"pairs": 3, "tolerance": 1e-9},
    {"pairs": [[0]], "tolerance": 1e-9},
    {"pairs": [], "tolerance": "tight"},
    [1, 2],
    # the valid pairs with fractions that truncate back to them
    lambda good: dict(good, pairs=[[u + 0.5, v + 0.25] for u, v in good["pairs"]]),
    lambda good: dict(good, pairs=[[True, v] for _, v in good["pairs"][:1]]),
    {"pairs": [[2**70, 0]], "tolerance": 1e-9},
], ids=["no-tolerance", "pairs-not-a-list", "short-pair", "text-tolerance",
        "not-an-object", "fractional-pairs", "bool-pair", "index-past-int64"])
def test_cli_malformed_correspondence_exits_1(tmp_path, capsys, corr):
    lpath, rpath = str(tmp_path / "l.json"), str(tmp_path / "r.json")
    left = cs.gen_rectangle(1.0, 1.0, 4)
    right = cs.gen_rectangle(1.0, 1.0, 4, origin=(0.0, 1.0))
    save_signal(left, lpath)
    save_signal(right, rpath)
    if callable(corr):
        good = make_correspondence(left, right)
        corr = corr({"pairs": [list(p) for p in good.pairs],
                     "tolerance": good.tolerance})
    cpath = tmp_path / "corr.json"
    cpath.write_text(json.dumps(corr))
    glue = ["--left", lpath, "--right", rpath, "--corr", str(cpath)]
    for argv in (["compose", *glue, "--out", str(tmp_path / "g.json")],
                 ["verify-thm2", *glue]):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith(f"error: malformed correspondence file {cpath}: ")
        assert err.count("\n") == 1


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1e-9])
def test_cli_non_finite_or_negative_tolerance_exits_1(tmp_path, capsys, tolerance):
    # json writes NaN and Infinity, and reads them back as floats
    lpath, rpath = str(tmp_path / "l.json"), str(tmp_path / "r.json")
    left = cs.gen_rectangle(1.0, 1.0, 4)
    right = cs.gen_rectangle(1.0, 1.0, 4, origin=(0.0, 1.0))
    save_signal(left, lpath)
    save_signal(right, rpath)
    cpath = tmp_path / "corr.json"
    cpath.write_text(json.dumps({"pairs": make_correspondence(left, right).pairs,
                                 "tolerance": tolerance}))
    code, out, err = run(capsys, "compose", "--left", lpath, "--right", rpath,
                         "--corr", str(cpath), "--out", str(tmp_path / "g.json"))
    assert (code, out) == (1, "")
    assert err == f"error: tolerance must be a finite number >= 0, got {tolerance!r}\n"
    assert not (tmp_path / "g.json").exists()


def test_cli_mesh_file_that_is_not_json_exits_1(tmp_path, capsys):
    mesh = tmp_path / "mesh.json"
    mesh.write_text("{'vertices': []}")
    code, out, err = run(capsys, "energy", str(mesh))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: invalid JSON in {mesh}: ") and err.count("\n") == 1


@pytest.mark.parametrize("keep, message", [
    ({"axis": 7}, "error: keep axis 7 is not one of the 2 coordinate axes"),
    ({"axis": -1}, "error: keep axis -1 is not one of the 2 coordinate axes"),
    ({"axis": "x"}, "error: malformed keep file: "),
    ({"axis": 0, "max": [0.5]}, "error: malformed keep file: "),
    ({"simplices": [[0, 1], [2]]}, "error: malformed keep file: "),
    (5, "error: keep file needs either 'simplices' or 'axis'"),
    ({"simplices": [k + 0.7 for k in range(8)]}, "error: malformed keep file: "),
    ({"simplices": [[0, 1], [2, 3]]}, "error: malformed keep file: "),
    ({"simplices": [True, False]}, "error: malformed keep file: "),
    ({"simplices": 3}, "error: malformed keep file: "),
    ({"axis": 0.5}, "error: malformed keep file: "),
    ({"simplices": [2**70]}, "error: malformed keep file: "),
], ids=["axis-too-large", "axis-negative", "axis-text", "bound-a-list",
        "ragged-simplices", "not-an-object", "fractional-simplices",
        "nested-simplices", "bool-simplices", "simplices-not-a-list",
        "fractional-axis", "index-past-int64"])
def test_cli_malformed_keep_file_exits_1(tmp_path, capsys, keep, message):
    mesh = str(tmp_path / "sq.json")
    save_signal(cs.gen_square(4), mesh)
    kpath = tmp_path / "keep.json"
    kpath.write_text(json.dumps(keep))
    code, out, err = run(capsys, "filter", mesh, "--keep", str(kpath),
                         "--out", str(tmp_path / "f.json"))
    assert code == 1
    assert out == ""
    assert err.startswith(message)
    assert err.count("\n") == 1


def _first(items, **changes):
    """``items`` with ``changes`` made to a copy of its first entry."""
    return [dict(items[0], **changes), *items[1:]]


# labels are read by build_complex alone, whose errors name the label entry
@pytest.mark.parametrize("field, value, message", [
    ("metric", [{"edge": [0, 1]}], "malformed mesh data: "),
    ("hints", [1.0], "malformed mesh data: "),
    ("labels", {"X": 3}, "the label X entry table 3 is not a collection "),
    # fractions that truncate back to the valid indices
    ("simplices", lambda d: _first(
        d["simplices"], verts=[v + 0.4 for v in d["simplices"][0]["verts"]]),
     "malformed mesh data: simplex 0 is (0.4, 1.4, 4.4): expected integers, got float"),
    ("simplices", lambda d: _first(d["simplices"], sign=True),
     "malformed mesh data: sign 0 is True: expected integers, got bool"),
    ("labels", lambda d: dict(d["labels"], A=[[v + 0.3 for v in d["labels"]["A"][0]],
                                              *d["labels"]["A"][1:]]),
     "label A entry 0 is (0.3, 3.3): expected integers, got float"),
    ("metric", lambda d: _first(
        _square2_with_metric()["metric"],
        edge=[0.5, 1]), "malformed mesh data: metric edge 0 is (0.5, 1): expected integers"),
    ("simplices", lambda d: _first(d["simplices"], verts=[2**70] * 3),
     "malformed mesh data: simplex 0 is (1180591620717411303424, "),
    # build_complex refuses it, so the error has no "malformed" prefix
    ("vertices", lambda d: [*d["vertices"][:4], [0.5, float("nan")], *d["vertices"][5:]],
     "vertex 4 has a non-finite coordinate: (0.5, nan)"),
], ids=["metric-entry-without-length", "hints-not-an-object",
        "facets-not-a-list", "fractional-verts", "bool-sign",
        "fractional-facet", "fractional-metric-edge", "index-past-int64",
        "nan-vertex"])
def test_cli_malformed_mesh_exits_1(tmp_path, capsys, field, value, message):
    data = signal_to_dict(cs.gen_square(2))
    data[field] = value(data) if callable(value) else value
    mesh = tmp_path / "malformed.json"
    mesh.write_text(json.dumps(data))
    code, out, err = run(capsys, "energy", str(mesh))
    assert code == 1
    assert out == ""
    assert err.startswith("error: " + message)
    assert err.count("\n") == 1


# -- the CLI surface ---------------------------------------------------------

#: Per subcommand, each argument (option string, or dest of a positional)
#: with its default and whether it is required, in declaration order.
CLI_SURFACE = {
    "generate": {
        "--kind": (None, True), "--resolution": (None, True),
        "--width": (1.0, False), "--height": (1.0, False),
        "--r0": (1.0, False), "--r1": (1.2, False), "--out": (None, True),
    },
    "validate": {
        "path": (None, True), "--format": ("json", False), "--out": (None, False),
    },
    "energy": {
        "path": (None, True), "--steiner-level": (2, False),
        "--format": ("json", False), "--out": (None, False),
    },
    "fourier": {
        "path": (None, True), "--transformed-out": (None, False),
        "--steiner-level": (2, False), "--format": ("json", False),
        "--out": (None, False),
    },
    "noise": {
        "path": (None, True), "--center-vertex": (None, True),
        "--delta0": (None, True), "--delta": (None, True),
        "--epsilon": (None, True), "--out": (None, True),
        "--steiner-level": (2, False), "--format": ("json", False),
    },
    "filter": {
        "path": (None, True), "--keep": (None, True), "--out": (None, True),
        "--steiner-level": (2, False), "--format": ("json", False),
    },
    "compose": {
        "--left": (None, True), "--right": (None, True), "--corr": (None, True),
        "--out": (None, True), "--steiner-level": (2, False),
        "--format": ("json", False),
    },
    "verify-thm1": {
        "path": (None, True), "--steiner-level": (2, False),
        "--format": ("json", False), "--out": (None, False),
    },
    "verify-thm2": {
        "--left": (None, True), "--right": (None, True), "--corr": (None, True),
        "--steiner-level": (2, False), "--format": ("json", False),
        "--out": (None, False),
    },
    "sweep-eps": {
        "path": (None, True), "--center-vertex": (None, True),
        "--delta0": (None, True), "--delta": (None, True),
        "--eps": (None, True), "--steiner-level": (2, False),
        "--format": ("json", False), "--out": (None, False),
    },
    "refine-study": {
        "--kind": (None, True), "--resolutions": (None, True),
        "--width": (1.0, False), "--height": (1.0, False),
        "--r0": (1.0, False), "--r1": (1.2, False),
        "--oracle-resolution": (1024, False), "--steiner-level": (2, False),
        "--format": ("json", False), "--out": (None, False),
    },
    "oracle": {
        "--kind": (None, True), "--fine-resolution": (1024, False),
        "--width": (1.0, False), "--height": (1.0, False),
        "--r0": (1.0, False), "--r1": (1.2, False),
        "--format": ("json", False), "--out": (None, False),
    },
}


def test_cli_surface_is_pinned():
    import argparse
    from cobsig.cli import build_parser
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    surface = {}
    for command, parser in sub.choices.items():
        surface[command] = {}
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            assert len(action.option_strings) <= 1, action.option_strings
            key = action.option_strings[0] if action.option_strings else action.dest
            surface[command][key] = (action.default, action.required)
    assert surface == CLI_SURFACE
    # declaration order is the order of the usage line and --help
    assert [list(v) for v in surface.values()] == [list(v) for v in CLI_SURFACE.values()]

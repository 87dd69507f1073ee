"""Every real-valued input is read by ``complex.float_table`` or ``as_float``.

Each probe hands one entry point a value that is no finite real number, a
table of the wrong shape, hints that are no mapping from str names (also
when set in place before a save), or shape params that are no mapping, and
expects that module's error naming the entry: no bare numpy or Python
error, no warning, and no silent cast.
"""

import json
import math

import numpy as np
import pytest

import cobsig as cs
from cobsig.complex import float_table
from cobsig.errors import CobsigError, CompositionError, MeshError, MetricError, NoiseError
from cobsig.fileio import (load_correspondence, load_kept_simplices, save_signal,
                           signal_from_dict, signal_to_dict)
from cobsig.generators import generate


def _square2():
    return cs.gen_square(2)


def _lengths(sig):
    return sig.metric.lengths


def _metric_field(lengths):
    sig = _square2()
    return lambda tmp: cs.MetricField(sig.metric.edges, lengths(sig))


def _factor(values):
    sig = _square2()
    return lambda tmp: cs.conformal_scale(sig.metric, values(sig.complex.n_vertices))


def _noise(*args):
    return lambda tmp: cs.NoiseSpec(4, *args)


def _mesh(change):
    """Load gen_square(2)'s mesh data, with its metric written out, after
    ``change`` edits it."""
    sig = _square2()
    data = signal_to_dict(sig)
    data["metric"] = [{"edge": e, "length": l}
                      for e, l in zip(sig.metric.edges.tolist(), sig.metric.lengths.tolist())]

    def call(tmp):
        change(data)
        return signal_from_dict(json.loads(json.dumps(data)))
    return call


def _saved_hint(name, value):
    """Save gen_square(2) after one of its hints is set in place."""
    def call(tmp):
        sig = _square2()
        sig.hints[name] = value
        save_signal(sig, tmp / "mesh.json")
    return call


def _first_length(value):
    return _mesh(lambda d: d["metric"][0].update(length=value))


def _first_vertex(value):
    return _mesh(lambda d: d["vertices"][0].__setitem__(0, value))


def _hint(value):
    return _mesh(lambda d: d["hints"].update(E=value))


def _file(load, data):
    def call(tmp):
        path = tmp / "input.json"
        path.write_text(json.dumps(data))
        return load(path)
    return call


def _hints(hints):
    return lambda tmp: cs.make_signal(_square2().complex, hints=hints)


def _keep(value):
    return _file(lambda path: load_kept_simplices(_square2(), path), {"axis": 0, "max": value})


def _correspondence(value):
    return _file(load_correspondence, {"pairs": [[0, 1]], "tolerance": value})


#: probe id: (call on a tmp_path, the error, a part of its message that
#: names the entry)
PROBES = {
    "lengths-column": (_metric_field(lambda s: _lengths(s)[:, None]), MetricError,
                       "the length table has shape (16, 1), not (16,)"),
    "lengths-complex": (_metric_field(lambda s: _lengths(s) + 0j), MetricError,
                        "length 0 is (0.5+0j): expected real numbers, got complex128"),
    "lengths-text": (_metric_field(lambda s: [str(x) for x in _lengths(s)]), MetricError,
                     "length 0 is '0.5': expected real numbers, got str"),
    "factor-complex": (_factor(lambda nv: np.ones(nv) + 0j), MetricError,
                       "conformal factor 0 is (1+0j): expected real numbers, got complex128"),
    "factor-short": (_factor(lambda nv: np.ones(nv - 1)), MetricError,
                     "the conformal factor table has shape (8,), not (9,)"),
    "factor-long": (_factor(lambda nv: np.ones(nv + 1)), MetricError,
                    "the conformal factor table has shape (10,), not (9,)"),
    "factor-pairs": (_factor(lambda nv: np.ones((nv, 2))), MetricError,
                     "the conformal factor table has shape (9, 2), not (9,)"),
    "delta-text": (_noise(0.1, "0.2", 0.5), NoiseError,
                   "delta is '0.2': expected real numbers, got str"),
    "delta-complex": (_noise(0.1, 0.2 + 0j, 0.5), NoiseError,
                      "delta is (0.2+0j): expected real numbers, got complex"),
    "delta0-bool": (lambda tmp: cs.NoiseSpec(0, True, 2, 0.5), NoiseError,
                    "delta0 is True: expected real numbers, got bool"),
    "vertex_at-tol-text": (lambda tmp: cs.vertex_at(_square2(), (0.5, 0.5), tol="a"), MeshError,
                           "tolerance is 'a': expected real numbers, got str"),
    "eps-text": (lambda tmp: cs.eps_sweep(_square2(), cs.NoiseSpec(4, 0.1, 0.2, 0.5), ["0.5"]),
                 ValueError, "eps 0 is '0.5': expected real numbers, got str"),
    "vertex-numpy-complex": (
        lambda tmp: cs.build_complex([[0.0, 0.0], [1.0, 0.0], [0.0, np.complex128(1 + 2j)]],
                                     [(0, 1, 2)], {}),
        MeshError, "vertex 2 is (0.0, (1+2j)): expected real numbers, got complex128"),
    "file-length-text": (_first_length("0.5"), CobsigError,
                         "malformed mesh data: metric length 0 is '0.5': "
                         "expected real numbers, got str"),
    "file-length-bool": (_first_length(True), CobsigError,
                         "malformed mesh data: metric length 0 is True: "
                         "expected real numbers, got bool"),
    "file-length-list": (_mesh(lambda d: [m.update(length=[m["length"]]) for m in d["metric"]]),
                         CobsigError, "malformed mesh data: the metric length table has "
                                      "shape (16, 1), not (16,)"),
    "file-vertex-text": (_first_vertex("0.0"), MeshError,
                         "vertex 0 is ('0.0', 0.0): expected real numbers, got str"),
    "file-vertex-bool": (_first_vertex(True), MeshError,
                         "vertex 0 is (True, 0.0): expected real numbers, got bool"),
    "file-hint-text": (_hint("1.5"), CobsigError,
                       "hint E is '1.5': expected real numbers, got str"),
    "file-hint-bool": (_hint(True), CobsigError,
                       "hint E is True: expected real numbers, got bool"),
    "hint-text": (lambda tmp: cs.make_signal(_square2().complex, hints={"i_A": "2"}),
                  CobsigError, "hint i_A is '2': expected real numbers, got str"),
    "signal-hint-text": (lambda tmp: cs.Signal(_square2().complex, _square2().metric,
                                                {"i_A": "2"}),
                         CobsigError, "hint i_A is '2': expected real numbers, got str"),
    "hints-list": (_hints([1, 2]), CobsigError, "hints must be a mapping from names to "
                   "numbers, not list (cannot convert dictionary update sequence"),
    "hints-int": (_hints(5), CobsigError, "hints must be a mapping from names to numbers, "
                  "not int ('int' object is not iterable)"),
    "hints-text": (_hints("ab"), CobsigError, "hints must be a mapping from names to "
                   "numbers, not str (dictionary update sequence element #0 has length 1"),
    "hint-name-int": (_hints({1: 2.0}), CobsigError, "hint name 1 is not a str"),
    "hint-names-mixed": (_hints({"a": 1.0, 1: 2.0}), CobsigError, "hint name 1 is not a str"),
    "keep-max-text": (_keep("0.5"), CobsigError,
                      "keep max is '0.5': expected real numbers, got str"),
    "keep-max-bool": (_keep(True), CobsigError,
                      "keep max is True: expected real numbers, got bool"),
    "corr-tolerance-text": (_correspondence("1e-9"), CobsigError,
                            "tolerance is '1e-9': expected real numbers, got str"),
    "corr-tolerance-bool": (_correspondence(False), CobsigError,
                            "tolerance is False: expected real numbers, got bool"),
    "match-tolerance-text": (lambda tmp: cs.make_correspondence(
        cs.gen_rectangle(1, 1, 4), cs.gen_rectangle(1, 1, 4, origin=(0, 1)), tolerance="a"),
        CompositionError, "tolerance is 'a': expected real numbers, got str"),
    "match-tolerance-nan": (lambda tmp: cs.make_correspondence(
        cs.gen_rectangle(1, 1, 4), cs.gen_rectangle(1, 1, 4, origin=(0, 1)), tolerance=math.nan),
        CompositionError, "tolerance is nan: expected finite numbers"),
    "rectangle-nan": (lambda tmp: cs.gen_rectangle(math.nan, 1, 4), MeshError,
                      "rectangle width is nan: expected finite numbers"),
    "rectangle-inf": (lambda tmp: cs.gen_rectangle(math.inf, 1, 4), MeshError,
                      "rectangle width is inf: expected finite numbers"),
    "rectangle-text": (lambda tmp: cs.gen_rectangle("1", 1, 4), MeshError,
                       "rectangle width is '1': expected real numbers, got str"),
    "rectangle-bool": (lambda tmp: cs.gen_rectangle(True, 1, 4), MeshError,
                       "rectangle width is True: expected real numbers, got bool"),
    "origin-text": (lambda tmp: cs.gen_rectangle(1, 1, 4, origin=("0.5", 0)), MeshError,
                    "rectangle origin coordinate 0 is '0.5': expected real numbers, got str"),
    "origin-3d": (lambda tmp: cs.gen_rectangle(1, 1, 4, origin=(0, 0, 1)), MeshError,
                  "the rectangle origin coordinate table has shape (3,), not (2,)"),
    "shell-inf": (lambda tmp: cs.gen_annular_shell(1, math.inf, 2, 8), MeshError,
                  "shell r1 is inf: expected finite numbers"),
    "oracle-width-text": (lambda tmp: cs.grid_oracle("square", {"width": "2"}, 8), ValueError,
                          "width is '2': expected real numbers, got str"),
    "oracle-height-bool": (lambda tmp: cs.grid_oracle("square", {"height": True}, 8),
                           ValueError, "height is True: expected real numbers, got bool"),
    "oracle-width-inf": (lambda tmp: cs.grid_oracle("square", {"width": math.inf}, 8),
                         ValueError, "width is inf: expected finite numbers"),
    "oracle-split-nan": (lambda tmp: cs.grid_oracle("rectangle_split_A", {"split": math.nan}, 8),
                         ValueError, "split is nan: expected finite numbers"),
    "oracle-shell-missing": (lambda tmp: cs.grid_oracle("annular_shell", {"r0": 1, "r1": 2}, 8),
                             ValueError, "the annular_shell oracle needs 'height'"),
    "oracle-params-none": (lambda tmp: cs.grid_oracle("square", None, 8), ValueError,
                           "oracle params must be a mapping from names to sizes, not NoneType"),
    "oracle-shell-params-none": (lambda tmp: cs.grid_oracle("annular_shell", None, 8),
                                 ValueError, "oracle params must be a mapping from names to "
                                             "sizes, not NoneType"),
    "oracle-shell-params-list": (lambda tmp: cs.grid_oracle("annular_shell", [1, 2], 8),
                                 ValueError, "oracle params must be a mapping from names to "
                                             "sizes, not list"),
    "generate-params-none": (lambda tmp: generate("annular_shell", None, 8), ValueError,
                             "generator params must be a mapping from names to sizes, "
                             "not NoneType"),
    "generate-params-list": (lambda tmp: generate("rectangle", [1, 2], 8), ValueError,
                             "generator params must be a mapping from names to sizes, not list"),
    "saved-hint-name": (_saved_hint(1, 2.0), CobsigError, "hint name 1 is not a str"),
    "saved-hint-text": (_saved_hint("E", "0.5"), CobsigError,
                        "hint E is '0.5': expected real numbers, got str"),
}


@pytest.mark.parametrize("probe", list(PROBES))
def test_real_inputs_name_the_entry_they_refuse(tmp_path, probe):
    call, error, message = PROBES[probe]
    with pytest.raises(error) as err:
        call(tmp_path)
    assert message in str(err.value)


def test_float_table_keeps_valid_input_and_its_copies():
    sig = _square2()
    # a float64 array is shared, a list or an int array is converted
    values = np.linspace(1.0, 2.0, sig.complex.n_vertices)
    assert float_table(values, ValueError, "value") is values
    assert float_table([1, 2.5, np.float32(3)], ValueError, "value").tolist() == [1.0, 2.5, 3.0]
    # build_complex and MetricField keep a copy of their own
    verts = np.array(sig.complex.vertices)
    assert cs.build_complex(verts, sig.complex.simplices, {}).vertices is not verts
    assert verts.flags.writeable
    lengths = np.array(sig.metric.lengths)
    metric = cs.MetricField(sig.metric.edges, lengths)
    assert not np.shares_memory(metric.lengths, lengths) and lengths.flags.writeable
    # Python and numpy ints are real numbers
    spec = cs.NoiseSpec(4, np.int64(1), 2, 0.5)
    assert (spec.delta0, spec.delta) == (1.0, 2.0)
    assert cs.Correspondence(((0, 1),), 0).tolerance == 0.0
    hints = cs.make_signal(sig.complex, hints={"i_A": 2, "E": np.float32(0.5)}).hints
    assert hints == {"i_A": 2.0, "E": 0.5} and {*map(type, hints.values())} == {float}
    # a Signal built directly reads its hints the same way
    direct = cs.Signal(sig.complex, sig.metric, {"i_A": 1})
    assert type(direct.hints["i_A"]) is float
    assert type(cs.injectivity_radius(direct, "A").value) is float

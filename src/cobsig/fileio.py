"""JSON mesh files, correspondence files, and keep-predicate files.

Mesh file layout: {"dim", "ambient_dim", "vertices", "simplices"
(objects with "verts" and "sign"), "labels" (X/Y/A/B to facet arrays)},
plus an optional "metric" array of {"edge": [u, v], "length": l} entries
and an optional "hints" object.  The metric is written exactly when its
lengths differ, bit for bit, from the lengths the vertices induce; absent,
it means the ambient-induced metric.  Numbers are written in full double
precision, so a save/load round trip is the identity on the data model.
Mesh files are written on one line, which keeps ``json.dumps`` on its C
encoder.  Every index field -- simplex "verts" and "sign", label facets,
metric "edge", correspondence "pairs", keep "simplices" and keep "axis" --
must hold JSON integers within int64;
a float, a bool or a larger integer there makes the file malformed.  Each
field is read once, by ``complex.int_table`` (``as_int`` for the axis),
and the error names the first offending entry.  Every real-valued field --
"vertices", metric "length", each "hints" value, correspondence
"tolerance", keep "min" and "max" -- must hold finite JSON numbers; a
string, a bool, a list or a NaN there makes the file malformed.  Each is
read once, by ``complex.float_table`` (``as_float`` for a single value),
and the error names the first offending entry or the hint by its key.
Labels and vertices are read by ``build_complex`` alone, and hint values
by ``Signal``, as for any caller, so a bad one names its entry without
the "malformed" prefix; the writer reads the hints again in the same way.
"dim" and "ambient_dim" may be absent; when present they must equal the
simplices' width less one and the vertices' width.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .complex import (CobordismComplex, as_float, as_int, build_complex, float_table,
                      int_table, pair_table)
from .errors import CobsigError
from .metric import MetricField, _induced_lengths
from .signal import Signal, _read_hints, make_signal
from .signalops import Correspondence


def signal_to_dict(signal: Signal) -> dict:
    """Mesh data of ``signal``.  The metric is written exactly when its
    lengths differ, bit for bit, from those the vertices induce, so a load
    gives back the same lengths.  The hints are read again as ``Signal``
    reads them, and a hint changed in place since to no str name or no
    finite number is a CobsigError naming it."""
    out = signal.complex.to_dict()
    metric = signal.metric
    if not np.array_equal(metric.lengths, _induced_lengths(signal.complex)):
        out["metric"] = [{"edge": e, "length": l}
                         for e, l in zip(metric.edges.tolist(), metric.lengths.tolist())]
    hints = _read_hints(signal.hints)
    if hints:
        out["hints"] = dict(sorted(hints.items()))
    return out


def complex_from_dict(data: dict) -> CobordismComplex:
    try:
        # a ValueError makes the data malformed; the vertices and the labels
        # are read by build_complex alone
        verts = data["vertices"]
        simp = int_table([s["verts"] for s in data["simplices"]], ValueError, "simplex")
        signs = int_table([s.get("sign", 1) for s in data["simplices"]], ValueError, "sign")
        labels = dict(data.get("labels", {}))
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CobsigError(f"malformed mesh data: {exc}") from exc
    cx = build_complex(verts, simp, labels, signs)
    for field, want in (("dim", cx.dim), ("ambient_dim", cx.ambient_dim)):
        if data.get(field, want) != want:
            raise CobsigError(f"malformed mesh data: {field} {data[field]!r} does not "
                              f"match the arrays, which give {want}")
    return cx


def signal_from_dict(data: dict) -> Signal:
    return signal_on_complex(complex_from_dict(data), data)


def signal_on_complex(cx: CobordismComplex, data: dict) -> Signal:
    """The signal of mesh data on ``cx``, the complex built from that data."""
    metric = None  # the induced metric
    try:
        if "metric" in data:
            edges = pair_table([m["edge"] for m in data["metric"]], ValueError, "metric edge")
            edges.sort(axis=1)
            lengths = float_table([m["length"] for m in data["metric"]], ValueError,
                                  "metric length", (len(edges),))
            metric = MetricField(edges, lengths)
        hints = dict(data.get("hints", {}))
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CobsigError(f"malformed mesh data: {exc}") from exc
    return make_signal(cx, metric, hints)


def write_text(path, text: str) -> None:
    """Write an output file; a path that cannot be written is a CobsigError."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CobsigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def save_signal(signal: Signal, path) -> None:
    # the dict is freshly built and holds no cycles
    write_text(path, json.dumps(signal_to_dict(signal), check_circular=False) + "\n")


def read_json(path):
    """The parsed contents of a mesh, correspondence or keep file."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise CobsigError(f"invalid JSON in {path}: {exc}") from exc


def load_signal(path) -> Signal:
    return signal_from_dict(read_json(path))


def save_correspondence(corr: Correspondence, path) -> None:
    data = {"pairs": [list(p) for p in corr.pairs],
            "tolerance": corr.tolerance}
    write_text(path, json.dumps(data, indent=2) + "\n")


def load_correspondence(path) -> Correspondence:
    data = read_json(path)
    try:
        # a ValueError makes the file malformed
        pairs = pair_table(data["pairs"], ValueError, "pair")
        return Correspondence(pairs, as_float(data["tolerance"], ValueError, "tolerance"))
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CobsigError(f"malformed correspondence file {path}: {exc!r}") from exc


def load_kept_simplices(signal: Signal, path) -> np.ndarray:
    """The indices of ``signal``'s top simplices that a keep-predicate file
    keeps: {"simplices": [...]} lists them, and {"axis": k, "min"/"max": v}
    keeps each simplex whose vertices all lie within the bounds on axis k."""
    spec = read_json(path)
    if not isinstance(spec, dict) or ("simplices" not in spec and "axis" not in spec):
        raise CobsigError("keep file needs either 'simplices' or 'axis'")
    cx = signal.complex
    try:
        if "simplices" in spec:
            kept = int_table(spec["simplices"], ValueError, "kept simplex")
            if not isinstance(spec["simplices"], list) or kept.ndim != 1:
                raise ValueError("'simplices' must be a list of simplex indices")
            return kept
        axis = as_int(spec["axis"], ValueError, "keep axis")
        lo, hi = (as_float(spec[key], ValueError, f"keep {key}") if key in spec else bound
                  for key, bound in (("min", -np.inf), ("max", np.inf)))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CobsigError(f"malformed keep file: {exc!r}") from exc
    if not 0 <= axis < cx.ambient_dim:
        raise CobsigError(f"keep axis {axis} is not one of the "
                          f"{cx.ambient_dim} coordinate axes")
    coords = cx.vertices[:, axis]
    ok = (coords >= lo) & (coords <= hi)
    keep = np.all(ok[cx.simplices], axis=1)
    return np.argwhere(keep).ravel()

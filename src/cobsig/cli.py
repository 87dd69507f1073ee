"""Command-line front end.

One subcommand per pipeline stage; reports are JSON (default) or flat CSV,
written to stdout or --out.  All numeric output is full double precision and
byte-identical across runs for the same configuration.  Exit codes: 0 on
success (and all inequality checks holding), 1 on validation/inequality/
operation failure, 2 on usage errors (unknown command, unreadable file, bad
parameters).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from functools import lru_cache

import numpy as np

from . import fileio
from .complex import ValidationReport, validate
from .energy import energy, fourier_energy, fourier_relabel, ratio_of
from .errors import CobsigError
from .generators import generate
from .geodesy import BALL_ULPS, DEFAULT_STEINER_LEVEL, distance_within
from .signalops import NoiseSpec, apply_noise, compose, extract_filter
from .verify import (check_composition, check_thm1_bounds, eps_sweep,
                     grid_oracle, refinement_study)

USAGE_ERROR = 2
OPERATION_ERROR = 1


class UsageError(Exception):
    pass


def _check_args(args: argparse.Namespace) -> None:
    """Reject parameter values that are bad only together."""
    delta0, delta = getattr(args, "delta0", None), getattr(args, "delta", None)
    if delta0 is not None and delta is not None and not 0 < delta0 < delta:
        raise UsageError("need 0 < delta0 < delta")


def _emit(payload, args) -> None:
    if getattr(args, "format", "json") == "csv":
        text = _to_csv(payload)
    else:
        text = json.dumps(payload, indent=2) + "\n"
    out = getattr(args, "report_out", None)
    if out:
        fileio.write_text(out, text)
    else:
        sys.stdout.write(text)


def _flatten(obj, prefix: str = "", row: dict | None = None) -> dict:
    row = {} if row is None else row
    for k, v in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
        if isinstance(v, (dict, list)):
            _flatten(v, f"{prefix}{k}.", row)
        else:
            row[f"{prefix}{k}"] = v
    return row


def _to_csv(payload) -> str:
    # one row per case: reports with a "rows" list expand, others emit one row
    cases = payload.get("rows") if isinstance(payload, dict) else None
    rows = [_flatten(r) for r in (cases if isinstance(cases, list) else [payload])]
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _input_file(path: str) -> str:
    """argparse type of every input file argument."""
    if os.path.isdir(path) or not os.access(path, os.R_OK):
        raise argparse.ArgumentTypeError(f"cannot read {path}")
    return path


def _checked(kind, ok, need: str):
    """argparse type of a number read by ``kind`` for which ``ok`` holds."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"need {need}, got {text!r}")
        return value
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_resolution = _checked(int, lambda v: v >= 2, "an integer of at least 2")
_level = _checked(int, lambda v: v >= 0, "a non-negative integer")
_size = _checked(float, lambda v: 0 < v < math.inf, "a positive finite number")
_depth = _checked(float, lambda v: 0 < v < 1, "a number in (0, 1)")


def _numbers(text: str, kind) -> list:
    """The non-empty entries of a comma-separated list, read by ``kind``."""
    try:
        return [kind(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list: {text!r}") from None


def _eps_list(text: str) -> list:
    """argparse type of --eps: strictly descending values in (0, 1)."""
    values = _numbers(text, float)
    descending = all(a > b for a, b in zip(values, values[1:]))
    if not values or not descending or not all(0 < e < 1 for e in values):
        raise argparse.ArgumentTypeError("need strictly descending values in (0, 1)")
    return values


def _resolution_list(text: str) -> list:
    """argparse type of --resolutions: at least two distinct values, each at
    least 2."""
    values = _numbers(text, int)
    if len(set(values)) < len(values) or len(values) < 2 or min(values) < 2:
        raise argparse.ArgumentTypeError(
            "need at least two distinct resolutions, each at least 2")
    return values


def _shape(args: argparse.Namespace) -> dict:
    return {"width": args.width, "height": args.height, "r0": args.r0, "r1": args.r1}


# -- subcommand implementations ---------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    fileio.save_signal(generate(args.kind, _shape(args), args.resolution), args.out)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        data = fileio.read_json(args.path)
        cx = fileio.complex_from_dict(data)
        report = validate(cx)
        if report.ok:
            fileio.signal_on_complex(cx, data)  # the metric must build as well
    except CobsigError as exc:
        # structurally unbuildable counts as failed validation, not usage
        report = ValidationReport(False, (("unbuildable", str(exc)),))
    _emit(report.to_dict(), args)
    return 0 if report.ok else OPERATION_ERROR


def _energy_payload(sig, steiner_level: int) -> dict:
    e, ef = energy(sig, steiner_level), fourier_energy(sig, steiner_level)
    return {
        "E": e,
        "EF": ef,
        "ratio": ratio_of(ef, e),
        "steiner_level": steiner_level,
        "resolution": sig.hints.get("resolution"),
    }


def _emit_mesh(sig, args: argparse.Namespace) -> int:
    """Save a derived mesh to --out and report its energies."""
    fileio.save_signal(sig, args.out)
    _emit(_energy_payload(sig, args.steiner_level), args)
    return 0


def _load_glue(args: argparse.Namespace) -> tuple:
    return (fileio.load_signal(args.left), fileio.load_signal(args.right),
            fileio.load_correspondence(args.corr))


def cmd_energy(args: argparse.Namespace) -> int:
    _emit(_energy_payload(fileio.load_signal(args.path), args.steiner_level), args)
    return 0


def cmd_fourier(args: argparse.Namespace) -> int:
    sig = fourier_relabel(fileio.load_signal(args.path))
    if args.transformed_out:
        fileio.save_signal(sig, args.transformed_out)
    _emit(_energy_payload(sig, args.steiner_level), args)
    return 0


def cmd_noise(args: argparse.Namespace) -> int:
    sig = fileio.load_signal(args.path)
    spec = NoiseSpec(args.center_vertex, args.delta0, args.delta, args.epsilon)
    return _emit_mesh(apply_noise(sig, spec, args.steiner_level), args)


def cmd_filter(args: argparse.Namespace) -> int:
    sig = fileio.load_signal(args.path)
    kept = fileio.load_kept_simplices(sig, args.keep)
    return _emit_mesh(extract_filter(sig, kept), args)


def cmd_compose(args: argparse.Namespace) -> int:
    return _emit_mesh(compose(*_load_glue(args)), args)


def cmd_verify_thm1(args: argparse.Namespace) -> int:
    report = check_thm1_bounds(fileio.load_signal(args.path), args.steiner_level)
    _emit(report.to_dict(), args)
    return 0 if report.holds else OPERATION_ERROR


def cmd_verify_thm2(args: argparse.Namespace) -> int:
    report = check_composition(*_load_glue(args), args.steiner_level)
    _emit(report.to_dict(), args)
    return 0 if report.holds else OPERATION_ERROR


def cmd_sweep_eps(args: argparse.Namespace) -> int:
    sig = fileio.load_signal(args.path)
    spec = NoiseSpec(args.center_vertex, args.delta0, args.delta, 0.5)
    report = eps_sweep(sig, spec, args.eps, args.steiner_level)
    _emit(report.to_dict(), args)
    # the sweep has cached these distances, exact out to BALL_ULPS ulp past
    # delta; ball membership of a vertex within a few ulp of a radius rests
    # on rounding
    rho = distance_within(sig, spec.center, spec.delta, args.steiner_level)
    near = np.zeros(len(rho), dtype=bool)
    for radius in (spec.delta0, spec.delta):
        near |= np.abs(rho - radius) <= BALL_ULPS * np.spacing(radius)
    if near.any():
        print(f"warning: {int(near.sum())} vertices lie within {BALL_ULPS} ulp of delta0 "
              "or delta; their ball membership rests on rounding",
              file=sys.stderr)
    return 0


def cmd_refine_study(args: argparse.Namespace) -> int:
    report = refinement_study(args.kind, _shape(args), args.resolutions, args.steiner_level,
                              args.oracle_resolution)
    _emit(report.to_dict(), args)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    _emit(grid_oracle(args.kind, _shape(args), args.fine_resolution), args)
    return 0


COMMANDS = {
    "generate": cmd_generate,
    "validate": cmd_validate,
    "energy": cmd_energy,
    "fourier": cmd_fourier,
    "noise": cmd_noise,
    "filter": cmd_filter,
    "compose": cmd_compose,
    "verify-thm1": cmd_verify_thm1,
    "verify-thm2": cmd_verify_thm2,
    "sweep-eps": cmd_sweep_eps,
    "refine-study": cmd_refine_study,
    "oracle": cmd_oracle,
}


KINDS = ("square", "rectangle", "annular_shell")


def _add_common(p, steiner=True, report_out=True):
    if steiner:
        p.add_argument("--steiner-level", type=_level, default=DEFAULT_STEINER_LEVEL,
                       help="edge refinement level for distance fields")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    if report_out:
        p.add_argument("--out", dest="report_out",
                       help="write the report here instead of stdout")


def _add_shape(p):
    for flag, default in (("--width", 1.0), ("--height", 1.0), ("--r0", 1.0),
                          ("--r1", 1.2)):
        p.add_argument(flag, type=_size, default=default)


def _add_glue(p):
    for flag in ("--left", "--right", "--corr"):
        p.add_argument(flag, required=True, type=_input_file)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cobsig",
        description="Cobordism signals: generate meshes, compute geodesic "
                    "energies, apply noise/filters/composition, and check "
                    "the energy inequalities.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a canonical instance to a mesh file")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--resolution", type=_resolution, required=True)
    _add_shape(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("validate", help="run the labeling/orientation invariants")
    p.add_argument("path", type=_input_file)
    _add_common(p, steiner=False)

    p = sub.add_parser("energy",
                       help="energy, transformed energy, and their ratio")
    p.add_argument("path", type=_input_file)
    _add_common(p)

    p = sub.add_parser("fourier",
                       help="exchange the region roles (X,Y)<->(A,B) and "
                            "report the relabeled energies")
    p.add_argument("path", type=_input_file)
    p.add_argument("--transformed-out", help="write the relabeled mesh here")
    _add_common(p)

    p = sub.add_parser("noise", help="apply a local conformal deformation")
    p.add_argument("path", type=_input_file)
    p.add_argument("--center-vertex", type=int, required=True)
    p.add_argument("--delta0", type=_size, required=True)
    p.add_argument("--delta", type=_size, required=True)
    p.add_argument("--epsilon", type=_depth, required=True)
    p.add_argument("--out", required=True, help="deformed mesh file")
    _add_common(p, report_out=False)

    p = sub.add_parser("filter", help="extract a sub-signal keeping all of A")
    p.add_argument("path", type=_input_file)
    p.add_argument("--keep", required=True, type=_input_file,
                   help="JSON predicate file: {'simplices': [...]} or "
                        "{'axis': k, 'min': ..., 'max': ...}")
    p.add_argument("--out", required=True, help="filtered mesh file")
    _add_common(p, report_out=False)

    p = sub.add_parser("compose", help="glue left Y to right X along a "
                                       "correspondence file")
    _add_glue(p)
    p.add_argument("--out", required=True, help="glued mesh file")
    _add_common(p, report_out=False)

    p = sub.add_parser("verify-thm1",
                       help="check the two-sided bound on the energy ratio "
                            "from volumes, diameters, and injectivity radii")
    p.add_argument("path", type=_input_file)
    _add_common(p)

    p = sub.add_parser("verify-thm2",
                       help="check sub-additivity of energy and growth of the "
                            "transformed energy under composition")
    _add_glue(p)
    _add_common(p)

    p = sub.add_parser("sweep-eps",
                       help="noise-modulation expansion: measured ratio vs "
                            "(beta/gamma)(1 + C eps^(d/2)) across depths")
    p.add_argument("path", type=_input_file)
    p.add_argument("--center-vertex", type=int, required=True)
    p.add_argument("--delta0", type=_size, required=True)
    p.add_argument("--delta", type=_size, required=True)
    p.add_argument("--eps", required=True, type=_eps_list,
                   help="comma-separated descending values in (0,1)")
    _add_common(p)

    p = sub.add_parser("refine-study",
                       help="energies across resolutions against the "
                            "midpoint-rule oracle")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--resolutions", required=True, type=_resolution_list,
                   help="comma-separated resolutions, at least two")
    _add_shape(p)
    p.add_argument("--oracle-resolution", type=_positive_int, default=1024)
    _add_common(p)

    p = sub.add_parser("oracle",
                       help="independent midpoint-rule quadrature of the "
                            "closed-form distance fields")
    p.add_argument("--kind", required=True, choices=KINDS + ("rectangle_split_A",))
    p.add_argument("--fine-resolution", type=_positive_int, default=1024)
    _add_shape(p)
    _add_common(p, steiner=False)

    return ap


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of ``build_parser``, built once per process."""
    return build_parser()


def dispatch(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        _check_args(args)
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (CobsigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return OPERATION_ERROR
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return OPERATION_ERROR


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()

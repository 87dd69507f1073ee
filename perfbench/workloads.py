"""The benchmark's workloads: inputs, the operations of one round, checks.

Each workload has

* ``setup(out_dir, seed, tiny)``: generate the meshes with cobsig's
  generators and write them to files; returns the JSON-able parameters the
  round needs (file names, sizes, the noise centre picked by the seed);
* ``ops(in_dir, params)``: the round's operations, a list of (name, call);
  one operation is one CLI invocation or one top-level API call;
* ``summary(name, output, params)``: a small record of an operation's
  output, taken after the timed round (a parsed report and its digest);
* ``check(name, record, params)``: failure messages for one record,
  against the closed forms in ``checks``.

``tiny`` gives the same workload on the smallest meshes, for the warm-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

import numpy as np

import cobsig as cs
from cobsig import cli, fileio

import checks

#: Steiner level of every operation (the CLI default).
STEINER = 2


def _save(sig, out_dir: Path, name: str, hints: bool = True) -> str:
    if not hints:
        sig.hints.clear()
    fileio.save_signal(sig, out_dir / name)
    return name


def _vertex_near(sig, target) -> int:
    """Index of the generated vertex at ``target``, found by the benchmark."""
    d = np.linalg.norm(sig.complex.vertices - np.asarray(target), axis=1)
    k = int(np.argmin(d))
    if d[k] > 1e-9:
        raise RuntimeError(f"no generated vertex at {target}")
    return k


def _cli(argv, report: Path):
    """One CLI invocation as a user runs it; the report goes to a file."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.dispatch([str(a) for a in argv] + ["--out", str(report)])
    return rc, report


class _CliWorkload:
    """A workload of CLI calls: a record is the exit code and the report."""

    def summary(self, name, output, params):
        rc, report = output
        data = report.read_bytes()
        return {"rc": rc, "report": json.loads(data),
                "digest": hashlib.sha256(data).hexdigest()}


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else
                 json.dumps(p, sort_keys=True).encode())
    return h.hexdigest()


def _signal_digest(sig) -> str:
    cx = sig.complex
    labels = {t: sorted(cx.labels[t]) for t in sorted(cx.labels)}
    return _digest(cx.vertices.tobytes(), cx.simplices.tobytes(),
                   cx.signs.tobytes(), labels, sig.metric.lengths.tobytes())


# ---------------------------------------------------------------------------
# square-ladder: CLI energy and verify-thm1 on squares with analytic hints
# ---------------------------------------------------------------------------


class SquareLadder(_CliWorkload):
    sizes, tiny_sizes = (32, 64), (4, 8)

    def setup(self, out_dir, seed, tiny):
        sizes = self.tiny_sizes if tiny else self.sizes
        return {"files": {str(n): _save(cs.gen_square(n), out_dir, f"square{n}.json")
                          for n in sizes}}

    def ops(self, in_dir, params):
        out = []
        for n, name in params["files"].items():
            for cmd in ("energy", "verify-thm1"):
                out.append((f"{cmd} square{n}",
                            lambda cmd=cmd, name=name, n=n: _cli(
                                [cmd, in_dir / name],
                                in_dir / f"{cmd}-{n}.report.json")))
        return out

    def check(self, name, rec, params):
        cmd, mesh = name.split()
        n = int(mesh[len("square"):])
        fails = checks.require("exit code 0", rec["rc"] == 0)
        if cmd == "energy":
            return fails + checks.square_energy(rec["report"], n)
        return fails + checks.square_thm1(rec["report"], n)


# ---------------------------------------------------------------------------
# shell-sweep: CLI energy and sweep-eps on the 3D annular shell
# ---------------------------------------------------------------------------


class ShellSweep(_CliWorkload):
    r0, r1, height = 1.0, 2.0, 2.0
    n, tiny_n = 48, 20
    delta0, delta, eps = 0.25, 0.9, "0.4,0.2,0.1,0.05"

    def setup(self, out_dir, seed, tiny):
        n = self.tiny_n if tiny else self.n
        sig = cs.gen_annular_shell(self.r0, self.r1, self.height, n)
        # the noise centre: one of the n angular positions on the outer
        # wall at mid-height, picked by the seed
        k = random.Random(seed).randrange(n)
        theta = 2.0 * math.pi * k / n
        centre = _vertex_near(sig, (self.r1 * math.cos(theta),
                                    self.r1 * math.sin(theta),
                                    self.height / 2.0))
        return {"file": _save(sig, out_dir, f"shell{n}.json"), "n": n,
                "n_vertices": sig.complex.n_vertices, "angle_index": k,
                "centre": centre}

    def ops(self, in_dir, params):
        mesh = in_dir / params["file"]
        sweep = ["sweep-eps", mesh, "--center-vertex", params["centre"],
                 "--delta0", self.delta0, "--delta", self.delta,
                 "--eps", self.eps]
        return [("energy shell", lambda: _cli(["energy", mesh],
                                              in_dir / "energy.report.json")),
                ("sweep-eps shell", lambda: _cli(sweep,
                                                 in_dir / "sweep.report.json"))]

    def check(self, name, rec, params):
        fails = checks.require("exit code 0", rec["rc"] == 0)
        nv = params["n_vertices"]
        if name == "energy shell":
            return fails + checks.shell_energy(rec["report"], params["n"], nv)
        return fails + checks.shell_sweep(rec["report"], nv,
                                          len(self.eps.split(",")))


# ---------------------------------------------------------------------------
# bounds-nohints: CLI verify-thm1 on a square saved without hints
# ---------------------------------------------------------------------------


class BoundsNoHints(_CliWorkload):
    n, tiny_n = 20, 4

    def setup(self, out_dir, seed, tiny):
        n = self.tiny_n if tiny else self.n
        return {"file": _save(cs.gen_square(n), out_dir, f"square{n}-nohints.json",
                              hints=False), "n": n}

    def ops(self, in_dir, params):
        return [("verify-thm1 square-nohints",
                 lambda: _cli(["verify-thm1", in_dir / params["file"]],
                              in_dir / "thm1.report.json"))]

    def check(self, name, rec, params):
        return (checks.require("exit code 0", rec["rc"] == 0)
                + checks.nohints_thm1(rec["report"], params["n"], STEINER))


# ---------------------------------------------------------------------------
# glue-filter: composition and filter API calls on loaded meshes
# ---------------------------------------------------------------------------


class GlueFilter:
    n, tiny_n = 48, 4
    delta0, delta, eps = 0.1, 0.2, 0.25

    def setup(self, out_dir, seed, tiny):
        n = self.tiny_n if tiny else self.n
        square = cs.gen_square(n)
        # the noise centre: a grid vertex whose delta-ball misses A (x = 0),
        # X (y = 0) and the kept half x <= 1/2, and stays inside the square
        rng = random.Random(seed)
        ix = rng.randint(math.ceil(0.7 * n), math.floor(0.8 * n))
        iy = rng.randint(n // 4, 3 * n // 4)
        return {"n": n,
                "lower": _save(cs.gen_rectangle(1.0, 1.0, n), out_dir, "lower.json"),
                "upper": _save(cs.gen_rectangle(1.0, 1.0, n, origin=(0.0, 1.0)),
                               out_dir, "upper.json"),
                "square": _save(square, out_dir, "square.json"),
                "centre": _vertex_near(square, (ix / n, iy / n))}

    def ops(self, in_dir, params):
        s = {}

        def step(key, call):
            def run():
                s[key] = call()
                return s[key]
            return key, run

        spec = cs.NoiseSpec(params["centre"], self.delta0, self.delta, self.eps)
        return [
            step("load lower", lambda: fileio.load_signal(in_dir / params["lower"])),
            step("load upper", lambda: fileio.load_signal(in_dir / params["upper"])),
            step("load square", lambda: fileio.load_signal(in_dir / params["square"])),
            step("make_correspondence", lambda: cs.make_correspondence(
                s["load lower"], s["load upper"])),
            step("compose", lambda: cs.compose(
                s["load lower"], s["load upper"], s["make_correspondence"])),
            step("check_composition", lambda: cs.check_composition(
                s["load lower"], s["load upper"], s["make_correspondence"], STEINER)),
            step("keep_by_predicate", lambda: cs.keep_by_predicate(
                s["load square"], lambda q: q[0] <= 0.5 + 1e-12)),
            step("extract_filter", lambda: cs.extract_filter(
                s["load square"], s["keep_by_predicate"])),
            step("check_filter", lambda: cs.check_filter(
                s["load square"], s["extract_filter"], spec, STEINER)),
        ]

    def summary(self, name, output, params):
        if isinstance(output, cs.Signal):
            return {"n_vertices": output.complex.n_vertices,
                    "digest": _signal_digest(output)}
        if isinstance(output, np.ndarray):
            return {"size": int(output.size), "digest": _digest(output.tobytes())}
        if isinstance(output, cs.Correspondence):
            return {"pairs": len(output.pairs), "digest": _digest(output.pairs)}
        report = output.to_dict()
        return {"report": report, "digest": _digest(report)}

    def check(self, name, rec, params):
        n = params["n"]
        if name.startswith("load"):
            want = (n + 1) ** 2
            return checks.require(f"{want} vertices", rec["n_vertices"] == want)
        if name == "make_correspondence":
            return checks.require(f"{n + 1} glued pairs", rec["pairs"] == n + 1)
        if name == "compose":
            return checks.glued_size(rec["n_vertices"], n)
        if name == "check_composition":
            return checks.composition(rec["report"], n)
        if name == "keep_by_predicate":
            return checks.require(f"{n * n} kept triangles", rec["size"] == n * n)
        if name == "extract_filter":
            want = (n // 2 + 1) * (n + 1)
            return checks.require(f"{want} filter vertices", rec["n_vertices"] == want)
        return checks.filter_report(rec["report"], n)


WORKLOADS = {
    "square-ladder": SquareLadder(),
    "shell-sweep": ShellSweep(),
    "bounds-nohints": BoundsNoHints(),
    "glue-filter": GlueFilter(),
}

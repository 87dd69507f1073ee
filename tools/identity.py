"""SHA-256 digests of the package's outputs on a fixed ladder of instances.

A change that should keep every output bit-identical is checked by
comparing these digests with those of the tree it changes.  Run from the
repository root::

    python tools/identity.py [--src DIR] [--out FILE]
    python tools/identity.py --against TREE

The first form writes one JSON object of named digests (to FILE, else to
stdout) computed with the package in DIR, by default this checkout's
``src``.  The second computes them here, and with TREE's ``src`` in a child
process, prints the name of each digest that differs or exists on one side
only, and exits 1 if there is one.

The ladder is square8, square64, rectangle16 (1 by 2 at (0, 1)), the thin
shell16 (r 1 to 1.2, height 1) and shell24 and shell48 (r 1 to 2, height
2).  Per instance the digests cover the saved mesh file; for the generated
and the reloaded complex its structure tables, label sets, region tables
and validation report; the Steiner graph at level 2 (CSR indptr, indices
and data, read through ``geodesy._graph``) and the distance fields to A
and X; the top-simplex volumes, the lumped vertex weights and the
volumes of A and X; and the exit code, report and stderr of the CLI's
``energy`` and ``verify-thm1`` on the saved file.  Three more runs are
digested: a ``verify-thm1`` of square8 and of the thin shell16 saved
without hints, and a ``sweep-eps`` on shell24.

Noisy signals are digested on each of the graph's three fill paths
(``geodesy._SteinerGraph``), which NOISE names by the share of edge rows
its ball changes: square8's ball (0.40) is filled in full, square32's
(0.10) through the plan with fields updated on a subgraph, square48's
(0.13) through the plan with full searches, and the shell24 sweep's ball
(0.04) through the plan.  After the reference fields to A and X, each ball
is taken at every eps of NOISE_EPS, and the digests cover the noisy fields
to A and X, then the CSR ``data`` of the noisy graph at level 2.  No
perfbench workload takes the full-refill branch, so these digests are
what compares it.  The whole run takes a few seconds per tree.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: name -> (generator, positional arguments, keyword arguments)
LADDER = {
    "square8": ("gen_square", (8,), {}),
    "square64": ("gen_square", (64,), {}),
    "rectangle16": ("gen_rectangle", (1.0, 2.0, 16), {"origin": (0.0, 1.0)}),
    "thin-shell16": ("gen_annular_shell", (1.0, 1.2, 1.0, 16), {}),
    "shell24": ("gen_annular_shell", (1.0, 2.0, 2.0, 24), {}),
    "shell48": ("gen_annular_shell", (1.0, 2.0, 2.0, 48), {}),
}

#: sweep-eps on shell24 about the outer-wall vertex at angle 0, height 0.8
SWEEP = ("shell24", (2.0, 0.0, 0.8), ["--delta0", "0.2", "--delta", "0.7",
                                      "--eps", "0.4,0.2,0.1,0.05"])


#: noise balls: name -> (instance, centre, delta0, delta); square8's and
#: square32's are the tests' NOISE_CASES, square48's glue-filter's
NOISE = {
    "square8": (("gen_square", (8,), {}), (0.75, 0.5), 0.125, 0.375),
    "square32": (("gen_square", (32,), {}), (0.875, 0.5), 0.0625, 0.1875),
    "square48": (("gen_square", (48,), {}), (0.75, 0.5), 0.1, 0.2),
    "shell24": (LADDER["shell24"], SWEEP[1], 0.2, 0.7),
}
NOISE_EPS = (0.4, 0.1, 0.05)


def digest(*parts) -> str:
    """One SHA-256 over arrays (dtype, shape and bytes), bytes and JSON."""
    h = hashlib.sha256()
    for part in parts:
        if hasattr(part, "tobytes"):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(part.tobytes())
        else:
            h.update(part if isinstance(part, bytes) else
                     json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def complex_digests(cs, cx) -> dict:
    tags = ("X", "Y", "A", "B")
    return {
        "structure": digest(cx.vertices, cx.simplices, cx.signs, cx.facets, cx.boundary,
                            cx.edges(), cx.simplex_edge_rows),
        "labels": digest({tag: sorted(cx.labels[tag]) for tag in tags}),
        "regions": digest(*(cx.region_facets(tag) for tag in tags)),
        "validate": digest(cs.validate(cx).to_dict()),
    }


def run_cli(cli, argv, report: Path) -> str:
    """Digest of one CLI run: exit code, report file and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.dispatch([str(a) for a in argv] + ["--out", str(report)])
    return digest(code, report.read_bytes() if report.exists() else b"", err.getvalue())


def ladder_digests(src: Path) -> dict:
    """The named digests of the package in ``src``."""
    sys.path.insert(0, str(src))
    import cobsig as cs
    from cobsig import cli, fileio
    from cobsig.geodesy import _graph
    if Path(cs.__file__).resolve().parent != (src / "cobsig").resolve():
        raise SystemExit(f"imported cobsig from {cs.__file__}, not from {src}")

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, (gen, args, kwargs) in LADDER.items():
            sig = getattr(cs, gen)(*args, **kwargs)
            path = tmp / f"{name}.json"
            fileio.save_signal(sig, path)
            out[f"{name}/file"] = digest(path.read_bytes())
            for source, cx in (("generated", sig.complex),
                               ("loaded", fileio.load_signal(path).complex)):
                for key, value in complex_digests(cs, cx).items():
                    out[f"{name}/{source}/{key}"] = value
            m = _graph(sig, 2).matrix
            out[f"{name}/graph"] = digest(m.indptr, m.indices, m.data)
            out[f"{name}/volumes"] = digest(sig.simplex_volumes())
            out[f"{name}/lumped"] = digest(cs.lumped_vertex_volume(sig).values)
            for tag in ("A", "X"):
                out[f"{name}/field-{tag}"] = digest(cs.distance_field(sig, tag, 2).values)
                out[f"{name}/volume-{tag}"] = digest(cs.region_volume(sig, tag))
            for cmd in ("energy", "verify-thm1"):
                out[f"{name}/{cmd}"] = run_cli(cli, [cmd, path], tmp / f"{name}-{cmd}.out")

        for name in ("square8", "thin-shell16"):
            gen, args, kwargs = LADDER[name]
            sig = getattr(cs, gen)(*args, **kwargs)
            sig.hints.clear()
            path = tmp / f"{name}-nohints.json"
            fileio.save_signal(sig, path)
            out[f"{name}-nohints/verify-thm1"] = run_cli(cli, ["verify-thm1", path],
                                                         tmp / f"{name}-nohints.out")

        name, at, options = SWEEP
        centre = cs.vertex_at(fileio.load_signal(tmp / f"{name}.json"), at)
        out[f"{name}/sweep-eps"] = run_cli(
            cli, ["sweep-eps", tmp / f"{name}.json", "--center-vertex", centre, *options],
            tmp / "sweep.out")

    for name, ((gen, args, kwargs), at, delta0, delta) in NOISE.items():
        sig = getattr(cs, gen)(*args, **kwargs)
        for tag in ("A", "X"):
            cs.distance_field(sig, tag, 2)  # the reference fields
        centre = cs.vertex_at(sig, at)
        for eps in NOISE_EPS:
            noisy = cs.apply_noise(sig, cs.NoiseSpec(centre, delta0, delta, eps))
            for tag in ("A", "X"):
                out[f"noise-{name}/{eps}/field-{tag}"] = digest(
                    cs.distance_field(noisy, tag, 2).values)
            out[f"noise-{name}/{eps}/graph-data"] = digest(_graph(noisy, 2).matrix.data)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=SRC,
                        help="the package directory to digest (default: this checkout's src)")
    parser.add_argument("--out", type=Path, help="write the JSON here instead of stdout")
    parser.add_argument("--against", type=Path, metavar="TREE",
                        help="compare with the checkout TREE and print the names that differ")
    args = parser.parse_args(argv)
    if args.against is None:
        text = json.dumps(ladder_digests(args.src), indent=1, sort_keys=True) + "\n"
        if args.out:
            args.out.write_text(text)
        else:
            sys.stdout.write(text)
        return 0
    child = subprocess.run([sys.executable, __file__, "--src", str(args.against / "src")],
                           check=True, stdout=subprocess.PIPE, text=True)
    theirs = json.loads(child.stdout)
    ours = ladder_digests(args.src)
    differ = sorted(k for k in ours.keys() | theirs.keys() if ours.get(k) != theirs.get(k))
    for name in differ:
        print(name)
    print(f"{len(differ)} of {len(ours.keys() | theirs.keys())} digests differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

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

On square8 and the thin shell16, the region code is digested too: the
``validate`` report of one deliberately broken labeling per kind of label
violation (BROKEN), each built from the generated complex's region tables
through ``with_labels``; the CSR arrays of the level-2 graphs of A and X;
and, with the hints cleared, ``diameter`` of M, A and X and
``injectivity_radius`` of A and X.

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
import itertools
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

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

#: the label violation each broken labeling makes, among others
BROKEN = ("unlabeled-boundary-facet", "multiply-labeled-facet", "X-Y-shared-facet",
          "A-B-shared-facet", "A-B-shared-corner-face", "empty-region", "A-X-corner-empty")


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


def broken_labelings(cs, cx) -> dict:
    """One labeling per name in BROKEN, made from ``cx``'s region tables.

    An X facet in A or in Y, or a B facet in A, makes a facet that two
    regions share; the X facets with a (d-2)-face on the A-X corner, moved
    to B, make a corner that A and B share; A without its facets on that
    corner shares none with X.  Dropping a facet of B, or all of B, leaves
    facets unlabeled.
    """
    x, y, a, b = (cx.region_facets(tag) for tag in ("X", "Y", "A", "B"))
    corner = set(map(tuple, cx.corner_table("A", "X").tolist()))
    x_at, a_at = (np.array([any(face in corner for face in itertools.combinations(f, cx.dim - 1))
                            for f in table.tolist()], dtype=bool) for table in (x, a))
    return dict(zip(BROKEN, (
        {"X": x, "Y": y, "A": a, "B": b[1:]},
        {"X": x, "Y": y, "A": np.vstack([a, x[:1]]), "B": b},
        {"X": np.vstack([x, y[:1]]), "Y": y, "A": a, "B": b},
        {"X": x, "Y": y, "A": np.vstack([a, b[:1]]), "B": b},
        {"X": x[~x_at], "Y": y, "A": a, "B": np.vstack([b, x[x_at]])},
        {"X": x, "Y": y, "A": a},
        {"X": x, "Y": y, "A": a[~a_at], "B": b},
    )))


def region_digests(cs, graph, sig) -> dict:
    """Digests of the region code on the hint-free ``sig``: the broken
    labelings' reports, the A and X graphs, the diameters and the
    injectivity radii."""
    out = {}
    for kind, labels in broken_labelings(cs, sig.complex).items():
        out[f"broken-{kind}"] = digest(cs.validate(sig.complex.with_labels(labels)).to_dict())
    for tag in ("A", "X"):
        m = graph(sig, 2, tag).matrix
        out[f"graph-{tag}"] = digest(m.indptr, m.indices, m.data)
    for subset in ("M", "A", "X"):
        out[f"diameter-{subset}"] = digest(cs.diameter(sig, subset, 2))
    for tag in ("A", "X"):
        est = cs.injectivity_radius(sig, tag, 2)
        out[f"injectivity-{tag}"] = digest([est.value, est.method, est.region])
    return out


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
            out[f"{name}/lumped"] = digest(np.asarray(cs.lumped_vertex_volume(sig)))
            for tag in ("A", "X"):
                out[f"{name}/field-{tag}"] = digest(np.asarray(cs.distance_field(sig, tag, 2)))
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
            for key, value in region_digests(cs, _graph, sig).items():
                out[f"{name}/{key}"] = value

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
                    np.asarray(cs.distance_field(noisy, tag, 2)))
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

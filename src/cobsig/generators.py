"""Canonical test instances with analytic ground truth.

Structured grids only: axis-aligned geodesics are exact on them and the
construction is deterministic.  Every generated signal validates, and its
``hints`` carry closed-form energies, volumes, diameters, and boundary
injectivity radii for the smooth geometry it approximates.
"""

from __future__ import annotations

import math

import numpy as np

from .complex import as_int, build_complex
from .errors import MeshError
from .signal import Signal, make_signal


def _grid_signal(width: float, height: float, nx: int, ny: int,
                 origin=(0.0, 0.0), hints=None) -> Signal:
    """Axis-aligned rectangle triangulated as an nx-by-ny grid.

    Labels: X bottom, Y top, A left, B right.  All triangles are
    counterclockwise with the cell diagonal running lower-left to
    upper-right.
    """
    x0, y0 = float(origin[0]), float(origin[1])
    xs = x0 + width * np.arange(nx + 1) / nx
    ys = y0 + height * np.arange(ny + 1) / ny

    def vid(ix, iy):
        return iy * (nx + 1) + ix

    verts = np.column_stack([np.tile(xs, ny + 1), np.repeat(ys, nx + 1)])
    # per cell, row by row: (v00, v10, v11) and (v00, v11, v01)
    iy, ix = np.divmod(np.arange(nx * ny), nx)
    v00 = vid(ix, iy)
    v11 = vid(ix + 1, iy + 1)
    tris = np.stack([v00, v00 + 1, v11, v00, v11, v11 - 1], axis=1).reshape(-1, 3)

    labels = {
        "X": [(vid(i, 0), vid(i + 1, 0)) for i in range(nx)],
        "Y": [(vid(i, ny), vid(i + 1, ny)) for i in range(nx)],
        "A": [(vid(0, j), vid(0, j + 1)) for j in range(ny)],
        "B": [(vid(nx, j), vid(nx, j + 1)) for j in range(ny)],
    }
    cx = build_complex(verts, tris, labels)
    return make_signal(cx, hints=hints)


def gen_square(n: int) -> Signal:
    """Unit square as an n-by-n grid of 2 n^2 triangles."""
    if as_int(n, MeshError, "square resolution") < 2:
        raise MeshError("square resolution must be at least 2")
    return gen_rectangle(1.0, 1.0, n)


def gen_rectangle(width: float, height: float, n: int,
                  origin=(0.0, 0.0)) -> Signal:
    """Axis-aligned rectangle; resolution n counts subdivisions per unit length.

    Used as composition ground truth; hints are translation invariant.
    """
    if width <= 0 or height <= 0:
        raise MeshError("rectangle dimensions must be positive")
    n = as_int(n, MeshError, "rectangle resolution")
    if n < 2:
        raise MeshError("rectangle resolution must be at least 2")
    nx = max(1, round(n * width))
    ny = max(1, round(n * height))
    hints = {
        "E": width * width * height / 2.0,
        "EF": width * height * height / 2.0,
        "i_A": width,
        "i_X": height,
        "diam_M": math.hypot(width, height),
        "diam_A": height,
        "diam_X": width,
        "vol_M": width * height,
        "vol_A": height,
        "vol_X": width,
        "resolution": float(n),
    }
    return _grid_signal(width, height, nx, ny, origin=origin, hints=hints)


def _kuhn_tets():
    """The six path tetrahedra of a unit cube, as corner index triples."""
    axes = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    tets = []
    for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        c = (0, 0, 0)
        path = [c]
        for axis in perm:
            c = tuple(c[k] + axes[axis][k] for k in range(3))
            path.append(c)
        tets.append(tuple(path))
    return tets


_KUHN = _kuhn_tets()


def gen_annular_shell(r0: float, r1: float, height: float, res: int) -> Signal:
    """Radially thickened cylinder: the solid r0 <= r <= r1, 0 <= z <= height.

    ``res`` segments run around the axis; radial and vertical subdivisions
    are proportional to the arc step.  Labels: X inner wall, Y outer wall,
    A bottom annulus, B top annulus.  Cells split into six path tetrahedra
    each, oriented positively in the ambient space.
    """
    if not 0 < r0 < r1:
        raise MeshError("need 0 < r0 < r1")
    if height <= 0:
        raise MeshError("height must be positive")
    res = as_int(res, MeshError, "shell resolution")
    if res < 8:
        raise MeshError("shell resolution must be at least 8")

    step = 2.0 * math.pi * (0.5 * (r0 + r1)) / res
    nr = max(1, round((r1 - r0) / step))
    nz = max(1, round(height / step))
    nt = res

    rs = r0 + (r1 - r0) * np.arange(nr + 1) / nr
    zs = height * np.arange(nz + 1) / nz
    thetas = 2.0 * math.pi * np.arange(nt) / nt

    def vid(it, jr, kz):
        return (it % nt) * (nr + 1) * (nz + 1) + jr * (nz + 1) + kz

    # math.cos/math.sin per angle: numpy's may differ in the last ulp
    ct = np.array([math.cos(t) for t in thetas])[:, None, None]
    st = np.array([math.sin(t) for t in thetas])[:, None, None]
    shape = (nt, nr + 1, nz + 1)
    verts = np.stack([np.broadcast_to(rs[None, :, None] * ct, shape),
                      np.broadcast_to(rs[None, :, None] * st, shape),
                      np.broadcast_to(zs[None, None, :], shape)], axis=-1).reshape(-1, 3)

    # per cell (it, jr, kz), its six path tetrahedra in _KUHN order
    cell = np.stack(np.meshgrid(np.arange(nt), np.arange(nr), np.arange(nz),
                                indexing="ij"), axis=-1).reshape(-1, 1, 1, 3)
    corner = cell + np.array(_KUHN)
    tets = vid(corner[..., 0], corner[..., 1], corner[..., 2]).reshape(-1, 4)

    # orient every tetrahedron positively in ambient coordinates
    p = verts[tets]
    det = np.linalg.det(p[:, 1:] - p[:, :1])
    flip = det < 0
    tets[flip] = tets[flip][:, [0, 1, 3, 2]]
    if np.any(np.isclose(np.abs(det), 0.0)):
        raise MeshError("degenerate tetrahedron in shell construction")

    bare = build_complex(verts, tets, {})
    facets = bare.facets[bare.boundary]
    fr = np.hypot(verts[:, 0], verts[:, 1])[facets]
    fz = verts[facets, 2]
    tol = 1e-9 * max(r1, height)
    on = [np.all(np.abs(fr - r0) < tol, axis=1), np.all(np.abs(fr - r1) < tol, axis=1),
          np.all(np.abs(fz) < tol, axis=1), np.all(np.abs(fz - height) < tol, axis=1)]
    # the first matching wall wins, in X, Y, A, B order
    tag = np.select(on, [0, 1, 2, 3], default=-1)
    if np.any(tag < 0):
        raise MeshError(f"unclassifiable boundary facet {tuple(facets[tag < 0][0].tolist())}")
    cx = bare.with_labels({t: facets[tag == k].tolist() for k, t in enumerate("XYAB")})

    # closed-form values for the smooth shell
    vol = math.pi * (r1 * r1 - r0 * r0) * height
    around = 2.0 * math.sqrt(r1 * r1 - r0 * r0) + r0 * (
        math.pi - 2.0 * math.acos(r0 / r1)
    )
    hints = {
        "E": vol * height / 2.0,
        "EF": 2.0 * math.pi * height * (
            (r1**3 - r0**3) / 3.0 - r0 * (r1 * r1 - r0 * r0) / 2.0
        ),
        "i_A": height,
        "i_X": r1 - r0,
        "diam_M": math.hypot(around, height),
        "diam_A": around,
        "diam_X": math.hypot(math.pi * r0, height),
        "vol_M": vol,
        "vol_A": math.pi * (r1 * r1 - r0 * r0),
        "vol_X": 2.0 * math.pi * r0 * height,
        "resolution": float(res),
    }
    return make_signal(cx, hints=hints)


def generate(kind: str, params: dict, resolution: int) -> Signal:
    """The canonical instance ``kind`` at ``resolution``.

    ``params`` holds the shape: "width" and "height" of a rectangle (1.0
    when absent), "r0", "r1" and "height" of an annular shell.
    """
    if kind == "square":
        return gen_square(resolution)
    if kind == "rectangle":
        return gen_rectangle(params.get("width", 1.0), params.get("height", 1.0),
                             resolution)
    if kind == "annular_shell":
        return gen_annular_shell(params["r0"], params["r1"], params["height"],
                                 resolution)
    raise ValueError(f"unsupported generator kind {kind!r}")


def vertex_at(signal: Signal, coords, tol: float = 1e-9) -> int:
    """Index of the vertex at the given coordinates (within tolerance)."""
    target = np.asarray(coords, dtype=np.float64)
    d = np.linalg.norm(signal.complex.vertices - target, axis=1)
    k = int(np.argmin(d))
    if d[k] > tol:
        raise MeshError(f"no vertex within {tol} of {tuple(target)}")
    return k

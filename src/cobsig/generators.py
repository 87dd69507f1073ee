"""Canonical test instances with analytic ground truth.

Structured grids only: axis-aligned geodesics are exact on them and the
construction is deterministic.  Every generated signal validates, and its
``hints`` carry closed-form energies, volumes, diameters, and boundary
injectivity radii for the smooth geometry it approximates.

Both generators number their vertices in C order over an index grid and
label their walls by grid index (``_grid_complex``), never by float
coordinates: the labels reach ``with_labels`` as int64 facet tables, so
they cost no type scan and a shell of any scale gets the same labels.  The
shell splits each cell into the six path tetrahedra of ``_KUHN``.
"""

from __future__ import annotations

import math

import numpy as np

from .complex import as_float, as_int, build_complex, float_table
from .errors import MeshError
from .signal import Signal, make_signal


def _grid_complex(verts, simplices, shape, xy_axis: int, ab_axis: int):
    """The complex of a structured grid with its walls labeled.

    Vertices are numbered in C order over the index grid ``shape``.  A wall
    is the boundary facets whose vertices all share one end index along one
    axis: X and Y are the low and high ends along ``xy_axis``, A and B along
    ``ab_axis``.
    """
    bare = build_complex(verts, simplices, {})
    facets = bare.facets[bare.boundary]
    index = np.unravel_index(facets, shape)
    ends = {"X": (xy_axis, 0), "Y": (xy_axis, shape[xy_axis] - 1),
            "A": (ab_axis, 0), "B": (ab_axis, shape[ab_axis] - 1)}
    return bare.with_labels({tag: facets[np.all(index[axis] == end, axis=1)]
                             for tag, (axis, end) in ends.items()})


def gen_square(n: int) -> Signal:
    """Unit square as an n-by-n grid of 2 n^2 triangles."""
    if as_int(n, MeshError, "square resolution") < 2:
        raise MeshError("square resolution must be at least 2")
    return gen_rectangle(1.0, 1.0, n)


def gen_rectangle(width: float, height: float, n: int,
                  origin=(0.0, 0.0)) -> Signal:
    """Axis-aligned rectangle; resolution n counts subdivisions per unit length.

    The rectangle is triangulated as an nx-by-ny grid.  Labels: X bottom,
    Y top, A left, B right.  All triangles are counterclockwise with the
    cell diagonal running lower-left to upper-right.  Used as composition
    ground truth; hints are translation invariant.  The sizes and the two
    origin coordinates must be finite real numbers.
    """
    width = as_float(width, MeshError, "rectangle width")
    height = as_float(height, MeshError, "rectangle height")
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
    x0, y0 = float_table(origin, MeshError, "rectangle origin coordinate", (2,)).tolist()
    xs = x0 + width * np.arange(nx + 1) / nx
    ys = y0 + height * np.arange(ny + 1) / ny
    verts = np.column_stack([np.tile(xs, ny + 1), np.repeat(ys, nx + 1)])
    # per cell, row by row: (v00, v10, v11) and (v00, v11, v01), vertex
    # (ix, iy) numbered iy * (nx + 1) + ix
    iy, ix = np.divmod(np.arange(nx * ny), nx)
    v00 = iy * (nx + 1) + ix
    v11 = v00 + nx + 2
    tris = np.stack([v00, v00 + 1, v11, v00, v11, v11 - 1], axis=1).reshape(-1, 3)
    return make_signal(_grid_complex(verts, tris, (ny + 1, nx + 1), 0, 1), hints=hints)


#: The six path tetrahedra of a unit cube as corner offsets, one per order
#: of the axes in which the path from (0, 0, 0) to (1, 1, 1) steps:
#: xyz, xzy, yxz, yzx, zxy, zyx.
_KUHN = np.array([[(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)],
                  [(0, 0, 0), (1, 0, 0), (1, 0, 1), (1, 1, 1)],
                  [(0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1)],
                  [(0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 1, 1)],
                  [(0, 0, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1)],
                  [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]])


def gen_annular_shell(r0: float, r1: float, height: float, res: int) -> Signal:
    """Radially thickened cylinder: the solid r0 <= r <= r1, 0 <= z <= height.

    ``res`` segments run around the axis; radial and vertical subdivisions
    are proportional to the arc step.  Labels: X inner wall, Y outer wall,
    A bottom annulus, B top annulus.  Cells split into six path tetrahedra
    each, oriented positively in the ambient space.  The sizes must be
    finite real numbers.
    """
    r0, r1, height = (as_float(value, MeshError, f"shell {name}")
                      for value, name in ((r0, "r0"), (r1, "r1"), (height, "height")))
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
    corner = cell + _KUHN
    tets = vid(corner[..., 0], corner[..., 1], corner[..., 2]).reshape(-1, 4)

    # orient every tetrahedron positively in ambient coordinates
    p = verts[tets]
    flip = np.linalg.det(p[:, 1:] - p[:, :1]) < 0
    tets[flip] = tets[flip][:, [0, 1, 3, 2]]

    cx = _grid_complex(verts, tets, shape, 1, 2)

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
    when absent), "r0", "r1" and "height" of an annular shell.  It is read
    once, by ``dict``; params that are no mapping raise ValueError.
    """
    try:
        params = dict(params)
    except (TypeError, ValueError) as exc:
        raise ValueError("generator params must be a mapping from names to sizes, not "
                         f"{type(params).__name__} ({exc})") from exc
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
    """Index of the vertex at the given coordinates (within tolerance).

    The target must be one point with the mesh's ``ambient_dim`` finite
    coordinates, and the tolerance a finite number (``float_table`` and
    ``as_float``); any other raises MeshError naming it, rather than being
    broadcast against the vertices.
    """
    cx = signal.complex
    target = float_table(coords, MeshError, "target coordinate", (cx.ambient_dim,))
    tol = as_float(tol, MeshError, "tolerance")
    d = np.linalg.norm(cx.vertices - target, axis=1)
    k = int(np.argmin(d))
    if d[k] > tol:
        raise MeshError(f"no vertex within {tol} of {tuple(target.tolist())}")
    return k

"""Closed-form expectations for the benchmark's outputs, with rounding bounds.

Every function here takes plain numbers or report dicts and returns a list of
failure messages (empty when the output is right).  Nothing here imports
cobsig, so the expected values are computed independently of the package,
and the tests can feed these functions perturbed values.

"To rounding" means within ``rounding_tol(terms, ref)``: a value that is a
sum of ``terms`` rounded positive contributions, each itself exact to within
``terms`` units of rounding, is off by at most ``2 * terms * eps * |ref|``
(README, "Rounding bounds").  On every workload this stays below 1e-10
relative, so a value perturbed by 1e-9 relative fails.
"""

from __future__ import annotations

import math
import sys

EPS = sys.float_info.epsilon

#: Floor of the shell sweep's fitted residual order (acceptance criterion 4b).
RESIDUAL_ORDER_FLOOR = 2.3


def rounding_tol(terms: int, ref: float) -> float:
    return 2.0 * terms * EPS * abs(ref)


def close(label: str, got, want: float, terms: int) -> list:
    """One failure message unless ``got`` equals ``want`` to rounding."""
    tol = rounding_tol(terms, want)
    if not isinstance(got, (int, float)) or not abs(got - want) <= tol:
        return [f"{label} = {got!r}, expected {want!r} within {tol:.3g}"]
    return []


def require(label: str, ok: bool) -> list:
    return [] if ok else [f"{label} does not hold"]


def shell_factor(n: int) -> float:
    """Area of the inscribed regular n-gon over the area of its circle."""
    return n * math.sin(2.0 * math.pi / n) / (2.0 * math.pi)


def thm1_upper_square() -> float:
    """Upper bound of the two-sided ratio bound on the unit square.

    vol_M = vol_A = 1, i_A = 1 and diam_M + diam_A + diam_X = sqrt(2) + 2.
    """
    return 1.0 + 4.0 * (2.0 + math.sqrt(2.0))


# -- square-ladder ------------------------------------------------------------


def square_energy(rep: dict, n: int) -> list:
    nv = (n + 1) ** 2
    return (close("E", rep.get("E"), 0.5, nv)
            + close("EF", rep.get("EF"), 0.5, nv)
            + close("ratio", rep.get("ratio"), 1.0, 2 * nv + 1))


def square_thm1(rep: dict, n: int) -> list:
    """``verify-thm1`` on a square saved with its analytic hints.

    The bounds rest on vol_M, a sum of 2 n^2 triangle areas, and vol_A, a sum
    of n facet lengths.
    """
    nv, terms = (n + 1) ** 2, 2 * n * n + n + 8
    upper = thm1_upper_square()
    return (require("holds", rep.get("holds") is True)
            + close("ratio", rep.get("ratio"), 1.0, 2 * nv + 1)
            + close("upper_bound", rep.get("upper_bound"), upper, terms)
            + close("lower_bound", rep.get("lower_bound"), 1.0 / upper, terms))


# -- shell-sweep --------------------------------------------------------------


def shell_energy(rep: dict, n: int, nv: int) -> list:
    """Energies of gen_annular_shell(1, 2, 2, n).

    The vertex fields z and r - r0 are linear on every tetrahedron of the
    polygonal shell, so lumped quadrature integrates them exactly over the
    inscribed-polygon solid: E = 6 pi f, EF = (10 pi / 3) f.
    """
    f = shell_factor(n)
    return (close("E", rep.get("E"), 6.0 * math.pi * f, nv)
            + close("EF", rep.get("EF"), 10.0 * math.pi / 3.0 * f, nv)
            + close("ratio", rep.get("ratio"), 5.0 / 9.0, 2 * nv + 1))


def shell_sweep(rep: dict, nv: int, n_eps: int) -> list:
    rows = rep.get("rows", [])
    residuals = [r.get("residual") for r in rows]
    order = rep.get("residual_order")
    return (close("base_ratio", rep.get("base_ratio"), 5.0 / 9.0, 2 * nv + 1)
            + require(f"{n_eps} sweep rows", len(rows) == n_eps)
            + require("residuals strictly decrease as eps shrinks",
                      all(isinstance(r, float) for r in residuals)
                      and all(a > b for a, b in zip(residuals, residuals[1:])))
            + require(f"residual_order >= {RESIDUAL_ORDER_FLOOR}",
                      isinstance(order, float) and order >= RESIDUAL_ORDER_FLOOR))


# -- bounds-nohints -----------------------------------------------------------


def nohints_thm1(rep: dict, n: int, steiner_level: int) -> list:
    """``verify-thm1`` on a square saved without hints.

    Diameters are Dijkstra path sums; a shortest path across the square runs
    through at most 2 n 2^s refined edges.
    """
    nv = (n + 1) ** 2
    path = 2 * n * 2**steiner_level
    inputs = rep.get("inputs", {})

    def value(key):
        return inputs.get(key, {}).get("value")

    out = (require("holds", rep.get("holds") is True)
           + close("E", value("E"), 0.5, nv)
           + close("EF", value("EF"), 0.5, nv)
           + close("diam_A", value("diam_A"), 1.0, path)
           + close("diam_X", value("diam_X"), 1.0, path)
           + close("diam_M", value("diam_M"), math.sqrt(2.0), path)
           + require("no input tagged analytic",
                     all(v.get("source") != "analytic" for v in inputs.values())))
    diam_m = value("diam_M")
    for key in ("i_A", "i_X"):
        i = inputs.get(key, {})
        out += require(f"{key} tagged heuristic", i.get("source") == "heuristic")
        out += require(f"0 < {key} <= diam_M",
                       isinstance(i.get("value"), float)
                       and isinstance(diam_m, float)
                       and 0.0 < i["value"] <= diam_m)
    return out


# -- glue-filter --------------------------------------------------------------


def composition(rep: dict, n: int) -> list:
    """check_composition on two stacked unit squares at resolution n."""
    nv_glued, nv_rect = (n + 1) * (2 * n + 1), (n + 1) ** 2
    return (require("holds", rep.get("holds") is True)
            + close("E_composed", rep.get("E_composed"), 1.0, nv_glued)
            + close("EF_composed", rep.get("EF_composed"), 2.0, nv_glued)
            + close("E_sum", rep.get("E_sum"), 1.0, 2 * nv_rect)
            + close("EF_left", rep.get("EF_left"), 0.5, nv_rect))


def glued_size(n_vertices: int, n: int) -> list:
    want = (n + 1) * (2 * n + 1)
    return require(f"glued complex has {want} vertices", n_vertices == want)


def filter_report(rep: dict, n: int) -> list:
    """check_filter for the left half of the unit square at resolution n."""
    nv_filter, nv = (n // 2 + 1) * (n + 1), (n + 1) ** 2
    e_sig, e_noisy = rep.get("E_signal"), rep.get("E_noisy")
    return (require("holds", rep.get("holds") is True)
            + close("E_filter", rep.get("E_filter"), 0.125, nv_filter)
            + close("E_signal", e_sig, 0.5, nv)
            + require("E_noisy < E_signal",
                      isinstance(e_noisy, float) and isinstance(e_sig, float)
                      and e_noisy < e_sig))

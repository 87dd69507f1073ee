"""Numerical verification of the energy inequalities.

Four families of checks:

* ``check_thm1_bounds``: the two-sided bound on E(F(M))/E(M) in terms of
  volumes, diameters, and boundary injectivity radii.
* ``eps_sweep``: the noise-modulation expansion; per epsilon the measured
  ratio is compared against (beta/gamma) (1 + C eps^((k+2)/2)) with beta,
  gamma, C evaluated from the deformed fields, and the residual's log-log
  slope against eps estimates the remainder order.
* ``check_filter`` / ``check_composition``: the filter and composition
  energy inequalities, with a small documented quadrature slack where both
  sides are mesh approximations.
* ``grid_oracle``: dense midpoint-rule quadrature of the *analytic* distance
  functions of the generator geometries, sharing no mesh, metric, or
  shortest-path code with the pipeline above.  It backs every derived
  expected value in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .complex import as_float, as_int, float_table
from .energy import energy, energy_ratio, fourier_energy
from .errors import CobsigError, FilterError
from .geodesy import (DEFAULT_STEINER_LEVEL, diameter, distance_field,
                      distance_within, injectivity_radius)
from .metric import lumped_vertex_volume, region_volume, total_volume
from .signal import Signal
from .signalops import NoiseSpec, apply_noise, compose
from .generators import generate

#: Multiplicative slack on inequality checks where both sides are
#: quadrature approximations; refinement shrinks the need for it.
QUADRATURE_SLACK = 0.02

#: JSON keys of the report fields whose key is not the field's name.
_JSON_KEYS = {"energy_filter": "E_filter", "energy_signal": "E_signal",
              "energy_noisy": "E_noisy", "energy_composed": "E_composed",
              "energy_sum": "E_sum", "fourier_composed": "EF_composed",
              "fourier_left": "EF_left"}


def _plain(value):
    """A report value as its payload holds it: a tuple as a list of its
    entries so read, and a dict copied."""
    if isinstance(value, tuple):
        return list(map(_plain, value))
    return dict(value) if isinstance(value, dict) else value


class _Report:
    """The JSON payload shared by the reports below."""

    def to_dict(self) -> dict:
        """The fields in declaration order under their JSON keys, read by
        ``_plain``; then a derived ``holds`` where the report has one."""
        out = {_JSON_KEYS.get(f.name, f.name): _plain(getattr(self, f.name))
               for f in fields(self)}
        if hasattr(self, "holds"):
            out.setdefault("holds", self.holds)
        return out


# ---------------------------------------------------------------------------
# Two-sided ratio bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport(_Report):
    """Measured ratio, the two bounds, and every input with its provenance."""

    ratio: float
    lower_bound: float
    upper_bound: float
    inputs: dict
    holds_lower: bool
    holds_upper: bool

    @property
    def holds(self) -> bool:
        return self.holds_lower and self.holds_upper

    def to_dict(self) -> dict:
        # each input as a {"value", "source"} object
        out = super().to_dict()
        out["inputs"] = {k: {"value": v, "source": s} for k, (v, s) in self.inputs.items()}
        return out


def check_thm1_bounds(signal: Signal,
                      steiner_level: int = DEFAULT_STEINER_LEVEL) -> BoundReport:
    """Check lower <= E(F(M))/E(M) <= upper with

        upper = 1 + 4 vol(M) (diam M + diam A + diam X) / (i_A^2 vol A)
        lower = 1 / (1 + 4 vol(M) (diam M + diam A + diam X) / (i_X^2 vol X)).

    Volumes and energies are always measured on the mesh; diameters and
    injectivity radii use generator hints when present (tagged analytic)
    and mesh estimates otherwise.  ``inputs`` maps each input's name to
    its value and source, in the order they are evaluated.
    """
    e = energy(signal, steiner_level)
    if e <= 0.0:
        raise CobsigError("energy is zero; ratio bound undefined")
    measured = {"E": e, "EF": fourier_energy(signal, steiner_level),
                "vol_M": total_volume(signal), "vol_A": region_volume(signal, "A"),
                "vol_X": region_volume(signal, "X")}
    inputs = {name: (value, "computed") for name, value in measured.items()}
    for subset in "MAX":
        key = f"diam_{subset}"
        inputs[key] = ((signal.hints[key], "analytic") if key in signal.hints
                       else (diameter(signal, subset, steiner_level), "computed"))
    for tag in "AX":
        radius = injectivity_radius(signal, tag, steiner_level)
        inputs[f"i_{tag}"] = (radius.value, radius.method)
    v = {name: value for name, (value, _) in inputs.items()}
    ratio = v["EF"] / v["E"]
    spread = 4.0 * v["vol_M"] * (v["diam_M"] + v["diam_A"] + v["diam_X"])
    upper = 1.0 + spread / (v["i_A"]**2 * v["vol_A"])
    lower = 1.0 / (1.0 + spread / (v["i_X"]**2 * v["vol_X"]))
    return BoundReport(
        ratio=ratio,
        lower_bound=lower,
        upper_bound=upper,
        inputs=inputs,
        holds_lower=lower <= ratio,
        holds_upper=ratio <= upper,
    )


# ---------------------------------------------------------------------------
# Noise-modulation expansion sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpansionReport(_Report):
    """Per-epsilon comparison of measured and predicted energy ratios.

    Each row carries the modulation integrals beta, gamma, the first-order
    coefficient C, the prediction (beta/gamma)(1 + C eps^(d/2)), and the
    residual against the measured ratio.  ``residual_order`` is the fitted
    log-log slope of residual versus eps; the ``fixed`` variant freezes
    beta, gamma, C at the smallest epsilon instead of re-evaluating per
    epsilon.
    """

    rows: tuple
    residual_order: float
    residual_order_fixed: float
    base_ratio: float


def _loglog_slope(eps: np.ndarray, res: np.ndarray) -> float:
    if len(eps) < 2:
        return float("nan")
    res = np.maximum(np.asarray(res, dtype=np.float64), 1e-18)
    return float(np.polyfit(np.log(eps), np.log(res), 1)[0])


def eps_sweep(signal: Signal, spec_base: NoiseSpec, eps_list,
              steiner_level: int = DEFAULT_STEINER_LEVEL) -> ExpansionReport:
    """Run the modulation expansion for a descending list of epsilons.

    For each eps the metric is deformed by the bump factor.  Beta and gamma
    integrate the deformed distances to X and A against the deformed volume
    weights outside the closed delta0-ball; on the discrete level the
    deformed lumped volume *is* the a^(d/2)-weighted base volume, since the
    conformal factor is constant on each fully deformed simplex.  The
    inner-ball integrals of C are taken against the base volume measure,
    discretized by the exact rescaling (deformed volume) / eps^(d/2), which
    is valid on the plateau where the bump equals eps.  This keeps the
    quadrature on both sides of the comparison measure-consistent, so the
    residual reflects the expansion remainder rather than the volume
    discretization error (the refinement study quantifies the latter).

    Every epsilon deforms the same ball, so the fields are evaluated
    smallest epsilon first: its update grows the ball's node set once (see
    ``geodesy``), and the shallower balls settle in one subgraph search.
    Each row is computed on its own, and rows are reported in the given
    order.  The centre's distances are searched out to delta alone
    (``distance_within``).
    """
    eps_arr = float_table(eps_list, ValueError, "eps", (None,))
    if len(eps_arr) == 0:
        raise ValueError("eps list is empty")
    if np.any(np.diff(eps_arr) >= 0):
        raise ValueError("eps values must be strictly descending")
    # each spec refuses an eps outside (0, 1) before any search
    specs = [NoiseSpec(spec_base.center, spec_base.delta0, spec_base.delta, eps)
             for eps in eps_arr.tolist()]

    d = signal.dim
    expo = d / 2.0  # (k + 2) / 2 with d = k + 2
    rho_p = distance_within(signal, spec_base.center, spec_base.delta, steiner_level)
    inside = rho_p <= spec_base.delta0
    outside = ~inside
    base_ratio = energy_ratio(signal, steiner_level)

    # deformed in the given order, so a metric error names the first eps
    # that breaks a simplex; fields go smallest eps first
    noisy = [apply_noise(signal, spec, steiner_level) for spec in specs]
    rows = []
    while noisy:
        eps = eps_arr[len(noisy) - 1]
        deformed = noisy.pop()
        f_x = distance_field(deformed, "X", steiner_level)
        f_a = distance_field(deformed, "A", steiner_level)
        w_def = lumped_vertex_volume(deformed)

        e_def = float(np.dot(f_a, w_def))
        ef_def = float(np.dot(f_x, w_def))
        measured = ef_def / e_def

        beta = float(np.dot(f_x[outside], w_def[outside]))
        gamma = float(np.dot(f_a[outside], w_def[outside]))
        w_base_in = w_def[inside] / eps**expo
        inner_x = float(np.dot(f_x[inside], w_base_in))
        inner_a = float(np.dot(f_a[inside], w_base_in))
        coef_c = inner_x / beta - inner_a / gamma
        predicted = (beta / gamma) * (1.0 + coef_c * eps**expo)
        rows.append({
            "eps": float(eps),
            "measured_ratio": measured,
            "beta": beta,
            "gamma": gamma,
            "C": coef_c,
            "predicted": predicted,
            "residual": abs(measured - predicted),
        })
    rows.reverse()

    # fixed variant: freeze beta, gamma, C at the smallest epsilon
    ref = rows[-1]
    for row in rows:
        pf = (ref["beta"] / ref["gamma"]) * (
            1.0 + ref["C"] * row["eps"]**expo
        )
        row["predicted_fixed"] = pf
        row["residual_fixed"] = abs(row["measured_ratio"] - pf)

    order = _loglog_slope(eps_arr, [r["residual"] for r in rows])
    order_fixed = _loglog_slope(eps_arr, [r["residual_fixed"] for r in rows])
    return ExpansionReport(tuple(rows), order, order_fixed, base_ratio)


# ---------------------------------------------------------------------------
# Filter and composition inequalities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FilterReport(_Report):
    energy_filter: float
    energy_signal: float
    energy_noisy: float
    holds: bool
    slack_signal: float
    slack_noisy: float


def check_filter(signal: Signal, filt: Signal, spec: NoiseSpec,
                 steiner_level: int = DEFAULT_STEINER_LEVEL) -> FilterReport:
    """Check E(filter) <= E(signal) and E(filter) <= E(noisy signal).

    Precondition: the noise ball misses the filter entirely; no filter
    vertex may lie inside the open delta-ball.  Filter vertices are matched
    back to the parent by exact coordinates.
    """
    rho_p = distance_within(signal, spec.center, spec.delta, steiner_level)
    coords = {tuple(p): i for i, p in enumerate(signal.complex.vertices)}
    for p in filt.complex.vertices:
        orig = coords.get(tuple(p))
        if orig is None:
            raise FilterError("filter vertex does not belong to the signal")
        if rho_p[orig] < spec.delta:
            raise FilterError(
                f"noise ball intersects the filter (vertex {orig} at "
                f"distance {rho_p[orig]:.6g} < delta={spec.delta})"
            )

    e_filt = energy(filt, steiner_level)
    e_sig = energy(signal, steiner_level)
    e_noise = energy(apply_noise(signal, spec, steiner_level), steiner_level)
    return FilterReport(
        energy_filter=e_filt,
        energy_signal=e_sig,
        energy_noisy=e_noise,
        holds=(e_filt <= e_sig) and (e_filt <= e_noise),
        slack_signal=e_sig - e_filt,
        slack_noisy=e_noise - e_filt,
    )


@dataclass(frozen=True)
class CompositionReport(_Report):
    energy_composed: float
    energy_sum: float
    fourier_composed: float
    fourier_left: float
    holds_energy: bool
    holds_fourier: bool

    @property
    def holds(self) -> bool:
        return self.holds_energy and self.holds_fourier


def check_composition(left: Signal, right: Signal, corr,
                      steiner_level: int = DEFAULT_STEINER_LEVEL) -> CompositionReport:
    """Check E(glued) <= E(left) + E(right) and EF(glued) >= EF(left).

    Both sides are quadrature approximations near the glue seam, so the
    first inequality allows a 2% multiplicative slack and the second must
    hold up to the same slack in the other direction.

    The glued signal's energies come first, and the signal is dropped
    before the parts' graphs are built, so its graph is never alive next
    to theirs.
    """
    composed = compose(left, right, corr)
    e_comp = energy(composed, steiner_level)
    ef_comp = fourier_energy(composed, steiner_level)
    del composed
    e_sum = energy(left, steiner_level) + energy(right, steiner_level)
    ef_left = fourier_energy(left, steiner_level)
    return CompositionReport(
        energy_composed=e_comp,
        energy_sum=e_sum,
        fourier_composed=ef_comp,
        fourier_left=ef_left,
        holds_energy=e_comp <= (1.0 + QUADRATURE_SLACK) * e_sum,
        holds_fourier=ef_comp >= (1.0 - QUADRATURE_SLACK) * ef_left,
    )


# ---------------------------------------------------------------------------
# Independent brute-force oracle
# ---------------------------------------------------------------------------


def _midpoint_grid(width: float, height: float, m: int):
    """Midpoints of an m-wide grid of near-square cells over the
    rectangle [0, width] x [0, height], as meshgrid arrays X and Y, and the
    cell area."""
    if not (width > 0 and height > 0):
        raise ValueError(f"width and height must be positive, got {width}, {height}")
    nx = m
    ny = max(1, int(round(m * height / width)))
    xs = (np.arange(nx) + 0.5) * (width / nx)
    ys = (np.arange(ny) + 0.5) * (height / ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return X, Y, (width / nx) * (height / ny)


def grid_oracle(kind: str, params: dict, fine_resolution: int = 1024) -> dict:
    """Dense midpoint-rule quadrature of the analytic distance functions.

    Supported kinds: "square", "rectangle", "annular_shell", and
    "rectangle_split_A" (a rectangle whose A region is the left edge of the
    lower half plus the right edge of the upper half, used to exhibit a
    strictly sub-additive composition).  This function deliberately shares
    no code with the mesh pipeline: distances are closed-form expressions
    and the quadrature is a plain midpoint sum.  A ``fine_resolution``
    below 1, or a size that is missing, no finite real number (``as_float``)
    or not positive, raises ValueError, as do ``params`` that are no
    mapping (read once, by ``dict``).
    """
    m = as_int(fine_resolution, ValueError, "fine_resolution")
    if m < 1:
        raise ValueError(f"fine_resolution must be at least 1, got {m}")
    try:
        params = dict(params)
    except (TypeError, ValueError) as exc:
        raise ValueError("oracle params must be a mapping from names to sizes, not "
                         f"{type(params).__name__} ({exc})") from exc

    def size(name, default=None):
        if default is None and name not in params:
            raise ValueError(f"the {kind} oracle needs {name!r}")
        return as_float(params.get(name, default), ValueError, name)

    if kind in ("square", "rectangle"):
        w = size("width", 1.0)
        h = size("height", 1.0)
        X, Y, cell = _midpoint_grid(w, h, m)
        return {
            "E": float(np.sum(X) * cell),
            "EF": float(np.sum(Y) * cell),
            "vol_M": w * h,
            "vol_A": h,
            "vol_X": w,
            "diam_M": math.hypot(w, h),
            "diam_A": h,
            "diam_X": w,
        }
    if kind == "rectangle_split_A":
        w = size("width", 1.0)
        h = size("height", 2.0)
        split = size("split", h / 2.0)
        X, Y, cell = _midpoint_grid(w, h, m)
        # distance inside the convex rectangle to each closed A piece:
        # left edge of the lower part, right edge of the upper part
        d_left = np.where(Y <= split, X, np.hypot(X, Y - split))
        d_right = np.where(Y >= split, w - X, np.hypot(w - X, split - Y))
        return {
            "E": float(np.sum(np.minimum(d_left, d_right)) * cell),
            "vol_M": w * h,
        }
    if kind == "annular_shell":
        r0, r1, h = size("r0"), size("r1"), size("height")
        if not (0 < r0 < r1 and h > 0):
            raise ValueError(f"need 0 < r0 < r1 and a positive height, got {r0}, {r1}, {h}")
        nr = m
        nz = max(1, int(round(m * h / (r1 - r0))))
        rs = r0 + (np.arange(nr) + 0.5) * ((r1 - r0) / nr)
        zs = (np.arange(nz) + 0.5) * (h / nz)
        cell = ((r1 - r0) / nr) * (h / nz)
        R, Z = np.meshgrid(rs, zs, indexing="ij")
        two_pi = 2.0 * math.pi
        vol_weight = two_pi * R * cell
        around = 2.0 * math.sqrt(r1 * r1 - r0 * r0) + r0 * (
            math.pi - 2.0 * math.acos(r0 / r1)
        )
        return {
            "E": float(np.sum(Z * vol_weight)),
            "EF": float(np.sum((R - r0) * vol_weight)),
            "vol_M": math.pi * (r1 * r1 - r0 * r0) * h,
            "vol_A": math.pi * (r1 * r1 - r0 * r0),
            "vol_X": two_pi * r0 * h,
            "diam_M": math.hypot(around, h),
            "diam_A": around,
            "diam_X": math.hypot(math.pi * r0, h),
        }
    raise ValueError(f"unsupported oracle kind {kind!r}")


# ---------------------------------------------------------------------------
# Refinement study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceReport(_Report):
    """Energies per resolution with relative changes and oracle errors."""

    rows: tuple
    oracle: dict
    observed_order_E: float
    observed_order_EF: float


def refinement_study(kind: str, params: dict, resolutions,
                     steiner_level: int = DEFAULT_STEINER_LEVEL,
                     oracle_resolution: int = 1024) -> ConvergenceReport:
    """Energies across resolutions compared against the grid oracle.

    Relative changes between consecutive levels and errors against the
    oracle are reported.  The axis-aligned square and rectangle are
    computed exactly: their fields are the exact linear distances and
    lumped quadrature integrates them exactly, so their oracle errors, and
    the ``observed_order_*`` derived from them, are rounding noise.  A
    decrease is expected only where there is discretisation error (e.g. the
    annular shell), and even there it is not certain level-to-level because
    shortest-path staircase error is not strictly monotone.
    """
    res_list = [as_int(r, ValueError, "resolution") for r in resolutions]
    if len(res_list) < 2:
        raise ValueError("need at least two resolutions")
    if len(set(res_list)) < len(res_list):
        # the observed orders divide by log(last / first), 0 on a repeat
        raise ValueError(f"resolutions must be distinct, got {res_list}")
    oracle = grid_oracle(kind, params, oracle_resolution)
    rows = []
    prev_e = prev_ef = None
    for r in res_list:
        sig = generate(kind, params, r)
        e = energy(sig, steiner_level)
        ef = fourier_energy(sig, steiner_level)
        row = {
            "resolution": r,
            "steiner_level": steiner_level,
            "E": e,
            "EF": ef,
            "err_E": abs(e - oracle["E"]),
            "err_EF": abs(ef - oracle["EF"]),
        }
        row["rel_change_E"] = (abs(e - prev_e) / abs(e)) if prev_e is not None else float("nan")
        row["rel_change_EF"] = (abs(ef - prev_ef) / abs(ef)) if prev_ef is not None else float("nan")
        rows.append(row)
        prev_e, prev_ef = e, ef

    def order(key):
        lo = max(rows[0][key], 1e-18)
        hi = max(rows[-1][key], 1e-18)
        return float(np.log(lo / hi) / np.log(res_list[-1] / res_list[0]))

    return ConvergenceReport(
        rows=tuple(rows),
        oracle=oracle,
        observed_order_E=order("err_E"),
        observed_order_EF=order("err_EF"),
    )

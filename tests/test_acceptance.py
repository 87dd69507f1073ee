"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here, straight from the targets they verify; the
expensive meshes are session fixtures shared with the unit modules.
"""

import math
import time

import numpy as np
import pytest

import cobsig as cs
from cobsig.geodesy import distance_field
from cobsig.metric import conformal_scale, lumped_vertex_volume, total_volume
from cobsig.signal import Signal
from cobsig.signalops import (NoiseSpec, apply_noise, extract_filter,
                              keep_by_predicate, make_correspondence)
from cobsig.verify import (check_composition, check_filter, check_thm1_bounds,
                           eps_sweep, grid_oracle, refinement_study)

SHELL_EXACT_E = 0.22 * math.pi
SHELL_EXACT_EF = 2 * math.pi * ((1.2**3 - 1) / 3 - (1.2**2 - 1) / 2)
SHELL_EXACT_RATIO = SHELL_EXACT_EF / SHELL_EXACT_E  # 0.20606...


def report(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_square_energies():
    t0 = time.perf_counter()
    sig = cs.gen_square(64)
    e = cs.energy(sig, steiner_level=2)
    ef = cs.fourier_energy(sig, steiner_level=2)
    elapsed = time.perf_counter() - t0
    oracle = grid_oracle("square", {}, 1024)
    ok = (
        abs(e - oracle["E"]) <= 0.02 * oracle["E"]
        and abs(ef - oracle["EF"]) <= 0.02 * oracle["EF"]
        and elapsed < 5.0
    )
    assert report(1, ok,
                  f"E={e:.6f} EF={ef:.6f} (oracle 0.5, tol 2%), "
                  f"runtime {elapsed:.2f}s < 5s")


def test_criterion_2_bounds_square(square64):
    rep = check_thm1_bounds(square64, steiner_level=2)
    hand_upper = 1.0 + 4.0 * (math.sqrt(2.0) + 2.0)  # 14.657
    ok = (
        rep.holds
        and 1.0 / 14.66 <= rep.ratio <= 14.66
        and abs(rep.upper_bound - hand_upper) <= 0.03 * hand_upper
        and rep.inputs["i_A"] == (1.0, "analytic")
        and rep.inputs["i_X"] == (1.0, "analytic")
    )
    assert report(2, ok,
                  f"ratio={rep.ratio:.6f} in [{rep.lower_bound:.4f}, "
                  f"{rep.upper_bound:.4f}], upper vs hand 14.657: "
                  f"{abs(rep.upper_bound - hand_upper) / hand_upper:.2e}")


def test_criterion_3_bounds_shell(shell32):
    rep = check_thm1_bounds(shell32, steiner_level=2)
    ok = (
        rep.holds
        and abs(rep.ratio - SHELL_EXACT_RATIO) <= 0.06 * SHELL_EXACT_RATIO
        and rep.inputs["i_X"][0] == pytest.approx(0.2)
        and rep.inputs["i_A"][0] == pytest.approx(1.0)
    )
    assert report(3, ok,
                  f"ratio={rep.ratio:.6f} vs 0.20606 "
                  f"(dev {abs(rep.ratio - SHELL_EXACT_RATIO) / SHELL_EXACT_RATIO:.2%}), "
                  f"bounds [{rep.lower_bound:.4f}, {rep.upper_bound:.4f}] hold")


def test_criterion_4_eps_sweep_square(square64):
    t0 = time.perf_counter()
    p = cs.vertex_at(square64, (0.75, 0.5))
    spec = NoiseSpec(p, 0.1, 0.2, 0.5)
    rep = eps_sweep(square64, spec, [0.4, 0.2, 0.1, 0.05], steiner_level=2)
    elapsed = time.perf_counter() - t0
    ok = rep.residual_order >= 1.3 and elapsed < 60.0
    assert report("4a", ok,
                  f"square residual slope {rep.residual_order:.3f} >= 1.3 "
                  f"(target 2), runtime {elapsed:.1f}s < 60s")


def test_criterion_4_eps_sweep_shell():
    t0 = time.perf_counter()
    shell = cs.gen_annular_shell(1.0, 2.0, 2.0, 64)
    p = cs.vertex_at(shell, (2.0, 0.0, 1.0), tol=0.1)
    spec = NoiseSpec(p, 0.25, 0.9, 0.5)
    rep = eps_sweep(shell, spec, [0.4, 0.2, 0.1, 0.05], steiner_level=2)
    elapsed = time.perf_counter() - t0
    ok = rep.residual_order >= 2.3 and elapsed < 60.0
    assert report("4b", ok,
                  f"shell residual slope {rep.residual_order:.3f} >= 2.3 "
                  f"(target 3), runtime {elapsed:.1f}s < 60s")


def test_criterion_5_filter(square64):
    kept = keep_by_predicate(square64, lambda q: q[0] <= 0.5 + 1e-12)
    filt = extract_filter(square64, kept)
    p = cs.vertex_at(square64, (0.75, 0.5))
    spec = NoiseSpec(p, 0.1, 0.2, 0.25)
    rep = check_filter(square64, filt, spec, steiner_level=2)
    ok = (
        abs(rep.energy_filter - 0.125) <= 0.03 * 0.125
        and rep.holds
        and rep.slack_signal > 0
        and rep.slack_noisy > 0
    )
    assert report(5, ok,
                  f"E(filter)={rep.energy_filter:.6f} vs 0.125, "
                  f"slacks {rep.slack_signal:.4f}/{rep.slack_noisy:.4f} > 0")


def test_criterion_6_composition():
    lower = cs.gen_rectangle(1.0, 1.0, 32)
    upper = cs.gen_rectangle(1.0, 1.0, 32, origin=(0.0, 1.0))
    corr = make_correspondence(lower, upper)
    rep = check_composition(lower, upper, corr, steiner_level=2)
    ok = (
        abs(rep.energy_composed - rep.energy_sum) <= 0.02 * 1.0
        and abs(rep.fourier_composed - 2.0) <= 0.03 * 2.0
        and rep.fourier_composed >= rep.fourier_left
        and rep.holds
    )
    assert report(6, ok,
                  f"E''={rep.energy_composed:.6f} vs sum {rep.energy_sum:.6f}, "
                  f"EF''={rep.fourier_composed:.6f} vs 2.0, "
                  f">= EF(left)={rep.fourier_left:.6f}")


def test_criterion_7_property_suite(square16, shell16):
    failures = []

    # 1-Lipschitz along edges (exact up to IEEE rounding of the relaxations)
    for sig in (square16, shell16):
        for region in ("A", "X"):
            f = distance_field(sig, region, 2)
            m = sig.metric
            gaps = np.abs(f[m.edges[:, 0]] - f[m.edges[:, 1]])
            if not np.all(gaps <= m.lengths * (1.0 + 1e-12) + 1e-15):
                failures.append(f"lipschitz:{region}")

    # refinement monotonicity is exact by construction
    for sig in (square16, shell16):
        f0 = distance_field(sig, "A", 0)
        f1 = distance_field(sig, "A", 1)
        f2 = distance_field(sig, "A", 2)
        if not (np.all(f1 <= f0) and np.all(f2 <= f1)):
            failures.append("steiner-monotone")

    # relabeling is an involution, exactly
    twice = cs.fourier_relabel(cs.fourier_relabel(square16))
    if any(twice.complex.labels[t] != square16.complex.labels[t]
           for t in "XYAB"):
        failures.append("involution")

    # conformal scaling laws at 1e-6 relative for c in {0.25, 4}
    for c in (0.25, 4.0):
        for sig, d in ((square16, 2), (shell16, 3)):
            scaled = Signal(sig.complex,
                            conformal_scale(sig.metric,
                                            np.full(sig.complex.n_vertices, c)))
            f0 = distance_field(sig, "A", 2)
            f1 = distance_field(scaled, "A", 2)
            nz = f0 > 0
            if not np.allclose(f1[nz] / f0[nz], math.sqrt(c), rtol=1e-6):
                failures.append(f"distance-scaling:c={c}")
            v0 = sig.simplex_volumes()
            v1 = scaled.simplex_volumes()
            if not np.allclose(v1, c ** (d / 2.0) * v0, rtol=1e-6):
                failures.append(f"volume-scaling:c={c}")
            if not math.isclose(cs.energy(scaled),
                                c ** ((d + 1) / 2.0) * cs.energy(sig),
                                rel_tol=1e-6):
                failures.append(f"energy-scaling:c={c}")

    # lumped partition of the total volume at 1e-12 relative
    for sig in (square16, shell16):
        w = lumped_vertex_volume(sig)
        tot = total_volume(sig)
        if abs(float(np.sum(w)) - tot) > 1e-12 * tot:
            failures.append("lumped-partition")

    # noise locality: bit-exact lengths outside the open delta-ball
    p = cs.vertex_at(square16, (0.75, 0.5))
    spec = NoiseSpec(p, 0.1, 0.2, 0.25)
    noisy = apply_noise(square16, spec)
    rho = cs.distance_to_vertex(square16, p)
    m0 = square16.metric
    outside = (rho[m0.edges[:, 0]] >= spec.delta) & (
        rho[m0.edges[:, 1]] >= spec.delta
    )
    if not np.array_equal(m0.lengths[outside], noisy.metric.lengths[outside]):
        failures.append("noise-locality")

    assert report(7, not failures,
                  "property suite (lipschitz, steiner-monotone, involution, "
                  "scaling, lumped-partition, noise-locality)"
                  + (f" failures: {failures}" if failures else ""))


def test_criterion_8_refinement_study():
    square = refinement_study("square", {}, [16, 32, 64], steiner_level=2)
    # On the square the fields are exact (f_A = x, f_X = y on an
    # axis-aligned grid) and lumped quadrature integrates a linear field
    # exactly, so each level's oracle error is rounding alone, bounded by
    # n_v * eps * E with n_v = (n+1)^2 vertices and eps = 2u the machine
    # epsilon.  E is the dot product of n_v nonnegative terms
    # (in energy.energy), whose error is at most gamma_{n_v} * E, with
    # gamma_k = k*u / (1 - k*u) (Higham, Accuracy and Stability of
    # Numerical Algorithms, sec. 3.1): half the budget.  The other half
    # covers the inputs: a field value is a path sum of at most 4n
    # sub-edges (relative error <= 4n*u), a weight a handful of
    # Cayley-Menger volumes, and the oracle a pairwise midpoint sum (tens
    # of u each), in all well below n_v*u for n >= 16.  Any discretisation
    # error (criterion 1 allows 2%) fails this by orders of magnitude.  The
    # levels are not ordered against each other: rounding-level errors tie
    # (5.6e-17 at both n = 16 and n = 64).
    eps = np.finfo(np.float64).eps
    square_ok = all(
        row[f"err_{key}"] <= (row["resolution"] + 1) ** 2 * eps * square.oracle[key]
        for row in square.rows for key in ("E", "EF")
    )
    # The shell has a real discretisation error, so refinement must shrink
    # it against the oracle, not only settle the energy.
    shell = refinement_study("annular_shell",
                             {"r0": 1.0, "r1": 1.2, "height": 1.0},
                             [16, 32], steiner_level=2)
    coarse, fine = shell.rows
    shell_ok = (
        fine["rel_change_E"] < 0.05
        and fine["err_E"] < coarse["err_E"]
        and fine["err_EF"] < coarse["err_EF"]
    )
    ok = square_ok and shell_ok
    worst = max(max(row["err_E"], row["err_EF"]) for row in square.rows)
    report(8, ok,
           f"square max err {worst:.3e} <= (n+1)^2 eps E ({square_ok}); "
           f"shell err_E {coarse['err_E']:.3e} -> {fine['err_E']:.3e}, "
           f"err_EF {coarse['err_EF']:.3e} -> {fine['err_EF']:.3e}, "
           f"rel change {fine['rel_change_E']:.4f} < 0.05 ({shell_ok})")
    assert ok

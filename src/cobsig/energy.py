"""Energy functionals and the label-exchange transform.

The energy of a signal integrates the distance to region A against the
metric volume; the transform exchanges the roles of the region pairs
(X, Y) and (A, B) on the same geometry, so its energy integrates the
distance to X instead.  Both integrals use lumped vertex quadrature by
default; the barycentric form is kept as a cross-check (the two sums are
rearrangements of each other).

The transform changes only the labels: it hands ``with_labels`` the
source's region tables (``region_facets``), which are int64 already, and
the relabeled signal shares its source's complex structure (checked once,
when the complex was built), metric and cache.  Region fields are cached
by the region's facet table, so the source's distance-to-X field is the
transformed signal's distance-to-A field, found without any search or
copy.
"""

from __future__ import annotations

import numpy as np

from .errors import CobsigError
from .geodesy import DEFAULT_STEINER_LEVEL, distance_field
from .metric import lumped_vertex_volume
from .signal import Signal, require_valid, swap_hints

#: Label permutation applied by the transform: new tag -> old tag.
FOURIER_PERMUTATION = {"X": "A", "Y": "B", "A": "X", "B": "Y"}


def energy(signal: Signal, steiner_level: int = DEFAULT_STEINER_LEVEL) -> float:
    """Integral of the distance-to-A field against the lumped volume weights."""
    f = distance_field(signal, "A", steiner_level).values
    weights = signal.cached(("lumped",), lambda: lumped_vertex_volume(signal)).values
    return float(np.dot(f, weights))


def energy_barycentric(signal: Signal,
                       steiner_level: int = DEFAULT_STEINER_LEVEL) -> float:
    """Energy with per-simplex averaging instead of lumped weights."""
    f = distance_field(signal, "A", steiner_level).values
    cx = signal.complex
    vols = signal.simplex_volumes()
    means = f[cx.simplices].mean(axis=1)
    return float(np.dot(vols, means))


def fourier_relabel(signal: Signal) -> Signal:
    """Exchange the region roles: new X/Y/A/B come from old A/B/X/Y.

    Geometry, metric and cache are shared, hints are renamed accordingly, and
    the relabeled signal must itself validate (the old X and Y become the
    new A and B, so they must not touch).  Applying the transform twice
    restores the original labels exactly.
    """
    cx = signal.complex
    relabeled = cx.with_labels(
        {new: cx.region_facets(old) for new, old in FOURIER_PERMUTATION.items()}
    )
    try:
        require_valid(relabeled)
    except CobsigError as exc:
        raise CobsigError(f"relabeled signal fails validation: {exc}") from exc
    return Signal(relabeled, signal.metric, swap_hints(signal.hints), signal._cache)


def fourier_energy(signal: Signal, steiner_level: int = DEFAULT_STEINER_LEVEL) -> float:
    """Energy of the relabeled signal; equals integrating f_X on the original."""
    return energy(fourier_relabel(signal), steiner_level)


def ratio_of(ef: float, e: float) -> float:
    """The energy ratio EF / E of two computed energies."""
    if e == 0.0:
        raise CobsigError("energy is zero; ratio undefined")
    return ef / e


def energy_ratio(signal: Signal, steiner_level: int = DEFAULT_STEINER_LEVEL) -> float:
    """Ratio of the transformed energy to the energy."""
    e = energy(signal, steiner_level)
    return ratio_of(fourier_energy(signal, steiner_level), e)

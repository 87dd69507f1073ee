"""The signal: a labeled cobordism complex paired with a metric.

Signals are the unit every operation acts on.  Every signal checks that its
metric's edges are its complex's edge table, so lengths can be gathered
through the structure's edge rows.  Signals are immutable; derived
artifacts (volumes, refined graphs, distance fields, diameters, quadrature
weights) are memoized through ``Signal.cached`` on a private cache keyed by
what they depend on: the metric alone, or the metric and the region's facet
table (its bytes), never a region tag.  A relabeling of the same geometry
and metric therefore shares its source's cache as is, and each region field
is found under its facet table whatever the region is called.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .complex import CobordismComplex, as_float, validate
from .errors import CobsigError, MetricError
from .metric import MetricField, induced_metric, slot_volumes

#: Hint keys swapped when the X/Y and A/B roles are exchanged.
HINT_SWAP = {
    "E": "EF",
    "EF": "E",
    "i_A": "i_X",
    "i_X": "i_A",
    "diam_A": "diam_X",
    "diam_X": "diam_A",
    "vol_A": "vol_X",
    "vol_X": "vol_A",
}


@dataclass(eq=False)
class Signal:
    """A validated complex plus a nondegenerate metric and optional hints.

    ``hints`` carries generator-provided ground-truth values (energies,
    diameters, injectivity radii, resolution) keyed by name: a mapping, or
    (name, value) pairs, with str names, so that a save and load keeps
    them.  Each value is read as a float by ``as_float``.  Hints of another
    kind, a name that is no str or a value that is no finite real number
    raise CobsigError naming the fault.
    """

    complex: CobordismComplex
    metric: MetricField
    hints: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        # the metric's lengths are read through the structure's edge rows
        if not np.array_equal(self.metric.edges, self.complex.edges()):
            raise MetricError("metric edge set does not match the complex")
        self.hints = _read_hints(self.hints)

    @property
    def dim(self) -> int:
        return self.complex.dim

    def simplex_volumes(self) -> np.ndarray:
        """Cayley-Menger volumes of the top simplices, checked as
        ``metric.slot_volumes`` checks them.

        The first signal on a structure to compute them keeps its lengths
        and volumes there as the reference.  A later metric recomputes only
        the simplices that hold an edge whose length differs from the
        reference's, so a noise ball costs in proportion to its size.  The
        other simplices have the same inputs and passed the same checks, so
        the volumes, and any MetricError with the simplex it names, are those
        of a full computation.
        """
        cx = self.complex
        lengths = self.metric.lengths

        def compute():
            ref_lengths, ref_vols = cx.cached(("volumes",), lambda: (
                lengths, slot_volumes(lengths[cx.simplex_edge_rows], cx.simplices)))
            if ref_lengths is lengths:
                return ref_vols
            rows = cx.simplex_edge_rows
            touched = np.flatnonzero((lengths != ref_lengths)[rows].any(axis=1))
            vols = ref_vols.copy()
            vols[touched] = slot_volumes(lengths[rows[touched]], cx.simplices[touched])
            return vols
        return self.cached(("volumes",), compute)

    def cached(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]


def _read_hints(hints) -> dict:
    """``hints`` as a new dict of str names to floats, read as ``Signal``
    documents; the file writer reads a signal's hints again, as they may
    have been changed in place since."""
    try:
        hints = dict(hints)
    except (TypeError, ValueError) as exc:
        raise CobsigError("hints must be a mapping from names to numbers, not "
                          f"{type(hints).__name__} ({exc})") from exc
    for k in hints:
        if not isinstance(k, str):
            raise CobsigError(f"hint name {k!r} is not a str")
    return {k: as_float(v, CobsigError, f"hint {k}") for k, v in hints.items()}


def make_signal(cx: CobordismComplex, metric: MetricField | None = None,
                hints: dict | None = None) -> Signal:
    """Validate and assemble a signal.

    Raises CobsigError when the complex fails validation or a hint is no
    finite real number (``Signal``), and MetricError when any top simplex
    is degenerate under the metric.
    """
    require_valid(cx)
    if metric is None:
        metric = induced_metric(cx)
    sig = Signal(cx, metric, hints or {})
    sig.simplex_volumes()  # force the nondegeneracy check
    return sig


def require_valid(cx: CobordismComplex) -> None:
    """Raise CobsigError naming every invariant the complex violates."""
    report = validate(cx)
    if not report.ok:
        names = ", ".join(sorted({v[0] for v in report.violations}))
        raise CobsigError(f"complex fails validation: {names}")


def swap_hints(hints: dict) -> dict:
    """Rename hint keys under the X<->A, Y<->B role exchange."""
    return {HINT_SWAP.get(k, k): v for k, v in hints.items()}

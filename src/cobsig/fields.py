"""Per-vertex scalar fields (distance fields, bump factors, quadrature weights)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complex import float_table


@dataclass(frozen=True)
class ScalarField:
    """One real value per vertex, ordered by vertex index.

    Distance fields carry length units and are nonnegative; bump factors are
    dimensionless.  Values must be finite everywhere; they are read by
    ``float_table``, which shares a float64 array rather than copying it.
    """

    values: np.ndarray

    def __post_init__(self):
        v = float_table(self.values, ValueError, "field value", (None,))
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, idx):
        return self.values[idx]

    def __array__(self, dtype=None, copy=None):
        """The values, shared and read-only, as NumPy 2's protocol asks:
        ``copy=True`` gives a new writable array, and ``copy=False`` raises
        ValueError when ``dtype`` needs a copy."""
        if copy:
            return np.array(self.values, dtype=dtype)
        values = np.asarray(self.values, dtype=dtype)
        if copy is False and values is not self.values:
            raise ValueError("converting the field's values needs a copy")
        return values

    def tolist(self) -> list:
        """Plain list ordered by vertex index, ready for JSON output."""
        return self.values.tolist()

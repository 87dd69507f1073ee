"""Per-vertex scalar fields (distance fields, bump factors, quadrature weights)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ScalarField:
    """One real value per vertex, ordered by vertex index.

    Distance fields carry length units and are nonnegative; bump factors are
    dimensionless.  Values must be finite everywhere.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        if not np.all(np.isfinite(v)):
            raise ValueError("scalar field contains non-finite values")

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

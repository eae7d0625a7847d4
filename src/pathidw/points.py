"""Point measurement sets: (x, y, value) triples in projected meters."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PointSet:
    """Ordered collection of georeferenced measurements."""

    x: np.ndarray
    y: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name in ("x", "y", "values"):
            # copy before locking so the caller's array stays writable
            arr = np.array(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.x.shape == self.y.shape == self.values.shape) or self.x.ndim != 1:
            raise ValueError("x, y and values must be 1-d arrays of equal length")
        if len(self.x) and not (np.isfinite(self.x).all() and np.isfinite(self.y).all()
                                and np.isfinite(self.values).all()):
            raise ValueError("point coordinates and values must be finite")

    def __len__(self) -> int:
        return len(self.x)

    def subset(self, indices) -> "PointSet":
        idx = np.asarray(indices, dtype=int)
        return PointSet(self.x[idx], self.y[idx], self.values[idx])


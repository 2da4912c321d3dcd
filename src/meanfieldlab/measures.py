"""Uniform point clouds standing in for probability measures on R^d."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = ["EmpiricalMeasure", "as_cloud"]


def as_cloud(points, stack: bool = False) -> np.ndarray:
    """Finite points as a float64 array (n, d), or with stack (..., n, d), n, d >= 1;
    else a ValidationError.  A flat list could be n points on the line or one in R^n."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        raise ValidationError("empirical measure needs at least one support point")
    if pts.ndim != 2 and not (stack and pts.ndim > 2):
        raise ValidationError(f"support points must be an array (n, d)"
                              f"{' or (..., n, d)' if stack else ''}, not of shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValidationError("support points must be finite")
    return pts


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """The uniform measure (1/n) sum of Dirac masses at n finite points (n, d); equal
    only to itself."""

    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", as_cloud(self.points))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

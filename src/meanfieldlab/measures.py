"""Weighted point clouds standing in for probability measures on R^d."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

__all__ = ["EmpiricalMeasure"]

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Finitely supported measure: finite points (n, d), nonnegative weights summing to 1."""

    points: np.ndarray
    weights: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        if pts.size == 0:
            raise ValidationError("empirical measure needs at least one support point")
        if not np.isfinite(pts).all():
            raise ValidationError("support points must be finite")
        object.__setattr__(self, "points", pts)
        if self.weights is None:
            w = np.full(pts.shape[0], 1.0 / pts.shape[0])
        else:
            w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (pts.shape[0],):
            raise ValidationError(f"weights shape {w.shape} does not match {pts.shape[0]} points")
        if not np.isfinite(w).all():
            raise ValidationError("weights must be finite")
        if np.any(w < 0):
            raise ValidationError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > _WEIGHT_TOL:
            raise ValidationError(f"weights sum to {w.sum()!r}, not 1")
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, points) -> "EmpiricalMeasure":
        """The empirical measure (1/n) sum of Dirac masses at the given points."""
        return cls(points)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

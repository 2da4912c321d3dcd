"""Exact Wasserstein distances between empirical measures, plus the dual lower bound.

Two exact solvers: the monotone quantile coupling in one dimension (any
weights), and optimal assignment for equal-size uniform clouds in any
dimension.  No entropic regularization anywhere; downstream tests assert
inequalities at 1e-9 and regularization would blur them.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .measures import EmpiricalMeasure
from .models import Observable

__all__ = [
    "TransportResult",
    "wasserstein_1d",
    "wasserstein_assignment",
    "kr_dual_lower_bound",
    "quantile_dual_family",
    "sample_wasserstein",
    "sample_w1",
    "sample_w2",
]

_MAX_ASSIGNMENT = 4096


@dataclass(frozen=True)
class TransportResult:
    """Optimal cost and the coupling that realizes it."""

    cost: float
    plan: np.ndarray  # (k, 3) rows (source index, target index, mass)
    order: int

    def plan_to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("source,target,mass\n")
        for i, j, m in self.plan:
            buf.write(f"{int(i)},{int(j)},{format(m, '.17g')}\n")
        return buf.getvalue()


def wasserstein_1d(p: int, mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> TransportResult:
    """Exact W_p on the line via the monotone (quantile) coupling.

    Unequal weights are handled by splitting mass at the merged quantile
    breakpoints of the two cumulative distributions.
    """
    if p not in (1, 2):
        raise ValidationError("order p must be 1 or 2")
    if mu.dim != 1 or nu.dim != 1:
        raise ValidationError("wasserstein_1d needs one-dimensional measures")

    ix = np.argsort(mu.points[:, 0], kind="stable")
    jx = np.argsort(nu.points[:, 0], kind="stable")
    xs, ws = mu.points[ix, 0], mu.weights[ix]
    ys, vs = nu.points[jx, 0], nu.weights[jx]
    cwx = np.cumsum(ws)
    cwy = np.cumsum(vs)
    cwx[-1] = cwy[-1] = 1.0

    edges = np.unique(np.concatenate([[0.0], cwx, cwy]))
    mass = np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    ii = np.searchsorted(cwx, mid, side="left")
    jj = np.searchsorted(cwy, mid, side="left")
    keep = mass > 0
    ii, jj, mass = ii[keep], jj[keep], mass[keep]

    gaps = np.abs(xs[ii] - ys[jj])
    cost = float(np.sum(mass * gaps ** p) ** (1.0 / p))
    plan = np.column_stack([ix[ii].astype(float), jx[jj].astype(float), mass])
    return TransportResult(cost=cost, plan=plan, order=p)


def wasserstein_assignment(p: int, mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> TransportResult:
    """Exact W_p between equal-size uniform clouds via optimal assignment."""
    if p not in (1, 2):
        raise ValidationError("order p must be 1 or 2")
    if mu.n != nu.n:
        raise ValidationError(
            "assignment solver needs equal support sizes; resample or use wasserstein_1d"
        )
    if mu.n > _MAX_ASSIGNMENT:
        raise ValidationError(f"assignment solver is capped at n={_MAX_ASSIGNMENT}")
    uniform = 1.0 / mu.n
    if np.max(np.abs(mu.weights - uniform)) > 1e-12 or np.max(np.abs(nu.weights - uniform)) > 1e-12:
        raise ValidationError(
            "assignment solver needs uniform weights; use wasserstein_1d in 1D or resample"
        )
    if mu.dim != nu.dim:
        raise ValidationError("dimension mismatch")

    # scipy loads here, on first use, so d = 1 runs start on numpy alone.
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    metric = "euclidean" if p == 1 else "sqeuclidean"
    costs = cdist(mu.points, nu.points, metric=metric)
    rows, cols = linear_sum_assignment(costs)
    total = float(costs[rows, cols].sum()) / mu.n
    cost = total if p == 1 else total ** 0.5
    plan = np.column_stack([rows.astype(float), cols.astype(float), np.full(mu.n, uniform)])
    return TransportResult(cost=cost, plan=plan, order=p)


def _certify_lipschitz(func: Observable, pts: np.ndarray, tol: float = 1e-9):
    """Sample-check difference quotients against the declared constant 1."""
    if func.lipschitz_constant > 1.0 + tol:
        raise ValidationError(f"dual test function {func.name!r} declares constant > 1")
    n = len(pts)
    if n < 2:
        return
    rng = np.random.default_rng(3)
    a = rng.integers(0, n, size=min(200, 4 * n))
    b = rng.integers(0, n, size=len(a))
    keep = a != b
    a, b = a[keep], b[keep]
    fa = np.asarray(func.eval(pts[a]))
    fb = np.asarray(func.eval(pts[b]))
    dist = np.linalg.norm(pts[a] - pts[b], axis=1)
    if np.any(np.abs(fa - fb) > dist * (1.0 + 1e-9) + tol):
        raise ValidationError(f"dual test function {func.name!r} violates 1-Lipschitz on samples")


def kr_dual_lower_bound(mu: EmpiricalMeasure, nu: EmpiricalMeasure,
                        family: Sequence[Observable]) -> float:
    """max over the family of mu[phi] - nu[phi]; a certified lower bound on W_1."""
    if mu.dim != nu.dim:
        raise ValidationError("dimension mismatch")
    pts = np.vstack([mu.points, nu.points])
    best = -np.inf
    for func in family:
        _certify_lipschitz(func, pts)
        val = float(mu.weights @ np.asarray(func.eval(mu.points))
                    - nu.weights @ np.asarray(func.eval(nu.points)))
        best = max(best, val)
    if not np.isfinite(best):
        raise ValidationError("dual family is empty")
    return best


def quantile_dual_family(mu: EmpiricalMeasure, nu: EmpiricalMeasure,
                         n_anchors: int = 32) -> list[Observable]:
    """Unit-slope hinges anchored at data quantiles, plus signed coordinate projections."""
    pts = np.vstack([mu.points, nu.points])
    d = pts.shape[1]
    family: list[Observable] = [Observable(eval=lambda x: np.zeros(np.asarray(x).shape[:-1]),
                                           lipschitz_constant=1.0, name="zero")]
    qs = np.linspace(0.0, 1.0, n_anchors)
    for c in range(d):
        for sign in (1.0, -1.0):
            family.append(Observable(
                eval=(lambda x, c=c, s=sign: s * np.asarray(x)[..., c]),
                lipschitz_constant=1.0, name=f"{'+' if sign > 0 else '-'}x{c}"))
        for a in np.quantile(pts[:, c], qs):
            for sign in (1.0, -1.0):
                family.append(Observable(
                    eval=(lambda x, c=c, a=a, s=sign: s * np.abs(np.asarray(x)[..., c] - a)),
                    lipschitz_constant=1.0, name=f"{'+' if sign > 0 else '-'}|x{c}-{a:.4g}|"))
    return family


def _even_subsample(points: np.ndarray, size: int) -> np.ndarray:
    """Deterministic evenly-strided subsample down to `size` rows."""
    n = len(points)
    if n == size:
        return points
    idx = np.floor(np.linspace(0, n, size, endpoint=False)).astype(int)
    return points[idx]


def sample_wasserstein(p: int, cloud_a: np.ndarray, cloud_b: np.ndarray) -> float:
    """W_p between two uniform sample clouds (exact after an even-strided size match).

    1D clouds go through the quantile coupling (any sizes); higher dimensions
    go through the assignment solver after subsampling the larger cloud.
    """
    A = np.atleast_2d(np.asarray(cloud_a, dtype=np.float64))
    B = np.atleast_2d(np.asarray(cloud_b, dtype=np.float64))
    if A.shape[1] == 1:
        return wasserstein_1d(p, EmpiricalMeasure.uniform(A), EmpiricalMeasure.uniform(B)).cost
    n = min(len(A), len(B), _MAX_ASSIGNMENT)
    A, B = _even_subsample(A, n), _even_subsample(B, n)
    return wasserstein_assignment(p, EmpiricalMeasure.uniform(A), EmpiricalMeasure.uniform(B)).cost


def sample_w1(cloud_a, cloud_b) -> float:
    return sample_wasserstein(1, cloud_a, cloud_b)


def sample_w2(cloud_a, cloud_b) -> float:
    return sample_wasserstein(2, cloud_a, cloud_b)

"""Exact Wasserstein distances between empirical measures, plus the dual lower bound.

Every measure is a uniform cloud.  Two exact solvers: the monotone quantile
coupling in one dimension, one kernel batched over stacks of clouds of any
two sizes, and optimal assignment for equal-size clouds in any dimension.
No entropic regularization anywhere; downstream tests assert inequalities
at 1e-9 and regularization would blur them.  sample_wasserstein alone
picks the solver for sample clouds: one pair or broadcasting stacks of pairs.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .measures import EmpiricalMeasure, as_cloud
from .models import Observable

__all__ = [
    "wasserstein_1d",
    "wasserstein_assignment",
    "kr_dual_lower_bound",
    "quantile_dual_family",
    "sample_wasserstein",
    "sample_w1",
    "sample_w2",
]

_MAX_ASSIGNMENT = 4096


def wasserstein_1d(p: int, mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Exact W_p on the line via the monotone (quantile) coupling, at any two sizes."""
    if mu.dim != 1 or nu.dim != 1:
        raise ValidationError("wasserstein_1d needs one-dimensional measures")
    return float(_wasserstein_1d_rows(p, mu.points[:, 0], nu.points[:, 0]))


@functools.lru_cache(maxsize=None)
def _merged_steps(n: int, m: int) -> tuple:
    """The masses of the merged steps of two uniform n- and m-point CDFs, and the
    rank in each sorted cloud that every step couples, built once per (n, m).

    The steps end at the multiples of 1/n and of 1/m, so each is a mass of
    the quantile coupling between one point of each cloud (Bobkov & Ledoux,
    Mem. AMS 261, 2019).  At n == m the ranks are 0 .. n-1 in both clouds.
    """
    cwx = np.cumsum(np.full(n, 1.0 / n))
    cwy = np.cumsum(np.full(m, 1.0 / m))
    cwx[-1] = cwy[-1] = 1.0
    # np.unique of these edges, without the numpy.ma import it makes on first use
    edges = np.sort(np.concatenate([[0.0], cwx, cwy]), kind="stable")
    edges = edges[np.diff(edges, prepend=-1.0) > 0]
    mid = 0.5 * (edges[:-1] + edges[1:])
    steps = np.diff(edges), np.searchsorted(cwx, mid), np.searchsorted(cwy, mid)
    for a in steps:
        a.flags.writeable = False
    return steps


def _wasserstein_1d_rows(p: int, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact W_p between the clouds along the last axes of A (..., n) and B (..., m),
    finite uniform clouds on the line whose leading axes broadcast.

    Every row gathers its sorted points at the shared merged steps.  np.take
    keeps the gathered rows C-contiguous, so each row's sum rounds as the
    sum of that row alone; the root is taken per value as an np.float64 **
    (1 / p), C pow, where an array ** 0.5 would be sqrt.
    """
    if p not in (1, 2):
        raise ValidationError("order p must be 1 or 2")
    mass, ix, iy = _merged_steps(A.shape[-1], B.shape[-1])
    xs = np.take(np.sort(A, axis=-1, kind="stable"), ix, axis=-1)
    ys = np.take(np.sort(B, axis=-1, kind="stable"), iy, axis=-1)
    costs = np.sum(mass * np.abs(xs - ys) ** p, axis=-1)
    root = 1.0 / p
    return np.array([c ** root for c in costs.ravel()]).reshape(costs.shape)


def wasserstein_assignment(p: int, mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Exact W_p between equal-size clouds via optimal assignment.

    For p = 2 the assignment is solved on the mean-centred clouds.  With a
    and b the means, |x_i - y_j|^2 is |(x_i - a) - (y_j - b)|^2 plus terms
    of i alone and of j alone, which every permutation pays in full, so the
    two cost matrices have the same optimal permutations (Peyre & Cuturi,
    Computational Optimal Transport, 2019, ch. 2); scipy's solver finds one
    several times faster when one cloud is shifted.  The cost is summed from
    the original points' entries at that permutation.  W_1 has no such
    identity, so p = 1 solves the original costs.
    """
    if p not in (1, 2):
        raise ValidationError("order p must be 1 or 2")
    if mu.n != nu.n:
        raise ValidationError(
            "assignment solver needs equal support sizes; resample or use wasserstein_1d"
        )
    if mu.n > _MAX_ASSIGNMENT:
        raise ValidationError(f"assignment solver is capped at n={_MAX_ASSIGNMENT}")
    if mu.dim != nu.dim:
        raise ValidationError("dimension mismatch")

    # scipy loads here, on first use, so d = 1 runs start on numpy alone.
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    metric = "euclidean" if p == 1 else "sqeuclidean"
    costs = cdist(mu.points, nu.points, metric=metric)
    solved = costs if p == 1 else cdist(mu.points - mu.points.mean(axis=0),
                                        nu.points - nu.points.mean(axis=0), metric=metric)
    rows, cols = linear_sum_assignment(solved)
    total = float(costs[rows, cols].sum()) / mu.n
    return total if p == 1 else total ** 0.5


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
        val = float(np.mean(func.eval(mu.points)) - np.mean(func.eval(nu.points)))
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


def sample_wasserstein(p: int, cloud_a, cloud_b):
    """W_p between uniform sample clouds, exact, at any sizes in 1D and after an
    even-strided size match in higher dimensions.

    The arguments are (n, d) clouds or stacks of them whose leading axes
    broadcast; the result has the broadcast leading shape, or is a float for
    one pair.  Each must pass as_cloud, as an EmpiricalMeasure's points do.
    A 1D stack of any two sizes is one batched quantile solve, bit-equal to
    wasserstein_1d on each pair; in higher dimensions each pair goes to the
    assignment solver after subsampling the larger cloud.
    """
    A, B = as_cloud(cloud_a, stack=True), as_cloud(cloud_b, stack=True)
    lead = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    if A.shape[-1] == B.shape[-1] == 1:
        costs = _wasserstein_1d_rows(p, A[..., 0], B[..., 0])
    else:
        A, B = np.broadcast_to(A, lead + A.shape[-2:]), np.broadcast_to(B, lead + B.shape[-2:])
        costs = []
        for a, b in zip(A.reshape((-1,) + A.shape[-2:]), B.reshape((-1,) + B.shape[-2:])):
            n = min(len(a), len(b), _MAX_ASSIGNMENT)
            costs.append(wasserstein_assignment(p, EmpiricalMeasure(_even_subsample(a, n)),
                                                EmpiricalMeasure(_even_subsample(b, n))))
        costs = np.array(costs).reshape(lead)
    return costs if lead else float(costs)


def sample_w1(cloud_a, cloud_b):
    return sample_wasserstein(1, cloud_a, cloud_b)


def sample_w2(cloud_a, cloud_b):
    return sample_wasserstein(2, cloud_a, cloud_b)

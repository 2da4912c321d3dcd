"""Mean-field model definitions.

A model is a pairwise drift kernel b(X, Y), a constant diffusion factor
sigma, and a Gaussian initial law.  The drift actually used by the dynamics
is the average of b(X, .) against a uniform cloud.  A kernel may carry that
average in closed form, exploiting linear or polynomial structure (exact
algebra, no subsampling); otherwise it is the pairwise average over the
cloud.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ValidationError, count_errors
from .rng import INIT_STEP, NoiseGrid

__all__ = [
    "Potential",
    "DriftKernel",
    "DiffusionSpec",
    "InitialLaw",
    "Observable",
    "ModelSpec",
    "mean_field_batch",
    "granular_media_model",
    "vlasov_fokker_planck_model",
    "zero_potential",
    "quadratic_potential",
    "power_potential",
    "ou_mean",
    "ou_variance",
]

# Kernel evaluations buffered at once by _pairwise_average: 2^14 keeps each
# full-size temporary at 128 KB for d = 1, inside a core's L2 cache.  The block
# width does not change a bit of the result (each row reduces on its own).
_PAIRWISE_CHUNK = 2 ** 14


# ---------------------------------------------------------------------------
# potentials


@dataclass(frozen=True)
class Potential:
    """Value/gradient oracle pair for a potential on R^d.

    `linear_grad_coeff` is set when grad(z) = coeff * z exactly, which lets
    mean-field averages collapse to a single mean.  `integer_power` is (p, c)
    when the potential is c |z|^p with an integer p > 2: in 1-D its gradient
    is a polynomial of degree p - 1 on either side of 0, which lets
    mean-field averages collapse to prefix moments of the sorted cloud.
    The granular media model tames its drift unless both of its potentials
    set `linear_grad_coeff`.
    """

    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    name: str = "potential"
    linear_grad_coeff: Optional[float] = None
    integer_power: Optional[tuple[int, float]] = None


def zero_potential() -> Potential:
    return Potential(
        value=lambda z: np.zeros(np.asarray(z).shape[:-1]),
        grad=np.zeros_like,
        name="zero",
        linear_grad_coeff=0.0,
    )


def quadratic_potential(coeff: float = 1.0) -> Potential:
    """V(z) = coeff * |z|^2 / 2, gradient coeff * z."""
    c = float(coeff)
    return Potential(
        value=lambda z: 0.5 * c * np.sum(np.asarray(z) ** 2, axis=-1),
        grad=lambda z: c * np.asarray(z),
        name=f"quadratic({c})",
        linear_grad_coeff=c,
    )


def power_potential(exponent: float, coeff: float = 1.0) -> Potential:
    """V(z) = coeff * |z|^exponent; superlinear gradient for exponent > 2."""
    p, c = float(exponent), float(coeff)
    if p < 2:
        raise ValidationError("power_potential needs exponent >= 2 for a Lipschitz-at-0 gradient")

    def value(z):
        return c * np.linalg.norm(np.asarray(z), axis=-1) ** p

    def grad(z):
        # ((c * p) * |z|^(p-2)) * z, built in place on r.  |z| is the sqrt of
        # the summed squares, as np.linalg.norm computes it less its conj copy
        # and its size-1 reduce, and x ** 1.0 == x lets p = 3 skip the power.
        z = np.asarray(z, dtype=np.float64)
        r = z * z
        if z.shape[-1] > 1:
            r = np.add.reduce(r, axis=-1, keepdims=True)
        np.sqrt(r, out=r)
        if p != 3:
            r **= p - 2
        r *= c * p
        if z.shape[-1] > 1:
            return r * z
        r *= z
        return r

    return Potential(
        value=value,
        grad=grad,
        name=f"|z|^{p}*{c}",
        linear_grad_coeff=c * p if p == 2 else None,
        integer_power=(int(p), c) if p > 2 and p.is_integer() else None,
    )


def _check_gradient(pot: Potential, dim: int, n_points: int = 100, seed: int = 7):
    """Central finite differences against the supplied gradient oracle."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-2.0, 2.0, size=(n_points, dim))
    g = np.asarray(pot.grad(pts))
    for c in range(dim):
        h = 1e-6 * (1.0 + np.abs(pts[:, c]))
        up = pts.copy()
        dn = pts.copy()
        up[:, c] += h
        dn[:, c] -= h
        fd = (np.asarray(pot.value(up)) - np.asarray(pot.value(dn))) / (2 * h)
        scale = 1.0 + np.abs(fd)
        if np.max(np.abs(fd - g[:, c]) / scale) > 1e-4:
            raise ValidationError(
                f"gradient oracle of {pot.name!r} disagrees with finite differences "
                f"(coordinate {c})"
            )


def _check_even(pot: Potential, dim: int, n_points: int = 100, seed: int = 11):
    rng = np.random.default_rng(seed)
    z = rng.uniform(-3.0, 3.0, size=(n_points, dim))
    if np.max(np.abs(np.asarray(pot.value(z)) - np.asarray(pot.value(-z)))) > 1e-9:
        raise ValidationError(f"interaction potential {pot.name!r} is not even")


# ---------------------------------------------------------------------------
# kernels, diffusion, initial laws


@dataclass(frozen=True)
class DriftKernel:
    """Pairwise drift b(X, Y) on R^d x R^d.

    `eval` must broadcast over leading axes.  `superlinear` marks a kernel
    that grows faster than linearly, whose drift the integrator tames to
    b / (1 + dt |b|) when a run asks for taming.
    `mean_field(X, points)`, when set, is the exact average of b(X, .) over
    the uniform cloud of the points in closed form, for the shapes
    mean_field_batch admits (one cloud (m, d), or X itself); when None, that
    average is taken pair by pair.
    """

    dim: int
    eval: Callable[[np.ndarray, np.ndarray], np.ndarray]
    superlinear: bool = False
    mean_field: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        errs = count_errors("kernel dim", self.dim)
        if errs:
            raise ValidationError(errs[0])


@dataclass(frozen=True, eq=False)
class DiffusionSpec:
    """Constant square diffusion factor sigma, noise sigma dW; equal only to itself."""

    sigma: np.ndarray

    def __post_init__(self):
        sig = np.atleast_2d(np.asarray(self.sigma, dtype=np.float64))
        if sig.shape[0] != sig.shape[1]:
            raise ValidationError("sigma must be square")
        object.__setattr__(self, "sigma", sig)
        diag = np.diag(np.diag(sig))
        object.__setattr__(self, "_diag", np.diag(sig).copy() if np.array_equal(sig, diag) else None)

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]

    def apply(self, dW: np.ndarray) -> np.ndarray:
        """sigma dW for each row of dW, a full sigma's products summed row by row: a
        matrix product may round a row of many differently from the row alone."""
        if self._diag is not None:
            return dW * self._diag
        return np.add.reduce(dW[..., None, :] * self.sigma, axis=-1)

    @classmethod
    def isotropic(cls, dim: int) -> "DiffusionSpec":
        """sigma = sqrt(2) I, the noise of the overdamped Langevin dynamics."""
        return cls(np.eye(dim) * np.sqrt(2.0))


@dataclass(frozen=True, eq=False)
class InitialLaw:
    """Gaussian initial law N(mean, chol chol^T), sampled at INIT_STEP.

    Build it with `gaussian(mean, cov)`; a zero covariance gives the point
    law at `mean`.  A law is equal only to itself: arrays have no truth value.
    """

    mean: np.ndarray
    chol: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.mean)

    def sample(self, grid: NoiseGrid, n) -> np.ndarray:
        """I.i.d. initial states of particles 0..n-1, shape grid.batch_shape + (n, dim).

        `n` is a count, as in every grid draw: an int or numpy integer in [0, 2^32].
        chol z is summed row by row, as in DiffusionSpec.apply.
        """
        z = grid.normals(n, INIT_STEP, self.dim)
        return self.mean + np.add.reduce(z[..., None, :] * self.chol, axis=-1)

    @classmethod
    def gaussian(cls, mean, cov) -> "InitialLaw":
        """N(mean, cov); a scalar or 1-D cov is that multiple of I or that diagonal.

        The mean and covariance must be finite and the covariance exactly symmetric.
        """
        mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
        d = len(mean)
        cov = np.asarray(cov, dtype=np.float64)
        if cov.ndim == 0:
            cov = np.eye(d) * cov
        elif cov.ndim == 1:
            cov = np.diag(cov)
        if cov.shape != (d, d):
            raise ValidationError("covariance shape does not match mean")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValidationError("mean and covariance must be finite")
        if not np.array_equal(cov, cov.T):
            raise ValidationError("covariance must be symmetric")
        try:
            return cls(mean, np.linalg.cholesky(cov + 0.0) if np.any(cov) else np.zeros((d, d)))
        except np.linalg.LinAlgError:
            raise ValidationError("covariance must be positive definite, or zero for the "
                                  "point law") from None


@dataclass(frozen=True)
class Observable:
    """Scalar Lipschitz statistic of one particle state."""

    eval: Callable[[np.ndarray], np.ndarray]  # (..., d) -> (...)
    lipschitz_constant: float
    name: str = "observable"

    def __post_init__(self):
        if self.lipschitz_constant <= 0:
            raise ValidationError("lipschitz_constant must be positive")


@dataclass(frozen=True)
class ModelSpec:
    drift: DriftKernel
    diffusion: DiffusionSpec
    initial_law: InitialLaw
    name: str

    def __post_init__(self):
        if not (self.drift.dim == self.diffusion.dim == self.initial_law.dim):
            raise ValidationError(
                f"dimension mismatch: drift {self.drift.dim}, diffusion "
                f"{self.diffusion.dim}, initial law {self.initial_law.dim}"
            )

    @property
    def dim(self) -> int:
        return self.drift.dim


# ---------------------------------------------------------------------------
# mean-field averaging


@functools.lru_cache(maxsize=None)
def _uniform(m: int) -> np.ndarray:
    """The masses 1/m of a uniform m-point cloud, built once per m: means reduce
    against it, since points.mean(axis=0) rounds differently from w @ points."""
    w = np.full(m, 1.0 / m)
    w.flags.writeable = False
    return w


def _pairwise_average(kernel: DriftKernel, X: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Exact average of b(X_i, Y_j) over j, chunked over i.

    X is (n, d) and points (m, d); one replica at a time, so the kernel
    buffer never exceeds _PAIRWISE_CHUNK evaluations (at least one row).  The
    blocks are sized for cache, not memory: each row's einsum reduction is
    the same whatever the number of rows in its block, so the result is bit
    for bit independent of the block width.
    """
    n, d = X.shape
    m = points.shape[0]
    out, w = np.empty((n, d)), _uniform(m)
    rows = max(1, _PAIRWISE_CHUNK // max(m, 1))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        vals = kernel.eval(X[start:stop, None, :], points[None, :, :])
        out[start:stop] = np.einsum("ijd,j->id", vals, w)
    return out


@functools.lru_cache(maxsize=None)
def _power_coefficients(p: int, c: float) -> np.ndarray:
    """The row c p (-1)^k binom(p-1, k), k < p, of _power_law_average, built once per (p, c)."""
    row = np.array([c * p * (-1) ** k * math.comb(p - 1, k) for k in range(p)])
    row.flags.writeable = False
    return row


def _power_law_average(p: int, c: float, X: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Exact average of grad W(x - y_j) over the m points y_j, for W(z) = c |z|^p in 1-D.

    For an integer p, grad W(z) = c p |z|^(p-2) z is c p z^(p-1) above 0 and
    (-1)^p c p z^(p-1) below it.  With the shift s the cloud's mean,
    u = x - s and v_j = y_j - s, the average is the polynomial
    c p sum_k (-1)^k binom(p-1, k) u^(p-1-k) a_k in u, where a_k is the moment
    (1/m) sum_j v_j^k over the points y_j <= x minus the one over the points
    above x for odd p, and over all points for even p.  The cloud is sorted
    once and its moments summed in prefix: X (..., n, 1) against one cloud
    (m, 1), or against X itself, costs O((n + m) log m), not O(n m) pairwise.

    The sort is numpy's default, the stable order when no row has two equal
    values; a tie or a nan in any row sorts the batch again, stably.  Against
    the one cloud each row of x is sorted, its values ranked by searchsorted
    on the sorted cloud in that order (a sorted query narrows each search),
    and the ranks scattered back to x's order.  Against itself (points is X)
    a state is evaluated in its sort order, where u is v and sorted row i
    counts i + 1 points (or those to the end of its run of equal values),
    and the results are scattered back to X's order.  Each step is
    elementwise, a permutation, or a sort, cumsum or sum along a row of one
    cloud, so a row's result depends on the values of its own x and cloud
    only: not on the other rows, the replica axis, or whether the cloud is
    the state itself or a copy (but for the sign of a nan).  Overflow of a
    diverging run carries through as inf or nan without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x, y, own, m = X[..., 0], points[..., 0], points is X, points.shape[-2]
        starts = np.arange(0, y.size, m).reshape(y.shape[:-1] + (1,))  # flat index of each row
        order = y.argsort(axis=-1)
        flat = order + starts
        ys = y.reshape(-1)[flat]
        # a stable re-sort only reorders equal values, and in a sorted row two
        # neighbours are unequal only if the later is larger: a nan compares false
        tied = not (ys[..., 1:] > ys[..., :-1]).all() or m == 1 and np.isnan(ys).any()
        if tied:
            order = y.argsort(axis=-1, kind="stable")
            flat = order + starts
            ys = y.reshape(-1)[flat]
        w = 1.0 / m
        shift = np.add.reduce(ys * w, axis=-1, keepdims=True)
        v = ys - shift
        # moments[k, ..., i] = coeff_k * sum_{j < i} w v_j^k
        terms = np.empty((p,) + ys.shape)
        terms[0] = w
        for k in range(1, p):
            np.multiply(terms[k - 1], v, out=terms[k])
        terms *= _power_coefficients(p, c).reshape((p,) + (1,) * ys.ndim)
        moments = np.zeros((p,) + ys.shape[:-1] + (m + 1,))
        np.cumsum(terms, axis=-1, out=moments[..., 1:])
        a = moments[..., -1:]
        if p % 2 and own and not tied:
            a = 2.0 * moments[..., 1:] - a
        elif p % 2:
            if own:  # equal means == or both nan, as in the sort, which puts every nan last
                same = ys[..., 1:] == ys[..., :-1]
                same |= np.isnan(ys[..., 1:]) & np.isnan(ys[..., :-1])
                ends = np.full(ys.shape, m)
                ends[..., :-1] = np.where(same, m, np.arange(1, m))
                at = np.minimum.accumulate(ends[..., ::-1], axis=-1)[..., ::-1]
            else:
                n = x.shape[-1]
                queries = x.argsort(axis=-1) + np.arange(0, x.size, n).reshape(
                    x.shape[:-1] + (1,))
                at = np.empty(x.shape, dtype=np.intp)
                at.reshape(-1)[queries] = np.searchsorted(ys, x.reshape(-1)[queries],
                                                          side="right")
            a = np.take((2.0 * moments - a).reshape(p, -1), at + starts // m * (m + 1), axis=1)
        u = v if own else x - shift
        out = a[0] * u  # Horner in place: ((a_0 u + a_1) u + a_2) u + ...
        out += a[1]
        for k in range(2, p):
            out *= u
            out += a[k]
        if own:  # from sort order back to X's
            out, sorted_out = np.empty(out.shape), out
            out.reshape(-1)[flat] = sorted_out
        return out[..., None]


def mean_field_batch(kernel: DriftKernel, X: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Mean-field drift for a batch of states X against the uniform cloud of the points.

    X is (n, d) or (R, n, d) for R replicas; points is one cloud (m, d)
    shared by every replica, or X itself, each replica against its own
    state, which the 1-D prefix moments of an integer power evaluate in X's
    sort order.  Any other (R, m, d) points is a ValidationError.  Closed
    forms broadcast over replicas; the pairwise average (d > 1, non-integer
    powers) runs per replica.
    """
    if points.ndim == 3 and points is not X:
        raise ValidationError(f"mean-field points {points.shape} must be one cloud (m, d) "
                              f"or the states {X.shape} themselves")
    if kernel.mean_field is not None:
        return kernel.mean_field(X, points)
    if X.ndim == 2:
        return _pairwise_average(kernel, X, points)
    clouds = X if points is X else [points] * len(X)
    return np.stack([_pairwise_average(kernel, x, c) for x, c in zip(X, clouds)])


# ---------------------------------------------------------------------------
# built-in model families


def granular_media_model(V: Potential, W: Potential, d: int,
                         initial_law: Optional[InitialLaw] = None,
                         name: Optional[str] = None) -> ModelSpec:
    """Space-homogeneous granular media dynamics.

    Drift kernel b(v, w) = grad V(v) + grad W(v - w) with sigma = sqrt(2) I;
    W must be even so the interaction is symmetric.  A superlinear W (e.g.
    |z|^3) marks the kernel for tamed integration.  The mean field is exact
    algebra when W has a linear gradient, or, for d = 1, when W is an
    integer power; otherwise it is the pairwise average.
    """
    _check_even(W, d)
    _check_gradient(V, d)
    _check_gradient(W, d)

    def kernel_eval(X, Y):
        # grad W(X - Y) + grad V(X), summed into the full-size term in place
        out = W.grad(np.asarray(X) - np.asarray(Y))
        out += V.grad(X)
        return out

    mean_field = None
    if W.linear_grad_coeff is not None:
        cw = W.linear_grad_coeff

        def mean_field(X, points):
            mean = _uniform(points.shape[-2]) @ points
            return V.grad(X) + cw * (X - mean[..., None, :])
    elif W.integer_power is not None and d == 1:
        pw, cw = W.integer_power

        def mean_field(X, points):
            out = _power_law_average(pw, cw, X, points)
            out += V.grad(X)
            return out

    return ModelSpec(
        drift=DriftKernel(dim=d, eval=kernel_eval, mean_field=mean_field,
                          superlinear=W.linear_grad_coeff is None or V.linear_grad_coeff is None),
        diffusion=DiffusionSpec.isotropic(d),
        initial_law=initial_law or InitialLaw.gaussian(np.zeros(d), np.eye(d)),
        name=name or f"granular(V={V.name}, W={W.name}, d={d})",
    )


def vlasov_fokker_planck_model(U: Potential, A: Callable, B: Callable, d_prime: int,
                               initial_law: Optional[InitialLaw] = None,
                               name: Optional[str] = None) -> ModelSpec:
    """Kinetic phase-space model on states (x, v) in R^{2 d'}.

    The drift kernel is b((x,v), (y,w)) = (-v, A(v) + B(x) + grad U(x - y));
    averaging the second argument over the full empirical measure realizes
    the convolution against the space marginal.  Noise enters the velocity
    block only: sigma = diag(0, sqrt(2) I).  A U without a linear gradient
    marks the kernel for tamed integration; A and B are the caller's, and
    taming is not decided by them.
    """
    _check_gradient(U, d_prime)
    _check_even(U, d_prime)
    d = 2 * d_prime

    def kernel_eval(X, Y):
        X = np.asarray(X)
        Y = np.asarray(Y)
        X, Y = np.broadcast_arrays(X, Y)
        x, v = X[..., :d_prime], X[..., d_prime:]
        y = Y[..., :d_prime]
        out = np.empty(X.shape)
        out[..., :d_prime] = -v
        out[..., d_prime:] = A(v) + B(x) + U.grad(x - y)
        return out

    mean_field = None
    if U.linear_grad_coeff is not None:
        cu = U.linear_grad_coeff

        def mean_field(X, points):
            x, v = X[..., :d_prime], X[..., d_prime:]
            ybar = (_uniform(points.shape[-2]) @ points[..., :d_prime])[..., None, :]
            out = np.empty(X.shape)
            out[..., :d_prime] = -v
            out[..., d_prime:] = A(v) + B(x) + cu * (x - ybar)
            return out

    sigma = np.zeros((d, d))
    sigma[d_prime:, d_prime:] = np.sqrt(2.0) * np.eye(d_prime)
    return ModelSpec(
        drift=DriftKernel(dim=d, eval=kernel_eval, mean_field=mean_field,
                          superlinear=U.linear_grad_coeff is None),
        diffusion=DiffusionSpec(sigma),
        initial_law=initial_law or InitialLaw.gaussian(np.zeros(d), np.eye(d)),
        name=name or f"vfp(U={U.name}, d'={d_prime})",
    )


def ou_mean(t: float, mean0: float, rate: float) -> float:
    """Mean at time t of each coordinate of dX = sqrt(2) dB - rate X dt from mean mean0.

    That Ornstein-Uhlenbeck process is granular_media_model with
    V = quadratic_potential(rate) and W = zero_potential() (in a config,
    family = granular_quadratic, v_coeff = rate, w_coeff = 0).
    """
    return mean0 * np.exp(-rate * t)


def ou_variance(t: float, var0: float, rate: float) -> float:
    """Variance at time t of each coordinate of the OU process of ou_mean from variance var0."""
    return 1.0 / rate + (var0 - 1.0 / rate) * np.exp(-2.0 * rate * t)

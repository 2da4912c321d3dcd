"""Mean-field model definitions.

A model is a pairwise drift kernel b(X, Y), a constant diffusion factor
sigma, and an initial law.  The drift actually used by the dynamics is the
average of b(X, .) against a measure.  A kernel may carry that average in
closed form, exploiting linear or polynomial structure (exact algebra, no
subsampling); otherwise it is the pairwise average over the cloud.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ValidationError
from .rng import INIT_STEP, SELECT_STEP, NoiseGrid

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
    "linear_test_model",
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
    `grad_lipschitz` is the Lipschitz constant of the gradient, or None when
    only locally Lipschitz.
    """

    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    grad_lipschitz: Optional[float]
    name: str = "potential"
    linear_grad_coeff: Optional[float] = None
    integer_power: Optional[tuple[int, float]] = None


def zero_potential() -> Potential:
    return Potential(
        value=lambda z: np.zeros(np.asarray(z).shape[:-1]),
        grad=np.zeros_like,
        grad_lipschitz=0.0,
        name="zero",
        linear_grad_coeff=0.0,
    )


def quadratic_potential(coeff: float = 1.0) -> Potential:
    """V(z) = coeff * |z|^2 / 2, gradient coeff * z."""
    c = float(coeff)
    return Potential(
        value=lambda z: 0.5 * c * np.sum(np.asarray(z) ** 2, axis=-1),
        grad=lambda z: c * np.asarray(z),
        grad_lipschitz=abs(c),
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
        grad_lipschitz=abs(c) * p if p == 2 else None,
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

    `eval` must broadcast over leading axes.  `taming_exponent` > 0 requests
    drift taming inside the integrator (tamed drift b/(1 + dt^q |b|)).
    `mean_field(X, points, weights)`, when set, is the exact weighted average
    of b(X, .) over the cloud in closed form, taking the same batched shapes
    as mean_field_batch; when None, that average is taken pair by pair.
    """

    dim: int
    eval: Callable[[np.ndarray, np.ndarray], np.ndarray]
    taming_exponent: float = 0.0
    mean_field: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.dim <= 0:
            raise ValidationError("kernel dimension must be positive")
        if self.taming_exponent < 0:
            raise ValidationError("taming_exponent must be nonnegative")


@dataclass(frozen=True)
class DiffusionSpec:
    """Constant diffusion factor sigma with a = sigma sigma^T / 2."""

    sigma: np.ndarray
    a: np.ndarray = field(init=False)

    def __post_init__(self):
        sig = np.atleast_2d(np.asarray(self.sigma, dtype=np.float64))
        if sig.shape[0] != sig.shape[1]:
            raise ValidationError("sigma must be square")
        object.__setattr__(self, "sigma", sig)
        a = sig @ sig.T / 2.0
        if np.min(np.linalg.eigvalsh(a)) < -1e-12:
            raise ValidationError("a = sigma sigma^T / 2 must be positive semidefinite")
        object.__setattr__(self, "a", a)
        d = sig.shape[0]
        diag = np.diag(np.diag(sig))
        object.__setattr__(self, "_diag", np.diag(sig).copy() if np.array_equal(sig, diag) else None)

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]

    def apply(self, dW: np.ndarray) -> np.ndarray:
        """sigma @ dW, batched over rows of dW."""
        if self._diag is not None:
            return dW * self._diag
        return dW @ self.sigma.T

    @classmethod
    def isotropic(cls, dim: int, factor: float = np.sqrt(2.0)) -> "DiffusionSpec":
        return cls(np.eye(dim) * factor)


class InitialLaw:
    """Initial distribution from a family with closed-form second moment."""

    def __init__(self, kind: str, dim: int, second_moment: float, sampler):
        self.kind = kind
        self.dim = dim
        self.second_moment = float(second_moment)
        self._sampler = sampler
        if not np.isfinite(self.second_moment):
            raise ValidationError("initial law must have a finite second moment")

    def sample(self, grid: NoiseGrid, particles) -> np.ndarray:
        """Draw i.i.d. initial states at the grid's reserved init-step keys.

        The result has shape grid.batch_shape + (len(particles), dim).
        """
        if np.isscalar(particles):
            particles = np.arange(int(particles))
        return self._sampler(grid, np.asarray(particles))

    @classmethod
    def point(cls, x) -> "InitialLaw":
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))

        def sampler(grid, particles):
            return np.tile(x, grid.batch_shape + (len(particles), 1))

        return cls("point", len(x), float(np.sum(x ** 2)), sampler)

    @classmethod
    def gaussian(cls, mean, cov) -> "InitialLaw":
        mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
        d = len(mean)
        cov = np.asarray(cov, dtype=np.float64)
        if cov.ndim == 0:
            cov = np.eye(d) * cov
        elif cov.ndim == 1:
            cov = np.diag(cov)
        if cov.shape != (d, d):
            raise ValidationError("covariance shape does not match mean")
        chol = np.linalg.cholesky(cov + 0.0) if np.any(cov) else np.zeros((d, d))

        def sampler(grid, particles):
            z = grid.normals(particles, INIT_STEP, d)
            return mean + z @ chol.T

        m2 = float(mean @ mean + np.trace(cov))
        return cls("gaussian", d, m2, sampler)

    @classmethod
    def uniform_box(cls, lo, hi) -> "InitialLaw":
        lo = np.atleast_1d(np.asarray(lo, dtype=np.float64))
        hi = np.atleast_1d(np.asarray(hi, dtype=np.float64))
        if lo.shape != hi.shape or np.any(hi <= lo):
            raise ValidationError("uniform box needs lo < hi componentwise")
        d = len(lo)

        def sampler(grid, particles):
            u = grid.uniforms(particles, INIT_STEP, d)
            return lo + u * (hi - lo)

        m2 = float(np.sum((lo ** 2 + lo * hi + hi ** 2) / 3.0))
        return cls("uniform", d, m2, sampler)

    @classmethod
    def mixture(cls, components: Sequence["InitialLaw"], weights) -> "InitialLaw":
        weights = np.asarray(weights, dtype=np.float64)
        if len(components) != len(weights) or abs(weights.sum() - 1.0) > 1e-12:
            raise ValidationError("mixture weights must match components and sum to 1")
        d = components[0].dim
        if any(c.dim != d for c in components):
            raise ValidationError("mixture components must share a dimension")
        cumw = np.cumsum(weights)

        def sampler(grid, particles):
            # the selector reads a step of its own, so it never reuses the
            # draws the components consume
            sel = grid.uniforms(particles, SELECT_STEP, 1)[..., 0]
            idx = np.searchsorted(cumw, sel, side="right").clip(0, len(components) - 1)
            draws = np.stack([c.sample(grid, particles) for c in components], axis=0)
            return np.take_along_axis(draws, idx[None, ..., None], axis=0)[0]

        m2 = float(weights @ [c.second_moment for c in components])
        return cls("mixture", d, m2, sampler)


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


def _pairwise_average(kernel: DriftKernel, X: np.ndarray, points: np.ndarray,
                      weights: np.ndarray) -> np.ndarray:
    """Exact weighted average of b(X_i, Y_j) over j, chunked over i.

    X is (n, d) and points (m, d); one replica at a time, so the kernel
    buffer never exceeds _PAIRWISE_CHUNK evaluations (at least one row).  The
    blocks are sized for cache, not memory: each row's einsum reduction is
    the same whatever the number of rows in its block, so the result is bit
    for bit independent of the block width.
    """
    n, d = X.shape
    m = points.shape[0]
    out = np.empty((n, d))
    rows = max(1, _PAIRWISE_CHUNK // max(m, 1))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        vals = kernel.eval(X[start:stop, None, :], points[None, :, :])
        out[start:stop] = np.einsum("ijd,j->id", vals, weights)
    return out


def _count_at_or_below(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """np.searchsorted(y, x, side="right") for each row of sorted y and x.

    Rows of more than one dimension merge y and x in one stable sort, which
    ranks each point of y ahead of an equal x, and count the points of y up
    to each x.  The counts are integers, so both ways give the same ones.
    """
    if y.ndim == 1:
        return np.searchsorted(y, x, side="right")
    m = y.shape[-1]
    order = np.argsort(np.concatenate([y, x], axis=-1), axis=-1, kind="stable")
    counts = np.empty_like(order)
    np.put_along_axis(counts, order, np.cumsum(order < m, axis=-1), axis=-1)
    return counts[..., m:]


def _count_self_at_or_below(y: np.ndarray, order: np.ndarray) -> np.ndarray:
    """_count_at_or_below(y, x) for the cloud x itself, from y = x sorted by order.

    The points at or below y[i] run to the end of the run of values equal to
    y[i], so row i of y counts that end's index plus 1, and the counts go back
    to x's order through order.  Equal means == or both nan, as in the sort,
    which puts every nan last.
    """
    same = (y[..., 1:] == y[..., :-1]) | (np.isnan(y[..., 1:]) & np.isnan(y[..., :-1]))
    m = y.shape[-1]
    ends = np.full(y.shape, m, dtype=order.dtype)
    ends[..., :-1] = np.where(same, m, np.arange(1, m))
    sorted_counts = np.minimum.accumulate(ends[..., ::-1], axis=-1)[..., ::-1]
    counts = np.empty_like(order)
    np.put_along_axis(counts, order, sorted_counts, axis=-1)
    return counts


def _power_law_average(p: int, c: float, X: np.ndarray, points: np.ndarray,
                       weights: np.ndarray) -> np.ndarray:
    """Exact weighted average of grad W(x - y_j) over j for W(z) = c |z|^p in 1-D.

    For an integer p, grad W(z) = c p |z|^(p-2) z is c p z^(p-1) above 0 and
    (-1)^p c p z^(p-1) below it.  With the shift s the weighted cloud mean,
    u = x - s and v_j = y_j - s, the average is the polynomial
    c p sum_k (-1)^k binom(p-1, k) u^(p-1-k) a_k in u, where a_k is the moment
    sum_j w_j v_j^k over the points y_j <= x minus the one over the points
    above x for odd p, and over all points for even p.  The cloud is sorted
    once and its moments summed in prefix, so X (..., n, 1) against points
    (m, 1) or (..., m, 1) costs O((n + m) log m), not the O(n m) of the
    pairwise average.

    Every step is elementwise, or a sort, cumsum or sum along a row of one
    cloud, so each row's result depends on the values of its own x and cloud
    only: not on the other rows, on the replica axis, or on whether the
    cloud is the state itself or a copy of it.  Overflow of a diverging run
    carries through as inf or nan without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x, y = X[..., 0], points[..., 0]
        order = np.argsort(y, axis=-1, kind="stable")
        y = np.take_along_axis(y, order, axis=-1)
        w = weights[order]
        shift = np.sum(y * w, axis=-1, keepdims=True)
        v = y - shift
        # moments[..., i, k] = coeff_k * sum_{j < i} w_j v_j^k
        terms = np.empty(y.shape + (p,))
        terms[..., 0] = w
        for k in range(1, p):
            np.multiply(terms[..., k - 1], v, out=terms[..., k])
        terms *= [c * p * (-1) ** k * math.comb(p - 1, k) for k in range(p)]
        moments = np.zeros(y.shape[:-1] + (y.shape[-1] + 1, p))
        np.cumsum(terms, axis=-2, out=moments[..., 1:, :])
        a = moments[..., -1:, :]
        if p % 2:
            at = _count_self_at_or_below(y, order) if points is X else _count_at_or_below(y, x)
            if y.ndim > 1:  # row i of cloud r sits at r (m + 1) + i of the stacked rows
                rows = np.arange(math.prod(y.shape[:-1])).reshape(y.shape[:-1] + (1,))
                at += rows * moments.shape[-2]
            a = 2.0 * np.take(moments.reshape(-1, p), at, axis=0) - a
        u = x - shift
        out = a[..., 0]
        for k in range(1, p):
            out = out * u + a[..., k]
        return out[..., None]


def mean_field_batch(kernel: DriftKernel, X: np.ndarray, points: np.ndarray,
                     weights: np.ndarray) -> np.ndarray:
    """Mean-field drift for a batch of states X against a weighted cloud.

    X is (n, d) or, for R batched replicas, (R, n, d).  points is one cloud
    (m, d) shared by every replica, or one cloud per replica (R, m, d).  The
    kernel's closed form (the linear-gradient mean, the 1-D prefix moments
    of an integer power) broadcasts over the replica axis; the pairwise
    average, left for d > 1 and non-integer powers, runs replica by replica.
    """
    if kernel.mean_field is not None:
        return kernel.mean_field(X, points, weights)
    if X.ndim == 2:
        return _pairwise_average(kernel, X, points, weights)
    clouds = points if points.ndim == 3 else [points] * len(X)
    return np.stack([_pairwise_average(kernel, x, c, weights) for x, c in zip(X, clouds)])


# ---------------------------------------------------------------------------
# built-in model families


def granular_media_model(V: Potential, W: Potential, d: int,
                         initial_law: Optional[InitialLaw] = None,
                         name: Optional[str] = None,
                         validate: bool = True) -> ModelSpec:
    """Space-homogeneous granular media dynamics.

    Drift kernel b(v, w) = grad V(v) + grad W(v - w) with sigma = sqrt(2) I;
    W must be even so the interaction is symmetric.  A superlinear W (e.g.
    |z|^3) marks the kernel for tamed integration.  The mean field is exact
    algebra when W has a linear gradient, or, for d = 1, when W is an
    integer power; otherwise it is the pairwise average.
    """
    if validate:
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

        def mean_field(X, points, weights):
            return V.grad(X) + cw * (X - (weights @ points)[..., None, :])
    elif W.integer_power is not None and d == 1:
        pw, cw = W.integer_power

        def mean_field(X, points, weights):
            return _power_law_average(pw, cw, X, points, weights) + V.grad(X)

    taming = 1.0 if W.grad_lipschitz is None or (V.grad_lipschitz is None) else 0.0

    return ModelSpec(
        drift=DriftKernel(dim=d, eval=kernel_eval, taming_exponent=taming, mean_field=mean_field),
        diffusion=DiffusionSpec.isotropic(d),
        initial_law=initial_law or InitialLaw.gaussian(np.zeros(d), np.eye(d)),
        name=name or f"granular(V={V.name}, W={W.name}, d={d})",
    )


def vlasov_fokker_planck_model(U: Potential, A: Callable, B: Callable, d_prime: int,
                               initial_law: Optional[InitialLaw] = None,
                               name: Optional[str] = None,
                               validate: bool = True) -> ModelSpec:
    """Kinetic phase-space model on states (x, v) in R^{2 d'}.

    The drift kernel is b((x,v), (y,w)) = (-v, A(v) + B(x) + grad U(x - y));
    averaging the second argument over the full empirical measure realizes
    the convolution against the space marginal.  Noise enters the velocity
    block only: sigma = diag(0, sqrt(2) I).
    """
    if validate:
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

        def mean_field(X, points, weights):
            x, v = X[..., :d_prime], X[..., d_prime:]
            ybar = (weights @ points[..., :d_prime])[..., None, :]
            out = np.empty(X.shape)
            out[..., :d_prime] = -v
            out[..., d_prime:] = A(v) + B(x) + cu * (x - ybar)
            return out

    sigma = np.zeros((d, d))
    sigma[d_prime:, d_prime:] = np.sqrt(2.0) * np.eye(d_prime)
    return ModelSpec(
        drift=DriftKernel(dim=d, eval=kernel_eval, mean_field=mean_field),
        diffusion=DiffusionSpec(sigma),
        initial_law=initial_law or InitialLaw.gaussian(np.zeros(d), np.eye(d)),
        name=name or f"vfp(U={U.name}, d'={d_prime})",
    )


def linear_test_model(rate: float, d: int = 1, mean0: float = 0.0,
                      var0: float = 1.0) -> ModelSpec:
    """Law-independent Ornstein-Uhlenbeck model with a closed-form solution.

    Kernel b(X, Y) = rate * X and sigma = sqrt(2) I, so each coordinate is an
    OU process: mean mean0 * exp(-rate t), variance
    1/rate + (var0 - 1/rate) exp(-2 rate t).
    """
    if rate <= 0:
        raise ValidationError("rate must be positive")
    r = float(rate)

    def kernel_eval(X, Y):
        X = np.asarray(X, dtype=np.float64)
        return r * (X + np.zeros_like(np.asarray(Y, dtype=np.float64)))

    return ModelSpec(
        drift=DriftKernel(dim=d, eval=kernel_eval, mean_field=lambda X, points, weights: r * X),
        diffusion=DiffusionSpec.isotropic(d),
        initial_law=InitialLaw.gaussian(np.full(d, float(mean0)), np.eye(d) * float(var0)),
        name=f"linear(rate={r})",
    )


def ou_mean(t: float, mean0: float, rate: float) -> float:
    return mean0 * np.exp(-rate * t)


def ou_variance(t: float, var0: float, rate: float) -> float:
    return 1.0 / rate + (var0 - 1.0 / rate) * np.exp(-2.0 * rate * t)

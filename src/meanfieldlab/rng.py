"""Counter-based Gaussian noise, addressable by (seed, replica, particle, step, coordinate).

Every Brownian increment consumed anywhere in the lab is produced by a
stateless Philox-4x32-10 evaluation at its own key, so the same key always
yields the same value regardless of evaluation order, vectorization width or
thread count.  This is what makes synchronous coupling and replica
parallelism bit-reproducible: the particle system and the nonlinear processes
simply read the *same* keys.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NoiseGrid", "REFERENCE_NAMESPACE", "INIT_STEP"]

# Philox 4x32 round constants (Salmon et al., "Parallel random numbers:
# as easy as 1, 2, 3").
_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = np.uint32(0x9E3779B9)
_W1 = np.uint32(0xBB67AE85)

_U32 = np.uint32
_U64 = np.uint64
_MASK32 = np.uint64(0xFFFFFFFF)

# Step index reserved for initial-condition draws; simulations are validated
# to use strictly fewer steps than this.
INIT_STEP = 0xFFFFFFFE

# Replica ids at or above this value are reserved for reference-flow
# ensembles so their keys never collide with coupled runs.
REFERENCE_NAMESPACE = 1 << 48


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _philox4x32(c0, c1, c2, c3, k0: int, k1: int):
    """Ten Philox rounds on uint32 arrays; returns four uint32 arrays."""
    w0, w1 = int(_W0), int(_W1)
    for r in range(10):
        p0 = _M0 * c0.astype(_U64)
        p1 = _M1 * c2.astype(_U64)
        hi0 = (p0 >> np.uint64(32)).astype(_U32)
        lo0 = (p0 & _MASK32).astype(_U32)
        hi1 = (p1 >> np.uint64(32)).astype(_U32)
        lo1 = (p1 & _MASK32).astype(_U32)
        rk0 = _U32((k0 + r * w0) & 0xFFFFFFFF)
        rk1 = _U32((k1 + r * w1) & 0xFFFFFFFF)
        c0, c1, c2, c3 = hi1 ^ c1 ^ rk0, lo1, hi0 ^ c3 ^ rk1, lo0
    return c0, c1, c2, c3


def _to_unit(hi, lo):
    """Combine two uint32 lanes into a 53-bit uniform in (0, 1)."""
    bits = (hi.astype(_U64) << np.uint64(32)) | lo.astype(_U64)
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0 ** -53)


class NoiseGrid:
    """Deterministic N(0, dt) increments keyed by (seed, replica, particle, step, coordinate).

    The (seed, replica) pair selects the Philox key; (particle, step,
    coordinate-block, channel) fills the 128-bit counter.  Channel 0 carries
    Gaussian draws, channel 1 uniform draws, so initial-condition sampling
    never reuses increment keys.
    """

    def __init__(self, seed: int, replica_id: int = 0, dt: float = 1.0):
        if not 0 <= seed < 2 ** 64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if replica_id < 0:
            raise ValueError("replica_id must be nonnegative")
        self.seed = int(seed)
        self.replica_id = int(replica_id)
        self.dt = float(dt)
        key = _splitmix64(_splitmix64(self.seed) ^ ((self.replica_id * 0xA24BAED4963EE407) & 0xFFFFFFFFFFFFFFFF))
        self._k0 = key & 0xFFFFFFFF
        self._k1 = (key >> 32) & 0xFFFFFFFF

    def _raw_pairs(self, particles, step: int, n_pairs: int, channel: int):
        """Two uniforms in (0,1) per (particle, block) key, shape (n, n_pairs, 2)."""
        particles = np.asarray(particles, dtype=np.int64)
        if np.any(particles < 0) or np.any(particles >= 2 ** 32):
            raise ValueError("particle indices must fit in uint32")
        if not 0 <= step < 2 ** 32:
            raise ValueError("step index must fit in uint32")
        n = particles.shape[0]
        blocks = np.arange(n_pairs, dtype=_U32)
        c0 = np.broadcast_to(particles.astype(_U32)[:, None], (n, n_pairs))
        c1 = np.full((n, n_pairs), _U32(step))
        c2 = np.broadcast_to(blocks[None, :], (n, n_pairs))
        c3 = np.full((n, n_pairs), _U32(channel))
        r0, r1, r2, r3 = _philox4x32(c0, c1, c2, c3, self._k0, self._k1)
        u = np.empty((n, n_pairs, 2))
        u[..., 0] = _to_unit(r0, r1)
        u[..., 1] = _to_unit(r2, r3)
        return u

    def normals(self, particles, step: int, dim: int) -> np.ndarray:
        """Standard normal draws, shape (len(particles), dim), via Box-Muller."""
        if np.isscalar(particles):
            particles = np.arange(int(particles))
        n_pairs = (dim + 1) // 2
        u = self._raw_pairs(particles, step, n_pairs, channel=0)
        radius = np.sqrt(-2.0 * np.log(u[..., 0]))
        angle = 2.0 * np.pi * u[..., 1]
        z = np.empty((u.shape[0], 2 * n_pairs))
        z[:, 0::2] = radius * np.cos(angle)
        z[:, 1::2] = radius * np.sin(angle)
        return z[:, :dim]

    def uniforms(self, particles, step: int, dim: int) -> np.ndarray:
        """Uniform(0,1) draws, shape (len(particles), dim)."""
        if np.isscalar(particles):
            particles = np.arange(int(particles))
        n_pairs = (dim + 1) // 2
        u = self._raw_pairs(particles, step, n_pairs, channel=1)
        return u.reshape(u.shape[0], 2 * n_pairs)[:, :dim]

    def increments(self, particles, step: int, dim: int) -> np.ndarray:
        """Brownian increments N(0, dt), shape (len(particles), dim)."""
        return self.normals(particles, step, dim) * np.sqrt(self.dt)

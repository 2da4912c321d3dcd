"""Counter-based Gaussian noise, addressable by (seed, replica, particle, step, coordinate).

Every Brownian increment consumed anywhere in the lab is produced by a
stateless Philox-4x32-10 evaluation at its own key, so the same key always
yields the same value regardless of evaluation order, vectorization width or
batch width.  This is what makes synchronous coupling and batched replicas
bit-reproducible: the particle system and the nonlinear processes simply read
the *same* keys, and a grid over a vector of replica ids draws, in one call,
exactly what one grid per replica would draw.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NoiseGrid", "REFERENCE_NAMESPACE", "TARGET_NAMESPACE", "INIT_STEP"]

# Philox 4x32 round constants (Salmon et al., "Parallel random numbers:
# as easy as 1, 2, 3").
_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = np.uint32(0x9E3779B9)
_W1 = np.uint32(0xBB67AE85)

_U64 = np.uint64
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

# Step index reserved for initial-condition draws; simulations are validated
# to use strictly fewer steps than this.
INIT_STEP = 0xFFFFFFFE

# Replica ids at or above this value are reserved for reference-flow
# ensembles so their keys never collide with coupled runs.
REFERENCE_NAMESPACE = 1 << 48

# Replica ids of the built-in Gaussian equilibrium target, TARGET_NAMESPACE +
# salt: clear of the reference flows and of the burn-in run at twice
# REFERENCE_NAMESPACE, so the target's keys are drawn nowhere else.
TARGET_NAMESPACE = 3 << 48


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _philox4x32(c0, c1, c2, c3, k0, k1):
    """Ten Philox rounds on arrays of 32-bit words; returns four such arrays.

    Words ride in uint64 lanes (every value stays below 2^32), so a round is
    two multiplies, two shifts, two masks and four XORs, with no dtype
    conversion.  The keys k0, k1 broadcast against the counters, so one call
    evaluates many streams (one key per replica) at once.
    """
    rounds = np.arange(10, dtype=_U64).reshape((10,) + (1,) * np.ndim(k0))
    rk0 = (np.asarray(k0, dtype=_U64) + rounds * _U64(_W0)) & _MASK32
    rk1 = (np.asarray(k1, dtype=_U64) + rounds * _U64(_W1)) & _MASK32
    for r in range(10):
        p0 = _M0 * c0
        p1 = _M1 * c2
        c0, c1, c2, c3 = ((p1 >> _SHIFT32) ^ c1 ^ rk0[r], p1 & _MASK32,
                          (p0 >> _SHIFT32) ^ c3 ^ rk1[r], p0 & _MASK32)
    return c0, c1, c2, c3


def _to_unit(hi, lo):
    """Combine two 32-bit words into a 53-bit uniform in (0, 1)."""
    bits = (hi << _SHIFT32) | lo
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0 ** -53)


class NoiseGrid:
    """Deterministic N(0, dt) increments keyed by (seed, replica, particle, step, coordinate).

    The (seed, replica) pair selects the Philox key; (particle, step,
    coordinate-block, channel) fills the 128-bit counter.  Channel 0 carries
    Gaussian draws, channel 1 uniform draws, so initial-condition sampling
    never reuses increment keys.

    `replica_id` is an integer or a 1-D integer array.  With an array of R
    ids every draw gains a leading replica axis, shape (R, n, dim), and row r
    equals, bit for bit, the draw of NoiseGrid(seed, replica_id[r], dt).
    """

    def __init__(self, seed: int, replica_id=0, dt: float = 1.0):
        if not 0 <= seed < 2 ** 64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        ids = np.asarray(replica_id)
        if ids.ndim > 1 or (ids.ndim == 1 and len(ids) == 0) \
                or not np.issubdtype(ids.dtype, np.integer):
            raise ValueError("replica_id must be an integer or a nonempty 1-D integer array")
        if np.any(ids < 0):
            raise ValueError("replica_id must be nonnegative")
        self.seed = int(seed)
        self.replica_id = int(ids) if ids.ndim == 0 else ids.astype(np.int64)
        self.dt = float(dt)
        base = _splitmix64(self.seed)
        keys = np.array([_splitmix64(base ^ ((int(r) * 0xA24BAED4963EE407) & 0xFFFFFFFFFFFFFFFF))
                         for r in ids.ravel()], dtype=_U64)
        # one key per replica, shaped to broadcast against (particle, block) counters
        keys = keys.reshape(ids.shape + (1, 1)) if ids.ndim else keys[0]
        self._k0 = keys & _MASK32
        self._k1 = keys >> _SHIFT32

    @property
    def batch_shape(self) -> tuple:
        """() for a single replica, (R,) for a vector of R replica ids."""
        return np.shape(self.replica_id)

    def _raw_pairs(self, particles, step: int, n_pairs: int, channel: int):
        """Two uniforms in (0,1) per (particle, block) key, shape batch + (n, n_pairs, 2)."""
        particles = np.asarray(particles, dtype=np.int64)
        if np.any(particles < 0) or np.any(particles >= 2 ** 32):
            raise ValueError("particle indices must fit in uint32")
        if not 0 <= step < 2 ** 32:
            raise ValueError("step index must fit in uint32")
        n = particles.shape[0]
        blocks = np.arange(n_pairs, dtype=_U64)
        c0 = np.broadcast_to(particles.astype(_U64)[:, None], (n, n_pairs))
        c1 = np.full((n, n_pairs), _U64(step))
        c2 = np.broadcast_to(blocks[None, :], (n, n_pairs))
        c3 = np.full((n, n_pairs), _U64(channel))
        r0, r1, r2, r3 = _philox4x32(c0, c1, c2, c3, self._k0, self._k1)
        u = np.empty(self.batch_shape + (n, n_pairs, 2))
        u[..., 0] = _to_unit(r0, r1)
        u[..., 1] = _to_unit(r2, r3)
        return u

    def normals(self, particles, step: int, dim: int) -> np.ndarray:
        """Standard normal draws, shape batch + (len(particles), dim), via Box-Muller."""
        if np.isscalar(particles):
            particles = np.arange(int(particles))
        n_pairs = (dim + 1) // 2
        u = self._raw_pairs(particles, step, n_pairs, channel=0)
        radius = np.sqrt(-2.0 * np.log(u[..., 0]))
        angle = 2.0 * np.pi * u[..., 1]
        z = np.empty(u.shape[:-2] + (2 * n_pairs,))
        z[..., 0::2] = radius * np.cos(angle)
        z[..., 1::2] = radius * np.sin(angle)
        return z[..., :dim]

    def uniforms(self, particles, step: int, dim: int) -> np.ndarray:
        """Uniform(0,1) draws, shape batch + (len(particles), dim)."""
        if np.isscalar(particles):
            particles = np.arange(int(particles))
        n_pairs = (dim + 1) // 2
        u = self._raw_pairs(particles, step, n_pairs, channel=1)
        return u.reshape(u.shape[:-2] + (2 * n_pairs,))[..., :dim]

    def increments(self, particles, step: int, dim: int) -> np.ndarray:
        """Brownian increments N(0, dt), shape batch + (len(particles), dim)."""
        return self.normals(particles, step, dim) * np.sqrt(self.dt)

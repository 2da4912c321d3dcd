"""Counter-based noise, addressable by (seed, replica, particle, step, coordinate).

Every random number in the lab is read from a keyed Philox4x64-10 stream
(Salmon et al., SC'11) run by numpy's compiled `np.random.Philox`.  A value
depends only on its address, never on evaluation order or batch width, so
coupled systems read the *same* normals, and a grid over R replica ids
draws in one call exactly what R one-replica grids would.  A grid draws unit
normals and uniforms only: it knows no time step, and the engine's step loop
scales each step's normals by sqrt(dt) into Brownian increments.

Layout (stream `philox4x64-v3`).  (seed, replica) gives the key `[k, 0]`, k
by splitmix64, and particle i of a d-dimensional draw owns the values
`[d*i, d*(i+1))` of its (key, step, channel) stream.  numpy steps a counter
before it generates, so a generator set to counter c yields block c + 1 first.

- normals (channel 0): value v is value v mod B of block v div B, and block b
  is numpy's ziggurat (`Generator.standard_normal`; Marsaglia & Tsang 2000)
  run from counter `(0, step, 0, b)`.  The ziggurat takes a varying number
  of words per value, so a draw reads the prefix of each block it touches;
  B = 4096 keeps a draw of 2048 particles in d <= 2 to one block.
- uniforms (channel 1): value w is `((x >> 11) + 0.5) * 2^-53`, x word
  w mod 4 of the Philox block at counter `(w div 4 + 1, step, 1, 0)`.

A draw costs one counter set and one compiled call per replica and block.
NEP 19 keeps bit generators stable, not samplers: see `stream_errors`.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["NoiseGrid", "STREAM", "REFERENCE_NAMESPACE", "BURN_IN_NAMESPACE",
           "TARGET_NAMESPACE", "INIT_STEP"]

# Name of the stream layout above.  A run records it, and a manifest written
# under another layout is refused, since its config would rerun to other bytes.
STREAM = "philox4x64-v3"

_BLOCK = 4096  # B, normal values per block
_MASK64 = 0xFFFFFFFFFFFFFFFF
_NORMALS, _UNIFORMS = 0, 1  # channels

# Step index reserved for initial-condition draws; simulations are validated
# to use strictly fewer steps than this.
INIT_STEP = 0xFFFFFFFE

# Replica ids at or above this value are reserved for reference-flow
# ensembles so their keys never collide with coupled runs.
REFERENCE_NAMESPACE = 1 << 48

# Replica id of the burned-in run that stands in for the equilibrium target
# when none is given.
BURN_IN_NAMESPACE = 2 << 48

# Replica ids of the built-in Gaussian equilibrium target, TARGET_NAMESPACE +
# salt: clear of the reference flows and of the burn-in run, so the target's
# keys are drawn nowhere else.
TARGET_NAMESPACE = 3 << 48


def _splitmix64(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _to_unit(words):
    """One 53-bit uniform in (0, 1) per 64-bit word, as a new contiguous array."""
    return np.add(words >> np.uint64(11), 0.5) * 2.0 ** -53  # exact: 53-bit integers


def seed_errors(seed: int) -> list[str]:
    """Why `seed` keys no noise stream: [] if it does."""
    return [] if 0 <= seed < 2 ** 64 else ["seed must be a 64-bit unsigned integer"]


class NoiseGrid:
    """Unit normals and uniforms, keyed by (seed, replica, particle, step, coordinate).

    The (seed, replica) pair selects the Philox key; (step, channel) select
    the stream, and (particle, coordinate) the value in it.  Channel 0 holds
    ziggurat normals in blocks of B values and channel 1 uniforms (see the
    module docstring), so a uniform draw never reuses a normal's values.

    A draw takes a count n, for the particles 0..n-1, or one contiguous
    ascending range of particle indices below 2^32, and gives shape (n, dim).
    A particle's values do not depend on the range it is drawn in, so the
    draw of any other set is the join of contiguous draws.

    `replica_id` is an integer or a 1-D integer array.  With an array of R
    ids every draw gains a leading replica axis, shape (R, n, dim), and row r
    equals, bit for bit, the draw of NoiseGrid(seed, replica_id[r]).
    """

    def __init__(self, seed: int, replica_id=0):
        errs = seed_errors(seed)
        if errs:
            raise ValueError(errs[0])
        ids = np.asarray(replica_id)
        if ids.ndim > 1 or (ids.ndim == 1 and len(ids) == 0) \
                or not np.issubdtype(ids.dtype, np.integer):
            raise ValueError("replica_id must be an integer or a nonempty 1-D integer array")
        if np.any(ids < 0):
            raise ValueError("replica_id must be nonnegative")
        self.seed = int(seed)
        self.replica_id = int(ids) if ids.ndim == 0 else ids.astype(np.int64)
        base = _splitmix64(self.seed)
        keys = [_splitmix64(base ^ ((int(r) * 0xA24BAED4963EE407) & _MASK64))
                for r in ids.ravel()]
        # One bit generator (read raw or by one Generator) and one state per
        # key, set to a counter per draw: building a Philox costs ~40 state
        # sets, and a state of plain lists sets twice as fast as one of arrays.
        self._bitgen = np.random.Philox(key=[keys[0], 0])
        self._gen = np.random.Generator(self._bitgen)
        self._states = [{"bit_generator": "Philox", "state": {"counter": None, "key": [k, 0]},
                         "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0,
                         "uinteger": 0} for k in keys]

    @property
    def batch_shape(self) -> tuple:
        """() for a single replica, (R,) for a vector of R replica ids."""
        return np.shape(self.replica_id)

    def _draw(self, particles, step: int, dim: int, channel: int):
        """Values [dim*i, dim*(i+1)) of the (step, channel) stream for each particle i.

        `particles` is a count n, for the particles 0..n-1, or one contiguous
        ascending range of particle indices; a negative or non-integer count,
        or any other set, is a ValueError.  A count builds no index array.
        The draw reads the values [v0, v1) of the range block by block: a
        normal block from its start (its prefix), a uniform from v0.
        """
        if np.isscalar(particles):
            if not isinstance(particles, (int, np.integer)) or particles < 0:
                raise ValueError(f"a particle count must be a nonnegative integer, "
                                 f"not {particles!r}")
            first, n = 0, int(particles)
        else:
            particles = np.asarray(particles, dtype=np.int64)
            first, n = (int(particles[0]), len(particles)) if len(particles) else (0, 0)
            if not (np.diff(particles) == 1).all():
                raise ValueError("particles must be one contiguous ascending range, "
                                 "such as np.arange(a, b)")
        if not 0 <= step < 2 ** 32:
            raise ValueError("step index must fit in uint32")
        if first < 0 or first + n > 2 ** 32:
            raise ValueError("particle indices must fit in uint32")
        if n == 0:
            return np.empty(self.batch_shape + (0, dim))
        B, raw = _BLOCK, channel == _UNIFORMS
        v0, v1 = dim * first, dim * (first + n)
        # (first value read, stop) per block of the range
        reads = [(max(v0, b * B) if raw else b * B, min(v1, b * B + B))
                 for b in range(v0 // B, (v1 - 1) // B + 1)]

        gen, bitgen = self._gen, self._bitgen
        buf = np.empty((len(self._states), sum(z - a for a, z in reads)),
                       dtype=np.uint64 if raw else float)
        at = 0
        for w0, w1 in reads:
            counter = [w0 // 4, step, channel, 0] if raw else [0, step, channel, w0 // B]
            for row, state in zip(buf[:, at:at + w1 - w0], self._states):
                state["state"]["counter"] = counter
                bitgen.state = state
                if raw:
                    row[:] = bitgen.random_raw(w0 % 4 + w1 - w0)[w0 % 4:]
                else:
                    gen.standard_normal(out=row)
            at += w1 - w0
        buf = _to_unit(buf) if raw else buf

        # a C-contiguous result: numpy may round a reduction over another
        # layout differently, and a replica's bits must not depend on the batch
        head = v0 - reads[0][0]
        out = np.ascontiguousarray(buf[:, head:head + n * dim]).reshape(-1, n, dim)
        return out if self.batch_shape else out[0]

    def normals(self, particles, step: int, dim: int) -> np.ndarray:
        """Standard normal draws, shape batch + (n, dim), by the ziggurat."""
        return self._draw(particles, step, dim, _NORMALS)

    def uniforms(self, particles, step: int, dim: int) -> np.ndarray:
        """Uniform(0,1) draws, shape batch + (n, dim)."""
        return self._draw(particles, step, dim, _UNIFORMS)


# sha256 of the bytes of stream_sample() under this stream
SAMPLE_SHA256 = "7ecd057d9581337afa51806da1223520983b012cb3cfcf1c0d4fb36d2d9b7b7a"


def stream_sample() -> np.ndarray:
    """444 normals across keys, steps, blocks, dims 1-3 and batch widths, flattened.

    The reversed and the gapped particle sets are contiguous draws, reordered
    or joined along the particle axis.
    """
    ids = np.array([0, 9, REFERENCE_NAMESPACE + 3])
    far = NoiseGrid(7, ids[:2])
    draws = [NoiseGrid(2026, ids).normals(96, 0, 1),
             NoiseGrid(2026, 9).normals(np.arange(1330, 1366), 3, 3)[::-1],
             np.concatenate([far.normals([i], INIT_STEP, 2)
                             for i in (4094, 2 ** 32 - 1, 2047, 2048, 5, 11)], axis=1),
             NoiseGrid(5, 2 ** 40).normals(np.arange(4080, 4104), 12, 1)]
    return np.concatenate([d.ravel() for d in draws])


def stream_errors() -> list[str]:
    """Why this numpy does not draw the stream: [] if its sampler gives the pinned sample."""
    if hashlib.sha256(stream_sample().tobytes()).hexdigest() == SAMPLE_SHA256:
        return []
    return [f"numpy {np.__version__}'s standard_normal no longer draws the "
            f"{STREAM} normals (rng.stream_sample moved), so no run would rerun to its bytes"]

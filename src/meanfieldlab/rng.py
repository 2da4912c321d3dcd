"""Counter-based Gaussian noise, addressable by (seed, replica, particle, step, coordinate).

Every Brownian increment consumed anywhere in the lab is read from a keyed
Philox4x64-10 stream (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC'11), evaluated by numpy's compiled `np.random.Philox`, whose
output for a given key and counter NumPy keeps stable (NEP 19).  A value
depends only on its own address, so the same address always yields the same
value regardless of evaluation order, vectorization width or batch width.
This is what makes synchronous coupling and batched replicas
bit-reproducible: the particle system and the nonlinear processes simply read
the *same* values, and a grid over a vector of replica ids draws, in one call,
exactly what one grid per replica would draw.

Layout (stream name `philox4x64-v2`).  The (seed, replica) pair gives the
Philox key `[k, 0]`, k by splitmix64; each (key, step, channel) is one flat
stream of 64-bit words, and stream word w is word w mod 4 of the Philox
block at counter `(w div 4 + 1, step, channel, 0)`.  The `+ 1` is numpy's:
a generator set to counter c steps it before it generates, so it yields
block c + 1 first, and a draw sets c = w div 4 (never a block - 1, which at
0 would borrow from the step word).  A d-dimensional draw gives particle i
the values `[d*i, d*(i+1))` of its stream:

- uniforms (channel 1) take one word per value, `((w >> 11) + 0.5) * 2^-53`;
- normals (channel 0) take one word pair per two values: words 2p and 2p+1
  become uniforms u, v and Box-Muller gives value 2p = r cos(theta) and value
  2p+1 = r sin(theta), with r = sqrt(-2 log u) and theta = 2 pi v.  No draw is
  thrown away, whatever d is.

A contiguous run of particles costs, per replica, one counter set and one
`random_raw` call; a particle set that is not contiguous splits into runs.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = ["NoiseGrid", "STREAM", "REFERENCE_NAMESPACE", "BURN_IN_NAMESPACE",
           "TARGET_NAMESPACE", "INIT_STEP", "SELECT_STEP"]

# Name of the stream layout above.  A run records it, and a manifest written
# under another layout is refused, since its config would rerun to other bytes.
STREAM = "philox4x64-v2"

_MASK64 = 0xFFFFFFFFFFFFFFFF
_NORMALS, _UNIFORMS = 0, 1  # channels

# Step index reserved for initial-condition draws; simulations are validated
# to use strictly fewer steps than this.
INIT_STEP = 0xFFFFFFFE

# Step index of a mixture's component selector, one uniform per particle.  A
# (d+1)-dimensional draw at INIT_STEP would share words with other particles'
# d-dimensional component draws, so the selector reads a stream of its own.
SELECT_STEP = 0xFFFFFFFF

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
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _to_unit(words):
    """One 53-bit uniform in (0, 1) per 64-bit word, as a new contiguous array."""
    u = np.add(words >> np.uint64(11), 0.5)  # exact: the 53-bit integers convert exactly
    u *= 2.0 ** -53
    return u


def _box_muller(words):
    """Word pair p -> values 2p (r cos theta) and 2p+1 (r sin theta); words has even length.

    Every transcendental runs on a contiguous array, so a value's bits do not
    depend on the shape or the strides of the call it came from.
    """
    radius = _to_unit(words[..., 0::2])
    angle = _to_unit(words[..., 1::2])
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle *= 2.0 * np.pi
    cos = np.cos(angle)
    cos *= radius
    np.sin(angle, out=angle)
    angle *= radius
    z = np.empty(words.shape)
    z[..., 0::2] = cos
    z[..., 1::2] = angle
    return z


def seed_errors(seed: int) -> list[str]:
    """Why `seed` keys no noise stream: [] if it does."""
    return [] if 0 <= seed < 2 ** 64 else ["seed must be a 64-bit unsigned integer"]


class NoiseGrid:
    """Deterministic N(0, dt) increments keyed by (seed, replica, particle, step, coordinate).

    The (seed, replica) pair selects the Philox key; (step, channel) select
    the stream, and (particle, coordinate) the value in it (see the module
    docstring).  Channel 0 carries Gaussian draws, channel 1 uniform draws, so
    initial-condition sampling never reuses increment values.

    `replica_id` is an integer or a 1-D integer array.  With an array of R
    ids every draw gains a leading replica axis, shape (R, n, dim), and row r
    equals, bit for bit, the draw of NoiseGrid(seed, replica_id[r], dt).
    """

    def __init__(self, seed: int, replica_id=0, dt: float = 1.0):
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
        self.dt = float(dt)
        base = _splitmix64(self.seed)
        keys = [_splitmix64(base ^ ((int(r) * 0xA24BAED4963EE407) & _MASK64))
                for r in ids.ravel()]
        # One bit generator, and one state per replica key that a draw points
        # at a counter and assigns: building a Philox costs ~40 state sets,
        # and a state of plain lists sets twice as fast as one of arrays.
        self._bitgen = np.random.Philox(key=[keys[0], 0])
        self._states = [{"bit_generator": "Philox", "state": {"counter": None, "key": [k, 0]},
                         "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0,
                         "uinteger": 0} for k in keys]

    @property
    def batch_shape(self) -> tuple:
        """() for a single replica, (R,) for a vector of R replica ids."""
        return np.shape(self.replica_id)

    def _draw(self, particles, step: int, dim: int, channel: int, transform):
        """Values [dim*i, dim*(i+1)) of the (step, channel) stream for each particle i.

        `transform` maps a replica-by-word array to values at the same
        positions.  Word ranges start and end on even words, so a normal
        draw reads whole word pairs.
        """
        if np.isscalar(particles):
            particles = np.arange(int(particles))
        particles = np.asarray(particles, dtype=np.int64)
        if not 0 <= step < 2 ** 32:
            raise ValueError("step index must fit in uint32")
        n = len(particles)
        if n == 0:
            return np.empty(self.batch_shape + (0, dim))
        if particles.min() < 0 or particles.max() >= 2 ** 32:
            raise ValueError("particle indices must fit in uint32")
        ascending = bool((particles[1:] - particles[:-1] == 1).all())
        if ascending:
            firsts, ends = [int(particles[0])], [int(particles[-1]) + 1]
        else:  # split the sorted, distinct particles into contiguous runs
            uniq, inverse = np.unique(particles, return_inverse=True)
            cut = np.flatnonzero(np.diff(uniq) != 1) + 1
            firsts = uniq[np.r_[0, cut]].tolist()
            ends = (uniq[np.r_[cut, len(uniq)] - 1] + 1).tolist()
        starts = [dim * a // 2 * 2 for a in firsts]
        stops = [-(-dim * b // 2) * 2 for b in ends]
        offsets = list(itertools.accumulate((w1 - w0 for w0, w1 in zip(starts, stops)),
                                            initial=0))
        # numpy steps the counter before it generates, so counter (w0 div 4,
        # step, channel, 0) yields the block that holds stream word w0 first
        runs = [([w0 // 4, step, channel, 0], w0 % 4, w1 - w0) for w0, w1 in zip(starts, stops)]
        gen = self._bitgen
        chunks = []
        for state in self._states:
            for counter, skip, count in runs:
                state["state"]["counter"] = counter
                gen.state = state
                chunk = gen.random_raw(skip + count)
                chunks.append(chunk[skip:] if skip else chunk)
        values = transform(np.concatenate(chunks).reshape(len(self._states), -1))

        # a C-contiguous result: numpy may round a reduction over another
        # layout differently, and a replica's bits must not depend on the batch
        if ascending:
            head = dim * firsts[0] - starts[0]
            out = np.ascontiguousarray(values[:, head:head + n * dim]).reshape(-1, n, dim)
        else:
            base = np.repeat(np.subtract(offsets[:-1], starts), np.subtract(ends, firsts))
            first_value = base + dim * uniq
            out = np.take(values, first_value[inverse][:, None] + np.arange(dim), axis=1)
        return out if self.batch_shape else out[0]

    def normals(self, particles, step: int, dim: int) -> np.ndarray:
        """Standard normal draws, shape batch + (len(particles), dim), via Box-Muller."""
        return self._draw(particles, step, dim, _NORMALS, _box_muller)

    def uniforms(self, particles, step: int, dim: int) -> np.ndarray:
        """Uniform(0,1) draws, shape batch + (len(particles), dim)."""
        return self._draw(particles, step, dim, _UNIFORMS, _to_unit)

    def increments(self, particles, step: int, dim: int) -> np.ndarray:
        """Brownian increments N(0, dt), shape batch + (len(particles), dim)."""
        dw = self.normals(particles, step, dim)
        dw *= np.sqrt(self.dt)  # after Box-Muller: scaling the radius would round differently
        return dw

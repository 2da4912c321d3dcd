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

A draw is a count n <= 2^32, the particles 0..n-1: one counter set and one
compiled call per replica and block, each block read from its start.
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
    """Why `seed` keys no noise stream: [] if it is an int or numpy integer in [0, 2^64)."""
    if isinstance(seed, (int, np.integer)) and 0 <= seed < 2 ** 64:
        return []
    return [f"seed must be a 64-bit unsigned integer, not {seed!r}"]


def replica_id_errors(replica_id) -> list[str]:
    """Why `replica_id` keys no grid: [] if it is an integer or a nonempty 1-D integer array,
    with no value below 0."""
    ids = np.asarray(replica_id)
    if ids.ndim > 1 or (ids.ndim == 1 and len(ids) == 0) \
            or not np.issubdtype(ids.dtype, np.integer):
        return [f"replica_id must be an integer or a nonempty 1-D integer array, "
                f"not {replica_id!r}"]
    if np.any(ids < 0):
        return [f"replica_id must be nonnegative, not {replica_id!r}"]
    return []


class NoiseGrid:
    """Unit normals and uniforms, keyed by (seed, replica, particle, step, coordinate).

    The (seed, replica) pair selects the Philox key; (step, channel) select
    the stream, and (particle, coordinate) the value in it.  Channel 0 holds
    ziggurat normals in blocks of B values and channel 1 uniforms (see the
    module docstring), so a uniform draw never reuses a normal's values.

    A draw is a count n <= 2^32, for the particles 0..n-1, of shape (n, dim).
    A particle's values do not depend on n, so any other set of particles is
    a slice of the draw of a count past its largest.

    `replica_id` is an integer or a 1-D integer array.  With an array of R
    ids every draw gains a leading replica axis, shape (R, n, dim), and row r
    equals, bit for bit, the draw of NoiseGrid(seed, replica_id[r]).
    """

    def __init__(self, seed: int, replica_id=0):
        errs = seed_errors(seed) + replica_id_errors(replica_id)
        if errs:
            raise ValueError("; ".join(errs))
        ids = np.asarray(replica_id)
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

    def _draw(self, n, step: int, dim: int, channel: int):
        """Values [0, dim*n) of the (step, channel) stream, dim per particle 0..n-1.

        `n` is an int or numpy integer in [0, 2^32]; anything else, a bool or
        an index array too, is a ValueError that names it, raised before any
        array is built.  The draw reads its values block by block from value
        0: a normal block from its start (its prefix), a uniform block of B
        words.
        """
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not 0 <= n <= 2 ** 32:
            raise ValueError(f"a particle count must be an integer in [0, 2^32], not {n!r}")
        if not 0 <= step < 2 ** 32:
            raise ValueError("step index must fit in uint32")
        B, raw, n = _BLOCK, channel == _UNIFORMS, int(n)
        gen, bitgen = self._gen, self._bitgen
        buf = np.empty((len(self._states), dim * n), dtype=np.uint64 if raw else float)
        for v in range(0, dim * n, B):
            counter = [v // 4, step, channel, 0] if raw else [0, step, channel, v // B]
            for row, state in zip(buf[:, v:v + B], self._states):
                state["state"]["counter"] = counter
                bitgen.state = state
                if raw:
                    row[:] = bitgen.random_raw(len(row))
                else:
                    gen.standard_normal(out=row)
        # a C-contiguous result: numpy may round a reduction over another
        # layout differently, and a replica's bits must not depend on the batch
        out = (_to_unit(buf) if raw else buf).reshape(len(self._states), n, dim)
        return out if self.batch_shape else out[0]

    def normals(self, n, step: int, dim: int) -> np.ndarray:
        """Standard normals of particles 0..n-1, shape batch + (n, dim), by the ziggurat."""
        return self._draw(n, step, dim, _NORMALS)

    def uniforms(self, n, step: int, dim: int) -> np.ndarray:
        """Uniform(0,1) draws of particles 0..n-1, shape batch + (n, dim)."""
        return self._draw(n, step, dim, _UNIFORMS)


# sha256 of the bytes of stream_sample() under this stream
SAMPLE_SHA256 = "689e165b4d51fef6e3580c818a239429bae354049fb1311ebc2362f879e4aa95"


def stream_sample() -> np.ndarray:
    """440 normals across keys, steps, blocks, dims 1-3 and batch widths, flattened.

    Each is a count draw, sliced: reversed, gathered out of order or cut
    from its end along the particle axis.
    """
    ids = np.array([0, 9, REFERENCE_NAMESPACE + 3])
    draws = [NoiseGrid(2026, ids).normals(96, 0, 1),
             NoiseGrid(2026, 9).normals(1366, 3, 3)[1330:][::-1],
             NoiseGrid(7, ids[:2]).normals(4095, INIT_STEP, 2)[:, [4094, 2047, 2048, 5, 11]],
             NoiseGrid(5, 2 ** 40).normals(4104, 12, 1)[4080:]]
    return np.concatenate([d.ravel() for d in draws])


def stream_errors() -> list[str]:
    """Why this numpy does not draw the stream: [] if its sampler gives the pinned sample."""
    if hashlib.sha256(stream_sample().tobytes()).hexdigest() == SAMPLE_SHA256:
        return []
    return [f"numpy {np.__version__}'s standard_normal no longer draws the "
            f"{STREAM} normals (rng.stream_sample moved), so no run would rerun to its bytes"]

import functools
import hashlib
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from meanfieldlab import rng
from meanfieldlab.rng import (BURN_IN_NAMESPACE, INIT_STEP, REFERENCE_NAMESPACE,
                              TARGET_NAMESPACE, NoiseGrid, _splitmix64)


def test_same_key_same_value():
    g = NoiseGrid(seed=123, replica_id=4)
    a = g.normals(8, step=9, dim=3)[7]
    b = g.normals(8, step=9, dim=3)[7]
    assert np.array_equal(a, b)


def test_order_independent():
    g = NoiseGrid(seed=55, replica_id=0)
    block = g.normals(100, step=3, dim=2)
    # each particle as the last of a shorter draw, in reversed order, must
    # reproduce the batch bit-exactly
    for i in reversed(range(100)):
        row = g.normals(i + 1, step=3, dim=2)[i]
        assert np.array_equal(row, block[i])


def test_distinct_keys_distinct_values():
    g = NoiseGrid(seed=1, replica_id=0)
    v = g.normals(1, 0, 1)
    assert not np.array_equal(v, g.normals(2, 0, 1)[1:])
    assert not np.array_equal(v, g.normals(1, 1, 1))
    assert not np.array_equal(v, NoiseGrid(seed=1, replica_id=1).normals(1, 0, 1))
    assert not np.array_equal(v, NoiseGrid(seed=2, replica_id=0).normals(1, 0, 1))


def test_normality_batch():
    g = NoiseGrid(seed=2024, replica_id=0)
    z = g.normals(100_000, step=17, dim=1).ravel()
    assert abs(z.mean()) < 4 / np.sqrt(len(z))
    assert abs(z.std() - 1.0) < 0.01
    assert abs(stats.skew(z)) < 0.03
    assert abs(stats.kurtosis(z)) < 0.06
    # KS against the standard normal; deterministic draw, so no flake
    assert stats.kstest(z, "norm").pvalue > 1e-3


def test_independence_across_keys():
    g = NoiseGrid(seed=77, replica_id=0)
    a = g.normals(50_000, step=0, dim=1).ravel()
    b = g.normals(50_000, step=1, dim=1).ravel()
    c = g.normals(50_001, step=0, dim=1)[1:].ravel()  # shifted particle ids
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.01
    assert abs(np.corrcoef(a, c)[0, 1]) < 0.01


def test_coordinates_within_key_independent():
    g = NoiseGrid(seed=5, replica_id=0)
    z = g.normals(50_000, step=2, dim=4)
    corr = np.corrcoef(z.T)
    off = corr[~np.eye(4, dtype=bool)]
    assert np.max(np.abs(off)) < 0.015


def test_uniforms_in_open_interval():
    g = NoiseGrid(seed=3, replica_id=0)
    u = g.uniforms(10_000, step=0, dim=2)
    assert np.all(u > 0) and np.all(u < 1)
    assert abs(u.mean() - 0.5) < 0.01


def test_uniform_and_normal_channels_disjoint():
    g = NoiseGrid(seed=3, replica_id=0)
    u = g.uniforms(1000, step=0, dim=1).ravel()
    z = g.normals(1000, step=0, dim=1).ravel()
    # same keys, different channels: no functional relation
    assert abs(np.corrcoef(u, z)[0, 1]) < 0.1


def test_bad_keys_rejected():
    with pytest.raises(ValueError):
        NoiseGrid(seed=-1)
    g = NoiseGrid(seed=0)
    with pytest.raises(ValueError):
        g.normals(-1, 0, 1)
    with pytest.raises(ValueError):
        g.normals(1, 2 ** 32, 1)
    with pytest.raises(ValueError):
        g.normals(2 ** 32 + 1, 0, 1)


def _no_arrays(*args, **kwargs):
    raise AssertionError("an array was built before the count was checked")


@pytest.mark.parametrize("draw", ["normals", "uniforms"])
@pytest.mark.parametrize("count", [-3, np.int64(-1), 2.5, 2.0, np.float64(3.0), "4",
                                   np.arange(3), [0, 1], 2 ** 32 + 1, True],
                         ids=["minus-3", "int64-minus-1", "2.5", "2.0", "float64", "str",
                              "index-array", "list", "above-2^32", "bool"])
def test_a_negative_or_non_integer_count_is_refused(draw, count, monkeypatch):
    # refused by name before any array is built, where it once drew 0 rows
    # (a negative count) or truncated (2.5 drew 2); a draw is a count, so a
    # set of particles is no draw, and no count reaches past particle 2^32 - 1;
    # True drew one particle
    grid = NoiseGrid(8, np.array([1, 2]))
    for name in ("asarray", "arange", "empty"):
        monkeypatch.setattr(rng.np, name, _no_arrays)
    with pytest.raises(ValueError, match=re.escape(f"in [0, 2^32], not {count!r}")):
        getattr(grid, draw)(count, 0, 1)


@pytest.mark.parametrize("draw", ["normals", "uniforms"])
def test_a_count_of_zero_is_an_empty_draw(draw):
    assert getattr(NoiseGrid(8, 4), draw)(0, 3, 2).shape == (0, 2)
    assert getattr(NoiseGrid(8, np.array([1, 2])), draw)(np.int64(0), 3, 2).shape == (2, 0, 2)


def test_init_step_reserved():
    g = NoiseGrid(seed=10, replica_id=0)
    a = g.normals(10, INIT_STEP, 1)
    b = g.normals(10, 0, 1)
    assert not np.allclose(a, b)


@pytest.mark.parametrize("draw", ["normals", "uniforms"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_batched_draws_equal_per_replica_draws(draw, dim):
    # non-contiguous, unsorted ids, some in the reference namespace, and a
    # count across the end of block 0
    ids = np.array([9, 2, 40, REFERENCE_NAMESPACE + 3, 0, REFERENCE_NAMESPACE])
    for step in (0, 11, INIT_STEP):
        batch = getattr(NoiseGrid(31, ids), draw)(B + 2, step, dim)
        assert batch.shape == (len(ids), B + 2, dim)
        for r, rid in enumerate(ids):
            one = getattr(NoiseGrid(31, int(rid)), draw)(B + 2, step, dim)
            assert one.shape == (B + 2, dim)
            assert np.array_equal(batch[r], one)


@pytest.mark.parametrize("draw", ["normals", "uniforms"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_draws_are_c_contiguous(draw, dim):
    # the engine writes states into C-ordered arrays row by row, and an
    # elementwise map of a draw keeps its layout: a draw laid out with the
    # replica axis innermost passed every value check but this one
    counts = [12, 1, 4110]  # the last across a block end
    for replica_id in (3, np.array([6, 2, 11, REFERENCE_NAMESPACE + 1])):
        grid = NoiseGrid(73, replica_id)
        for step in (5, INIT_STEP):
            for n in counts:
                out = getattr(grid, draw)(n, step, dim)
                assert out.shape == grid.batch_shape + (n, dim)
                assert out.flags.c_contiguous, (replica_id, step, n)


def test_batched_grid_shapes():
    assert NoiseGrid(1, 4).batch_shape == ()
    g = NoiseGrid(1, np.arange(3, 8))
    assert g.batch_shape == (5,)
    assert g.normals(6, 0, 2).shape == (5, 6, 2)
    assert np.array_equal(NoiseGrid(1, np.array([4])).normals(6, 0, 2)[0],
                          NoiseGrid(1, 4).normals(6, 0, 2))


@pytest.mark.parametrize("seed", [1.5, 1.0, np.float64(2.0), "1"])
def test_a_non_integer_seed_is_refused(seed):
    # NoiseGrid(1.5) once drew seed 1's stream
    assert rng.seed_errors(seed) == [f"seed must be a 64-bit unsigned integer, not {seed!r}"]
    with pytest.raises(ValueError, match=re.escape(f"not {seed!r}")):
        NoiseGrid(seed)


def test_bad_replica_ids_rejected():
    for bad in (-1, np.array([0, -2]), np.zeros((2, 2), dtype=int), np.array([], dtype=int),
                np.array([0.0, 1.0])):
        with pytest.raises(ValueError):
            NoiseGrid(seed=0, replica_id=bad)


def test_noise_namespaces_are_disjoint():
    # coupled replicas, reference flows, the burn-in run and the Gaussian
    # target each own 2^48 replica ids
    starts = [0, REFERENCE_NAMESPACE, BURN_IN_NAMESPACE, TARGET_NAMESPACE]
    assert all(b - a >= REFERENCE_NAMESPACE for a, b in zip(starts, starts[1:]))
    assert TARGET_NAMESPACE + REFERENCE_NAMESPACE <= 2 ** 64
    draws = NoiseGrid(seed=3, replica_id=np.array(starts)).normals(4, 0, 2)
    assert len({row.tobytes() for row in draws}) == len(starts)


# ---------------------------------------------------------------------------
# oracles: the normal channel's block layout read off a fresh numpy generator
# per block, and a pure-Python Philox4x64-10 for the uniform channel


_MASK = 2 ** 64 - 1
B = rng._BLOCK


@functools.lru_cache(maxsize=None)
def _philox4x64(counter, key):
    (c0, c1, c2, c3), (k0, k1) = counter, key
    for _ in range(10):
        p0, p1 = 0xD2E7470EE14C6C93 * c0, 0xCA5A826395121157 * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _MASK, (p0 >> 64) ^ c3 ^ k1, p0 & _MASK
        k0, k1 = (k0 + 0x9E3779B97F4A7C15) & _MASK, (k1 + 0xBB67AE8584CAA73B) & _MASK
    return c0, c1, c2, c3


def _stream_unit(key, step, w):
    """Uniform w of the (key, step) stream: word w mod 4 of block (w div 4 + 1, step, 1, 0)."""
    word = _philox4x64((w // 4 + 1, step, 1, 0), (key, 0))[w % 4]
    return ((word >> 11) + 0.5) * 2.0 ** -53


@functools.lru_cache(maxsize=64)
def _normal_block(key, step, b):
    """Block b of the (key, step) normal stream: the ziggurat from counter (0, step, 0, b)."""
    # a uint64 key: numpy reads a list of Python ints above 2^63 through float64
    bitgen = np.random.Philox(key=np.array([key, 0], dtype=np.uint64), counter=[0, step, 0, b])
    return np.random.Generator(bitgen).standard_normal(B)


def _oracle_draw(seed, replica, draw, particles, step, dim):
    key = _splitmix64(_splitmix64(seed) ^ ((replica * 0xA24BAED4963EE407) & _MASK))
    values = [v for i in particles for v in range(dim * i, dim * (i + 1))]
    if draw == "uniforms":
        z = [_stream_unit(key, step, v) for v in values]
    else:
        z = [_normal_block(key, step, v // B)[v % B] for v in values]
    return np.array(z).reshape(len(particles), dim)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


PARTICLE_SETS = [
    [0, 1, 2, 3, 4],                           # a whole count
    [4, 5, 6, 7, 8, 9, 10],                    # a run from an even particle
    [3, 4, 5, 6, 7],                           # a run from an odd particle
    [7],
    [0],
]


def _block_end_sets(dim):
    """Ranges about the end of block 0, particle B div dim: it straddles it unless dim | B."""
    edge = B // dim
    return [list(range(edge - 2, edge + 3)),  # a run across it
            [edge],                           # the particle at it alone
            list(range(edge + 1, edge + 4))]  # a run just past it


@pytest.mark.parametrize("draw", ["normals", "uniforms"])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("batched", [False, True], ids=["scalar", "batched"])
def test_draws_equal_the_layout_oracle(draw, dim, batched):
    rand = random.Random(f"{draw}-{dim}-{batched}")
    seed = rand.getrandbits(64)
    ids = [rand.getrandbits(48) for _ in range(3)] + [REFERENCE_NAMESPACE + 3] if batched \
        else rand.getrandbits(48)
    grid = NoiseGrid(seed, np.array(ids) if batched else ids)
    for step in (0, rand.randrange(INIT_STEP), INIT_STEP):
        for particles in PARTICLE_SETS + _block_end_sets(dim):
            # the particles as a slice of the draw of a count past the last
            got = getattr(grid, draw)(particles[-1] + 1, step, dim)[..., particles, :]
            want = np.array([_oracle_draw(seed, int(rid), draw, particles, step, dim)
                             for rid in np.atleast_1d(ids)])
            want = want if batched else want[0]
            assert got.shape == want.shape == grid.batch_shape + (len(particles), dim)
            assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_a_draw_is_the_prefix_of_a_longer_draw(dim):
    # the ziggurat reads a varying number of words per value, so a value is
    # addressed only as a prefix of its block: n values must not depend on
    # how many more a draw asks for, across block ends
    grid = NoiseGrid(8, np.array([1, 4, REFERENCE_NAMESPACE]))
    longest = grid.normals(2 * B // dim + 7, 5, dim)
    for n in (1, 2, 5, B // dim, B // dim + 1, 2 * B // dim + 2, 2 * B // dim + 6):
        assert np.array_equal(_bits(grid.normals(n, 5, dim)), _bits(longest[:, :n]))


def test_the_stream_sample_is_pinned():
    # numpy promises stable bit generators, not a stable standard_normal: the
    # sample that `mflab run <manifest>` checks, pinned bit for bit
    sample = rng.stream_sample()
    assert sample.shape == (440,)
    assert hashlib.sha256(sample.tobytes()).hexdigest() == rng.SAMPLE_SHA256 \
        == "689e165b4d51fef6e3580c818a239429bae354049fb1311ebc2362f879e4aa95"
    assert [float(v).hex() for v in sample[[0, 1, 288, 439]]] == [
        "0x1.9616a0099695dp+0", "-0x1.40ce2845799cep-1", "-0x1.3ea084306e392p-1",
        "-0x1.40bcac43b3a0fp-1"]
    assert rng.stream_errors() == []


def test_uniform_bytes_are_those_of_the_previous_stream():
    # the uniform channel kept its layout: sha256 of the same draws under
    # philox4x64-v2, across keys, steps, dims, block ends and batch widths
    # (particle sets out of order or with gaps are slices of count draws)
    ids = np.array([0, 9, REFERENCE_NAMESPACE + 3])
    parts = [NoiseGrid(2026, ids).uniforms(50, 0, 1),
             NoiseGrid(2026, 9).uniforms(2732, 3, 3)[[2730, 2731, 0, 7]],
             NoiseGrid(7, ids[:2]).uniforms(4097, INIT_STEP, 2)[:, [4095, 4096, 11]],
             NoiseGrid(5, 2 ** 40).uniforms(20001, 12, 1)[[6, 5, 4, 3, 8192, 8191, 20000]],
             NoiseGrid(5, 3).uniforms(8400, 1, 5)[8000:]]
    assert hashlib.sha256(b"".join(p.tobytes() for p in parts)).hexdigest() \
        == "e8436054bd84198afe2dbe5eb26a70b1aa2307b7abe3aac2d3a26085be3e0878"


@settings(max_examples=40, deadline=None)
@given(ids=st.lists(st.integers(0, 2 ** 52), min_size=1, max_size=5, unique=True),
       start=st.integers(0, 2 * B) | st.just(B - 1), n=st.integers(1, 12),
       dim=st.integers(1, 4), step=st.sampled_from([0, 5, INIT_STEP]), rand=st.randoms())
def test_draws_do_not_depend_on_order_or_batch(ids, start, n, dim, step, rand):
    # particles start..start+n-1 of one batched call over every replica,
    # against the same draws shuffled: the replicas in another batch order,
    # each particle as the last of its own count draw in another order,
    # joined, and per-replica grids
    full = NoiseGrid(11, np.array(ids)).normals(start + n, step, dim)[:, start:]
    rows, cols = list(range(len(ids))), list(range(n))
    rand.shuffle(rows)
    rand.shuffle(cols)
    grid = NoiseGrid(11, np.array(ids)[rows])
    shuffled = np.concatenate([grid.normals(start + c + 1, step, dim)[:, -1:] for c in cols],
                              axis=1)
    assert np.array_equal(_bits(shuffled), _bits(full[rows][:, cols]))
    for r in rows[:2]:
        grid = NoiseGrid(11, ids[r])
        for c in cols[:3]:
            one = grid.normals(start + c + 1, step, dim)[-1]
            assert np.array_equal(_bits(one), _bits(full[r, c]))

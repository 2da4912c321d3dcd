import numpy as np
import pytest
from scipy import stats

from meanfieldlab.rng import NoiseGrid, INIT_STEP, REFERENCE_NAMESPACE, TARGET_NAMESPACE


def test_same_key_same_value():
    g = NoiseGrid(seed=123, replica_id=4, dt=0.02)
    a = g.normals(np.array([7]), step=9, dim=3)
    b = g.normals(np.array([7]), step=9, dim=3)
    assert np.array_equal(a, b)


def test_order_independent():
    g = NoiseGrid(seed=55, replica_id=0, dt=0.01)
    block = g.normals(np.arange(100), step=3, dim=2)
    # single-key lookups, reversed order, must reproduce the batch bit-exactly
    for i in reversed(range(100)):
        row = g.normals(np.array([i]), step=3, dim=2)[0]
        assert np.array_equal(row, block[i])


def test_distinct_keys_distinct_values():
    g = NoiseGrid(seed=1, replica_id=0)
    v = g.normals(np.array([0]), 0, 1)
    assert not np.array_equal(v, g.normals(np.array([1]), 0, 1))
    assert not np.array_equal(v, g.normals(np.array([0]), 1, 1))
    assert not np.array_equal(v, NoiseGrid(seed=1, replica_id=1).normals(np.array([0]), 0, 1))
    assert not np.array_equal(v, NoiseGrid(seed=2, replica_id=0).normals(np.array([0]), 0, 1))


def test_increment_variance_is_dt():
    dt = 0.03
    g = NoiseGrid(seed=9, replica_id=0, dt=dt)
    dw = g.increments(np.arange(200_000), step=0, dim=1).ravel()
    assert abs(dw.var() - dt) < 3 * dt * np.sqrt(2 / len(dw))


def test_normality_batch():
    g = NoiseGrid(seed=2024, replica_id=0)
    z = g.normals(np.arange(100_000), step=17, dim=1).ravel()
    assert abs(z.mean()) < 4 / np.sqrt(len(z))
    assert abs(z.std() - 1.0) < 0.01
    assert abs(stats.skew(z)) < 0.03
    assert abs(stats.kurtosis(z)) < 0.06
    # KS against the standard normal; deterministic draw, so no flake
    assert stats.kstest(z, "norm").pvalue > 1e-3


def test_independence_across_keys():
    g = NoiseGrid(seed=77, replica_id=0)
    a = g.normals(np.arange(50_000), step=0, dim=1).ravel()
    b = g.normals(np.arange(50_000), step=1, dim=1).ravel()
    c = g.normals(np.arange(1, 50_001), step=0, dim=1).ravel()  # shifted particle ids
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.01
    assert abs(np.corrcoef(a, c)[0, 1]) < 0.01


def test_coordinates_within_key_independent():
    g = NoiseGrid(seed=5, replica_id=0)
    z = g.normals(np.arange(50_000), step=2, dim=4)
    corr = np.corrcoef(z.T)
    off = corr[~np.eye(4, dtype=bool)]
    assert np.max(np.abs(off)) < 0.015


def test_uniforms_in_open_interval():
    g = NoiseGrid(seed=3, replica_id=0)
    u = g.uniforms(np.arange(10_000), step=0, dim=2)
    assert np.all(u > 0) and np.all(u < 1)
    assert abs(u.mean() - 0.5) < 0.01


def test_uniform_and_normal_channels_disjoint():
    g = NoiseGrid(seed=3, replica_id=0)
    u = g.uniforms(np.arange(1000), step=0, dim=1).ravel()
    z = g.normals(np.arange(1000), step=0, dim=1).ravel()
    # same keys, different channels: no functional relation
    assert abs(np.corrcoef(u, z)[0, 1]) < 0.1


def test_bad_keys_rejected():
    with pytest.raises(ValueError):
        NoiseGrid(seed=-1)
    g = NoiseGrid(seed=0)
    with pytest.raises(ValueError):
        g.normals(np.array([-1]), 0, 1)
    with pytest.raises(ValueError):
        g.normals(np.array([0]), 2 ** 32, 1)


def test_init_step_reserved():
    g = NoiseGrid(seed=10, replica_id=0)
    a = g.normals(np.arange(10), INIT_STEP, 1)
    b = g.normals(np.arange(10), 0, 1)
    assert not np.allclose(a, b)


@pytest.mark.parametrize("draw", ["normals", "uniforms", "increments"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_batched_draws_equal_per_replica_draws(draw, dim):
    # non-contiguous, unsorted ids, some in the reference namespace
    ids = np.array([9, 2, 40, REFERENCE_NAMESPACE + 3, 0, REFERENCE_NAMESPACE])
    particles = np.array([5, 0, 17, 3])
    for step in (0, 11, INIT_STEP):
        batch = getattr(NoiseGrid(31, ids, dt=0.04), draw)(particles, step, dim)
        assert batch.shape == (len(ids), len(particles), dim)
        for r, rid in enumerate(ids):
            one = getattr(NoiseGrid(31, int(rid), dt=0.04), draw)(particles, step, dim)
            assert one.shape == (len(particles), dim)
            assert np.array_equal(batch[r], one)


def test_batched_grid_shapes():
    assert NoiseGrid(1, 4).batch_shape == ()
    g = NoiseGrid(1, np.arange(3, 8))
    assert g.batch_shape == (5,)
    assert g.normals(6, 0, 2).shape == (5, 6, 2)
    assert np.array_equal(NoiseGrid(1, np.array([4])).normals(6, 0, 2)[0],
                          NoiseGrid(1, 4).normals(6, 0, 2))


def test_bad_replica_ids_rejected():
    for bad in (-1, np.array([0, -2]), np.zeros((2, 2), dtype=int), np.array([], dtype=int),
                np.array([0.0, 1.0])):
        with pytest.raises(ValueError):
            NoiseGrid(seed=0, replica_id=bad)


def test_noise_namespaces_are_disjoint():
    # coupled replicas, reference flows, the burn-in run (at twice the
    # reference namespace) and the Gaussian target each own 2^48 replica ids
    starts = [0, REFERENCE_NAMESPACE, 2 * REFERENCE_NAMESPACE, TARGET_NAMESPACE]
    assert all(b - a >= REFERENCE_NAMESPACE for a, b in zip(starts, starts[1:]))
    assert TARGET_NAMESPACE + REFERENCE_NAMESPACE <= 2 ** 64
    draws = NoiseGrid(seed=3, replica_id=np.array(starts)).normals(np.arange(4), 0, 2)
    assert len({row.tobytes() for row in draws}) == len(starts)

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meanfieldlab import (DiffusionSpec, InitialLaw, Observable, ValidationError,
                          granular_media_model, linear_test_model, ou_mean, ou_variance,
                          power_potential, quadratic_potential, vlasov_fokker_planck_model,
                          zero_potential)
from meanfieldlab import models
from meanfieldlab.config import parse_config
from meanfieldlab.models import DriftKernel, Potential, mean_field_batch
from meanfieldlab.rng import NoiseGrid
from meanfieldlab.runner import run


def _fd_grad(value, z, h=1e-6):
    z = np.asarray(z, dtype=np.float64)
    g = np.zeros_like(z)
    for c in range(len(z)):
        step = h * (1 + abs(z[c]))
        up, dn = z.copy(), z.copy()
        up[c] += step
        dn[c] -= step
        g[c] = (value(up) - value(dn)) / (2 * step)
    return g


# ---------------------------------------------------------------------------
# the pairwise mean-field drift b[X, p] = integral of b(X, Y) dp(Y)


def _drift_at(kernel, x, points, weights=None):
    """The pairwise average of b(x, .) over the points, for one state x."""
    points = np.asarray(points, dtype=np.float64)
    if weights is None:
        weights = np.full(len(points), 1.0 / len(points))
    return models._pairwise_average(kernel, np.array([x], dtype=np.float64), points,
                                    np.asarray(weights, dtype=np.float64))[0]


def test_mean_field_drift_symmetry():
    k = DriftKernel(dim=1, eval=lambda x, y: x - y)
    assert _drift_at(k, [0.0], [[0.0]]) == pytest.approx(0.0)


def test_mean_field_drift_mean_cancellation():
    k = DriftKernel(dim=1, eval=lambda x, y: x - y)
    assert _drift_at(k, [1.0], [[0.0], [2.0]], [0.5, 0.5])[0] == pytest.approx(0.0, abs=1e-15)


def test_mean_field_drift_cubic_gradient():
    # grad of W(z) = |z|^3 in 1D is 3|z| z; oracle: finite differences of |z|^3
    k = DriftKernel(dim=1, eval=lambda x, y: 3 * np.abs(x - y) * (x - y))
    got = _drift_at(k, [1.0], [[0.0]])[0]
    fd = _fd_grad(lambda z: abs(z[0]) ** 3, [1.0])[0]
    assert got == pytest.approx(3.0)
    assert got == pytest.approx(fd, rel=1e-6)


def test_mean_field_drift_linear_in_measure():
    k = DriftKernel(dim=1, eval=lambda x, y: np.sin(x - y) + y ** 2)
    rng = np.random.default_rng(0)
    a = rng.normal(size=(8, 1))
    b = rng.normal(size=(8, 1))
    half_a = _drift_at(k, [0.3], a)
    half_b = _drift_at(k, [0.3], b)
    whole = _drift_at(k, [0.3], np.vstack([a, b]), np.full(16, 1 / 16))
    assert np.all(np.abs(whole - 0.5 * (half_a + half_b)) < 1e-12)


# ---------------------------------------------------------------------------
# granular media family


def test_granular_no_interaction_is_ou():
    m = granular_media_model(quadratic_potential(1.0), zero_potential(), 1)
    v = np.array([1.7])
    assert m.drift.eval(v, np.array([99.0]))[0] == pytest.approx(1.7)


def test_granular_quadratic_interaction_kernel():
    m = granular_media_model(zero_potential(), quadratic_potential(1.0), 1)
    assert m.drift.eval(np.array([2.0]), np.array([0.5]))[0] == pytest.approx(1.5)


def test_granular_cubic_kernel_matches_finite_differences():
    m = granular_media_model(quadratic_potential(1.0), power_potential(3.0), 1)
    for v, w in [(1.0, 0.0), (-0.7, 0.4), (2.0, -1.0)]:
        got = m.drift.eval(np.array([v]), np.array([w]))[0]
        expect = v + 3 * abs(v - w) * (v - w)
        fd = v + _fd_grad(lambda z: abs(z[0]) ** 3, [v - w])[0]
        assert got == pytest.approx(expect)
        assert got == pytest.approx(fd, rel=1e-5)
    assert m.drift.taming_exponent == 1.0


def test_granular_rejects_odd_interaction():
    odd = Potential(value=lambda z: np.asarray(z)[..., 0] ** 3,
                    grad=lambda z: 3 * np.asarray(z) ** 2,
                    grad_lipschitz=None, name="odd")
    with pytest.raises(ValidationError):
        granular_media_model(quadratic_potential(1.0), odd, 1)


def test_gradient_oracle_validation_catches_sign_error():
    wrong = Potential(value=lambda z: 0.5 * np.sum(np.asarray(z) ** 2, axis=-1),
                      grad=lambda z: -np.asarray(z),  # inverted sign
                      grad_lipschitz=1.0, name="bad")
    with pytest.raises(ValidationError):
        granular_media_model(wrong, zero_potential(), 1)


def test_interaction_gradient_antisymmetry():
    rng = np.random.default_rng(4)
    for W in (quadratic_potential(0.7), power_potential(3.0), power_potential(4.0, 0.2)):
        z = rng.normal(size=(200, 2))
        assert np.array_equal(W.grad(-z), -np.asarray(W.grad(z)))


def _same_bits(a, b):
    """Equal element for element down to the sign of zero."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _old_power_grad(p, c):
    """The power gradient as written before it was computed in place."""
    return lambda z: c * p * np.linalg.norm(z, axis=-1, keepdims=True) ** (p - 2) * z


def _awkward_points(rng, d):
    """Rows that stress the power gradient: signed zeros, subnormal squares,
    duplicates, and clouds displaced far from the origin."""
    rows = [np.zeros(d), np.full(d, -0.0), np.array([0.0, -0.0][:d]), np.array([-0.0, 0.0][:d]),
            np.full(d, 1e-160), np.full(d, -3e-161), np.array([1e-160, -0.0][:d]),
            np.full(d, 1.0), np.full(d, 1.0)]
    cloud = [np.array(rows), rng.normal(size=(24, d)), 3.0 + rng.normal(size=(24, d)),
             1e3 + rng.normal(size=(24, d)), 1e-160 * rng.normal(size=(8, d))]
    return np.vstack(cloud)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0])
def test_power_gradient_and_granular_kernel_equal_the_old_expressions(p, d):
    rng = np.random.default_rng(int(10 * p) + d)
    c = 0.7
    W = power_potential(p, c)
    z = _awkward_points(rng, d)
    assert _same_bits(W.grad(z), _old_power_grad(p, c)(z))

    V = quadratic_potential(1.3)
    kernel = granular_media_model(V, W, d, validate=False).drift
    # x equal to a cloud point, duplicates in the cloud, and both far from 0
    X = np.vstack([z[::3], z[:4]])[:, None, :]
    Y = z[None, :, :]
    assert _same_bits(kernel.eval(X, Y), V.grad(X) + _old_power_grad(p, c)(X - Y))


@pytest.mark.parametrize("d", [1, 2])
def test_pairwise_drift_does_not_depend_on_block_width(d, monkeypatch):
    # a non-integer power: the 1-D integer powers take the prefix-moment path
    kernel = granular_media_model(quadratic_potential(1.0), power_potential(2.5), d).drift
    assert kernel.mean_field is None
    rng = np.random.default_rng(40 + d)
    n, m, R = 151, 301, 3
    w = rng.uniform(0.5, 1.5, size=m)
    w /= w.sum()
    X2 = rng.normal(size=(n, d))
    XR = rng.normal(size=(R, n, d))
    shared = 1.0 + rng.normal(size=(m, d))
    per_replica = rng.normal(size=(R, m, d))
    cases = [(X2, shared), (XR, shared), (XR, per_replica)]
    default = models._PAIRWISE_CHUNK
    assert default < n * m  # the default splits the 2-D case into blocks
    results = {}
    for width in (1, 1000, default, 4_000_000):
        monkeypatch.setattr(models, "_PAIRWISE_CHUNK", width)
        results[width] = [mean_field_batch(kernel, X, pts, w) for X, pts in cases]
    base = results.pop(4_000_000)
    for width, got in results.items():
        for g, b in zip(got, base):
            assert _same_bits(g, b), width


def test_pairwise_drift_stays_in_cache_sized_blocks():
    kernel = granular_media_model(quadratic_potential(1.0), power_potential(2.5), 1).drift
    assert kernel.taming_exponent > 0 and kernel.mean_field is None
    rng = np.random.default_rng(3)
    X = rng.normal(size=(1024, 1))
    cloud = rng.normal(size=(1024, 1))
    w = np.full(1024, 1 / 1024)
    tracemalloc.start()
    try:
        mean_field_batch(kernel, X, cloud, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak


# ---------------------------------------------------------------------------
# prefix-moment drift of 1-D integer powers against the pairwise oracle


def test_only_integer_powers_above_2_carry_the_marker():
    assert power_potential(3.0).integer_power == (3, 1.0)
    assert power_potential(4.0, 0.2).integer_power == (4, 0.2)
    assert power_potential(2.0).integer_power is None  # the linear-gradient mean covers it
    assert power_potential(2.5).integer_power is None
    assert quadratic_potential(1.0).integer_power is None
    for d, fast in ((1, True), (2, False)):
        kernel = granular_media_model(quadratic_potential(1.0), power_potential(3.0), d).drift
        assert (kernel.mean_field is not None) is fast


def _prefix_kernel(p, c=0.7):
    kernel = granular_media_model(quadratic_potential(1.3), power_potential(p, c), 1,
                                  validate=False).drift
    assert kernel.mean_field is not None
    return kernel


def _tied_cloud(rng, centre, m):
    """A cloud around centre with runs of duplicate points."""
    y = centre + rng.normal(size=(m, 1))
    y[5:9] = y[4]
    y[-3:] = y[0]
    return y


def _assert_matches_oracle(kernel, X, points, w, tol=1e-12):
    fast = kernel.mean_field(X, points, w)
    slow = models._pairwise_average(kernel, X, points, w)
    assert fast.shape == slow.shape
    assert np.max(np.abs(fast - slow)) <= tol * np.max(np.abs(slow))


@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("centre", [0.0, 3.0, 1e3])
@pytest.mark.parametrize("p", [3, 4, 5])
def test_prefix_moment_drift_matches_the_pairwise_oracle(p, centre, uniform):
    rng = np.random.default_rng(100 * p + int(centre) + uniform)
    kernel = _prefix_kernel(p)
    m = 257
    y = _tied_cloud(rng, centre, m)
    w = np.full(m, 1.0 / m) if uniform else rng.uniform(0.1, 2.0, size=m)
    w /= w.sum()
    # fresh states, states equal to cloud points (tied ones included), and
    # states beyond either end of the cloud
    X = np.vstack([centre + rng.normal(size=(64, 1)), y[::7], y[4:6],
                   [[centre - 10.0], [centre + 10.0]]])
    _assert_matches_oracle(kernel, X, y, w)
    _assert_matches_oracle(kernel, y, y, w)  # a state against its own cloud


@pytest.mark.parametrize("p", [3, 4, 5])
def test_prefix_moment_drift_is_a_function_of_the_values_alone(p):
    # a state against its own cloud and against a frozen copy of it (Picard
    # pass 0 and a later pass), and R replicas in one call against R calls
    rng = np.random.default_rng(p)
    kernel = _prefix_kernel(p)
    R, n, m = 4, 33, 65
    XR = 2.0 + rng.normal(size=(R, n, 1))
    XR[:, 3:6] = XR[:, :1]  # ties within a row
    XR[1] = XR[0]           # and a row equal to another
    w_own = np.full(n, 1.0 / n)
    shared = _tied_cloud(rng, 2.0, m)
    per_replica = 2.0 + rng.normal(size=(R, m, 1))
    per_replica[:, :n] = XR  # states equal to points of their own replica's cloud
    w = rng.uniform(0.5, 1.5, size=m)
    w /= w.sum()

    own = kernel.mean_field(XR, XR, w_own)
    assert _same_bits(own, kernel.mean_field(XR, XR.copy(), w_own))
    with_shared = kernel.mean_field(XR, shared, w)
    with_own_replica_cloud = kernel.mean_field(XR, per_replica, w)
    for r in range(R):
        x = XR[r].copy()
        assert _same_bits(own[r], kernel.mean_field(x, x, w_own))
        assert _same_bits(own[r], kernel.mean_field(x, x.copy(), w_own))
        assert _same_bits(with_shared[r], kernel.mean_field(x, shared, w))
        assert _same_bits(with_own_replica_cloud[r], kernel.mean_field(x, per_replica[r], w))
        _assert_matches_oracle(kernel, x, per_replica[r], w)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(p=st.sampled_from([3, 4, 5]), m=st.integers(1, 80), n=st.integers(1, 40),
       shift=st.floats(-1e3, 1e3), spread=st.floats(1e-2, 1e2),
       seed=st.integers(0, 2 ** 32 - 1), uniform=st.booleans(), ties=st.integers(0, 8))
def test_prefix_moment_drift_matches_the_pairwise_oracle_on_random_clouds(
        p, m, n, shift, spread, seed, uniform, ties):
    rng = np.random.default_rng(seed)
    y = shift + spread * rng.normal(size=(m, 1))
    y[rng.integers(0, m, size=ties)] = y[0]
    w = np.full(m, 1.0 / m) if uniform else rng.uniform(0.1, 2.0, size=m)
    w /= w.sum()
    X = np.vstack([shift + spread * rng.normal(size=(n, 1)), y[:ties]])
    _assert_matches_oracle(_prefix_kernel(p), X, y, w)
    # the rows of a batch rank against their own clouds as searchsorted does
    ys = np.sort(np.stack([y[:, 0], y[::-1, 0]]), axis=-1)
    xs = np.stack([X[:, 0], X[::-1, 0]])
    ranks = models._count_at_or_below(ys, xs)
    for r in range(2):
        assert np.array_equal(ranks[r], np.searchsorted(ys[r], xs[r], side="right"))


@pytest.mark.parametrize("p", [3, 4, 5])
def test_self_interaction_counts_come_from_the_one_sort(p, monkeypatch):
    # a state against itself counts its points at or below each row from the
    # runs of equal values of its own sort: the merge's counts, and the
    # average's bits against a copy of the state, with ties, +-inf and nan
    rng = np.random.default_rng(29)
    specials = np.array([-np.inf, np.inf, np.nan, 0.0, -0.0])
    cases = []
    for shape in [(1,), (9,), (4, 9), (2, 3, 17)]:
        for with_specials in (False, True):
            x = rng.normal(size=shape).round(1)  # ties
            if with_specials:
                hit = rng.random(shape) < 0.4
                x[hit] = rng.choice(specials, size=int(hit.sum()))
            cases.append(x)
    merge = models._count_at_or_below
    for x in cases:
        order = np.argsort(x, axis=-1, kind="stable")
        y = np.take_along_axis(x, order, axis=-1)
        assert np.array_equal(models._count_self_at_or_below(y, order), merge(y, x))
        X = x[..., None]
        w = rng.uniform(0.1, 2.0, size=x.shape[-1])
        w /= w.sum()
        want = models._power_law_average(p, 0.7, X, X.copy(), w)
        monkeypatch.setattr(models, "_count_at_or_below", None)  # the merge is not made
        got = models._power_law_average(p, 0.7, X, X, w)
        monkeypatch.setattr(models, "_count_at_or_below", merge)
        assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("dim, pairwise", [(1, False), (2, True)])
def test_cubic_chaos_run_takes_the_prefix_moment_path_in_1d(dim, pairwise, monkeypatch,
                                                             tmp_path):
    calls = []
    original = models._pairwise_average

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(models, "_pairwise_average", counted)
    run(parse_config(f"""
[model]
family = granular_cubic
dim = {dim}
[sim]
dt = 0.05
t_final = 0.2
n_grid = 4, 8
replicas = 3
taming = true
seed = 3
[reference]
m = 128
[output]
plots = false
"""), output_dir=str(tmp_path))
    assert (len(calls) > 0) is pairwise, len(calls)


def test_kernel_lipschitz_sampled():
    # |b(X,Y) - b(X',Y')| <= L (|X-X'| + |Y-Y'|) on 1e4 random quadruples in a
    # bounded box, with L = Lip(grad V) + Lip(grad W) for granular media and
    # the rate for the linear model
    cases = []
    for V, W, d in [(quadratic_potential(1.0), quadratic_potential(1.0), 1),
                    (quadratic_potential(0.5), quadratic_potential(2.0), 2)]:
        cases.append((granular_media_model(V, W, d), V.grad_lipschitz + W.grad_lipschitz))
    cases.append((linear_test_model(1.0, 2), 1.0))
    rng = np.random.default_rng(10)
    for m, L in cases:
        d = m.dim
        X, Xp, Y, Yp = (rng.uniform(-3, 3, size=(10_000, d)) for _ in range(4))
        lhs = np.linalg.norm(m.drift.eval(X, Y) - m.drift.eval(Xp, Yp), axis=1)
        rhs = L * (np.linalg.norm(X - Xp, axis=1) + np.linalg.norm(Y - Yp, axis=1))
        assert np.all(lhs <= rhs + 1e-9)


# ---------------------------------------------------------------------------
# kinetic family


def test_vfp_kinetic_ou_kernel():
    m = vlasov_fokker_planck_model(zero_potential(), A=lambda v: v, B=lambda x: x, d_prime=1)
    out = m.drift.eval(np.array([1.0, 2.0]), np.array([5.0, -3.0]))
    assert out[0] == pytest.approx(-2.0)   # dx/dt block = -(-v) after the global minus
    assert out[1] == pytest.approx(3.0)    # A(v) + B(x) = 2 + 1


def test_vfp_interaction_term():
    m = vlasov_fokker_planck_model(quadratic_potential(1.0), A=lambda v: v, B=lambda x: x,
                                   d_prime=1)
    base = vlasov_fokker_planck_model(zero_potential(), A=lambda v: v, B=lambda x: x, d_prime=1)
    x, y = 1.5, 0.25
    full = m.drift.eval(np.array([x, 0.0]), np.array([y, 9.0]))
    noint = base.drift.eval(np.array([x, 0.0]), np.array([y, 9.0]))
    assert full[1] - noint[1] == pytest.approx(x - y)


def test_vfp_degenerate_diffusion_matrix():
    m = vlasov_fokker_planck_model(zero_potential(), A=lambda v: v, B=lambda x: x, d_prime=1)
    assert m.diffusion.sigma[0, 0] == 0.0
    assert m.diffusion.a[0, 0] == 0.0
    assert m.diffusion.a[1, 1] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# linear test model and diffusion/initial-law plumbing


def test_linear_model_closed_form_values():
    assert ou_mean(1.0, 1.0, 1.0) == pytest.approx(np.exp(-1.0))
    assert ou_variance(0.0, 1.0, 1.0) == pytest.approx(1.0)   # stationary at v0 = 1/rate
    assert ou_variance(50.0, 0.0, 1.0) == pytest.approx(1.0)  # relaxes to 1/rate
    m = linear_test_model(1.0, 1)
    # the drift reads the state alone: two different clouds give the same bits
    X = np.random.default_rng(3).normal(size=(5, 1))
    w = np.full(4, 0.25)
    near = mean_field_batch(m.drift, X, np.zeros((4, 1)), w)
    far = mean_field_batch(m.drift, X, np.arange(4.0)[:, None] * 100.0, w)
    assert np.array_equal(near.view(np.uint64), far.view(np.uint64))
    assert m.drift.eval(np.array([2.0]), np.array([-1.0]))[0] == pytest.approx(2.0)


def test_diffusion_a_is_half_sigma_sigma_t():
    rng = np.random.default_rng(1)
    for _ in range(20):
        sig = rng.normal(size=(3, 3))
        spec = DiffusionSpec(sig)
        assert np.array_equal(spec.a, spec.sigma @ spec.sigma.T / 2.0)


def test_diffusion_rejects_non_square():
    with pytest.raises(ValidationError):
        DiffusionSpec(np.ones((2, 3)))


def test_initial_law_second_moments():
    grid = NoiseGrid(seed=6, replica_id=0)
    laws = {
        InitialLaw.point([1.0, 2.0]): 5.0,
        InitialLaw.gaussian([1.0], [[4.0]]): 5.0,
        InitialLaw.uniform_box([0.0], [1.0]): 1.0 / 3.0,
    }
    laws[InitialLaw.mixture([InitialLaw.point([0.0]), InitialLaw.point([2.0])], [0.5, 0.5])] = 2.0
    for law, m2 in laws.items():
        assert law.second_moment == pytest.approx(m2)
        sample = law.sample(grid, np.arange(200_000 if law.kind != "point" else 10))
        emp = np.mean(np.sum(sample ** 2, axis=1))
        assert emp == pytest.approx(m2, rel=0.02, abs=0.02)


def test_mixture_selector_honors_weights():
    grid = NoiseGrid(seed=8, replica_id=0)
    law = InitialLaw.mixture([InitialLaw.point([-1.0]), InitialLaw.point([1.0])], [0.25, 0.75])
    s = law.sample(grid, np.arange(100_000)).ravel()
    assert np.mean(s > 0) == pytest.approx(0.75, abs=0.01)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_mixture_selector_shares_no_draw_with_its_components(d):
    # A d-dimensional draw gives particle i the values [d*i, d*(i+1)) of the
    # (step, channel) stream, so draws of different widths at one step share
    # values across particles.  Any two draws a mixture makes must read the
    # same values or disjoint ones.
    reads = []

    class Spy(NoiseGrid):
        def normals(self, particles, step, dim):
            reads.append({(0, step, dim * i + c) for i in particles for c in range(dim)})
            return super().normals(particles, step, dim)

        def uniforms(self, particles, step, dim):
            reads.append({(1, step, dim * i + c) for i in particles for c in range(dim)})
            return super().uniforms(particles, step, dim)

    law = InitialLaw.mixture([InitialLaw.uniform_box(np.zeros(d), np.ones(d)),
                              InitialLaw.gaussian(np.zeros(d), np.eye(d))], [0.4, 0.6])
    law.sample(Spy(seed=5, replica_id=0), np.arange(64))
    assert len(reads) == 3
    for a in reads:
        for b in reads:
            assert a == b or not a & b


def test_observable_lipschitz_sample_check():
    obs = Observable(eval=lambda x: np.sin(np.asarray(x)[..., 0]), lipschitz_constant=1.0)
    rng = np.random.default_rng(2)
    a = rng.normal(size=(500, 1))
    b = rng.normal(size=(500, 1))
    quot = np.abs(obs.eval(a) - obs.eval(b)) / np.maximum(np.abs(a - b).ravel(), 1e-12)
    assert np.all(quot <= obs.lipschitz_constant + 1e-9)


def test_initial_laws_sample_a_leading_replica_axis():
    ids = np.array([4, 1, 9])
    laws = [InitialLaw.point([1.0, 2.0]),
            InitialLaw.gaussian([1.0, 0.0], [[2.0, 0.5], [0.5, 1.0]]),
            InitialLaw.uniform_box([0.0, -1.0], [1.0, 3.0]),
            InitialLaw.mixture([InitialLaw.point([0.0, 0.0]),
                                InitialLaw.gaussian([2.0, 2.0], np.eye(2)),
                                InitialLaw.uniform_box([-3.0, -3.0], [-2.0, -2.0])],
                               [0.2, 0.5, 0.3])]
    particles = np.array([3, 0, 8, 5, 1])
    for law in laws:
        batch = law.sample(NoiseGrid(seed=12, replica_id=ids), particles)
        assert batch.shape == (len(ids), len(particles), 2)
        for r, rid in enumerate(ids):
            assert np.array_equal(batch[r], law.sample(NoiseGrid(seed=12, replica_id=int(rid)),
                                                       particles))

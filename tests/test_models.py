import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meanfieldlab import (DiffusionSpec, InitialLaw, Observable, SimConfig, ValidationError,
                          granular_media_model, ou_mean, ou_variance, power_potential,
                          quadratic_potential, simulate_particle_system,
                          vlasov_fokker_planck_model, zero_potential)
from meanfieldlab import models
from meanfieldlab.config import parse_config
from meanfieldlab.models import DriftKernel, Potential, mean_field_batch
from meanfieldlab.rng import NoiseGrid
from meanfieldlab.runner import build_model, run


def _ou_model(rate=1.0, mean0=0.0, var0=1.0, d=1):
    """dX = sqrt(2) dB - rate X dt: granular media with V = rate |x|^2 / 2 and W = 0."""
    return granular_media_model(quadratic_potential(rate), zero_potential(), d,
                                initial_law=InitialLaw.gaussian(np.full(d, mean0), var0))


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


def _drift_at(kernel, x, points):
    """The pairwise average of b(x, .) over the points, for one state x."""
    points = np.asarray(points, dtype=np.float64)
    return models._pairwise_average(kernel, np.array([x], dtype=np.float64), points)[0]


def test_mean_field_drift_symmetry():
    k = DriftKernel(dim=1, eval=lambda x, y: x - y)
    assert _drift_at(k, [0.0], [[0.0]]) == pytest.approx(0.0)


def test_mean_field_drift_mean_cancellation():
    k = DriftKernel(dim=1, eval=lambda x, y: x - y)
    assert _drift_at(k, [1.0], [[0.0], [2.0]])[0] == pytest.approx(0.0, abs=1e-15)


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
    whole = _drift_at(k, [0.3], np.vstack([a, b]))
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
    assert m.drift.superlinear
    assert not granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0),
                                    1).drift.superlinear


def test_granular_rejects_odd_interaction():
    odd = Potential(value=lambda z: np.asarray(z)[..., 0] ** 3,
                    grad=lambda z: 3 * np.asarray(z) ** 2,
                    name="odd")
    with pytest.raises(ValidationError):
        granular_media_model(quadratic_potential(1.0), odd, 1)


def test_gradient_oracle_validation_catches_sign_error():
    wrong = Potential(value=lambda z: 0.5 * np.sum(np.asarray(z) ** 2, axis=-1),
                      grad=lambda z: -np.asarray(z),  # inverted sign
                      name="bad")
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


def _same_bits_or_nan(a, b):
    """_same_bits, except that a nan matches any nan.

    Of two nan operands, numpy's add and multiply pass on the one that the
    vector loop puts first, and that order can depend on where the element
    sits in the row, so a nan's sign is not part of a result.
    """
    nan = np.isnan(a)
    return a.shape == b.shape and np.array_equal(nan, np.isnan(b)) and _same_bits(a[~nan], b[~nan])


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
    kernel = granular_media_model(V, W, d).drift
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
    X2 = rng.normal(size=(n, d))
    XR = rng.normal(size=(R, n, d))
    shared = 1.0 + rng.normal(size=(m, d))
    cases = [(X2, shared), (XR, shared), (XR, XR)]
    default = models._PAIRWISE_CHUNK
    assert default < n * m  # the default splits the 2-D case into blocks
    results = {}
    for width in (1, 1000, default, 4_000_000):
        monkeypatch.setattr(models, "_PAIRWISE_CHUNK", width)
        results[width] = [mean_field_batch(kernel, X, pts) for X, pts in cases]
    base = results.pop(4_000_000)
    for width, got in results.items():
        for g, b in zip(got, base):
            assert _same_bits(g, b), width


def test_pairwise_drift_stays_in_cache_sized_blocks():
    kernel = granular_media_model(quadratic_potential(1.0), power_potential(2.5), 1).drift
    assert kernel.superlinear and kernel.mean_field is None
    rng = np.random.default_rng(3)
    X = rng.normal(size=(1024, 1))
    cloud = rng.normal(size=(1024, 1))
    tracemalloc.start()
    try:
        mean_field_batch(kernel, X, cloud)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak


# ---------------------------------------------------------------------------
# prefix-moment drift of 1-D integer powers against the pairwise oracle


FOREIGN_CLOUD_PATHS = {
    "closed-form-quadratic": lambda: granular_media_model(
        quadratic_potential(1.0), quadratic_potential(1.0), 2).drift,
    "prefix-moment-cubic": lambda: _prefix_kernel(3),
    "pairwise-cubic-2d": lambda: granular_media_model(
        quadratic_potential(1.0), power_potential(3.0), 2).drift,
}


@pytest.mark.parametrize("path", sorted(FOREIGN_CLOUD_PATHS))
def test_a_cloud_per_replica_that_is_not_the_state_is_a_labelled_error(path):
    # the clouds are one (m, d) shared by every replica or the states
    # themselves; the closed form and the pairwise path took another
    # (R, m, d) cloud silently, and the prefix moments raised numpy's error
    kernel = FOREIGN_CLOUD_PATHS[path]()
    assert (kernel.mean_field is None) == (path == "pairwise-cubic-2d")
    rng = np.random.default_rng(8)
    X = rng.normal(size=(3, 4, kernel.dim))
    for states, points in [(X, rng.normal(size=(3, 6, kernel.dim))), (X, X.copy()),
                           (X[0], rng.normal(size=(1, 6, kernel.dim)))]:
        with pytest.raises(ValidationError) as exc:
            mean_field_batch(kernel, states, points)
        assert f"{points.shape}" in str(exc.value) and f"{states.shape}" in str(exc.value)
    assert mean_field_batch(kernel, X, X).shape == X.shape
    assert mean_field_batch(kernel, X, X[1].copy()).shape == X.shape


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
    kernel = granular_media_model(quadratic_potential(1.3), power_potential(p, c), 1).drift
    assert kernel.mean_field is not None
    return kernel


def _tied_cloud(rng, centre, m):
    """A cloud around centre with runs of duplicate points."""
    y = centre + rng.normal(size=(m, 1))
    y[5:9] = y[4]
    y[-3:] = y[0]
    return y


def _assert_matches_oracle(kernel, X, points, tol=1e-12):
    fast = kernel.mean_field(X, points)
    slow = models._pairwise_average(kernel, X, points)
    assert fast.shape == slow.shape
    assert np.max(np.abs(fast - slow)) <= tol * np.max(np.abs(slow))


@pytest.mark.parametrize("replicated", [False, True])
@pytest.mark.parametrize("centre", [0.0, 3.0, 1e3])
@pytest.mark.parametrize("p", [3, 4, 5])
def test_prefix_moment_drift_matches_the_pairwise_oracle(p, centre, replicated):
    rng = np.random.default_rng(100 * p + int(centre) + (not replicated))
    kernel = _prefix_kernel(p)
    m = 257
    y = _tied_cloud(rng, centre, m)
    if replicated:
        # each point repeated 1 to 6 times: the unequal masses k_i / sum(k)
        # of a weighted measure, as a uniform cloud
        y = np.repeat(y, rng.integers(1, 7, size=m), axis=0)
    # fresh states, states equal to cloud points (tied ones included), and
    # states beyond either end of the cloud
    X = np.vstack([centre + rng.normal(size=(64, 1)), y[::7], y[4:6],
                   [[centre - 10.0], [centre + 10.0]]])
    _assert_matches_oracle(kernel, X, y)
    _assert_matches_oracle(kernel, y, y)  # a state against its own cloud


@pytest.mark.parametrize("p", [3, 4, 5])
def test_prefix_moment_drift_is_a_function_of_the_values_alone(p):
    # a state against its own cloud and against a frozen copy of it (Picard
    # pass 0 and a later pass), and R replicas in one call against R calls,
    # against themselves and against one shared cloud
    rng = np.random.default_rng(p)
    kernel = _prefix_kernel(p)
    R, n, m = 4, 33, 65
    XR = 2.0 + rng.normal(size=(R, n, 1))
    XR[:, 3:6] = XR[:, :1]  # ties within a row
    XR[1] = XR[0]           # and a row equal to another
    shared = _tied_cloud(rng, 2.0, m)
    per_replica = 2.0 + rng.normal(size=(R, m, 1))
    per_replica[:, :n] = XR  # states equal to points of their own replica's cloud

    own = kernel.mean_field(XR, XR)
    with_shared = kernel.mean_field(XR, shared)
    for r in range(R):
        x = XR[r].copy()
        assert _same_bits(own[r], kernel.mean_field(x, x))
        assert _same_bits(own[r], kernel.mean_field(x, x.copy()))
        assert _same_bits(with_shared[r], kernel.mean_field(x, shared))
        _assert_matches_oracle(kernel, x, per_replica[r])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(p=st.sampled_from([3, 4, 5]), m=st.integers(1, 80), n=st.integers(1, 40),
       shift=st.floats(-1e3, 1e3), spread=st.floats(1e-2, 1e2),
       seed=st.integers(0, 2 ** 32 - 1), ties=st.integers(0, 8))
def test_prefix_moment_drift_matches_the_pairwise_oracle_on_random_clouds(
        p, m, n, shift, spread, seed, ties):
    rng = np.random.default_rng(seed)
    y = shift + spread * rng.normal(size=(m, 1))
    y[rng.integers(0, m, size=ties)] = y[0]
    X = np.vstack([shift + spread * rng.normal(size=(n, 1)), y[:ties]])
    _assert_matches_oracle(_prefix_kernel(p), X, y)


# The prefix-moment drift as written before a state against itself was
# evaluated in its sort order: the oracle of the bit-for-bit test below.


def _old_count_self_at_or_below(y: np.ndarray, order: np.ndarray) -> np.ndarray:
    """np.searchsorted(y, x, side="right") per row for the cloud x itself, y = x sorted by order.

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


def _old_power_law_average(p: int, c: float, X: np.ndarray, points: np.ndarray,
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
            at = (_old_count_self_at_or_below(y, order) if points is X
                  else np.searchsorted(y, x, side="right"))
            if y.ndim > 1:  # row i of cloud r sits at r (m + 1) + i of the stacked rows
                rows = np.arange(math.prod(y.shape[:-1])).reshape(y.shape[:-1] + (1,))
                at += rows * moments.shape[-2]
            a = 2.0 * np.take(moments.reshape(-1, p), at, axis=0) - a
        u = x - shift
        out = a[..., 0]
        for k in range(1, p):
            out = out * u + a[..., k]
        return out[..., None]


CLOUD_KINDS = ["distinct", "ties", "specials"]


def _cloud_values(rng, shape, kind):
    """Normal values: distinct, rounded into ties, or ties with +-0.0, +-inf and nan."""
    x = 2.0 + rng.normal(size=shape)
    if kind == "distinct":
        return x
    x = x.round(1)
    if kind == "specials":
        hit = rng.random(shape) < 0.3
        x[hit] = rng.choice([-np.inf, np.inf, np.nan, 0.0, -0.0], size=int(hit.sum()))
    return x


def _uniform(m):
    """The masses of a uniform m-point cloud, as the old prefix-moment drift takes them."""
    return np.full(m, 1.0 / m)


@pytest.mark.parametrize("kind", CLOUD_KINDS)
@pytest.mark.parametrize("p", [3, 4, 5])
def test_prefix_moment_drift_has_the_bits_of_the_rank_gather(p, kind):
    # against itself and a shared cloud, for one state, n states and R
    # replicas of n states
    rng = np.random.default_rng([p, 1, CLOUD_KINDS.index(kind)])
    n, m, R = 23, 37, 4
    shared = _cloud_values(rng, (m, 1), kind)
    for shape in [(1, 1), (n, 1), (R, n, 1)]:
        X = _cloud_values(rng, shape, kind)
        for points in (X, shared):
            got = models._power_law_average(p, 0.7, X, points)
            want = _old_power_law_average(p, 0.7, X, points, _uniform(points.shape[-2]))
            # only the specials hold a nan, whose sign may differ
            same = _same_bits_or_nan if kind == "specials" else _same_bits
            assert same(got, want), (shape, kind, points is X)


@pytest.mark.parametrize("kind", ["distinct", "ties"])
@pytest.mark.parametrize("p", [3, 5])
def test_sorted_query_ranks_have_the_bits_of_the_rank_search(p, kind, monkeypatch):
    # states against the one cloud are ranked in each row's sorted order and
    # the ranks scattered back: queries equal to cloud points, repeated in a
    # row and across rows, beyond either end of the cloud, and a nan (a nan
    # in the cloud would make every result nan, whatever the ranks)
    rng = np.random.default_rng([p, CLOUD_KINDS.index(kind)])
    m, R, n = 129, 4, 24
    y = _cloud_values(rng, (m, 1), kind)
    X = 2.0 + rng.normal(size=(R, n, 1))
    X[:, :6] = y[rng.integers(0, m, size=6)]
    X[:, 6:9] = X[:, 6:7]
    X[1, 12:] = X[0, 12:]
    X[2, 9] = np.nan
    X[3, 10:12] = [[-1e3], [1e3]]
    keys = []
    search = np.searchsorted

    def sorted_search(a, v, side):
        keys.append(v)
        return search(a, v, side=side)

    monkeypatch.setattr(models.np, "searchsorted", sorted_search)
    for x in (X, X[2], X[3, 10:11]):
        keys.clear()
        got = models._power_law_average(p, 0.7, x, y)
        [key] = keys  # one search, of each row's queries in sorted order
        assert np.array_equal(key, np.sort(x[..., 0], axis=-1), equal_nan=True)
        assert _same_bits_or_nan(got, _old_power_law_average(p, 0.7, x, y, _uniform(m))), x.shape


@pytest.mark.parametrize("p", [3, 4, 5])
def test_a_tie_in_one_replica_changes_no_other_replicas_bits(p):
    # the tie re-sorts the whole batch stably; the tie-free rows keep the
    # bits of their own default sort
    rng = np.random.default_rng(70 + p)
    R, n = 5, 41
    X = rng.normal(size=(R, n, 1))
    X[2, 7:11] = X[2, 3]
    batch = models._power_law_average(p, 0.7, X, X)
    assert _same_bits(batch, _old_power_law_average(p, 0.7, X, X, _uniform(n)))
    for r in range(R):
        x = X[r].copy()
        assert _same_bits(batch[r], models._power_law_average(p, 0.7, x, x)), r


@pytest.mark.parametrize("p", [3, 4, 5])
def test_self_interaction_counts_come_from_the_one_sort(p, monkeypatch):
    # a state against itself counts its points at or below each row from its
    # own sort, with no searchsorted: the bits of each replica against a
    # copy of its state, without ties and with ties, +-inf and nan
    rng = np.random.default_rng(29)
    specials = np.array([-np.inf, np.inf, np.nan, 0.0, -0.0])
    cases = []
    for shape in [(1,), (9,), (4, 9), (2, 3, 17)]:
        cases.append(rng.normal(size=shape))
        for with_specials in (False, True):
            x = rng.normal(size=shape).round(1)  # ties
            if with_specials:
                hit = rng.random(shape) < 0.4
                x[hit] = rng.choice(specials, size=int(hit.sum()))
            cases.append(x)
    for x in cases:
        X = x[..., None]
        with monkeypatch.context() as patch:
            patch.setattr(models.np, "searchsorted", None)  # no rank is searched
            got = models._power_law_average(p, 0.7, X, X)
        same = _same_bits_or_nan if np.isnan(x).any() else _same_bits
        for r in np.ndindex(X.shape[:-2]):
            assert same(got[r], models._power_law_average(p, 0.7, X[r], X[r].copy())), r


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
    # the rate for the OU model
    cases = [(granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1), 2.0),
             (granular_media_model(quadratic_potential(0.5), quadratic_potential(2.0), 2), 2.5),
             (_ou_model(d=2), 1.0)]
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


def test_a_kinetic_model_tames_a_superlinear_interaction():
    # the kinetic kernel was never marked superlinear, so taming = true left
    # a cubic U's run bit for bit as it was untamed
    cubic = vlasov_fokker_planck_model(power_potential(3.0), A=lambda v: v, B=lambda x: x,
                                       d_prime=1)
    linear = vlasov_fokker_planck_model(quadratic_potential(1.0), A=lambda v: v,
                                        B=lambda x: x, d_prime=1)
    assert cubic.drift.superlinear and not linear.drift.superlinear
    cfg = SimConfig(dt=0.05, t_final=0.5, n_particles=8, seed=2)
    runs = {taming: simulate_particle_system(cubic, replace(cfg, taming=taming)).terminal
            for taming in (False, True)}
    assert not np.array_equal(runs[False], runs[True])


def test_vfp_degenerate_diffusion_matrix():
    m = vlasov_fokker_planck_model(zero_potential(), A=lambda v: v, B=lambda x: x, d_prime=1)
    # noise enters the velocity only
    assert np.array_equal(m.diffusion.sigma, [[0.0, 0.0], [0.0, np.sqrt(2.0)]])


# ---------------------------------------------------------------------------
# OU model and diffusion/initial-law plumbing


def test_linear_model_closed_form_values():
    assert ou_mean(1.0, 1.0, 1.0) == pytest.approx(np.exp(-1.0))
    assert ou_variance(0.0, 1.0, 1.0) == pytest.approx(1.0)   # stationary at v0 = 1/rate
    assert ou_variance(50.0, 0.0, 1.0) == pytest.approx(1.0)  # relaxes to 1/rate
    m = _ou_model()
    # the drift reads the state alone: two different clouds give the same bits
    X = np.random.default_rng(3).normal(size=(5, 1))
    near = mean_field_batch(m.drift, X, np.zeros((4, 1)))
    far = mean_field_batch(m.drift, X, np.arange(4.0)[:, None] * 100.0)
    assert np.array_equal(near.view(np.uint64), far.view(np.uint64))
    assert m.drift.eval(np.array([2.0]), np.array([-1.0]))[0] == pytest.approx(2.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_a_config_without_interaction_runs_as_the_zero_potential_model(dim):
    # w_coeff = 0 builds quadratic_potential(0.0), whose closed-form mean
    # field is that of zero_potential(): the OU process of ou_mean, bit for bit
    cfg = parse_config(f"[model]\nfamily = granular_quadratic\ndim = {dim}\nv_coeff = 0.5\n"
                       "w_coeff = 0\ninit_mean = 1.5\ninit_var = 0.25\n[sim]\nn_grid = 8\n")
    ou = granular_media_model(quadratic_potential(0.5), zero_potential(), dim,
                              initial_law=InitialLaw.gaussian(np.full(dim, 1.5), 0.25))
    sim = SimConfig(dt=0.05, t_final=1.0, n_particles=64, seed=5)
    got = simulate_particle_system(build_model(cfg), sim).states
    assert got.tobytes() == simulate_particle_system(ou, sim).states.tobytes()


@pytest.mark.parametrize("rate, d", [(1.0, 1), (2.0, 1), (0.3, 2), (1.0, 3)])
def test_ou_mean_field_is_the_deleted_kernel_bit_for_bit(rate, d):
    # the retired linear family's closed form was rate * X; W = 0 adds an exact 0
    rng = np.random.default_rng(17)
    m = _ou_model(rate, d=d)
    X = rng.normal(size=(3, 5, d)) * 4.0 + 3.0
    for points in (rng.normal(size=(7, d)), rng.normal(size=(7, d)) * 50.0, X):
        assert _same_bits(mean_field_batch(m.drift, X, points), rate * X)
        assert _same_bits(mean_field_batch(m.drift, X[0], X[0] if points is X else points),
                          rate * X[0])


def test_diffusion_rejects_non_square():
    with pytest.raises(ValidationError):
        DiffusionSpec(np.ones((2, 3)))


def test_specs_with_array_fields_compare_and_hash_by_identity():
    # field-wise == on a 2 x 2 sigma raised "truth value ... is ambiguous"
    m = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 2)
    for spec, twin in [(m.diffusion, DiffusionSpec.isotropic(2)),
                       (m.initial_law, InitialLaw.gaussian(np.zeros(2), np.eye(2)))]:
        assert spec == spec and spec != twin
    assert {m: 1}[m] == 1


def test_initial_law_gaussian_moments():
    # the sample mean and covariance of 200,000 draws match the law's; a zero
    # covariance is the point law, exactly
    grid = NoiseGrid(seed=6, replica_id=0)
    for mean, cov in [([1.0], [[4.0]]),
                      ([1.0, -2.0], [[2.0, 0.5], [0.5, 1.0]]),
                      ([0.0, 3.0, -1.0], [0.5, 1.0, 2.0])]:
        sample = InitialLaw.gaussian(mean, cov).sample(grid, 200_000)
        cov = np.atleast_2d(np.diag(cov) if np.ndim(cov) == 1 else cov)
        assert np.mean(sample, axis=0) == pytest.approx(mean, abs=0.02)
        assert np.atleast_2d(np.cov(sample.T)) == pytest.approx(cov, rel=0.02, abs=0.02)
    point = InitialLaw.gaussian([1.0, 2.0], 0.0).sample(grid, 10)
    assert np.array_equal(point, np.tile([1.0, 2.0], (10, 1)))


_NOT_PD = "covariance must be positive definite, or zero for the point law"


@pytest.mark.parametrize("mean, cov, rule", [
    ([0.0], -1.0, _NOT_PD),                                  # a negative variance
    ([0.0, 0.0], [[1.0, 0.0], [0.0, 0.0]], _NOT_PD),         # singular, not zero
    ([0.0, 0.0], [1.0, -0.5], _NOT_PD),                      # a negative diagonal entry
    ([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]], _NOT_PD),         # indefinite
    # cholesky read the lower triangle alone, and the 0.9 was dropped
    ([0.0, 0.0], [[1.0, 0.9], [0.0, 1.0]], "covariance must be symmetric"),
    ([0.0], np.nan, "mean and covariance must be finite"),   # every sample was nan
    ([np.inf], 1.0, "mean and covariance must be finite"),   # accepted
    ([0.0, 0.0], [1.0, np.inf], "mean and covariance must be finite"),
], ids=["negative-variance", "singular", "negative-diagonal", "indefinite", "asymmetric",
        "nan-variance", "inf-mean", "inf-variance"])
def test_a_covariance_that_is_not_positive_definite_is_a_labelled_error(mean, cov, rule):
    # numpy's cholesky raised its own LinAlgError, which names no rule
    with pytest.raises(ValidationError, match=rule):
        InitialLaw.gaussian(mean, cov)


def test_observable_lipschitz_sample_check():
    obs = Observable(eval=lambda x: np.sin(np.asarray(x)[..., 0]), lipschitz_constant=1.0)
    rng = np.random.default_rng(2)
    a = rng.normal(size=(500, 1))
    b = rng.normal(size=(500, 1))
    quot = np.abs(obs.eval(a) - obs.eval(b)) / np.maximum(np.abs(a - b).ravel(), 1e-12)
    assert np.all(quot <= obs.lipschitz_constant + 1e-9)


def test_initial_laws_sample_a_leading_replica_axis():
    ids = np.array([4, 1, 9])
    laws = [InitialLaw.gaussian([1.0, 2.0], 0.0),
            InitialLaw.gaussian([1.0, 0.0], [[2.0, 0.5], [0.5, 1.0]]),
            InitialLaw.gaussian([0.0, -1.0], [0.3, 2.0])]
    for law in laws:
        batch = law.sample(NoiseGrid(seed=12, replica_id=ids), 8)
        assert batch.shape == (len(ids), 8, 2)
        for r, rid in enumerate(ids):
            assert np.array_equal(batch[r], law.sample(NoiseGrid(seed=12, replica_id=int(rid)), 8))


class _Draws:
    """A stand-in grid whose draw is the normals z given, shape batch + (n, d)."""

    def __init__(self, z):
        self.z = z

    def normals(self, n, step, dim):
        assert (n, dim) == self.z.shape[-2:]
        return self.z.copy()


def _rows_alone(f, z):
    """f on each row of z alone, as one array of z's shape."""
    return np.concatenate([f(np.ascontiguousarray(z[..., i:i + 1, :]))
                           for i in range(z.shape[-2])], axis=-2)


@pytest.mark.parametrize("kind", ["full", "diagonal"])
@pytest.mark.parametrize("d", range(1, 13))
def test_a_row_of_sigma_dw_or_an_initial_state_has_the_bits_of_the_row_alone(d, kind):
    # numpy's matrix product may round a row of a larger product differently
    # from the row alone, as it did here for d = 2 to 12; with a diagonal
    # matrix with zeros (every config-built model's) the bits are the old ones
    rng = np.random.default_rng(100 + d)
    if kind == "full":
        a = rng.normal(size=(d, d)) + 2 * np.eye(d)
    else:
        a = np.diag(rng.uniform(0.5, 2.0, d) * (np.arange(d) % 3 != 1))
    law, diffusion = InitialLaw(np.full(d, -0.0), a), DiffusionSpec(a)
    for n in (1, 2, 7, 64):
        for batch in ((), (3,)):
            z = rng.normal(size=batch + (n, d))
            states = law.sample(_Draws(z), n)
            noise = diffusion.apply(z)
            assert states.tobytes() == _rows_alone(lambda r: law.sample(_Draws(r), 1),
                                                   z).tobytes()
            assert noise.tobytes() == _rows_alone(diffusion.apply, z).tobytes()
            assert np.allclose(states, z @ a.T, rtol=1e-13, atol=1e-13)
            assert np.allclose(noise, z @ a.T, rtol=1e-13, atol=1e-13)
            if kind == "diagonal":  # a mean of -0.0 keeps the product's bits
                assert states.tobytes() == (law.mean + z @ a.T).tobytes()
                assert noise.tobytes() == (z * np.diag(a)).tobytes()


@pytest.mark.parametrize("dim, rule", [(1.5, "kernel dim must be an integer, not 1.5"),
                                       (np.float64(2.0), "kernel dim must be an integer"),
                                       (0, "kernel dim must be >= 1, not 0"),
                                       (True, "kernel dim must be an integer, not True")],
                         ids=["float", "numpy-float", "zero", "bool"])
def test_a_kernel_dimension_must_be_an_integer_of_at_least_one(dim, rule):
    # DriftKernel(dim=1.5) once constructed
    with pytest.raises(ValidationError, match=rule):
        DriftKernel(dim=dim, eval=lambda x, y: x - y)

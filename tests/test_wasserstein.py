import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meanfieldlab import (EmpiricalMeasure, Observable, ValidationError,
                          kr_dual_lower_bound, quantile_dual_family, sample_w1,
                          sample_w2, wasserstein_1d, wasserstein_assignment)
from meanfieldlab.wasserstein import sample_wasserstein, wasserstein_1d_rows


def _brute_force_permutation(p, xs, ys):
    """Exact W_p for equal-size uniform clouds by enumerating all assignments."""
    xs, ys = np.atleast_2d(xs), np.atleast_2d(ys)
    n = len(xs)
    best = np.inf
    for perm in itertools.permutations(range(n)):
        cost = np.mean(np.linalg.norm(xs - ys[list(perm)], axis=1) ** p)
        best = min(best, cost)
    return best ** (1.0 / p)


def _brute_force_two_atom(p, x, wx, y, wy):
    """Exact W_p between two 2-atom measures on the line by sweeping the coupling.

    With marginals (wx, 1-wx) and (wy, 1-wy), the coupling has one free
    parameter: the mass t sent from atom 0 to atom 0.
    """
    lo = max(0.0, wx + wy - 1.0)
    hi = min(wx, wy)
    best = np.inf
    for t in np.linspace(lo, hi, 20001):
        mass = np.array([t, wx - t, wy - t, 1.0 - wx - wy + t])
        gaps = np.abs(np.array([x[0] - y[0], x[0] - y[1], x[1] - y[0], x[1] - y[1]]))
        best = min(best, float(mass @ gaps ** p))
    return best ** (1.0 / p)


def _measure(pts, w=None):
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    if pts.shape[0] == 1 and pts.shape[1] > 1:
        pts = pts.T
    return EmpiricalMeasure(pts, w) if w is not None else EmpiricalMeasure.uniform(pts)


# ---------------------------------------------------------------------------
# known closed-form cases


@pytest.mark.parametrize("weights", [[np.nan, 1.0], [np.inf, -np.inf], [0.5, np.nan]])
def test_empirical_measure_refuses_non_finite_weights(weights):
    # nan < 0 and |nan - 1| > tol are both False, so a nan weight passed both checks
    with pytest.raises(ValidationError, match="weights must be finite"):
        EmpiricalMeasure([[0.0], [1.0]], weights)


@pytest.mark.parametrize("points", [[], np.empty((0, 2)), np.empty((3, 0))])
def test_empirical_measure_refuses_an_empty_cloud(points):
    # uniform() divided by the number of points first, a ZeroDivisionError
    for build in (EmpiricalMeasure, EmpiricalMeasure.uniform):
        with pytest.raises(ValidationError, match="at least one support point"):
            build(points)


@pytest.mark.parametrize("points", [[[np.nan], [1.0]], [[0.0, 1.0], [np.inf, 2.0]],
                                    [[-np.inf]]])
def test_empirical_measure_refuses_non_finite_points(points):
    # a nan point used to build, and wasserstein_1d then returned a nan cost
    # with a plan in numpy's nan-last sort order
    with pytest.raises(ValidationError, match="support points must be finite"):
        EmpiricalMeasure(points)
    with pytest.raises(ValidationError, match="support points must be finite"):
        EmpiricalMeasure.uniform(points)


def test_two_diracs():
    mu, nu = _measure([0.0]), _measure([3.0])
    assert wasserstein_1d(1, mu, nu).cost == pytest.approx(3.0)
    assert wasserstein_1d(2, mu, nu).cost == pytest.approx(3.0)


def test_translated_pair_cost_is_shift():
    mu = _measure([0.0, 1.0])
    nu = _measure([2.0, 3.0])
    assert wasserstein_1d(2, mu, nu).cost == pytest.approx(2.0)
    assert wasserstein_1d(1, mu, nu).cost == pytest.approx(2.0)


def test_unequal_weights_mass_split():
    # mu = delta_0, nu = 1/2 delta_0 + 1/2 delta_2: W_1 = 1, W_2 = sqrt(2)
    mu = _measure([0.0])
    nu = _measure([0.0, 2.0], [0.5, 0.5])
    assert wasserstein_1d(1, mu, nu).cost == pytest.approx(1.0)
    assert wasserstein_1d(2, mu, nu).cost == pytest.approx(np.sqrt(2.0))


def test_w1_equals_cdf_area():
    # W_1 on the line equals the L1 distance between the CDFs
    rng = np.random.default_rng(0)
    for _ in range(20):
        xs = np.sort(rng.normal(size=7))
        ys = np.sort(rng.normal(size=5))
        wx = rng.dirichlet(np.ones(7))
        wy = rng.dirichlet(np.ones(5))
        mu, nu = _measure(xs.reshape(-1, 1), wx), _measure(ys.reshape(-1, 1), wy)
        grid = np.linspace(min(xs.min(), ys.min()) - 1, max(xs.max(), ys.max()) + 1, 40001)
        Fx = (wx[None, :] * (xs[None, :] <= grid[:, None])).sum(axis=1)
        Fy = (wy[None, :] * (ys[None, :] <= grid[:, None])).sum(axis=1)
        area = np.trapezoid(np.abs(Fx - Fy), grid)
        assert wasserstein_1d(1, mu, nu).cost == pytest.approx(area, abs=2e-3)


# ---------------------------------------------------------------------------
# brute-force oracles


def test_quantile_solver_vs_permutation_oracle_1d():
    rng = np.random.default_rng(1)
    for n in (2, 3, 4, 5, 6):
        for p in (1, 2):
            xs = rng.normal(size=(n, 1))
            ys = rng.normal(size=(n, 1))
            got = wasserstein_1d(p, _measure(xs), _measure(ys)).cost
            assert got == pytest.approx(_brute_force_permutation(p, xs, ys), abs=1e-9)


def test_assignment_solver_vs_permutation_oracle_2d():
    rng = np.random.default_rng(2)
    for n in (2, 3, 4, 5, 6):
        for p in (1, 2):
            xs = rng.normal(size=(n, 2))
            ys = rng.normal(size=(n, 2))
            got = wasserstein_assignment(p, _measure(xs), _measure(ys)).cost
            assert got == pytest.approx(_brute_force_permutation(p, xs, ys), abs=1e-9)


def _uncentred_w2_assignment(a, b):
    """W_2 and its permutation from the assignment of the original squared costs."""
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    costs = cdist(a, b, metric="sqeuclidean")
    rows, cols = linear_sum_assignment(costs)
    return (float(costs[rows, cols].sum()) / len(a)) ** 0.5, cols


def _centring_case(rng, kind, n, d):
    """Two n-point clouds in R^d; the optimum is unique but for the duplicates."""
    a = rng.normal(size=(n, d))
    if kind == "shifted":
        return a, rng.normal(size=(n, d)) + 3.0
    if kind == "scaled":
        return 10.0 * a - 40.0, 0.1 * rng.normal(size=(n, d)) + 100.0
    if kind == "translated":
        return a, a + rng.normal(size=d) * 5.0
    b = rng.normal(size=(n, d)) + 3.0  # duplicates: every point of a twice, some of b
    a[n // 2:] = a[:n - n // 2]
    b[1::3] = b[0]
    return a, b


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", ["shifted", "scaled", "translated", "duplicates"])
def test_w2_assignment_on_centred_clouds_is_the_uncentred_solve(kind, d):
    # W_2's cost matrix and that of the mean-centred clouds differ by terms
    # of one index, so both have the same optimal permutations: where the
    # optimum is unique the permutation and the cost bits are equal, and
    # where it is not the cost is equal to rounding
    rng = np.random.default_rng([d, len(kind)])
    for n in (2, 3, 5, 17, 64, 256, 512):
        a, b = _centring_case(rng, kind, n, d)
        got = wasserstein_assignment(2, _measure(a), _measure(b))
        cost, cols = _uncentred_w2_assignment(a, b)
        assert np.array_equal(got.plan[:, 0], np.arange(n))
        if kind == "duplicates":
            assert abs(got.cost - cost) <= 1e-12 * cost, n
            assert sorted(got.plan[:, 1]) == list(range(n))
        else:
            assert np.array_equal(got.plan[:, 1], cols), n
            assert got.cost == cost, n
        if kind == "translated":
            assert np.array_equal(cols, np.arange(n))


def test_quantile_solver_vs_two_atom_coupling_sweep():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.normal(size=2)
        y = rng.normal(size=2)
        wx = rng.uniform(0.1, 0.9)
        wy = rng.uniform(0.1, 0.9)
        for p in (1, 2):
            got = wasserstein_1d(p, _measure(x.reshape(-1, 1), [wx, 1 - wx]),
                                 _measure(y.reshape(-1, 1), [wy, 1 - wy])).cost
            oracle = _brute_force_two_atom(p, x, wx, y, wy)
            assert got <= oracle + 1e-9
            assert got == pytest.approx(oracle, abs=1e-4)  # sweep resolution limit


def test_cross_solver_agreement_1d():
    # two independent exact solvers must coincide on equal-size 1D clouds
    rng = np.random.default_rng(4)
    for _ in range(20):
        xs = rng.normal(size=(40, 1))
        ys = rng.normal(size=(40, 1))
        for p in (1, 2):
            q = wasserstein_1d(p, _measure(xs), _measure(ys)).cost
            a = wasserstein_assignment(p, _measure(xs), _measure(ys)).cost
            assert q == pytest.approx(a, abs=1e-9)


# ---------------------------------------------------------------------------
# metric axioms and structural properties


def test_metric_axioms():
    rng = np.random.default_rng(5)
    for p in (1, 2):
        for _ in range(10):
            a = _measure(rng.normal(size=(12, 1)))
            b = _measure(rng.normal(size=(12, 1)))
            c = _measure(rng.normal(size=(12, 1)))
            dab = wasserstein_1d(p, a, b).cost
            dba = wasserstein_1d(p, b, a).cost
            dbc = wasserstein_1d(p, b, c).cost
            dac = wasserstein_1d(p, a, c).cost
            assert wasserstein_1d(p, a, a).cost == pytest.approx(0.0, abs=1e-12)
            assert dab == pytest.approx(dba, abs=1e-9)
            assert dac <= dab + dbc + 1e-9
            assert dab >= 0.0


def test_w1_below_w2():
    rng = np.random.default_rng(6)
    for _ in range(10):
        a = _measure(rng.normal(size=(30, 1)))
        b = _measure(rng.normal(size=(30, 1)))
        assert wasserstein_1d(1, a, b).cost <= wasserstein_1d(2, a, b).cost + 1e-12
        c = _measure(rng.normal(size=(10, 3)))
        d = _measure(rng.normal(size=(10, 3)))
        assert wasserstein_assignment(1, c, d).cost <= wasserstein_assignment(2, c, d).cost + 1e-12


def test_translation_covariance():
    rng = np.random.default_rng(7)
    xs = rng.normal(size=(25, 1))
    ys = rng.normal(size=(25, 1))
    base = wasserstein_1d(2, _measure(xs), _measure(ys)).cost
    shifted = wasserstein_1d(2, _measure(xs + 5.0), _measure(ys + 5.0)).cost
    assert shifted == pytest.approx(base, abs=1e-12)
    # shifting one measure by h changes W_p by at most |h|
    moved = wasserstein_1d(2, _measure(xs + 0.3), _measure(ys)).cost
    assert abs(moved - base) <= 0.3 + 1e-12


def test_plan_marginals_and_cost_consistency():
    rng = np.random.default_rng(8)
    xs = rng.normal(size=(6, 1))
    ys = rng.normal(size=(9, 1))
    wx = rng.dirichlet(np.ones(6))
    wy = rng.dirichlet(np.ones(9))
    mu, nu = _measure(xs, wx), _measure(ys, wy)
    for p in (1, 2):
        res = wasserstein_1d(p, mu, nu)
        src = res.plan[:, 0].astype(int)
        dst = res.plan[:, 1].astype(int)
        mass = res.plan[:, 2]
        assert np.bincount(src, weights=mass, minlength=6) == pytest.approx(wx, abs=1e-12)
        assert np.bincount(dst, weights=mass, minlength=9) == pytest.approx(wy, abs=1e-12)
        recomputed = float((mass @ np.abs(xs[src, 0] - ys[dst, 0]) ** p) ** (1 / p))
        assert recomputed == pytest.approx(res.cost, abs=1e-9)
    csv = res.plan_to_csv()
    assert csv.splitlines()[0] == "source,target,mass"
    assert len(csv.splitlines()) == len(res.plan) + 1


def test_assignment_solver_input_validation():
    a = _measure(np.zeros((3, 2)))
    b = _measure(np.zeros((4, 2)))
    with pytest.raises(ValidationError):
        wasserstein_assignment(1, a, b)
    lopsided = EmpiricalMeasure(np.zeros((3, 2)), [0.5, 0.3, 0.2])
    with pytest.raises(ValidationError):
        wasserstein_assignment(1, lopsided, a)
    with pytest.raises(ValidationError):
        wasserstein_1d(3, _measure([0.0]), _measure([1.0]))


# ---------------------------------------------------------------------------
# Kantorovich-Rubinstein dual


def test_dual_never_exceeds_primal():
    rng = np.random.default_rng(9)
    for _ in range(10):
        mu = _measure(rng.normal(size=(20, 1)))
        nu = _measure(rng.normal(size=(20, 1)) + rng.normal())
        primal = wasserstein_1d(1, mu, nu).cost
        dual = kr_dual_lower_bound(mu, nu, quantile_dual_family(mu, nu))
        assert dual <= primal + 1e-9
        assert dual >= 0.0  # the zero function is in the family


def test_dual_tight_for_two_diracs():
    mu, nu = _measure([0.0]), _measure([2.0])
    dual = kr_dual_lower_bound(mu, nu, quantile_dual_family(mu, nu))
    assert dual == pytest.approx(2.0, abs=1e-12)


def test_dual_nearly_tight_in_1d():
    # hinge family saturates the 1D dual up to quantile discretization
    rng = np.random.default_rng(10)
    mu = _measure(rng.normal(size=(200, 1)))
    nu = _measure(rng.normal(size=(200, 1)) + 1.0)
    primal = wasserstein_1d(1, mu, nu).cost
    dual = kr_dual_lower_bound(mu, nu, quantile_dual_family(mu, nu, n_anchors=64))
    assert dual <= primal + 1e-9
    assert dual >= 0.9 * primal


def test_dual_rejects_uncertified_function():
    mu, nu = _measure([0.0, 1.0]), _measure([2.0, 3.0])
    steep = Observable(eval=lambda x: 5.0 * np.asarray(x)[..., 0], lipschitz_constant=1.0,
                       name="steep")
    with pytest.raises(ValidationError):
        kr_dual_lower_bound(mu, nu, [steep])
    overdeclared = Observable(eval=lambda x: np.asarray(x)[..., 0], lipschitz_constant=2.0,
                              name="wide")
    with pytest.raises(ValidationError):
        kr_dual_lower_bound(mu, nu, [overdeclared])


# ---------------------------------------------------------------------------
# sample cloud helpers


def test_sample_helpers_match_solvers():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(50, 1))
    b = rng.normal(size=(50, 1))
    assert sample_w1(a, b) == pytest.approx(wasserstein_1d(1, _measure(a), _measure(b)).cost)
    assert sample_w2(a, b) == pytest.approx(wasserstein_1d(2, _measure(a), _measure(b)).cost)
    c = rng.normal(size=(30, 2))
    d = rng.normal(size=(30, 2))
    assert sample_w2(c, d) == pytest.approx(
        wasserstein_assignment(2, _measure(c), _measure(d)).cost)


def test_sample_helpers_handle_unequal_sizes():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(100, 1))
    b = rng.normal(size=(37, 1))
    assert sample_w1(a, b) >= 0.0
    big = rng.normal(size=(64, 2))
    small = rng.normal(size=(48, 2))
    val = sample_w2(big, small)
    assert np.isfinite(val) and val > 0.0


def test_sample_w2_consistency_under_refinement():
    # same-law clouds drift to zero as the sample size grows
    rng = np.random.default_rng(13)
    d_small = np.mean([sample_w2(rng.normal(size=(50, 1)), rng.normal(size=(50, 1)))
                       for _ in range(20)])
    d_large = np.mean([sample_w2(rng.normal(size=(800, 1)), rng.normal(size=(800, 1)))
                       for _ in range(20)])
    assert d_large < d_small / 2


def _strided(points, size):
    return points[np.floor(np.linspace(0, len(points), size, endpoint=False)).astype(int)]


def _pair_oracle(p, a, b):
    """One pair by the per-pair solvers: 1D quantile coupling at any sizes, else
    assignment after an even-strided match to the smaller size."""
    if a.shape[1] == 1:
        return wasserstein_1d(p, EmpiricalMeasure.uniform(a), EmpiricalMeasure.uniform(b)).cost
    n = min(len(a), len(b))
    return wasserstein_assignment(p, EmpiricalMeasure.uniform(_strided(a, n)),
                                  EmpiricalMeasure.uniform(_strided(b, n))).cost


# (shape of A, shape of B): leading axes that broadcast, then (n, d); no leading
# axes is one pair, which gives a float
STACK_CASES = [
    ((3, 4, 9, 1), (3, 4, 9, 1)),   # stack against stack, one batched 1D solve
    ((2, 3, 9, 1), (3, 9, 1)),      # leading axes broadcast
    ((5, 9, 1), (9, 1)),            # stack against one broadcast cloud
    ((9, 1), (4, 9, 1)),
    ((3, 7, 1), (5, 1)),            # 1D, unequal sizes: a quantile solve per pair
    ((2, 2, 6, 2), (2, 6, 2)),      # d = 2, equal sizes
    ((3, 8, 2), (5, 2)),            # d = 2, unequal sizes: subsampled per pair
    ((9, 1), (9, 1)), ((7, 1), (5, 1)), ((6, 2), (6, 2)), ((9, 2), (6, 2)),
]


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("shapes", STACK_CASES)
def test_sample_wasserstein_on_stacks_equals_per_pair_solves(shapes, p):
    rng = np.random.default_rng(sum(map(len, shapes)) + p)
    A, B = rng.normal(size=shapes[0]), rng.normal(0.5, 1.0, size=shapes[1])
    got = (sample_w1 if p == 1 else sample_w2)(A, B)
    assert np.array_equal(got, sample_wasserstein(p, A, B))
    lead = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    pairs = zip(np.broadcast_to(A, lead + A.shape[-2:]).reshape((-1,) + A.shape[-2:]),
                np.broadcast_to(B, lead + B.shape[-2:]).reshape((-1,) + B.shape[-2:]))
    want = np.array([_pair_oracle(p, a, b) for a, b in pairs]).reshape(lead)
    if lead:
        assert isinstance(got, np.ndarray) and got.shape == lead
    else:
        assert type(got) is float
    assert np.array_equal(np.asarray(got).view(np.uint64), want.view(np.uint64))


def _cloud_rows(rng, kind, shape, center):
    if kind == "normal":
        return center + rng.normal(size=shape)
    if kind == "ties":  # few distinct values, so sorting meets many ties
        return center + 0.5 * rng.integers(-3, 4, size=shape)
    return center + rng.choice([-0.0, 0.0, 1.0, -1.0], size=shape)  # signed zeros


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 1000), rows=st.integers(1, 3), p=st.sampled_from([1, 2]),
       kinds=st.tuples(*[st.sampled_from(["normal", "ties", "zeros"])] * 2),
       centers=st.tuples(*[st.sampled_from([0.0, 1e3])] * 2), seed=st.integers(0, 2 ** 32 - 1))
def test_batched_rows_equal_per_pair_quantile_solves(n, rows, p, kinds, centers, seed):
    rng = np.random.default_rng(seed)
    A = _cloud_rows(rng, kinds[0], (rows, n), centers[0])
    B = _cloud_rows(rng, kinds[1], (rows, n), centers[1])
    if kinds == ("zeros", "zeros"):
        B[:, : n // 2] = A[:, : n // 2]  # exact ties across the clouds too
    got = wasserstein_1d_rows(p, A, B)
    want = np.array([wasserstein_1d(p, _measure(a), _measure(b)).cost for a, b in zip(A, B)])
    assert got.shape == (rows,)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_batched_rows_keep_leading_shape_and_validate():
    rng = np.random.default_rng(4)
    A, B = rng.normal(size=(2, 3, 7)), rng.normal(size=(2, 3, 7))
    got = wasserstein_1d_rows(2, A, B)
    assert got.shape == (2, 3)
    assert got[1, 2] == wasserstein_1d(2, _measure(A[1, 2]), _measure(B[1, 2])).cost
    for p, a, b in ((3, A, B), (1, A, B[..., :6]), (1, A[..., :0], B[..., :0])):
        with pytest.raises(ValidationError):
            wasserstein_1d_rows(p, a, b)


def test_batched_rows_take_the_root_as_scalar_pow():
    # sqrt and C pow round about one value in a thousand differently; each row
    # takes its root as wasserstein_1d does, as an np.float64 ** 0.5
    rng = np.random.default_rng(8)
    A, B = rng.normal(size=(4000, 2)), rng.normal(size=(4000, 2))
    got = wasserstein_1d_rows(2, A, B)
    want = np.array([wasserstein_1d(2, _measure(a), _measure(b)).cost for a, b in zip(A, B)])
    assert np.array_equal(got, want)
    costs = np.sum(0.5 * (np.sort(A) - np.sort(B)) ** 2, axis=1)
    assert np.any(np.sqrt(costs) != got)  # the rows tell the two roots apart

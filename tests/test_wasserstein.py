import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meanfieldlab import (EmpiricalMeasure, Observable, ValidationError,
                          kr_dual_lower_bound, quantile_dual_family, sample_w1,
                          sample_w2, wasserstein_1d, wasserstein_assignment)
from meanfieldlab.wasserstein import _wasserstein_1d_rows, sample_wasserstein


def _brute_force_permutation(p, xs, ys):
    """Exact W_p for equal-size uniform clouds by enumerating all assignments."""
    xs, ys = np.atleast_2d(xs), np.atleast_2d(ys)
    n = len(xs)
    best = np.inf
    for perm in itertools.permutations(range(n)):
        cost = np.mean(np.linalg.norm(xs - ys[list(perm)], axis=1) ** p)
        best = min(best, cost)
    return best ** (1.0 / p)


def _measure(pts):
    """The uniform measure of the points; a flat list or one row is points on the line."""
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    if pts.shape[0] == 1 and pts.shape[1] > 1:
        pts = pts.T
    return EmpiricalMeasure(pts)


# ---------------------------------------------------------------------------
# known closed-form cases


@pytest.mark.parametrize("points", [[], np.empty((0, 2)), np.empty((3, 0))])
def test_empirical_measure_refuses_an_empty_cloud(points):
    with pytest.raises(ValidationError, match="at least one support point"):
        EmpiricalMeasure(points)


@pytest.mark.parametrize("points", [[[np.nan], [1.0]], [[0.0, 1.0], [np.inf, 2.0]],
                                    [[-np.inf]]])
def test_empirical_measure_refuses_non_finite_points(points):
    # a nan point used to build, and wasserstein_1d then returned a nan cost
    with pytest.raises(ValidationError, match="support points must be finite"):
        EmpiricalMeasure(points)


def test_a_measure_is_equal_only_to_itself_and_hashes():
    # field-wise eq compared the points arrays, so == or != between two
    # measures on equal points raised numpy's "truth value of an array ...
    # is ambiguous", and hash(m) raised "unhashable type"
    m, same_points = EmpiricalMeasure(np.zeros((3, 1))), EmpiricalMeasure(np.zeros((3, 1)))
    assert m == m
    assert m != same_points and not m == same_points
    assert hash(m) == hash(m)
    assert len({m, same_points}) == 2


def test_two_diracs():
    mu, nu = _measure([0.0]), _measure([3.0])
    assert wasserstein_1d(1, mu, nu) == pytest.approx(3.0)
    assert wasserstein_1d(2, mu, nu) == pytest.approx(3.0)


def test_translated_pair_cost_is_shift():
    mu = _measure([0.0, 1.0])
    nu = _measure([2.0, 3.0])
    assert wasserstein_1d(2, mu, nu) == pytest.approx(2.0)
    assert wasserstein_1d(1, mu, nu) == pytest.approx(2.0)


def test_unequal_sizes_mass_split():
    # mu = delta_0, nu = 1/2 delta_0 + 1/2 delta_2: W_1 = 1, W_2 = sqrt(2)
    mu = _measure([0.0])
    nu = _measure([0.0, 2.0])
    assert wasserstein_1d(1, mu, nu) == pytest.approx(1.0)
    assert wasserstein_1d(2, mu, nu) == pytest.approx(np.sqrt(2.0))


def test_w1_equals_cdf_area():
    # W_1 on the line equals the L1 distance between the CDFs
    rng = np.random.default_rng(0)
    for _ in range(20):
        xs = np.sort(rng.normal(size=7))
        ys = np.sort(rng.normal(size=5))
        wx, wy = np.full(7, 1.0 / 7), np.full(5, 1.0 / 5)
        mu, nu = _measure(xs.reshape(-1, 1)), _measure(ys.reshape(-1, 1))
        grid = np.linspace(min(xs.min(), ys.min()) - 1, max(xs.max(), ys.max()) + 1, 40001)
        Fx = (wx[None, :] * (xs[None, :] <= grid[:, None])).sum(axis=1)
        Fy = (wy[None, :] * (ys[None, :] <= grid[:, None])).sum(axis=1)
        area = np.trapezoid(np.abs(Fx - Fy), grid)
        assert wasserstein_1d(1, mu, nu) == pytest.approx(area, abs=2e-3)


# ---------------------------------------------------------------------------
# brute-force oracles


def test_quantile_solver_vs_permutation_oracle_1d():
    rng = np.random.default_rng(1)
    for n in (2, 3, 4, 5, 6):
        for p in (1, 2):
            xs = rng.normal(size=(n, 1))
            ys = rng.normal(size=(n, 1))
            got = wasserstein_1d(p, _measure(xs), _measure(ys))
            assert got == pytest.approx(_brute_force_permutation(p, xs, ys), abs=1e-9)


def test_assignment_solver_vs_permutation_oracle_2d():
    rng = np.random.default_rng(2)
    for n in (2, 3, 4, 5, 6):
        for p in (1, 2):
            xs = rng.normal(size=(n, 2))
            ys = rng.normal(size=(n, 2))
            got = wasserstein_assignment(p, _measure(xs), _measure(ys))
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
def test_w2_assignment_on_centred_clouds_is_the_uncentred_solve(kind, d, monkeypatch):
    # W_2's cost matrix and that of the mean-centred clouds differ by terms
    # of one index, so both have the same optimal permutations: where the
    # optimum is unique the permutation and the cost bits are equal, and
    # where it is not the cost is equal to rounding
    import scipy.optimize

    solve = scipy.optimize.linear_sum_assignment
    solved = []

    def recorded(costs):
        solved.append(solve(costs))
        return solved[-1]

    rng = np.random.default_rng([d, len(kind)])
    for n in (2, 3, 5, 17, 64, 256, 512):
        a, b = _centring_case(rng, kind, n, d)
        solved.clear()
        with monkeypatch.context() as patch:
            patch.setattr(scipy.optimize, "linear_sum_assignment", recorded)
            got = wasserstein_assignment(2, _measure(a), _measure(b))
        [(rows, got_cols)] = solved
        cost, cols = _uncentred_w2_assignment(a, b)
        assert np.array_equal(rows, np.arange(n))
        if kind == "duplicates":
            assert abs(got - cost) <= 1e-12 * cost, n
            assert sorted(got_cols) == list(range(n))
        else:
            assert np.array_equal(got_cols, cols), n
            assert got == cost, n
        if kind == "translated":
            assert np.array_equal(cols, np.arange(n))


def _replicated_oracle(p, xs, ys):
    """W_p between uniform n- and m-point clouds on the line: with L = lcm(n, m),
    the W_p of the clouds of each point repeated L/n and L/m times, equal
    sizes whose optimal coupling pairs the sorted points."""
    L = math.lcm(len(xs), len(ys))
    a = np.repeat(np.sort(xs), L // len(xs))
    b = np.repeat(np.sort(ys), L // len(ys))
    return float(np.mean(np.abs(a - b) ** p) ** (1.0 / p))


def test_quantile_solver_of_unequal_sizes_vs_replicated_clouds():
    rng = np.random.default_rng(3)
    for case in range(200):
        n, m = rng.integers(1, 13, size=2)
        if case % 2:  # few distinct values, so ties within and across the clouds
            xs, ys = 0.5 * rng.integers(-3, 4, size=n), 0.5 * rng.integers(-3, 4, size=m)
        else:
            xs, ys = rng.normal(size=n), rng.normal(0.3, 1.5, size=m)
        for p in (1, 2):
            got = wasserstein_1d(p, _measure(xs[:, None]), _measure(ys[:, None]))
            want = _replicated_oracle(p, xs, ys)
            assert abs(got - want) <= 1e-12 * want, (n, m, p)


def test_cross_solver_agreement_1d():
    # two independent exact solvers must coincide on equal-size 1D clouds
    rng = np.random.default_rng(4)
    for _ in range(20):
        xs = rng.normal(size=(40, 1))
        ys = rng.normal(size=(40, 1))
        for p in (1, 2):
            q = wasserstein_1d(p, _measure(xs), _measure(ys))
            a = wasserstein_assignment(p, _measure(xs), _measure(ys))
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
            dab = wasserstein_1d(p, a, b)
            dba = wasserstein_1d(p, b, a)
            dbc = wasserstein_1d(p, b, c)
            dac = wasserstein_1d(p, a, c)
            assert wasserstein_1d(p, a, a) == pytest.approx(0.0, abs=1e-12)
            assert dab == pytest.approx(dba, abs=1e-9)
            assert dac <= dab + dbc + 1e-9
            assert dab >= 0.0


def test_w1_below_w2():
    rng = np.random.default_rng(6)
    for _ in range(10):
        a = _measure(rng.normal(size=(30, 1)))
        b = _measure(rng.normal(size=(30, 1)))
        assert wasserstein_1d(1, a, b) <= wasserstein_1d(2, a, b) + 1e-12
        c = _measure(rng.normal(size=(10, 3)))
        d = _measure(rng.normal(size=(10, 3)))
        assert wasserstein_assignment(1, c, d) <= wasserstein_assignment(2, c, d) + 1e-12


def test_translation_covariance():
    rng = np.random.default_rng(7)
    xs = rng.normal(size=(25, 1))
    ys = rng.normal(size=(25, 1))
    base = wasserstein_1d(2, _measure(xs), _measure(ys))
    shifted = wasserstein_1d(2, _measure(xs + 5.0), _measure(ys + 5.0))
    assert shifted == pytest.approx(base, abs=1e-12)
    # shifting one measure by h changes W_p by at most |h|
    moved = wasserstein_1d(2, _measure(xs + 0.3), _measure(ys))
    assert abs(moved - base) <= 0.3 + 1e-12


def test_assignment_solver_input_validation():
    a = _measure(np.zeros((3, 2)))
    b = _measure(np.zeros((4, 2)))
    with pytest.raises(ValidationError):
        wasserstein_assignment(1, a, b)
    with pytest.raises(ValidationError):
        wasserstein_1d(3, _measure([0.0]), _measure([1.0]))


# ---------------------------------------------------------------------------
# Kantorovich-Rubinstein dual


def test_dual_never_exceeds_primal():
    rng = np.random.default_rng(9)
    for _ in range(10):
        mu = _measure(rng.normal(size=(20, 1)))
        nu = _measure(rng.normal(size=(20, 1)) + rng.normal())
        primal = wasserstein_1d(1, mu, nu)
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
    primal = wasserstein_1d(1, mu, nu)
    dual = kr_dual_lower_bound(mu, nu, quantile_dual_family(mu, nu, n_anchors=64))
    assert dual <= primal + 1e-9
    assert dual >= 0.9 * primal


@pytest.mark.parametrize("p, a, b, rule", [
    (3, np.zeros((2, 1)), np.zeros((2, 1)), "order p must be 1 or 2"),
    (2, np.zeros((4097, 1)), np.zeros((4097, 1)), "capped at n=4096"),
    (2, np.zeros((3, 1)), np.zeros((3, 2)), "dimension mismatch"),
], ids=["p-3", "4097-points", "1d-against-2d"])
def test_the_assignment_solver_refuses_what_it_cannot_solve(p, a, b, rule):
    with pytest.raises(ValidationError, match=re.escape(rule)):
        wasserstein_assignment(p, EmpiricalMeasure(a), EmpiricalMeasure(b))


@pytest.mark.parametrize("b, family, rule", [
    (np.zeros((2, 2)), None, "dimension mismatch"),
    (np.ones((2, 1)), [], "dual family is empty"),
], ids=["1d-against-2d", "empty-family"])
def test_the_dual_bound_refuses_what_it_cannot_bound(b, family, rule):
    mu, nu = _measure([0.0, 1.0]), EmpiricalMeasure(b)
    with pytest.raises(ValidationError, match=rule):
        kr_dual_lower_bound(mu, nu, quantile_dual_family(mu, mu) if family is None else family)


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
    assert sample_w1(a, b) == pytest.approx(wasserstein_1d(1, _measure(a), _measure(b)))
    assert sample_w2(a, b) == pytest.approx(wasserstein_1d(2, _measure(a), _measure(b)))
    c = rng.normal(size=(30, 2))
    d = rng.normal(size=(30, 2))
    assert sample_w2(c, d) == pytest.approx(
        wasserstein_assignment(2, _measure(c), _measure(d)))


def test_sample_helpers_handle_unequal_sizes():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(100, 1))
    b = rng.normal(size=(37, 1))
    assert sample_w1(a, b) >= 0.0
    big = rng.normal(size=(64, 2))
    small = rng.normal(size=(48, 2))
    val = sample_w2(big, small)
    assert np.isfinite(val) and val > 0.0


# one cloud rule, as_cloud, for a measure's points and for each sample_wasserstein argument


@pytest.mark.parametrize("points", [[0.0, 1.0, 2.0], 3.0, np.zeros((2, 3, 1))],
                         ids=["flat-list", "scalar", "stack"])
def test_a_measure_of_points_that_are_not_n_by_d_is_refused(points):
    # a flat list was one point in R^3, a scalar one point on the line, and
    # a stack of clouds built a measure of the wrong shape
    with pytest.raises(ValidationError, match=re.escape(f"not of shape {np.shape(points)}")):
        EmpiricalMeasure(points)


@pytest.mark.parametrize("a, b", [([0, 1, 2], [3, 4, 5]), ([0.0, 1.0, 2.0], np.zeros((3, 1))),
                                  (np.zeros((2, 3)), [1.0, 2.0, 3.0])],
                         ids=["flat-lists", "flat-and-cloud", "cloud-and-flat"])
def test_a_flat_sample_cloud_is_refused(a, b):
    # sample_w1([0, 1, 2], [3, 4, 5]) read two points in R^3 and returned
    # |(3, 3, 3)| = 5.196, where W_1 of the clouds on the line is 3; each
    # pair here returned a number
    for metric in (sample_w1, sample_w2):
        with pytest.raises(ValidationError, match="must be an array"):
            metric(a, b)


@pytest.mark.parametrize("a, b", [(np.zeros((3, 1)), np.zeros((0, 1))),
                                  (np.zeros((0, 2)), np.zeros((3, 2))),
                                  (np.zeros((2, 3, 1)), np.zeros((2, 0, 1))),
                                  (np.zeros((3, 1)), np.zeros((2, 0)))],
                         ids=["1d", "2d", "stack", "no-coordinates"])
def test_an_empty_sample_cloud_is_refused(a, b):
    # numpy's unlabelled "cannot reshape array of size 0" came first
    with pytest.raises(ValidationError, match="at least one support point"):
        sample_w2(a, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shapes", [((3, 1), (3, 1)), ((2, 3, 1), (2, 3, 1)),
                                    ((3, 1), (5, 1)), ((2, 3, 1), (4, 1))],
                         ids=["pair", "stack", "unequal-pair", "unequal-stack"])
def test_a_non_finite_sample_cloud_is_refused_on_the_equal_size_1d_path(shapes, bad):
    # the batched quantile solve of equal sizes returned nan or inf, where the
    # unequal-size and d >= 2 paths already refused the cloud; every 1D size
    # now takes the batched solve, so the refusal is as_cloud's for all of them
    b = np.zeros(shapes[1])
    b[..., 1, 0] = bad
    for metric in (sample_w1, sample_w2):
        with pytest.raises(ValidationError, match="support points must be finite"):
            metric(np.zeros(shapes[0]), b)


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
        return wasserstein_1d(p, EmpiricalMeasure(a), EmpiricalMeasure(b))
    n = min(len(a), len(b))
    return wasserstein_assignment(p, EmpiricalMeasure(_strided(a, n)),
                                  EmpiricalMeasure(_strided(b, n)))


# (shape of A, shape of B): leading axes that broadcast, then (n, d); no leading
# axes is one pair, which gives a float
STACK_CASES = [
    ((3, 4, 9, 1), (3, 4, 9, 1)),   # stack against stack, one batched 1D solve
    ((2, 3, 9, 1), (3, 9, 1)),      # leading axes broadcast
    ((5, 9, 1), (9, 1)),            # stack against one broadcast cloud
    ((9, 1), (4, 9, 1)),
    ((3, 7, 1), (5, 1)),            # 1D, unequal sizes: one batched solve too
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
    got = _wasserstein_1d_rows(p, A, B)
    want = np.array([wasserstein_1d(p, _measure(a), _measure(b)) for a, b in zip(A, B)])
    assert got.shape == (rows,)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _old_wasserstein_1d(p, xs, ys):
    """W_p between uniform clouds xs (n,) and ys (m,) on the line by the scalar
    merged-step solver that the batched kernel replaced, kept as its bit
    oracle: the masses split at the merged steps of the two CDFs, multiples
    of 1/n and of 1/m, each coupling one point of each sorted cloud."""
    xs, ys = np.sort(xs, kind="stable"), np.sort(ys, kind="stable")
    cwx = np.cumsum(np.full(len(xs), 1.0 / len(xs)))
    cwy = np.cumsum(np.full(len(ys), 1.0 / len(ys)))
    cwx[-1] = cwy[-1] = 1.0
    edges = np.unique(np.concatenate([[0.0], cwx, cwy]))
    mass = np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    gaps = np.abs(xs[np.searchsorted(cwx, mid)] - ys[np.searchsorted(cwy, mid)])
    return float(np.sum(mass * gaps ** p) ** (1.0 / p))


def test_the_kernel_is_the_old_merged_step_solver_bit_for_bit():
    # unequal sizes with ties within and across the clouds, signed zeros and
    # 1e3 offsets; each pair solved alone, through wasserstein_1d and as row 1
    # of a 3-row stack, whose row sums round as that row's sum alone
    rng = np.random.default_rng(14)
    kinds = list(itertools.product(["normal", "ties", "zeros"], repeat=2))
    for case in range(1200):
        n, m = rng.integers(1, 300, size=2)
        m += n == m
        p = 1 + case // 4 % 2
        A = _cloud_rows(rng, kinds[case % 9][0], (3, n), 1e3 * (case % 2))
        B = _cloud_rows(rng, kinds[case % 9][1], (3, m), 1e3 * (case // 2 % 2))
        want = np.float64(_old_wasserstein_1d(p, A[1], B[1])).view(np.uint64)
        got = np.array([_wasserstein_1d_rows(p, A, B)[1], _wasserstein_1d_rows(p, A[1], B[1]),
                        wasserstein_1d(p, _measure(A[1, :, None]), _measure(B[1, :, None]))])
        assert (got.view(np.uint64) == want).all(), (n, m, p, case)


def test_batched_rows_keep_leading_shape_and_validate():
    # any two sizes, and leading axes that broadcast; the cloud rule (shapes,
    # emptiness, finiteness) is as_cloud's, applied before the kernel
    rng = np.random.default_rng(4)
    A = rng.normal(size=(2, 3, 7))
    for B in (rng.normal(size=(2, 3, 7)), rng.normal(size=(2, 3, 6)), rng.normal(size=(3, 4))):
        got = _wasserstein_1d_rows(2, A, B)
        assert got.shape == (2, 3)
        b = np.broadcast_to(B, (2, 3, B.shape[-1]))[1, 2]
        assert got[1, 2] == wasserstein_1d(2, _measure(A[1, 2]), _measure(b))
    with pytest.raises(ValidationError, match="order p must be 1 or 2"):
        _wasserstein_1d_rows(3, A, A)


def test_batched_rows_take_the_root_as_scalar_pow():
    # sqrt and C pow round about one value in a thousand differently; each row
    # takes its root as wasserstein_1d does, as an np.float64 ** 0.5
    rng = np.random.default_rng(8)
    A, B = rng.normal(size=(4000, 2)), rng.normal(size=(4000, 2))
    got = _wasserstein_1d_rows(2, A, B)
    want = np.array([wasserstein_1d(2, _measure(a), _measure(b)) for a, b in zip(A, B)])
    assert np.array_equal(got, want)
    costs = np.sum(0.5 * (np.sort(A) - np.sort(B)) ** 2, axis=1)
    assert np.any(np.sqrt(costs) != got)  # the rows tell the two roots apart

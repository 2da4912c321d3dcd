import warnings
from dataclasses import replace

import numpy as np
import pytest

from meanfieldlab import (DiffusionSpec, InitialLaw, Observable, SimConfig, ValidationError,
                          build_reference_flow, chaos_rate_experiment, empirical_measure_deviation,
                          equilibrium_convergence, granular_media_model,
                          observable_deviation_experiment, ou_variance, power_potential,
                          quadratic_potential, sample_w2, simulate_coupled,
                          simulate_particle_system, vlasov_fokker_planck_model, wilson_interval,
                          zero_potential)
from meanfieldlab import experiments, wasserstein
from meanfieldlab.config import parse_config
from meanfieldlab.experiments import linear_fit
from meanfieldlab.models import ModelSpec
from meanfieldlab.rng import REFERENCE_NAMESPACE, NoiseGrid
from meanfieldlab.runner import run


def _ou_model(rate=1.0, mean0=0.0, var0=1.0, d=1):
    """dX = sqrt(2) dB - rate X dt: granular media with V = rate |x|^2 / 2 and W = 0."""
    return granular_media_model(quadratic_potential(rate), zero_potential(), d,
                                initial_law=InitialLaw.gaussian(np.full(d, mean0), var0))


def _cfg(**kw):
    base = dict(dt=0.02, t_final=0.5, n_particles=32, seed=100)
    base.update(kw)
    return SimConfig(**base)


# ---------------------------------------------------------------------------
# statistics helpers


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 10)
    assert lo == 0.0 and 0.0 < hi < 0.35
    lo, hi = wilson_interval(10, 10)
    assert hi == pytest.approx(1.0) and 0.65 < lo < 1.0
    lo, hi = wilson_interval(5, 10)
    assert lo < 0.5 < hi
    # interval shrinks with sample size
    lo1, hi1 = wilson_interval(50, 100)
    lo2, hi2 = wilson_interval(500, 1000)
    assert hi2 - lo2 < hi1 - lo1


@pytest.mark.parametrize("successes, trials", [(5, 3), (-1, 10), (11, 10)])
def test_wilson_interval_refuses_successes_outside_the_trials(successes, trials):
    # (5, 3) returned nan with a RuntimeWarning from the sqrt
    with pytest.raises(ValidationError, match=r"must lie in \[0, trials"):
        wilson_interval(successes, trials)


def test_wilson_interval_brackets_binomial_truth():
    rng = np.random.default_rng(0)
    p_true = 0.3
    misses = 0
    for _ in range(200):
        k = rng.binomial(400, p_true)
        lo, hi = wilson_interval(int(k), 400)
        misses += not (lo <= p_true <= hi)
    assert misses <= 25  # nominal 5% at 95% coverage, generous slack


def test_linear_fit_recovers_exact_line():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    y = -2.0 * x + 7.0
    slope, intercept, r2, se = linear_fit(x, y)
    assert slope == pytest.approx(-2.0, abs=1e-12)
    assert intercept == pytest.approx(7.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-9)


def test_linear_fit_stderr_needs_a_degree_of_freedom():
    slope, intercept, r2, se = linear_fit([1.0, 2.0], [3.0, 1.0])
    assert (slope, intercept, r2) == (-2.0, 5.0, 1.0)
    assert np.isnan(se)

    x, y = np.array([0.0, 1.0, 3.0]), np.array([1.0, 0.5, -2.0])
    slope, intercept, _, se = linear_fit(x, y)
    ss_res = np.sum((y - slope * x - intercept) ** 2)
    sxx = np.sum((x - x.mean()) ** 2)
    assert ss_res > 0
    assert se == np.sqrt(ss_res / (len(x) - 2) / sxx)


def test_an_interval_or_a_fit_without_data_is_refused():
    with pytest.raises(ValidationError, match="trials must be positive"):
        wilson_interval(0, 0)
    with pytest.raises(ValidationError, match="need at least two points"):
        linear_fit([1.0], [1.0])


def test_linear_fit_refuses_an_abscissa_of_one_value():
    # the mean of three 0.4s rounds off 0.4, so sxx is about 1e-33, not 0:
    # the fit returned slope 0 with a stderr of 1.5e16
    assert np.mean([0.4, 0.4, 0.4]) != 0.4
    for x in ([0.4, 0.4, 0.4], [2.0, 2.0]):
        with pytest.raises(ValidationError, match="degenerate abscissa"):
            linear_fit(x, np.arange(len(x), dtype=float))


@pytest.mark.parametrize("n_chunks", range(2, 9))
def test_w2sq_debiased_stderr_needs_two_floor_pairs(n_chunks):
    # the first half of the chunks (at least two) give raw estimates and the
    # rest pair up into floors; a spread needs two of each, so the stderr is
    # nan, not 0, below two floor pairs, while the estimate stays as it was
    rng = np.random.default_rng(n_chunks)
    n = 10
    cloud = rng.normal(0.3, 1.0, (n, 1))
    reference = rng.normal(0.0, 1.0, (n * n_chunks + 3, 1))
    [(est, se)] = experiments._w2sq_debiased(cloud[None], reference)

    chunks = [reference[k::n_chunks][:n] for k in range(n_chunks)]
    n_raw = max(2, n_chunks // 2)
    raws = np.array([sample_w2(cloud, chunks[k]) ** 2 for k in range(n_raw)])
    floors = np.array([sample_w2(chunks[k], chunks[k + 1]) ** 2
                       for k in range(n_raw, n_chunks - 1, 2)])
    assert len(floors) == max(0, (n_chunks - n_raw) // 2)
    if n_chunks < 3:
        raw = sample_w2(cloud, experiments._even_subsample(reference, n))
        assert est == float(raw ** 2)
    else:
        assert est == float(raws.mean() - floors.mean() if len(floors) else raws.mean())
    assert np.isnan(se) == (len(floors) < 2) == (n_chunks < 7)
    if len(floors) >= 2:
        assert se == float(np.hypot(raws.std(ddof=1) / np.sqrt(len(raws)),
                                    floors.std(ddof=1) / np.sqrt(len(floors))))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n_chunks", [2, 3, 6, 7, 16])
def test_w2sq_debiased_stack_equals_one_cloud_at_a_time(n_chunks, dim, monkeypatch):
    # a stack shares one floor solve, yet each cloud gets the bits of a stack of
    # that cloud alone; the floor pairs are solved once, not once per cloud
    rng = np.random.default_rng(40 + n_chunks + dim)
    n = 6
    clouds = rng.normal(0.3, 1.0, (4, n, dim))
    reference = rng.normal(0.0, 1.0, (n * n_chunks + 1, dim))
    alone = [experiments._w2sq_debiased(c[None], reference)[0] for c in clouds]
    pairs = []
    original = experiments.sample_w2

    def counted(a, b):
        pairs.append(len(a))
        return original(a, b)

    monkeypatch.setattr(experiments, "sample_w2", counted)
    stacked = experiments._w2sq_debiased(clouds, reference)
    # compared as hex so that nan stderrs compare equal
    assert [(e.hex(), s.hex()) for e, s in stacked] == [(e.hex(), s.hex()) for e, s in alone]
    n_raw = max(2, n_chunks // 2)
    assert pairs == [len(clouds) if n_chunks < 3 else len(clouds) * n_raw + (n_chunks - n_raw) // 2]


def test_linear_fit_slope_error_scales():
    rng = np.random.default_rng(1)
    x = np.linspace(0, 1, 200)
    y = 3.0 * x + rng.normal(scale=0.1, size=200)
    slope, _, _, se = linear_fit(x, y)
    assert abs(slope - 3.0) < 4 * se


# ---------------------------------------------------------------------------
# chaos rate experiment


def test_chaos_rate_degenerate_for_law_free_model():
    # the OU model ignores the measure, so coupled gaps are exactly 0
    m = _ou_model()
    fit = chaos_rate_experiment(m, [16, 32], _cfg(), replicas=3, m_reference=512)
    assert fit.degenerate
    assert all(g == 0.0 for g in fit.mean_sq_gaps)
    assert np.isnan(fit.slope)


def test_chaos_rate_gap_decreases_with_n():
    m = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1)
    fit = chaos_rate_experiment(m, [16, 64], _cfg(), replicas=40, m_reference=1024)
    assert not fit.degenerate
    assert fit.mean_sq_gaps[1] < fit.mean_sq_gaps[0]
    assert fit.slope < -0.3


def test_chaos_rate_is_in_order_mean_over_replicas():
    # replica r runs as replica_id + r, and the gaps are averaged in replica order
    m = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1)
    cfg = _cfg(replica_id=3)
    flow = build_reference_flow(m, 512, cfg)
    replicas = 10  # at this count a reversed or rotated reduction changes the last bit
    fit = chaos_rate_experiment(m, [16, 32], cfg, replicas=replicas, flow=flow)
    for n, got in zip([16, 32], fit.mean_sq_gaps):
        gaps = [simulate_coupled(m, replace(cfg, n_particles=n, replica_id=cfg.replica_id + r),
                                 flow).mean_square_gap[-1] for r in range(replicas)]
        assert got == float(np.mean(gaps))


def _kinetic_model():
    vfp = vlasov_fokker_planck_model(quadratic_potential(1.0), A=lambda v: 0.5 * v,
                                     B=lambda x: x, d_prime=1)
    return ModelSpec(drift=vfp.drift, diffusion=DiffusionSpec([[0.3, 0.0], [0.8, 1.2]]),
                     initial_law=vfp.initial_law, name="kinetic, non-diagonal sigma")


WIDTH_CASES = {
    "quadratic-shifted-gaussian": (granular_media_model(
        quadratic_potential(1.0), quadratic_potential(1.0), 1,
        initial_law=InitialLaw.gaussian([1.0], 0.5)), False),
    "tamed-cubic-pairwise": (granular_media_model(quadratic_potential(1.0),
                                                  power_potential(3.0, 1.0), 1), True),
    "kinetic-non-diagonal": (_kinetic_model(), False),
}


@pytest.mark.parametrize("case", sorted(WIDTH_CASES))
def test_results_do_not_depend_on_batch_width(case, monkeypatch):
    # chunks of 1 replica, of 2 to 4, and of all 7 give the same bits, and those
    # bits are the in-order reduction of runs on one replica id each
    m, taming = WIDTH_CASES[case]
    cfg = _cfg(dt=0.02, t_final=0.2, replica_id=5, taming=taming)
    flow = build_reference_flow(m, 256, cfg)
    obs = Observable(eval=lambda x: np.asarray(x)[..., 0], lipschitz_constant=1.0, name="x0")
    replicas = 7

    def run_all():
        fit = chaos_rate_experiment(m, [8, 16], cfg, replicas=replicas, flow=flow)
        table = observable_deviation_experiment(m, obs, [0.05, 0.2], replicas=replicas,
                                                config=replace(cfg, n_particles=16),
                                                m_reference=256)
        w1 = empirical_measure_deviation(m, [0.05, 0.2], replicas=replicas,
                                         config=replace(cfg, n_particles=16, snapshot_stride=4),
                                         sup_over_time=True, m_reference=256)
        curve = equilibrium_convergence(
            m, replace(cfg, n_particles=16, snapshot_stride=4), replicas=replicas,
            target_sampler=lambda n, salt: np.random.default_rng(salt).normal(size=(n, m.dim)),
            gap_times=[0.1, 0.2], m_reference=256)
        return (fit.mean_sq_gaps, fit.stderrs, fit.w2_sq_estimates, fit.slope,
                table.mean_square_error, table.empirical_probs, w1.empirical_probs,
                curve.w2_to_target, curve.gap_means, curve.gap_stderrs)

    results = []
    for values in (1, 128, experiments._BATCH_VALUES):
        monkeypatch.setattr(experiments, "_BATCH_VALUES", values)
        results.append(run_all())
    assert results[0] == results[1] == results[2]

    ref_value = float(np.mean(flow.terminal[:, 0]))
    errors = []
    for r in range(replicas):
        one = replace(cfg, n_particles=16, replica_id=cfg.replica_id + r)
        errors.append(float(np.mean(simulate_particle_system(m, one).terminal[:, 0]))
                      - ref_value)
    assert results[0][4] == float(np.mean(np.array(errors) ** 2))
    for k, n in enumerate([8, 16]):
        gaps = [simulate_coupled(m, replace(cfg, n_particles=n, replica_id=cfg.replica_id + r),
                                 flow).mean_square_gap[-1] for r in range(replicas)]
        assert results[0][0][k] == float(np.mean(gaps))


INITIAL_LAWS = {
    "gaussian": InitialLaw.gaussian([0.5], [[1.0]]),
    "point": InitialLaw.gaussian([0.5], 0.0),
    "shifted": InitialLaw.gaussian([-1.0], 0.25),
}


@pytest.mark.parametrize("law", sorted(INITIAL_LAWS))
def test_chaos_rate_grid_equals_per_size_and_replica_runs(law, monkeypatch):
    # one coupled step loop per chunk for the whole grid gives, at any chunk
    # width, the bits of one run per (N, replica) reduced in replica order
    m = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1,
                             initial_law=INITIAL_LAWS[law])
    cfg = _cfg(dt=0.02, t_final=0.2, replica_id=5)
    flow = build_reference_flow(m, 320, cfg)
    replicas = 7
    fits = []
    for values in (1, experiments._BATCH_VALUES):
        monkeypatch.setattr(experiments, "_BATCH_VALUES", values)
        fits.append(chaos_rate_experiment(m, [12, 5, 20], cfg, replicas=replicas, flow=flow))
    for k, n in enumerate([5, 12, 20]):
        runs = [simulate_coupled(m, replace(cfg, n_particles=n, replica_id=cfg.replica_id + r),
                                 flow) for r in range(replicas)]
        gaps = np.array([res.mean_square_gap[-1] for res in runs])
        first = np.array([res.terminal_particles[0] for res in runs])
        [w2] = experiments._w2sq_debiased(first[None], flow.terminal)
        for fit in fits:
            assert fit.n_grid[k] == n
            assert fit.mean_sq_gaps[k] == float(gaps.mean())
            assert fit.stderrs[k] == float(gaps.std(ddof=1) / np.sqrt(replicas))
            assert (fit.w2_sq_estimates[k], fit.w2_sq_stderrs[k]) == w2


def test_chaos_rate_draws_replica_noise_once_per_chunk_and_step(monkeypatch):
    # Gaussian draws on the replica side: a per-replica loop would make
    # `replicas` times as many
    replica_calls = []
    normals = NoiseGrid.normals

    def counting(self, particles, step, dim):
        if np.all(np.asarray(self.replica_id) < REFERENCE_NAMESPACE):
            replica_calls.append(step)
        return normals(self, particles, step, dim)

    monkeypatch.setattr(NoiseGrid, "normals", counting)
    m = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1)
    cfg = _cfg(dt=0.05, t_final=0.5)
    flow = build_reference_flow(m, 512, cfg)
    n_grid = [8, 16, 32]
    # one chunk for the whole grid at the default width whatever the replica
    # count; one chunk per replica when a chunk holds a single replica
    for replicas, values, chunks in ((5, experiments._BATCH_VALUES, 1),
                                     (40, experiments._BATCH_VALUES, 1),
                                     (6, 1, 6)):
        monkeypatch.setattr(experiments, "_BATCH_VALUES", values)
        replica_calls.clear()
        chaos_rate_experiment(m, n_grid, cfg, replicas=replicas, flow=flow)
        # the initial law's draw, then one increment draw per step, for all of n_grid
        assert len(replica_calls) == chunks * (cfg.n_steps + 1)


def test_chaos_rate_chunks_count_only_the_terminal_gap(monkeypatch, tmp_path):
    # the chaos_quadratic benchmark's shape: a replica holds the grid's states
    # (240 + 128 values) and the gaps at steps 0 and 5 for each N (8), so 200
    # replicas take 3 chunks of 2^15 // 376 = 87 (83 with a gap per step)
    grids = []
    init = NoiseGrid.__init__

    def counting(self, seed, replica_id=0):
        init(self, seed, replica_id)
        if np.all(np.asarray(self.replica_id) < REFERENCE_NAMESPACE):
            grids.append(np.size(self.replica_id))

    monkeypatch.setattr(NoiseGrid, "__init__", counting)
    run(parse_config("[model]\nfamily = granular_quadratic\ndim = 1\n"
                     "[sim]\ndt = 0.1\nt_final = 0.5\nn_grid = 16, 32, 64, 128\n"
                     "replicas = 200\nseed = 7\n[reference]\nm = 2048\n"
                     "[experiment]\nkind = chaos_rate\n[output]\nplots = false\n"),
        output_dir=str(tmp_path))
    assert grids == [87, 87, 26]


def test_equilibrium_gap_chunks_count_recorded_gaps_not_steps(monkeypatch):
    # gaps read at steps 10 and 20 of 20 are recorded at stride 10, steps 0, 10
    # and 20: 8 + 8 + 3 values a replica, so a 57-value budget holds 3
    # replicas (a gap per step, 8 + 8 + 21, would hold 1)
    m = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1)
    cfg = _cfg(dt=0.05, replica_id=2, snapshot_stride=4)
    flow = build_reference_flow(m, 128, replace(cfg, t_final=1.0, n_particles=8))
    widths = []
    coupled = experiments.simulate_coupled

    def counting(model, config, flow, noise=None, n_grid=None):
        widths.append(len(noise.replica_id))
        return coupled(model, config, flow, noise=noise, n_grid=n_grid)

    monkeypatch.setattr(experiments, "simulate_coupled", counting)
    monkeypatch.setattr(experiments, "_BATCH_VALUES", 57)
    replicas = 6
    curve = equilibrium_convergence(
        m, replace(cfg, t_final=1.0, n_particles=8), replicas=replicas, gap_times=[0.5, 1.0],
        m_reference=128,
        target_sampler=lambda n, salt: np.random.default_rng(salt).normal(size=(n, 1)))
    assert widths == [3, 3]
    # the bits of full traces, run replica by replica, at the gap steps
    full = np.array([simulate_coupled(m, replace(cfg, t_final=1.0, n_particles=8,
                                                 snapshot_stride=1, replica_id=2 + r),
                                      flow).mean_square_gap[[10, 20]]
                     for r in range(replicas)])
    assert curve.gap_means == list(full.mean(axis=0))
    assert curve.gap_stderrs == list(full.std(axis=0, ddof=1) / np.sqrt(replicas))


def test_chaos_rate_gap_stderr_is_nan_for_one_replica():
    # one replica leaves no degree of freedom: nan, not an exact-looking 0.0
    m = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1)
    cfg = _cfg(dt=0.05, t_final=0.5)
    flow = build_reference_flow(m, 512, cfg)
    one = chaos_rate_experiment(m, [8, 16], cfg, replicas=1, flow=flow)
    assert all(np.isnan(se) for se in one.stderrs)
    assert all(np.isfinite(g) and g > 0 for g in one.mean_sq_gaps)
    two = chaos_rate_experiment(m, [8, 16], cfg, replicas=2, flow=flow)
    assert all(np.isfinite(se) and se > 0 for se in two.stderrs)


def test_one_replica_gap_stderrs_are_nan_without_warnings():
    # both gap sites read one rule for one replica: a nan stderr, and no
    # degrees-of-freedom or divide warning on the way to it
    m = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1)
    cfg = _cfg(dt=0.05, t_final=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = chaos_rate_experiment(m, [4, 8], cfg, replicas=1, m_reference=128)
        curve = equilibrium_convergence(m, replace(cfg, n_particles=8), replicas=1,
                                        gap_times=[0.5, 1.0], m_reference=128)
    assert all(np.isnan(se) for se in fit.stderrs + curve.gap_stderrs)
    assert all(np.isfinite(g) and g > 0 for g in fit.mean_sq_gaps + curve.gap_means)


@pytest.mark.parametrize("replicas", [1, 5])
def test_equilibrium_last_gap_is_the_chaos_rate_terminal_gap(replicas):
    # at the same N, seed, dt and M, with t_equilibrium = t_final, the two
    # experiments couple the same runs: their terminal gaps agree bit for bit
    m = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1)
    cfg = _cfg(dt=0.05, t_final=1.0, n_particles=8, replica_id=3)
    fit = chaos_rate_experiment(m, [8], cfg, replicas=replicas, m_reference=128)
    curve = equilibrium_convergence(
        m, cfg, replicas=replicas, gap_times=[0.25, 1.0], m_reference=128,
        target_sampler=lambda n, salt: np.random.default_rng(salt).normal(size=(n, 1)))
    assert curve.gap_means[-1] == fit.mean_sq_gaps[0]
    assert np.array_equal(curve.gap_stderrs[-1], fit.stderrs[0], equal_nan=True)


# Each run has 5 steps recorded at steps 0, 2, 4 and 5, a 256-point reference
# unless the case names another size, and 128 values per replica chunk.
# d = 1 makes one batched solve per site and chunk and never reaches
# wasserstein_1d; d = 2 makes one exact assignment per pair of clouds.
# (kind, dim, [sim] lines, [experiment] lines, batched solves, assignments)
TRANSPORT_CASES = {
    # 16 reference chunks give 8 raw solves per N and 4 floor pairs, solved
    # once for the whole grid: in d = 1 all of them in one batched solve
    "chaos_1d": ("chaos_rate", 1, "n_grid = 4, 8, 16\nreplicas = 9", "", 1, 0),
    # 200 one-particle draws per N against an even subsample of the 128-point
    # reference: unequal sizes, in one batched solve too
    "chaos_1d_unequal": ("chaos_rate", 1, "n_grid = 4, 8\nreplicas = 200", "", 1, 0),
    "chaos_2d": ("chaos_rate", 2, "n_grid = 4, 8\nreplicas = 9", "", 0, 2 * 8 + 4),
    # a W1 per replica and snapshot; 16 particles x 4 snapshots: 2 replicas a chunk
    "empirical_1d": ("empirical_deviation", 1, "n_particles = 16\nreplicas = 40",
                     "sup_over_time = true\nr_grid = 0.1, 0.2\n", 20, 0),
    "empirical_2d": ("empirical_deviation", 2, "n_particles = 16\nreplicas = 5",
                     "sup_over_time = true\nr_grid = 0.1, 0.2\n", 0, 5 * 4),
    # the three floor pairs in one solve, then a W2 per replica and snapshot
    "equilibrium_1d": ("equilibrium", 1, "n_particles = 16\nreplicas = 4",
                       "t_equilibrium = 0.5\n", 1 + 2, 0),
}
REFERENCE_SIZES = {"chaos_1d_unequal": 128}


@pytest.mark.parametrize("case", sorted(TRANSPORT_CASES))
def test_transport_calls_per_site(case, monkeypatch, tmp_path):
    kind, dim, sim, experiment, batched, assignments = TRANSPORT_CASES[case]
    calls = {"wasserstein_1d": 0, "wasserstein_assignment": 0, "_wasserstein_1d_rows": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in calls:
        counted(wasserstein, name)
    monkeypatch.setattr(experiments, "_BATCH_VALUES", 128)
    run(parse_config(f"[model]\nfamily = granular_quadratic\ndim = {dim}\n"
                     f"[sim]\ndt = 0.1\nt_final = 0.5\nseed = 3\n{sim}\n"
                     f"[reference]\nm = {REFERENCE_SIZES.get(case, 256)}\n"
                     f"[experiment]\nkind = {kind}\n{experiment}"
                     f"[output]\nplots = false\nsnapshot_stride = 2\n"),
        output_dir=str(tmp_path))
    assert calls == {"wasserstein_1d": 0, "wasserstein_assignment": assignments,
                     "_wasserstein_1d_rows": batched}


@pytest.mark.parametrize("kind", ["chaos_rate", "observable_deviation", "empirical_deviation",
                                  "equilibrium"])
def test_zero_replicas_is_a_labelled_error(kind):
    m = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1)
    cfg = _cfg(dt=0.1, t_final=0.2, n_particles=8)
    x0 = Observable(eval=lambda x: np.asarray(x)[..., 0], lipschitz_constant=1.0, name="x0")
    calls = {
        "chaos_rate": lambda: chaos_rate_experiment(m, [4, 8], cfg, replicas=0),
        "observable_deviation": lambda: observable_deviation_experiment(m, x0, [0.1], 0, cfg),
        "empirical_deviation": lambda: empirical_measure_deviation(m, [0.1], 0, cfg),
        "equilibrium": lambda: equilibrium_convergence(m, cfg, replicas=0),
    }
    with pytest.raises(ValidationError, match="replicas must be >= 1"):
        calls[kind]()


@pytest.mark.parametrize("kind", ["chaos_rate", "observable_deviation", "empirical_deviation",
                                  "equilibrium"])
def test_a_non_integer_replica_count_is_a_labelled_error(kind):
    # replicas = 2.5 died in the chunk loop with an unlabelled TypeError from
    # range, and replicas = True silently ran one replica
    m = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1)
    cfg = _cfg(dt=0.1, t_final=0.2, n_particles=8)
    x0 = Observable(eval=lambda x: np.asarray(x)[..., 0], lipschitz_constant=1.0, name="x0")
    calls = {
        "chaos_rate": lambda n: chaos_rate_experiment(m, [4, 8], cfg, replicas=n),
        "observable_deviation": lambda n: observable_deviation_experiment(m, x0, [0.1], n, cfg),
        "empirical_deviation": lambda n: empirical_measure_deviation(m, [0.1], n, cfg),
        "equilibrium": lambda n: equilibrium_convergence(m, cfg, replicas=n),
    }
    for replicas in (2.5, True):
        with pytest.raises(ValidationError, match=f"replicas must be an integer, not {replicas}"):
            calls[kind](replicas)


@pytest.mark.parametrize("n_grid", [[16, 16], [16, 32, 16], [0, 16], []])
def test_chaos_rate_grid_sizes_must_be_distinct_and_positive(n_grid):
    m = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1)
    with pytest.raises(ValidationError, match="n_grid"):
        chaos_rate_experiment(m, n_grid, _cfg(dt=0.1, t_final=0.2), replicas=2, m_reference=512)


@pytest.mark.parametrize("kind", ["observable_deviation", "empirical_deviation", "equilibrium"])
def test_negative_reference_size_is_named_by_the_flow(kind):
    m = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1)
    cfg = _cfg(dt=0.1, t_final=0.2, n_particles=8)
    x0 = Observable(eval=lambda x: np.asarray(x)[..., 0], lipschitz_constant=1.0, name="x0")
    calls = {
        "observable_deviation": lambda: observable_deviation_experiment(
            m, x0, [0.1], 2, cfg, m_reference=-5),
        "empirical_deviation": lambda: empirical_measure_deviation(m, [0.1], 2, cfg,
                                                                   m_reference=-5),
        "equilibrium": lambda: equilibrium_convergence(m, cfg, replicas=2, gap_times=[0.2],
                                                       m_reference=-5),
    }
    with pytest.raises(ValidationError, match=r"^reference flow: m must be >= 0.*\(m=-5\)"):
        calls[kind]()
    with pytest.raises(ValidationError, match=r"^reference flow: m must be >= 0"):
        build_reference_flow(m, -5, cfg)


def test_chaos_rate_rejects_small_reference():
    m = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1)
    with pytest.raises(Exception):
        chaos_rate_experiment(m, [64], _cfg(), replicas=2, m_reference=128)


def test_chaos_rate_rejects_small_supplied_flow():
    # the M rule applies to the flow that is used, not to the m_reference argument
    m = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1)
    flow = build_reference_flow(m, 64, _cfg())
    with pytest.raises(ValidationError, match="M=64"):
        chaos_rate_experiment(m, [32, 64], _cfg(), replicas=2, m_reference=1024, flow=flow)


# ---------------------------------------------------------------------------
# observable deviation experiment


def test_constant_observable_has_zero_tails():
    m = _ou_model()
    obs = Observable(eval=lambda x: np.zeros(np.asarray(x).shape[:-1]),
                     lipschitz_constant=1.0, name="const")
    table = observable_deviation_experiment(m, obs, [0.01, 0.1], replicas=20,
                                            config=_cfg(), m_reference=512)
    assert table.empirical_probs == [0.0, 0.0]
    assert table.mean_square_error == 0.0


def test_observable_mse_matches_lln_oracle():
    # oracle: particle average of x over N iid OU draws has variance Var(t)/N
    m = _ou_model(mean0=1.0)
    obs = Observable(eval=lambda x: np.asarray(x)[..., 0], lipschitz_constant=1.0, name="x0")
    n = 64
    reps = 400
    cfg = _cfg(dt=0.01, t_final=0.5, n_particles=n)
    table = observable_deviation_experiment(m, obs, [0.05], replicas=reps, config=cfg,
                                            m_reference=200_000)
    expected_mse = ou_variance(0.5, 1.0, 1.0) / n
    se = expected_mse * np.sqrt(2.0 / reps)
    assert abs(table.mean_square_error - expected_mse) < 4 * se + 0.1 * expected_mse
    assert table.lln_constant == pytest.approx(n * table.mean_square_error)
    assert table.threshold == pytest.approx(np.sqrt(table.mean_square_error))


def test_observable_probs_decrease_in_r():
    m = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1)
    obs = Observable(eval=lambda x: np.asarray(x)[..., 0], lipschitz_constant=1.0, name="x0")
    table = observable_deviation_experiment(m, obs, [0.0, 0.05, 0.5], replicas=60,
                                            config=_cfg(), m_reference=512)
    p = table.empirical_probs
    assert p[0] >= p[1] >= p[2]
    assert p[2] == 0.0


def test_observable_rescaling_flag():
    m = _ou_model()
    wide = Observable(eval=lambda x: 3.0 * np.asarray(x)[..., 0], lipschitz_constant=3.0,
                      name="3x")
    table = observable_deviation_experiment(m, wide, [0.05], replicas=10,
                                            config=_cfg(n_particles=16), m_reference=512)
    assert table.metadata["rescaled"] is True


# ---------------------------------------------------------------------------
# empirical measure deviation


def test_empirical_deviation_extreme_radii():
    m = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1)
    table = empirical_measure_deviation(m, [0.0, 100.0], replicas=15, config=_cfg(),
                                        m_reference=512)
    assert table.empirical_probs[0] == 1.0  # W1 > 0 almost surely
    assert table.empirical_probs[1] == 0.0


def test_sup_over_time_dominates_terminal():
    m = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1)
    cfg = _cfg(snapshot_stride=5)
    term = empirical_measure_deviation(m, [0.05], replicas=25, config=cfg, m_reference=512)
    sup = empirical_measure_deviation(m, [0.05], replicas=25, config=cfg, m_reference=512,
                                      sup_over_time=True)
    assert sup.empirical_probs[0] >= term.empirical_probs[0]
    assert sup.metadata["statistic"] == "sup_t W1"


# ---------------------------------------------------------------------------
# equilibrium convergence


def test_equilibrium_started_at_steady_state_sits_at_floor():
    # OU with rate 1 and initial law N(0, 1) is already stationary
    m = _ou_model()

    def gaussian_target(n, salt):
        return np.random.default_rng(10_000 + salt).normal(size=(n, 1))

    curve = equilibrium_convergence(m, _cfg(dt=0.02, t_final=1.0, n_particles=128,
                                            snapshot_stride=10),
                                    target_sampler=gaussian_target, replicas=6)
    w = np.asarray(curve.w2_to_target)
    assert np.all(w < 4.0 * curve.noise_floor)


def test_equilibrium_decay_from_displaced_start():
    m = _ou_model(mean0=3.0)

    def gaussian_target(n, salt):
        return np.random.default_rng(20_000 + salt).normal(size=(n, 1))

    curve = equilibrium_convergence(m, _cfg(dt=0.02, t_final=3.0, n_particles=256,
                                            snapshot_stride=15),
                                    target_sampler=gaussian_target, replicas=6)
    w = np.asarray(curve.w2_to_target)
    assert w[0] > 5.0 * curve.noise_floor
    assert w[-1] < w[0] / 3.0
    assert curve.fitted_decay_rate is not None
    assert 0.5 < curve.fitted_decay_rate < 2.0  # true exponential rate is 1


def test_equilibrium_gap_uniformity_outputs():
    m = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1)
    curve = equilibrium_convergence(m, _cfg(dt=0.02, t_final=1.0, snapshot_stride=10),
                                    target_sampler=lambda n, salt: np.random.default_rng(
                                        salt).normal(size=(n, 1)),
                                    replicas=5, gap_times=[0.24, 0.5, 1.0], m_reference=512)
    assert len(curve.gap_means) == 3
    assert all(g >= 0.0 for g in curve.gap_means)
    assert curve.gap_slope is not None and curve.gap_slope_se is not None


def test_one_gap_time_writes_a_nan_gap_slope(tmp_path):
    # one time gives a gap mean but no slope: nan, as the chaos rate writes
    # for one N, where a fit to one abscissa had read a slope with se 9.6e12
    run(parse_config("[sim]\ndt = 0.1\nn_particles = 8\nreplicas = 3\nseed = 5\n"
                     "[reference]\nm = 128\n[experiment]\nkind = equilibrium\n"
                     "t_equilibrium = 0.4\ngap_times = 0.4\n[output]\nplots = false\n"),
        output_dir=str(tmp_path))
    summary = (tmp_path / "equilibrium_summary.csv").read_text().splitlines()
    row = dict(zip(summary[0].split(","), summary[1].split(",")))
    assert (row["gap_slope"], row["gap_slope_se"]) == ("nan", "nan")
    gaps = (tmp_path / "gap_uniformity.csv").read_text().splitlines()
    assert len(gaps) == 2 and gaps[1].startswith("0.40000000000000002,")
    assert float(gaps[1].split(",")[1]) > 0


def test_reference_flow_reuse_is_deterministic():
    m = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1)
    cfg = _cfg()
    f1 = build_reference_flow(m, 512, cfg)
    f2 = build_reference_flow(m, 512, cfg)
    assert np.array_equal(f1.states, f2.states)
    fit1 = chaos_rate_experiment(m, [16], cfg, replicas=4, m_reference=512, flow=f1)
    fit2 = chaos_rate_experiment(m, [16], cfg, replicas=4, m_reference=512, flow=f2)
    assert fit1.mean_sq_gaps == fit2.mean_sq_gaps

"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

These tests exercise the full pipeline at realistic scale, so the module
takes several minutes.  Expensive fixtures are shared across criteria.
"""

import hashlib
import itertools
import os

import numpy as np
import pytest

from meanfieldlab import (EmpiricalMeasure, Observable, SimConfig,
                          chaos_rate_experiment, empirical_measure_deviation,
                          equilibrium_convergence, granular_media_model,
                          linear_test_model, observable_deviation_experiment,
                          ou_mean, ou_variance, power_potential, quadratic_potential,
                          simulate_coupled, simulate_particle_system,
                          wasserstein_1d, wasserstein_assignment, wilson_interval,
                          kr_dual_lower_bound, quantile_dual_family,
                          build_reference_flow, parse_config)
from meanfieldlab.engine import ModelSpec
from meanfieldlab.models import DriftKernel, DiffusionSpec, InitialLaw
from meanfieldlab.runner import load_config_or_manifest, run

pytestmark = pytest.mark.slow


def _report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


def _quadratic_model():
    return granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1)


@pytest.fixture(scope="module")
def chaos_fit():
    """Shared by criteria 1 and 4: the full-scale rate experiment."""
    cfg = SimConfig(dt=0.01, t_final=1.0, n_particles=512, seed=2026)
    return chaos_rate_experiment(_quadratic_model(), [16, 32, 64, 128, 256, 512], cfg,
                                 replicas=200, m_reference=8192)


def test_criterion_01_chaos_rate(chaos_fit):
    fit = chaos_fit
    ok = (-1.3 <= fit.slope <= -0.7) and fit.r_squared >= 0.9 and not fit.degenerate
    _report(1, "chaos rate C/N",
            ok, f"slope={fit.slope:.4f} r2={fit.r_squared:.4f}")


def test_criterion_02_coupling_null():
    cfg = SimConfig(dt=0.01, t_final=0.5, n_particles=64, seed=5)

    zero_model = ModelSpec(
        drift=DriftKernel(dim=1, eval=lambda x, y: np.zeros(np.broadcast_shapes(x.shape,
                                                                                y.shape)),
                          mean_field=lambda x, points, weights: np.zeros_like(x)),
        diffusion=DiffusionSpec.isotropic(1),
        initial_law=InitialLaw.gaussian([0.0], [[1.0]]),
        name="zero-drift")
    linear = linear_test_model(1.0, 1, mean0=0.5)

    ok, details = True, []
    for model in (zero_model, linear):
        flow = build_reference_flow(model, 256, cfg)
        res = simulate_coupled(model, cfg, flow)
        exact = bool(np.all(res.mean_square_gap == 0.0))
        ok = ok and exact
        details.append(f"{model.name}: max gap {np.max(res.mean_square_gap):.3g}")
    _report(2, "coupling null tests bit-exact", ok, "; ".join(details))


def test_criterion_03_ou_closed_form():
    m0, v0, rate, t = 1.0, 0.5, 1.0, 1.0
    model = linear_test_model(rate, 1, mean0=m0, var0=v0)
    samples = []
    for rep in range(100):
        cfg = SimConfig(dt=0.01, t_final=t, n_particles=512, seed=404, replica_id=rep,
                        snapshot_stride=100)
        samples.append(simulate_particle_system(model, cfg).terminal.ravel())
    x = np.concatenate(samples)
    n = len(x)
    mean_err = abs(x.mean() - ou_mean(t, m0, rate))
    var_err = abs(x.var(ddof=1) - ou_variance(t, v0, rate))
    se_mean = x.std(ddof=1) / np.sqrt(n)
    se_var = x.var(ddof=1) * np.sqrt(2.0 / n)
    ok = mean_err < 3 * se_mean and var_err < 3 * se_var
    _report(3, "OU closed-form oracle", ok,
            f"mean err {mean_err:.2e} (3se {3 * se_mean:.2e}), "
            f"var err {var_err:.2e} (3se {3 * se_var:.2e})")


def test_criterion_04_wasserstein_chain(chaos_fit):
    fit = chaos_fit
    ok, rows = True, []
    for n, gap, gse, w2sq, wse in zip(fit.n_grid, fit.mean_sq_gaps, fit.stderrs,
                                      fit.w2_sq_estimates, fit.w2_sq_stderrs):
        budget = gap + 3.0 * float(np.hypot(gse, wse))
        holds = w2sq <= budget
        ok = ok and holds
        rows.append(f"N={n}: {w2sq:.2e} <= {budget:.2e} {'ok' if holds else 'VIOLATED'}")
    _report(4, "W2^2 chain vs coupling gap", ok, "; ".join(rows))


def test_criterion_05_metric_suite():
    rng = np.random.default_rng(77)
    checked = {"triples": 0, "brute": 0, "cross": 0, "dual": 0}
    ok = True

    def solver(p, mu, nu):
        if mu.dim == 1:
            return wasserstein_1d(p, mu, nu).cost
        return wasserstein_assignment(p, mu, nu).cost

    for case in range(1000):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 65))
        clouds = [EmpiricalMeasure.uniform(rng.normal(scale=1 + rng.random(),
                                                      size=(n, d)) + rng.normal())
                  for _ in range(3)]
        a, b, c = clouds
        for p in (1, 2):
            dab, dba = solver(p, a, b), solver(p, b, a)
            dbc, dac = solver(p, b, c), solver(p, a, c)
            ok &= abs(dab - dba) <= 1e-9
            ok &= dac <= dab + dbc + 1e-9
        ok &= solver(1, a, b) <= solver(2, a, b) + 1e-12
        checked["triples"] += 1

        if n <= 6:
            best = min(np.mean(np.linalg.norm(a.points - b.points[list(perm)], axis=1) ** 2)
                       for perm in itertools.permutations(range(n)))
            ok &= abs(wasserstein_assignment(2, a, b).cost - best ** 0.5) <= 1e-9
            checked["brute"] += 1
        if d == 1:
            for p in (1, 2):
                ok &= abs(wasserstein_1d(p, a, b).cost
                          - wasserstein_assignment(p, a, b).cost) <= 1e-9
            checked["cross"] += 1
            if case % 10 == 0:
                dual = kr_dual_lower_bound(a, b, quantile_dual_family(a, b, n_anchors=8))
                ok &= dual <= wasserstein_1d(1, a, b).cost + 1e-9
                checked["dual"] += 1
        if not ok:
            break

    _report(5, "metric suite", ok,
            f"{checked['triples']} triples, {checked['brute']} brute-force, "
            f"{checked['cross']} cross-solver, {checked['dual']} dual checks")


def test_criterion_06_observable_deviation_tails():
    model = _quadratic_model()
    obs = Observable(eval=lambda x: np.asarray(x)[..., 0], lipschitz_constant=1.0, name="x0")
    cfg = SimConfig(dt=0.01, t_final=1.0, n_particles=128, seed=606)
    table = observable_deviation_experiment(
        model, obs, 128, [0.01, 0.02, 0.03, 0.04, 0.06, 0.08, 0.12],
        replicas=5000, config=cfg, m_reference=8192)

    c, se = table.fitted_c, table.fitted_c_se
    ci_excludes_zero = c is not None and se is not None and c - 1.959964 * se > 0
    dominated = all(
        p <= 2.0 * np.exp(-(c / 2.0) * 128 * r * r)
        for r, p in zip(table.r_grid, table.empirical_probs)) if c else False
    ok = ci_excludes_zero and dominated
    _report(6, "Gaussian deviation tails", ok,
            f"fitted c={c:.3f}+-{se:.3f}, window {table.fit_window}, "
            f"dominated at c/2: {dominated}")


def test_criterion_07_w1_deviation_monotone_in_n():
    model = _quadratic_model()
    r_grid = [0.04, 0.06, 0.08, 0.12]
    tables = {}
    for n in (128, 256, 512):
        cfg = SimConfig(dt=0.01, t_final=1.0, n_particles=n, seed=707)
        tables[n] = empirical_measure_deviation(model, n, r_grid, replicas=400,
                                                config=cfg, m_reference=8192)
    ok, notes = True, []
    for k, r in enumerate(r_grid):
        probs = [tables[n].empirical_probs[k] for n in (128, 256, 512)]
        nonincreasing = probs[0] >= probs[1] >= probs[2]
        intervals = [(tables[n].wilson_lows[k], tables[n].wilson_highs[k])
                     for n in (128, 256, 512)]
        disjoint = all(intervals[i][0] > intervals[i + 1][1] or probs[i] == probs[i + 1]
                       for i in range(2))
        flag = "" if disjoint else " [overlapping intervals]"
        ok = ok and nonincreasing
        notes.append(f"r={r}: " + "->".join(f"{p:.3f}" for p in probs) + flag)
    _report(7, "W1 deviation nonincreasing in N", ok, "; ".join(notes))


def test_criterion_08_equilibration():
    ou = linear_test_model(1.0, 1, mean0=3.0, var0=1.0)
    cfg = SimConfig(dt=0.02, t_final=4.0, n_particles=512, seed=808, snapshot_stride=10)

    def gaussian_target(n, salt):
        return np.random.default_rng(5_000 + salt).normal(size=(n, 1))

    ou_curve = equilibrium_convergence(ou, 512, 4.0, cfg, target_sampler=gaussian_target,
                                       replicas=8)
    rate_ok = ou_curve.fitted_decay_rate is not None \
        and abs(ou_curve.fitted_decay_rate - 1.0) <= 0.3

    # displaced start so a decay regime exists above the sampling noise floor
    model = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1,
                                 initial_law=InitialLaw.gaussian([3.0], [[1.0]]))
    gcfg = SimConfig(dt=0.02, t_final=8.0, n_particles=128, seed=809, snapshot_stride=20)
    curve = equilibrium_convergence(model, 128, 8.0, gcfg, replicas=30,
                                    gap_times=[1.0, 2.0, 4.0, 8.0], m_reference=2048)
    granular_ok = curve.fitted_decay_rate is not None and curve.fitted_decay_rate > 0
    mean_gap = float(np.mean(curve.gap_means))
    # no systematic growth: trend over t in {1,2,4,8} indistinguishable from flat
    slope_ok = abs(curve.gap_slope) <= 0.1 * mean_gap + 2.0 * curve.gap_slope_se

    ok = rate_ok and granular_ok and slope_ok
    _report(8, "exponential equilibration", ok,
            f"OU rate {ou_curve.fitted_decay_rate:.3f} (target 1 +-30%), "
            f"granular rate {curve.fitted_decay_rate:.3f}, "
            f"gap slope {curve.gap_slope:.2e}+-{curve.gap_slope_se:.2e} "
            f"vs mean gap {mean_gap:.2e}")


def test_criterion_09_tamed_cubic():
    model = granular_media_model(quadratic_potential(1.0), power_potential(3.0), 1)
    diverged = 0
    for rep in range(200):
        cfg = SimConfig(dt=0.005, t_final=0.5, n_particles=256, seed=909, replica_id=rep,
                        taming=True, snapshot_stride=100)
        try:
            simulate_particle_system(model, cfg)
        except Exception:
            diverged += 1
    no_div = diverged == 0

    cfg = SimConfig(dt=0.005, t_final=0.5, n_particles=128, seed=910, taming=True)
    fit = chaos_rate_experiment(model, [16, 32, 64, 128], cfg, replicas=40,
                                m_reference=2048)
    slope_ok = fit.slope <= -0.5 and not fit.degenerate
    ok = no_div and slope_ok
    _report(9, "tamed cubic model", ok,
            f"divergences {diverged}/200, slope {fit.slope:.3f}")


def test_criterion_10_manifest_reproducibility(tmp_path):
    cfg_text = """
[model]
family = granular_quadratic

[sim]
dt = 0.02
t_final = 0.5
n_grid = 8, 16, 32
replicas = 10
seed = 42

[reference]
m = 512
picard_iters = 2

[output]
directory = {out}
"""

    def digests(out):
        result = {}
        for name in os.listdir(out):
            if name.endswith(".csv"):
                with open(os.path.join(out, name), "rb") as fh:
                    result[name] = hashlib.sha256(fh.read()).hexdigest()
        return result

    out1 = str(tmp_path / "one")
    run(parse_config(cfg_text.format(out=out1)))
    cfg2 = load_config_or_manifest(os.path.join(out1, "manifest.jsonl"))
    out2 = str(tmp_path / "two")
    run(cfg2, output_dir=out2)
    d1, d2 = digests(out1), digests(out2)
    ok = d1 == d2 and len(d1) >= 2
    _report(10, "manifest rerun byte-identical", ok,
            f"{len(d1)} CSVs compared between a run and its manifest rerun")

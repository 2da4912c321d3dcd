"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

These tests exercise the full pipeline at realistic scale.  Each criterion's
body is a function of a seed offset that returns a Verdict: offset 0 gives
the pinned seeds the tests run at, and every other offset k moves each seed
by k * 2^32, so different offsets key disjoint noise.  `scripts/gate_rates.py`
runs the criteria over many offsets to measure how often each gate passes.
"""

import functools
import hashlib
import itertools
import os
import tempfile
from typing import NamedTuple

import numpy as np
import pytest

from meanfieldlab import (EmpiricalMeasure, Observable, SimConfig,
                          chaos_rate_experiment, empirical_measure_deviation,
                          equilibrium_convergence, granular_media_model,
                          observable_deviation_experiment,
                          ou_mean, ou_variance, power_potential, quadratic_potential,
                          simulate_coupled, simulate_particle_system,
                          wasserstein_1d, wasserstein_assignment, wilson_interval,
                          kr_dual_lower_bound, quantile_dual_family,
                          build_reference_flow, parse_config, zero_potential)
from meanfieldlab.engine import ModelSpec
from meanfieldlab.models import DriftKernel, DiffusionSpec, InitialLaw
from meanfieldlab.runner import load_config_or_manifest, run

pytestmark = pytest.mark.slow


class Verdict(NamedTuple):
    ok: bool
    stats: dict  # the statistics the gate decides on, by name
    detail: str


def _seed(base: int, offset: int) -> int:
    """The pinned seed `base` at a seed offset: offset 0 is `base` itself."""
    return base + (offset << 32)


def _report(num: int, verdict: Verdict):
    line = (f"criterion {num:02d} {CRITERIA[num][0]}: {'PASS' if verdict.ok else 'FAIL'}  "
            f"{verdict.detail}")
    print(line)
    assert verdict.ok, line


def _quadratic_model():
    return granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1)


def _ou_model(rate, mean0, var0, name=None):
    """dX = sqrt(2) dB - rate X dt in 1-D: granular media with V = rate x^2 / 2 and W = 0."""
    return granular_media_model(quadratic_potential(rate), zero_potential(), 1,
                                initial_law=InitialLaw.gaussian([mean0], var0), name=name)


@functools.cache
def _chaos_fit(offset: int):
    """Shared by criteria 1 and 4: the full-scale rate experiment."""
    cfg = SimConfig(dt=0.01, t_final=1.0, n_particles=512, seed=_seed(2026, offset))
    return chaos_rate_experiment(_quadratic_model(), [16, 32, 64, 128, 256, 512], cfg,
                                 replicas=200, m_reference=8192)


def criterion_01(offset: int = 0) -> Verdict:
    fit = _chaos_fit(offset)
    ok = (-1.3 <= fit.slope <= -0.7) and fit.r_squared >= 0.9 and not fit.degenerate
    return Verdict(ok, {"slope": fit.slope, "r_squared": fit.r_squared,
                        "degenerate": fit.degenerate},
                   f"slope={fit.slope:.4f} r2={fit.r_squared:.4f}")


def test_criterion_01_chaos_rate():
    _report(1, criterion_01())


def criterion_02(offset: int = 0) -> Verdict:
    cfg = SimConfig(dt=0.01, t_final=0.5, n_particles=64, seed=_seed(5, offset))

    zero_model = ModelSpec(
        drift=DriftKernel(dim=1, eval=lambda x, y: np.zeros(np.broadcast_shapes(x.shape,
                                                                                y.shape)),
                          mean_field=lambda x, points: np.zeros_like(x)),
        diffusion=DiffusionSpec.isotropic(1),
        initial_law=InitialLaw.gaussian([0.0], [[1.0]]),
        name="zero-drift")
    ou = _ou_model(1.0, 0.5, 1.0, name="linear(rate=1.0)")

    ok, details, stats = True, [], {}
    for model in (zero_model, ou):
        flow = build_reference_flow(model, 256, cfg)
        res = simulate_coupled(model, cfg, flow)
        exact = bool(np.all(res.mean_square_gap == 0.0))
        ok = ok and exact
        stats[f"max_gap_{model.name}"] = float(np.max(res.mean_square_gap))
        details.append(f"{model.name}: max gap {np.max(res.mean_square_gap):.3g}")
    return Verdict(ok, stats, "; ".join(details))


def test_criterion_02_coupling_null():
    _report(2, criterion_02())


def criterion_03(offset: int = 0) -> Verdict:
    m0, v0, rate, t = 1.0, 0.5, 1.0, 1.0
    model = _ou_model(rate, m0, v0)
    samples = []
    for rep in range(100):
        cfg = SimConfig(dt=0.01, t_final=t, n_particles=512, seed=_seed(404, offset),
                        replica_id=rep, snapshot_stride=100)
        samples.append(simulate_particle_system(model, cfg).terminal.ravel())
    x = np.concatenate(samples)
    n = len(x)
    mean_err = abs(x.mean() - ou_mean(t, m0, rate))
    var_err = abs(x.var(ddof=1) - ou_variance(t, v0, rate))
    se_mean = x.std(ddof=1) / np.sqrt(n)
    se_var = x.var(ddof=1) * np.sqrt(2.0 / n)
    ok = mean_err < 3 * se_mean and var_err < 3 * se_var
    return Verdict(ok, {"mean_err_over_se": mean_err / se_mean,
                        "var_err_over_se": var_err / se_var},
                   f"mean err {mean_err:.2e} (3se {3 * se_mean:.2e}), "
                   f"var err {var_err:.2e} (3se {3 * se_var:.2e})")


def test_criterion_03_ou_closed_form():
    _report(3, criterion_03())


def criterion_04(offset: int = 0) -> Verdict:
    fit = _chaos_fit(offset)
    ok, rows, ratios = True, [], []
    for n, gap, gse, w2sq, wse in zip(fit.n_grid, fit.mean_sq_gaps, fit.stderrs,
                                      fit.w2_sq_estimates, fit.w2_sq_stderrs):
        budget = gap + 3.0 * float(np.hypot(gse, wse))
        holds = w2sq <= budget
        ok = ok and holds
        ratios.append(w2sq / budget)
        rows.append(f"N={n}: {w2sq:.2e} <= {budget:.2e} {'ok' if holds else 'VIOLATED'}")
    return Verdict(ok, {"max_w2sq_over_budget": max(ratios)}, "; ".join(rows))


def test_criterion_04_wasserstein_chain():
    _report(4, criterion_04())


def criterion_05(offset: int = 0) -> Verdict:
    rng = np.random.default_rng(_seed(77, offset))
    checked = {"triples": 0, "brute": 0, "cross": 0, "dual": 0}
    ok = True

    def solver(p, mu, nu):
        if mu.dim == 1:
            return wasserstein_1d(p, mu, nu)
        return wasserstein_assignment(p, mu, nu)

    for case in range(1000):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 65))
        clouds = [EmpiricalMeasure(rng.normal(scale=1 + rng.random(), size=(n, d)) + rng.normal())
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
            ok &= abs(wasserstein_assignment(2, a, b) - best ** 0.5) <= 1e-9
            checked["brute"] += 1
        if d == 1:
            for p in (1, 2):
                ok &= abs(wasserstein_1d(p, a, b) - wasserstein_assignment(p, a, b)) <= 1e-9
            checked["cross"] += 1
            if case % 10 == 0:
                dual = kr_dual_lower_bound(a, b, quantile_dual_family(a, b, n_anchors=8))
                ok &= dual <= wasserstein_1d(1, a, b) + 1e-9
                checked["dual"] += 1
        if not ok:
            break

    return Verdict(bool(ok), dict(checked),
                   f"{checked['triples']} triples, {checked['brute']} brute-force, "
                   f"{checked['cross']} cross-solver, {checked['dual']} dual checks")


def test_criterion_05_metric_suite():
    _report(5, criterion_05())


def criterion_06(offset: int = 0) -> Verdict:
    model = _quadratic_model()
    obs = Observable(eval=lambda x: np.asarray(x)[..., 0], lipschitz_constant=1.0, name="x0")
    cfg = SimConfig(dt=0.01, t_final=1.0, n_particles=128, seed=_seed(606, offset))
    table = observable_deviation_experiment(
        model, obs, [0.01, 0.02, 0.03, 0.04, 0.06, 0.08, 0.12],
        replicas=5000, config=cfg, m_reference=8192)

    c, se = table.fitted_c, table.fitted_c_se
    ci_excludes_zero = c is not None and se is not None and c - 1.959964 * se > 0
    dominated = all(
        p <= 2.0 * np.exp(-(c / 2.0) * 128 * r * r)
        for r, p in zip(table.r_grid, table.empirical_probs)) if c else False
    ok = ci_excludes_zero and dominated
    return Verdict(ok, {"fitted_c": c, "fitted_c_se": se, "dominated": dominated},
                   f"fitted c={c:.3f}+-{se:.3f}, window {table.fit_window}, "
                   f"dominated at c/2: {dominated}")


def test_criterion_06_observable_deviation_tails():
    _report(6, criterion_06())


def criterion_07(offset: int = 0) -> Verdict:
    model = _quadratic_model()
    r_grid = [0.04, 0.06, 0.08, 0.12]
    tables = {}
    for n in (128, 256, 512):
        cfg = SimConfig(dt=0.01, t_final=1.0, n_particles=n, seed=_seed(707, offset))
        tables[n] = empirical_measure_deviation(model, r_grid, replicas=400,
                                                config=cfg, m_reference=8192)
    ok, notes, stats = True, [], {}
    for k, r in enumerate(r_grid):
        probs = [tables[n].empirical_probs[k] for n in (128, 256, 512)]
        stats[f"probs_r{r}"] = probs
        nonincreasing = probs[0] >= probs[1] >= probs[2]
        intervals = [(tables[n].wilson_lows[k], tables[n].wilson_highs[k])
                     for n in (128, 256, 512)]
        disjoint = all(intervals[i][0] > intervals[i + 1][1] or probs[i] == probs[i + 1]
                       for i in range(2))
        flag = "" if disjoint else " [overlapping intervals]"
        ok = ok and nonincreasing
        notes.append(f"r={r}: " + "->".join(f"{p:.3f}" for p in probs) + flag)
    return Verdict(ok, stats, "; ".join(notes))


def test_criterion_07_w1_deviation_monotone_in_n():
    _report(7, criterion_07())


def criterion_08(offset: int = 0) -> Verdict:
    ou = _ou_model(1.0, 3.0, 1.0)
    cfg = SimConfig(dt=0.02, t_final=4.0, n_particles=512, seed=_seed(808, offset),
                    snapshot_stride=10)

    def gaussian_target(n, salt):
        return np.random.default_rng(_seed(5_000, offset) + salt).normal(size=(n, 1))

    ou_curve = equilibrium_convergence(ou, cfg, target_sampler=gaussian_target, replicas=8)
    rate_ok = ou_curve.fitted_decay_rate is not None \
        and abs(ou_curve.fitted_decay_rate - 1.0) <= 0.3

    # displaced start so a decay regime exists above the sampling noise floor
    model = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1,
                                 initial_law=InitialLaw.gaussian([3.0], [[1.0]]))
    gcfg = SimConfig(dt=0.02, t_final=8.0, n_particles=128, seed=_seed(809, offset),
                     snapshot_stride=20)
    curve = equilibrium_convergence(model, gcfg, replicas=30,
                                    gap_times=[1.0, 2.0, 4.0, 8.0], m_reference=2048)
    granular_ok = curve.fitted_decay_rate is not None and curve.fitted_decay_rate > 0
    mean_gap = float(np.mean(curve.gap_means))
    # no systematic growth: trend over t in {1,2,4,8} indistinguishable from flat
    slope_ok = abs(curve.gap_slope) <= 0.1 * mean_gap + 2.0 * curve.gap_slope_se

    ok = rate_ok and granular_ok and slope_ok
    return Verdict(ok, {"ou_rate": ou_curve.fitted_decay_rate,
                        "granular_rate": curve.fitted_decay_rate,
                        "gap_slope": curve.gap_slope, "gap_slope_se": curve.gap_slope_se,
                        "mean_gap": mean_gap},
                   f"OU rate {ou_curve.fitted_decay_rate:.3f} (target 1 +-30%), "
                   f"granular rate {curve.fitted_decay_rate:.3f}, "
                   f"gap slope {curve.gap_slope:.2e}+-{curve.gap_slope_se:.2e} "
                   f"vs mean gap {mean_gap:.2e}")


def test_criterion_08_equilibration():
    _report(8, criterion_08())


def criterion_09(offset: int = 0) -> Verdict:
    model = granular_media_model(quadratic_potential(1.0), power_potential(3.0), 1)
    diverged = 0
    for rep in range(200):
        cfg = SimConfig(dt=0.005, t_final=0.5, n_particles=256, seed=_seed(909, offset),
                        replica_id=rep, taming=True, snapshot_stride=100)
        try:
            simulate_particle_system(model, cfg)
        except Exception:
            diverged += 1
    no_div = diverged == 0

    cfg = SimConfig(dt=0.005, t_final=0.5, n_particles=128, seed=_seed(910, offset),
                    taming=True)
    fit = chaos_rate_experiment(model, [16, 32, 64, 128], cfg, replicas=40,
                                m_reference=2048)
    slope_ok = fit.slope <= -0.5 and not fit.degenerate
    ok = no_div and slope_ok
    return Verdict(ok, {"divergences": diverged, "slope": fit.slope,
                        "degenerate": fit.degenerate},
                   f"divergences {diverged}/200, slope {fit.slope:.3f}")


def test_criterion_09_tamed_cubic():
    _report(9, criterion_09())


def criterion_10(offset: int = 0) -> Verdict:
    cfg_text = """
[model]
family = granular_quadratic

[sim]
dt = 0.02
t_final = 0.5
n_grid = 8, 16, 32
replicas = 10
seed = {seed}

[reference]
m = 512

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

    with tempfile.TemporaryDirectory() as tmp:
        out1 = os.path.join(tmp, "one")
        run(parse_config(cfg_text.format(out=out1, seed=_seed(42, offset))))
        cfg2 = load_config_or_manifest(os.path.join(out1, "manifest.jsonl"))
        out2 = os.path.join(tmp, "two")
        run(cfg2, output_dir=out2)
        d1, d2 = digests(out1), digests(out2)
    ok = d1 == d2 and len(d1) >= 2
    return Verdict(ok, {"csvs": len(d1), "identical": d1 == d2},
                   f"{len(d1)} CSVs compared between a run and its manifest rerun")


def test_criterion_10_manifest_reproducibility():
    _report(10, criterion_10())


# number -> (name, body), as the tests above report them
CRITERIA = {1: ("chaos rate C/N", criterion_01),
            2: ("coupling null tests bit-exact", criterion_02),
            3: ("OU closed-form oracle", criterion_03),
            4: ("W2^2 chain vs coupling gap", criterion_04),
            5: ("metric suite", criterion_05),
            6: ("Gaussian deviation tails", criterion_06),
            7: ("W1 deviation nonincreasing in N", criterion_07),
            8: ("exponential equilibration", criterion_08),
            9: ("tamed cubic model", criterion_09),
            10: ("manifest rerun byte-identical", criterion_10)}

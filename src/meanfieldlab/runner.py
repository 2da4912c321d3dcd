"""End-to-end run orchestration: build model, run experiment, persist artifacts.

Every run leaves a JSONL manifest alongside its CSV tables and SVG plots;
re-running from the manifest's embedded config reproduces the numeric
outputs byte for byte.
"""

from __future__ import annotations

import datetime
import hashlib
import io
import json
import os
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import __version__
from .config import RunConfig, parse_config, serialize_config
from .engine import SimConfig
from .errors import DivergenceError, ValidationError
from .experiments import (chaos_rate_experiment, empirical_measure_deviation,
                          equilibrium_convergence, observable_deviation_experiment)
from .models import (InitialLaw, ModelSpec, Observable, granular_media_model,
                     linear_test_model, power_potential, quadratic_potential,
                     vlasov_fokker_planck_model, zero_potential)
from .plots import emit_plot
from .rng import TARGET_NAMESPACE, NoiseGrid

__all__ = ["RunManifest", "build_model", "run", "replot"]


@dataclass
class RunManifest:
    config_text: str
    seed: int
    version: str
    started: str
    finished: str
    complete: bool
    files: dict  # path -> sha256 (or None for the manifest itself)
    error: Optional[dict] = None  # why an incomplete run stopped

    def to_jsonl(self) -> str:
        buf = io.StringIO()
        head = {"kind": "run", "version": self.version, "seed": self.seed,
                "started": self.started, "finished": self.finished,
                "complete": self.complete, "config_text": self.config_text}
        buf.write(json.dumps(head, sort_keys=True) + "\n")
        for path in sorted(self.files):
            buf.write(json.dumps({"kind": "artifact", "path": path,
                                  "sha256": self.files[path]}, sort_keys=True) + "\n")
        if self.error is not None:
            buf.write(json.dumps({"kind": "error", **self.error}, sort_keys=True) + "\n")
        return buf.getvalue()

    @classmethod
    def from_jsonl(cls, text: str) -> "RunManifest":
        lines = [json.loads(ln) for ln in text.strip().splitlines() if ln]
        head = next(ln for ln in lines if ln.get("kind") == "run")
        files = {ln["path"]: ln["sha256"] for ln in lines if ln.get("kind") == "artifact"}
        error = next(({k: v for k, v in ln.items() if k != "kind"}
                      for ln in lines if ln.get("kind") == "error"), None)
        return cls(config_text=head["config_text"], seed=head["seed"],
                   version=head["version"], started=head["started"],
                   finished=head["finished"], complete=head["complete"], files=files,
                   error=error)


def build_model(cfg: RunConfig) -> ModelSpec:
    m = cfg.model
    init = InitialLaw.gaussian(np.full(m.dim, m.init_mean), np.eye(m.dim) * m.init_var)
    if m.family == "granular_quadratic":
        return granular_media_model(quadratic_potential(m.v_coeff),
                                    quadratic_potential(m.w_coeff) if m.w_coeff != 0
                                    else zero_potential(),
                                    m.dim, initial_law=init)
    if m.family == "granular_cubic":
        return granular_media_model(quadratic_potential(m.v_coeff),
                                    power_potential(3.0, m.w_coeff),
                                    m.dim, initial_law=init)
    if m.family == "linear":
        return linear_test_model(m.rate, m.dim, mean0=m.mean0, var0=m.var0)
    if m.family == "kinetic":
        init2 = InitialLaw.gaussian(np.full(2 * m.dim, m.init_mean),
                                    np.eye(2 * m.dim) * m.init_var)
        return vlasov_fokker_planck_model(
            quadratic_potential(m.u_coeff),
            A=lambda v: m.friction_coeff * v,
            B=lambda x: m.confinement_coeff * x,
            d_prime=m.dim,
            initial_law=init2,
            a_lipschitz=abs(m.friction_coeff),
            b_lipschitz=abs(m.confinement_coeff),
        )
    raise ValidationError(f"unknown model family {m.family!r}")


def _sim_config(cfg: RunConfig, n_particles: int) -> SimConfig:
    return SimConfig(dt=cfg.sim.dt, t_final=cfg.sim.t_final, n_particles=n_particles,
                     seed=cfg.sim.seed, replica_id=0, taming=cfg.sim.taming,
                     snapshot_stride=cfg.output.snapshot_stride,
                     allow_large_dt=cfg.sim.allow_large_dt)


def _cell(v) -> str:
    """One CSV cell: a number at 17 significant digits, None as nan."""
    if v is None:
        v = float("nan")
    return format(float(v), ".17g") if isinstance(v, (int, float, np.floating)) else str(v)


def _csv(header: list[str], rows) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_cell(v) for v in row) + "\n")
    return buf.getvalue()


def _observable(name: str, dim: int) -> Observable:
    if name.startswith("x"):
        c = int(name[1:]) if len(name) > 1 else 0
        if c >= dim:
            raise ValidationError(f"observable {name!r} out of range for dimension {dim}")
        return Observable(eval=lambda x, c=c: np.asarray(x)[..., c],
                          lipschitz_constant=1.0, name=name)
    if name == "norm":
        return Observable(eval=lambda x: np.linalg.norm(np.asarray(x), axis=-1),
                          lipschitz_constant=1.0, name="norm")
    raise ValidationError(f"unknown observable {name!r} (use x<k> or norm)")


def _error_record(exc: Exception) -> dict:
    record = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, DivergenceError):
        record.update(step=exc.step, particle=exc.particle, replica=exc.replica)
    return record


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def run(cfg: RunConfig, output_dir: Optional[str] = None,
        seed: Optional[int] = None) -> RunManifest:
    """Execute the configured experiment and write all artifacts plus the manifest.

    If the run raises, the manifest is still written, with `complete` false,
    the artifacts written so far and an error record; then the exception
    propagates.
    """
    if seed is not None:
        cfg = replace(cfg, sim=replace(cfg.sim, seed=int(seed)))
    out = output_dir or cfg.output.directory
    os.makedirs(out, exist_ok=True)
    started = _now()
    config_text = serialize_config(cfg)
    artifacts: dict[str, str] = {}

    def write(name: str, text: str):
        path = os.path.join(out, name)
        with open(path, "w", newline="") as fh:
            fh.write(text)
        artifacts[name] = hashlib.sha256(text.encode()).hexdigest()

    def finish(error: Optional[dict] = None) -> RunManifest:
        files = dict(artifacts)
        files["manifest.jsonl"] = None
        manifest = RunManifest(config_text=config_text, seed=cfg.sim.seed, version=__version__,
                               started=started, finished=_now(), complete=error is None,
                               files=files, error=error)
        with open(os.path.join(out, "manifest.jsonl"), "w", newline="") as fh:
            fh.write(manifest.to_jsonl())
        return manifest

    try:
        _run_experiment(cfg, write)
    except Exception as exc:
        finish(_error_record(exc))
        raise
    return finish()


def _run_experiment(cfg: RunConfig, write) -> None:
    """Run the configured experiment and pass each artifact to `write(name, text)`."""
    model = build_model(cfg)
    kind = cfg.experiment.kind
    m_ref = cfg.reference.m or None
    picard = cfg.reference.picard_iters

    if kind == "chaos_rate":
        fit = chaos_rate_experiment(model, cfg.sim.n_grid, _sim_config(cfg, max(cfg.sim.n_grid)),
                                    replicas=cfg.sim.replicas, m_reference=m_ref,
                                    picard_iters=picard)
        write("rate_fit.csv", _csv(
            ["n", "mean_sq_gap", "stderr", "w2_sq_estimate", "w2_sq_stderr"],
            zip(fit.n_grid, fit.mean_sq_gaps, fit.stderrs,
                fit.w2_sq_estimates, fit.w2_sq_stderrs)))
        write("rate_fit_summary.csv", _csv(
            ["slope", "intercept", "r_squared", "slope_se", "degenerate"],
            [(fit.slope, fit.intercept, fit.r_squared, fit.slope_se, fit.degenerate)]))
        if cfg.output.plots and not fit.degenerate:
            write("rate_fit.svg", emit_plot(fit.n_grid, fit.mean_sq_gaps, yerr=fit.stderrs,
                                            kind="loglog", slope=fit.slope,
                                            intercept=fit.intercept,
                                            title="mean-square coupling gap vs N",
                                            xlabel="N", ylabel="E|X - Xbar|^2"))
    elif kind in ("observable_deviation", "empirical_deviation"):
        common = dict(n_particles=cfg.sim.n_particles, r_grid=cfg.experiment.r_grid,
                      replicas=cfg.sim.replicas, config=_sim_config(cfg, cfg.sim.n_particles),
                      m_reference=m_ref, picard_iters=picard)
        if kind == "observable_deviation":
            obs = _observable(cfg.experiment.observable, model.dim)
            table = observable_deviation_experiment(model, obs, **common)
        else:
            table = empirical_measure_deviation(model, sup_over_time=cfg.experiment.sup_over_time,
                                                **common)
        write("deviation_table.csv", _csv(
            ["r", "empirical_prob", "wilson_low", "wilson_high"],
            zip(table.r_grid, table.empirical_probs, table.wilson_lows, table.wilson_highs)))
        write("deviation_summary.csv", _csv(
            ["n_particles", "n_replicas", "fitted_c", "fitted_c_se",
             "mean_square_error", "lln_constant", "threshold"],
            [(table.n_particles, table.n_replicas, table.fitted_c, table.fitted_c_se,
              table.mean_square_error, table.lln_constant, table.threshold)]))
        if cfg.output.plots:
            pos = [(r, p) for r, p in zip(table.r_grid, table.empirical_probs) if p > 0]
            if pos:
                write("deviation_tails.svg", emit_plot(
                    [cfg.sim.n_particles * r * r for r, _ in pos], [p for _, p in pos],
                    kind="loglinear",
                    slope=-table.fitted_c if table.fitted_c is not None else None,
                    intercept=0.0 if table.fitted_c is not None else None,
                    title="deviation probability vs N r^2",
                    xlabel="N r^2", ylabel="P[deviation > r]"))
    elif kind == "equilibrium":
        target = None
        if cfg.experiment.target == "gaussian":
            tm, tv = cfg.experiment.target_mean, cfg.experiment.target_var

            def target(n, salt, tm=tm, tv=tv, d=model.dim, seed=cfg.sim.seed):
                z = NoiseGrid(seed, TARGET_NAMESPACE + salt).normals(np.arange(n), 0, d)
                return tm + np.sqrt(tv) * z

        curve = equilibrium_convergence(model, cfg.sim.n_particles, cfg.experiment.t_equilibrium,
                                        _sim_config(cfg, cfg.sim.n_particles),
                                        target_sampler=target, replicas=cfg.sim.replicas,
                                        gap_times=cfg.experiment.gap_times or None,
                                        m_reference=m_ref, picard_iters=picard)
        write("equilibrium_curve.csv", _csv(["t", "w2_to_target"],
                                            zip(curve.times, curve.w2_to_target)))
        write("equilibrium_summary.csv", _csv(
            ["fitted_decay_rate", "noise_floor", "gap_slope", "gap_slope_se"],
            [(curve.fitted_decay_rate, curve.noise_floor, curve.gap_slope,
              curve.gap_slope_se)]))
        if curve.gap_times:
            write("gap_uniformity.csv", _csv(["t", "mean_sq_gap", "stderr"],
                                             zip(curve.gap_times, curve.gap_means,
                                                 curve.gap_stderrs)))
        if cfg.output.plots:
            keep = [(t, w) for t, w in zip(curve.times, curve.w2_to_target) if w > 0 and t > 0]
            write("equilibrium_curve.svg", emit_plot(
                [t for t, _ in keep], [w for _, w in keep], kind="loglinear",
                slope=-curve.fitted_decay_rate if curve.fitted_decay_rate is not None else None,
                intercept=(np.log(keep[0][1]) + curve.fitted_decay_rate * keep[0][0])
                if curve.fitted_decay_rate is not None else None,
                title="W2 to steady state", xlabel="t", ylabel="W2"))
    else:
        raise ValidationError(f"unknown experiment kind {kind!r}")


def replot(table_path: str, kind: str) -> str:
    """Re-render an SVG from a result CSV (first column x, second y, optional third yerr)."""
    with open(table_path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")[:3]] for ln in lines[1:]]
    if not rows:
        raise ValidationError(f"{table_path}: empty table")
    x = [r[0] for r in rows]
    y = [r[1] for r in rows]
    yerr = [r[2] for r in rows] if len(rows[0]) > 2 and len(header) > 2 else None
    return emit_plot(x, y, yerr=yerr, kind=kind, xlabel=header[0], ylabel=header[1])


def load_config_or_manifest(path: str) -> RunConfig:
    """Accept either a config file or a manifest.jsonl with an embedded config."""
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_config(RunManifest.from_jsonl(text).config_text)
    return parse_config(text)

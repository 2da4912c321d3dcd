"""The benchmark's workloads: generated `mflab run` configs, work counts and verdicts.

Each workload is a dict of config values. `config_text` renders it, with the
workload seed, into the sectioned text that `meanfieldlab.config.parse_config`
reads; meanfieldlab receives nothing else. `particle_steps` counts the work a
run does from the same values, and `verdict` checks what the run wrote.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

DEFAULT_SEED = 7

WORKLOADS = {
    # Noise-bound: thousands of small NoiseGrid calls, closed-form drift,
    # 1-D quantile transport. Few steps and many replicas keep a run near one
    # second while the rate fit stays well inside its gate.
    "chaos_quadratic": {
        "model": {"family": "granular_quadratic", "dim": 1},
        "sim": {"dt": 0.1, "t_final": 0.5, "n_grid": [16, 32, 64, 128], "replicas": 200},
        "reference": {"m": 2048, "picard_iters": 2},
        "experiment": {"kind": "chaos_rate"},
    },
    # Kernel-bound: the cubic interaction takes the O(N*M) pairwise drift,
    # and the reference flow costs O(M^2) per step.
    "chaos_cubic": {
        "model": {"family": "granular_cubic", "dim": 1},
        "sim": {"dt": 0.02, "t_final": 0.5, "n_grid": [16, 32, 64], "replicas": 20,
                "taming": True},
        "reference": {"m": 1024, "picard_iters": 2},
        "experiment": {"kind": "chaos_rate"},
    },
    # Transport-bound: an exact 256-point assignment on every recorded
    # snapshot of recorded-trajectory runs. Run by hand only: BENCHMARK.json
    # lists two workloads, so that each measures for close to a minute.
    "equilibrium_2d": {
        "model": {"family": "granular_quadratic", "dim": 2, "init_mean": 3.0},
        "sim": {"dt": 0.02, "t_final": 4.0, "n_particles": 256, "replicas": 4},
        "reference": {"m": 2048, "picard_iters": 2},
        "experiment": {"kind": "equilibrium", "t_equilibrium": 4.0, "gap_times": [1, 2, 4]},
        "output": {"snapshot_stride": 10},
    },
}

# Columns a run may legitimately write as nan (documented fallbacks of a fit
# that has too few usable points); every other value must be finite.
NAN_COLUMNS = {
    "rate_fit_summary.csv": {"slope", "intercept", "r_squared", "slope_se"},
    "equilibrium_summary.csv": {"fitted_decay_rate", "gap_slope", "gap_slope_se"},
}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ", ".join(_fmt(v) for v in value)
    return str(value)


def config_text(name: str, seed: int) -> str:
    """The config file for one run of workload `name` at `seed`."""
    spec = WORKLOADS[name]
    lines = []
    for section in ("model", "sim", "reference", "experiment", "output"):
        values = dict(spec.get(section, {}))
        if section == "sim":
            values["seed"] = seed
        if values:
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {_fmt(val)}" for key, val in values.items())
            lines.append("")
    return "\n".join(lines)


def particle_steps(name: str) -> int:
    """Euler updates of one particle in one run, every Picard pass and coupled side counted.

    chaos_rate:  n_steps * (P*M + R * sum_N 2N)
    equilibrium: n_steps * (4N + R*N + P*M + R*2N), with n_steps = t_equilibrium / dt;
                 R*N is the recorded runs, 4N the burn-in target cloud (absent
                 with a gaussian target), and the last two terms are present
                 only when gap_times is set.
    """
    spec = WORKLOADS[name]
    sim, ref, exp = spec["sim"], spec["reference"], spec["experiment"]
    passes, replicas = ref["picard_iters"], sim["replicas"]
    if exp["kind"] == "chaos_rate":
        n_steps = round(sim["t_final"] / sim["dt"])
        return n_steps * (passes * ref["m"] + replicas * sum(2 * n for n in sim["n_grid"]))
    if exp["kind"] == "equilibrium":
        n, n_steps = sim["n_particles"], round(exp["t_equilibrium"] / sim["dt"])
        steps = replicas * n
        if exp.get("target", "burn_in") == "burn_in":
            steps += 4 * n
        if exp.get("gap_times"):
            steps += passes * (ref["m"] or 16 * n) + replicas * 2 * n
        return n_steps * steps
    raise ValueError(f"no particle-step formula for experiment kind {exp['kind']!r}")


def read_table(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def csv_digest(out_dir: str) -> str:
    """sha256 over every CSV a run wrote, in name order."""
    h = hashlib.sha256()
    for fname in sorted(f for f in os.listdir(out_dir) if f.endswith(".csv")):
        h.update(fname.encode() + b"\0")
        with open(os.path.join(out_dir, fname), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def verdict(name: str, out_dir: str) -> list[str]:
    """Reasons the run in `out_dir` is wrong; empty when it passes."""
    problems = []
    tables = {}
    for fname in sorted(f for f in os.listdir(out_dir) if f.endswith(".csv")):
        rows = tables[fname] = read_table(os.path.join(out_dir, fname))
        for row in rows:
            for col, raw in row.items():
                if not math.isfinite(float(raw)) and col not in NAN_COLUMNS.get(fname, ()):
                    problems.append(f"{fname}: non-finite {col} = {raw}")

    kind = WORKLOADS[name]["experiment"]["kind"]
    if kind == "chaos_rate":
        summary = tables["rate_fit_summary.csv"][0]
        slope, degenerate = float(summary["slope"]), float(summary["degenerate"]) != 0
        if degenerate:
            problems.append("rate fit is degenerate")
        if name == "chaos_quadratic" and not -1.3 <= slope <= -0.7:
            problems.append(f"slope {slope:.4f} outside [-1.3, -0.7]")
        if name == "chaos_cubic":
            gaps = [float(r["mean_sq_gap"]) for r in tables["rate_fit.csv"]]
            if not all(math.isfinite(g) and g > 0 for g in gaps):
                problems.append(f"coupling gaps not all finite and positive: {gaps}")
            if not slope < 0:
                problems.append(f"slope {slope:.4f} is not negative")
    elif kind == "equilibrium":
        rate = float(tables["equilibrium_summary.csv"][0]["fitted_decay_rate"])
        if not rate > 0:
            problems.append(f"fitted decay rate {rate} is not positive")
    return problems

"""Child process of the benchmark: times one workload through meanfieldlab.runner.run.

    python3 perfbench/worker.py setup   --workload W --seed S
    python3 perfbench/worker.py measure --workload W --seed S --seconds T --trace 0|1

`setup` times, in this fresh interpreter, the import of meanfieldlab, the
parse of the generated config and build_model. `measure` repeats runner.run
on the generated config, one run at a time, until T seconds have passed, and
checks every run's output. With --trace 1 it alternates traced and untraced
runs of the same config. Each mode prints one JSON object as its last line.
meanfieldlab is imported from the checkout's src directory, never from the
environment.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"
MIN_RUNS = 3
MIN_TRACED_PAIRS = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_program():
    """Import meanfieldlab from the checkout; refuse a copy found anywhere else."""
    sys.path.insert(0, str(SRC))
    mfl = importlib.import_module("meanfieldlab")
    if not Path(mfl.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"meanfieldlab imported from {mfl.__file__}, not from {SRC}")
    return mfl


def setup(name: str, seed: int) -> dict:
    t0 = time.perf_counter()
    import_program()
    from meanfieldlab.config import parse_config
    from meanfieldlab.runner import build_model
    t1 = time.perf_counter()
    cfg = parse_config(workloads.config_text(name, seed))
    t2 = time.perf_counter()
    build_model(cfg)
    t3 = time.perf_counter()
    return {"import_s": t1 - t0, "config_s": t2 - t1, "build_model_s": t3 - t2}


class Workload:
    """Runs one workload's config repeatedly into one output directory and checks each run."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.text = workloads.config_text(name, seed)
        self.out = str(OUT / name / "out")
        self.runner = importlib.import_module("meanfieldlab.runner")
        self.parse_config = importlib.import_module("meanfieldlab.config").parse_config

    def once(self, text: str | None = None, check: bool = True) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        cfg = self.parse_config(text or self.text)
        error = None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            self.runner.run(cfg, output_dir=self.out)
        except Exception as exc:  # a failed run is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        t1, c1 = time.perf_counter(), time.process_time()
        run = {"wall_s": t1 - t0, "cpu_s": c1 - c0,
               "problems": [error] if error else [], "digest": None, "bytes": 0}
        if error is None:
            run["digest"] = workloads.csv_digest(self.out)
            run["bytes"] = sum(os.path.getsize(os.path.join(self.out, f))
                               for f in os.listdir(self.out))
            if check:
                run["problems"] = workloads.verdict(self.name, self.out)
        return run


def fits(start: float, seconds: float, walls: list[float], runs: int = 1) -> bool:
    """Whether `runs` more runs of the median length end inside the measuring window."""
    return time.perf_counter() - start + runs * statistics.median(walls) <= seconds


def quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def check_repeats(runs: list[dict]):
    """A run of the same config must write the same CSVs as the first run."""
    first = runs[0]["digest"]
    for run in runs[1:]:
        if run["digest"] is not None and first is not None and run["digest"] != first:
            run["problems"].append("CSVs differ from the first run of this seed")


def measure(name: str, seed: int, seconds: float) -> dict:
    workload = Workload(name, seed)
    start = time.perf_counter()
    runs = [workload.once()]  # warm-up: checked, but its time is not counted
    timed = []
    while len(timed) < MIN_RUNS or fits(start, seconds, [r["wall_s"] for r in runs]):
        timed.append(workload.once())
    runs += timed
    check_repeats(runs)
    steps = workloads.particle_steps(name)
    return {
        "runs": [{"wall_s": r["wall_s"], "problems": r["problems"]} for r in runs],
        "wall_s": quartiles([r["wall_s"] for r in timed]),
        "cpu_s": quartiles([r["cpu_s"] for r in timed]),
        "particle_steps_per_s": quartiles([steps / r["wall_s"] for r in timed]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "csv_sha256": runs[0]["digest"],
    }


def _layer_metrics(summary: dict, wall_s: float, bytes_written: int) -> dict:
    calls, sizes = summary["calls"], summary["sizes"]
    busy, layer_busy, self_time = summary["busy"], summary["layer_busy"], summary["self"]
    rng_calls = calls.get("rng.normals", 0) + calls.get("rng.uniforms", 0)
    return {
        "rng.calls": rng_calls,
        "rng.draws": sizes.get("rng.normals", 0) + sizes.get("rng.uniforms", 0),
        "rng.busy_s": layer_busy.get("rng", 0.0),
        "rng.us_per_call": 1e6 * layer_busy.get("rng", 0.0) / max(rng_calls, 1),
        "rng.share": layer_busy.get("rng", 0.0) / wall_s,
        "models.calls": calls.get("models.mean_field_batch", 0),
        "models.pairwise_evals": sizes.get("models.mean_field_batch", 0),
        "models.busy_s": layer_busy.get("models", 0.0),
        "models.share": layer_busy.get("models", 0.0) / wall_s,
        "engine.reference_flow.calls": calls.get("engine.reference_flow", 0),
        "engine.reference_flow.busy_s": busy.get("engine.reference_flow", 0.0),
        "engine.coupled.calls": calls.get("engine.coupled", 0),
        "engine.coupled.busy_s": busy.get("engine.coupled", 0.0),
        "engine.particle_system.calls": calls.get("engine.particle_system", 0),
        "engine.particle_system.share": busy.get("engine.particle_system", 0.0) / wall_s,
        "engine.self_s": self_time.get("engine", 0.0),
        "wasserstein.solves_1d": calls.get("wasserstein.solve_1d", 0),
        "wasserstein.solves_assignment": calls.get("wasserstein.solve_assignment", 0),
        "wasserstein.assignment_entries": sizes.get("wasserstein.solve_assignment", 0),
        "wasserstein.busy_s": layer_busy.get("wasserstein", 0.0),
        "wasserstein.share": layer_busy.get("wasserstein", 0.0) / wall_s,
        "experiments.self_s": self_time.get("experiments", 0.0),
        "runner.self_s": self_time.get("runner", 0.0),
        "runner.bytes_written": bytes_written,
    }


# Counts that must repeat exactly across traced runs of one seed.
EXACT = ("rng.calls", "rng.draws", "models.calls", "models.pairwise_evals",
         "engine.reference_flow.calls", "engine.coupled.calls", "engine.particle_system.calls",
         "wasserstein.solves_1d", "wasserstein.solves_assignment",
         "wasserstein.assignment_entries")


def measure_traced(name: str, seed: int, seconds: float) -> dict:
    workload = Workload(name, seed)
    start = time.perf_counter()
    recorded = json.loads((Path(__file__).parent / "digests.json").read_text()).get(name)
    default_digest = None
    if seed != workloads.DEFAULT_SEED:
        default_text = workloads.config_text(name, workloads.DEFAULT_SEED)
        default_digest = workload.once(default_text, check=False)["digest"]

    tracer = Tracer()
    plain, traced, layers = [], [], []
    while len(traced) < MIN_TRACED_PAIRS or fits(start, seconds,
                                                 [r["wall_s"] for r in plain + traced], runs=2):
        for with_trace in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            if not with_trace:
                plain.append(workload.once())
                continue
            tracer.reset()
            tracer.install()
            try:
                run = workload.once()
            finally:
                tracer.restore()
            traced.append(run)
            layers.append(_layer_metrics(summarize(tracer.spans), run["wall_s"], run["bytes"]))
    tracer.write_spans(str(OUT / name / "spans.jsonl"), run_id=len(traced) - 1)

    check_repeats(plain + traced)
    for n, metrics in enumerate(layers[1:], start=1):
        moved = [k for k in EXACT if metrics[k] != layers[0][k]]
        if moved:
            traced[n]["problems"].append(f"counts differ between traced runs: {moved}")
    if default_digest is None:
        default_digest = plain[0]["digest"]

    metrics = {k: (layers[0][k] if isinstance(layers[0][k], int)
                   else statistics.median(m[k] for m in layers)) for k in layers[0]}
    metrics["trace.overhead_frac"] = (statistics.median(r["wall_s"] for r in traced)
                                      / statistics.median(r["wall_s"] for r in plain) - 1.0)
    metrics["trace.absent"] = len(tracer.absent)
    metrics["digest_match"] = int(recorded is not None and recorded == default_digest)
    return {
        "runs": [{"wall_s": r["wall_s"], "problems": r["problems"]} for r in plain + traced],
        "metrics": metrics,
        "absent": tracer.absent,
        "csv_sha256": plain[0]["digest"],
        "default_seed_csv_sha256": default_digest,
        "recorded_csv_sha256": recorded,
    }


def provenance() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_env": {k: os.environ.get(k, "unset") for k in BLAS_ENV}}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "measure"])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.mode == "setup":
        result = setup(args.workload, args.seed)
    else:
        import_program()
        (OUT / args.workload).mkdir(parents=True, exist_ok=True)
        fn = measure_traced if args.trace else measure
        result = fn(args.workload, args.seed, args.seconds)
        result["provenance"] = provenance()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

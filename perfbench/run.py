"""Benchmark of `mflab run`: times meanfieldlab.runner.run on generated workloads.

    python3 perfbench/run.py --workload chaos_quadratic --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout. For one workload it measures set-up in fresh
interpreters, then starts one child process (worker.py) that repeats the run
for --seconds and checks each run's output. It prints every metric by name
with its unit, a provenance line, and as its last line one JSON object with
the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics.
`--workload all` runs every workload in turn and prints a summary table.

It exits with code 2, printing no result, when the checkout holds no
meanfieldlab sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
DEADLINE_S = 170.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repo."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def source_digest() -> str:
    """sha256 over meanfieldlab's sources, an identity that needs no git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "meanfieldlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def child(args: list[str], timeout: float) -> dict:
    """Run worker.py and return the JSON object on its last output line."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def measure_setup(name: str, seed: int, deadline: float) -> dict:
    """Medians over fresh interpreters; one untimed probe first compiles and caches files."""
    args = ["setup", "--workload", name, "--seed", str(seed)]
    child(args, deadline - time.monotonic())
    probes = [child(args, deadline - time.monotonic()) for _ in range(SETUP_PROBES)]
    parts = {k: statistics.median(p[k] for p in probes) for k in probes[0]}
    parts["setup_s"] = statistics.median(sum(p.values()) for p in probes)
    return parts


def bench_one(name: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    setup = measure_setup(name, seed, deadline)
    result = child(["measure", "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)],
                   deadline - time.monotonic())
    runs = result["runs"]
    failed = sum(1 for r in runs if r["problems"])

    if trace:
        values = dict(result["metrics"])
        values.update({f"setup.{k}": setup[k] for k in ("import_s", "config_s",
                                                         "build_model_s")})
        wanted, spread = spec["per_layer"], {}
    else:
        values = {k: result[k]["median"] for k in ("wall_s", "cpu_s", "particle_steps_per_s")}
        values.update(setup_s=setup["setup_s"], peak_rss_mb=result["peak_rss_mb"])
        wanted = spec["end_to_end"]
        spread = {k: result[k] for k in ("wall_s", "cpu_s", "particle_steps_per_s")}

    why = next((w["why"] for w in spec["workloads"] if w["name"] == name),
               "not in BENCHMARK.json; run by hand")
    print(f"workload {name} seed {seed} trace {trace}: {why}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        line = f"  {m['name']:32s} {values[m['name']]:.6g} {m['unit']}"
        if m["name"] in spread:
            q = spread[m["name"]]
            line += f"  (median of {q['n']} runs; q1 {q['q1']:.6g}, q3 {q['q3']:.6g})"
        print(line)
    print(f"  {'failed_frac':32s} {failed / len(runs):.6g}  ({failed} of {len(runs)} runs)")
    for n, r in enumerate(runs):
        for problem in r["problems"]:
            print(f"  run {n} failed: {problem}")
    for absent in result.get("absent", []):
        print(f"  traced entry point absent: {absent}")
    provenance = dict(result["provenance"], nproc=os.cpu_count(),
                      cpus_usable=len(os.sched_getaffinity(0)), git_commit=git_commit(),
                      source_sha256=source_digest(), seed=seed, workload=name, why=why,
                      csv_sha256=result["csv_sha256"],
                      units={m["name"]: m["unit"] for m in wanted})
    for key in ("default_seed_csv_sha256", "recorded_csv_sha256"):
        if key in result:
            provenance[key] = result[key]
    print("provenance " + json.dumps(provenance, sort_keys=True))
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "meanfieldlab" / "__init__.py").is_file():
        return fail(f"no meanfieldlab sources under {ROOT / 'src'}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = bench_one(name, args.seed, seconds, args.trace, spec)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))

    if args.workload == "all":
        print("summary")
        for name, res in results.items():
            for metric, v in res["metrics"].items():
                print(f"  {name:16s} {metric:32s} {v['value']:.6g} {v['unit']}")
            print(f"  {name:16s} {'failed_frac':32s} {res['failed'] / res['attempted']:.6g}")
        return 0
    print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

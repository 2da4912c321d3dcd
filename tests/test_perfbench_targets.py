"""Every entry point that the benchmark's tracer wraps still exists and is called.

`perfbench/tracer.py` skips a target it cannot resolve and only counts it in
`trace.absent`, and a target that resolves but is no longer called reads 0 in
its layer, so either would otherwise surface in a benchmark run, not here.
The tracer is loaded by path, installed and restored.
"""

import importlib.util
import os

from meanfieldlab import engine, experiments, runner
from meanfieldlab.config import parse_config

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    return tracer_module.Tracer()


def test_every_trace_target_resolves():
    tracer = _tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.restore()
    assert experiments.build_reference_flow is engine.build_reference_flow


def test_a_one_dimensional_chaos_run_calls_every_layer(tmp_path):
    tracer = _tracer()
    tracer.install()
    try:
        runner.run(parse_config("[sim]\ndt = 0.1\nt_final = 0.2\nn_grid = 4, 8\nreplicas = 3\n"
                                "[output]\nplots = false\n"), output_dir=str(tmp_path))
    finally:
        tracer.restore()
    names = {span[0] for span in tracer.spans}
    for name in ("runner.run", "experiments.chaos_rate", "engine.reference_flow",
                 "engine.coupled", "models.mean_field_batch", "rng.normals",
                 "wasserstein.sample_w2"):
        assert name in names, name


def test_an_equilibrium_run_with_gap_times_calls_every_layer(tmp_path):
    # the W2 curve's particle runs and the gaps' coupled runs are looked up
    # as module globals at call time, so the tracer sees both
    tracer = _tracer()
    tracer.install()
    try:
        runner.run(parse_config("[sim]\ndt = 0.1\nn_particles = 8\nreplicas = 3\n"
                                "[reference]\nm = 128\n"
                                "[experiment]\nkind = equilibrium\nt_equilibrium = 0.4\n"
                                "gap_times = 0.2, 0.4\n[output]\nplots = false\n"),
                   output_dir=str(tmp_path))
    finally:
        tracer.restore()
    names = {span[0] for span in tracer.spans}
    for name in ("experiments.equilibrium", "engine.reference_flow", "engine.particle_system",
                 "engine.coupled", "wasserstein.sample_w2"):
        assert name in names, name

"""Every entry point that the benchmark's tracer wraps still exists.

`perfbench/tracer.py` skips a target it cannot resolve and only counts it in
`trace.absent`, so a renamed or removed entry point would otherwise surface
in a benchmark run, not here.  The tracer is loaded by path, installed and
restored.
"""

import importlib.util
import os

from meanfieldlab import engine, experiments

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.restore()
    assert experiments.build_reference_flow is engine.build_reference_flow

"""The benchmark's workloads write the bytes they wrote before.

A change that claims speed on a benchmark workload must keep its output:
each workload listed in BENCHMARK.json is run once at seed 7 through
`runner.run`, as the benchmark's child process runs it, and the sha256 over
its CSVs is compared with the value pinned here.  `perfbench/workloads.py`
is loaded by path and only read.  The pins are literals because
`perfbench/digests.json` still holds the `chaos_cubic` digest from before the
prefix-moment cubic drift.
"""

import importlib.util
import os

import pytest

from meanfieldlab.config import parse_config
from meanfieldlab.runner import run

WORKLOADS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "workloads.py")

SEED = 7
DIGESTS = {
    "chaos_quadratic": "3de15ac9a031d6da437f9712c50f3a4a174ced12e42b8f023fa23ad201215794",
    "chaos_cubic": "b4ab966bcd8640abe496a452943324e349478848872fc49d7a0c4c080d72da2d",
}


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_benchmark_workload_bytes_are_pinned(name, tmp_path):
    workloads = _workloads()
    run(parse_config(workloads.config_text(name, SEED)), output_dir=str(tmp_path))
    assert workloads.csv_digest(str(tmp_path)) == DIGESTS[name]
    assert workloads.verdict(name, str(tmp_path)) == []

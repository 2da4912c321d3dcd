"""The benchmark's workloads write the bytes they wrote before.

A change that claims speed on a benchmark workload must keep its output:
each workload listed in BENCHMARK.json is run once at seed 7 through
`runner.run`, as the benchmark's child process runs it, and the sha256 over
its CSVs is compared with the value pinned here.  `perfbench/workloads.py`
is loaded by path and only read.  The pins are literals because
`perfbench/digests.json` pins neither workload: it still holds digests drawn
from a noise stream before `philox4x64-v3`, so the benchmark's
`digest_match` reads 0 on both workloads until a change to the benchmark
alone re-records them.
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
    "chaos_quadratic": "ba0fb0edaaa38ab00f6242b89c7e0e73caa168c2d6f98ebf22a0bb3b2b7b9057",
    "chaos_cubic": "f0f1e9d5439fee8eb760750f9189ca48ccf859ef592b2630a8c2cef4f376b209",
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

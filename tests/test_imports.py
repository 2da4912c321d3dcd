"""meanfieldlab starts on numpy alone: scipy loads only for the d >= 2 assignment solver.

The check runs in a fresh interpreter, because the test process itself may
already have imported scipy.
"""

import json
import os
import subprocess
import sys

import numpy as np

from meanfieldlab.measures import EmpiricalMeasure
from meanfieldlab.wasserstein import wasserstein_assignment

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

CHILD = '''
import json, sys
import meanfieldlab, meanfieldlab.cli, meanfieldlab.runner
from meanfieldlab.config import parse_config
from meanfieldlab.runner import build_model, run

cfg = parse_config("""
[model]
family = granular_quadratic
dim = 1
[sim]
dt = 0.1
t_final = 0.2
n_grid = 4, 8
replicas = 2
seed = 3
[reference]
m = 128
[experiment]
kind = chaos_rate
[output]
plots = false
""")
build_model(cfg)
run(cfg, output_dir=sys.argv[1])
after_d1 = "scipy" in sys.modules

import numpy as np
from meanfieldlab.measures import EmpiricalMeasure
from meanfieldlab.wasserstein import wasserstein_assignment
a, b = np.random.default_rng(5).standard_normal((2, 32, 2))
cost = wasserstein_assignment(2, EmpiricalMeasure(a), EmpiricalMeasure(b))
print(json.dumps({"after_d1": after_d1, "after_assignment": "scipy" in sys.modules,
                  "cost": cost.hex()}))
'''


def test_d1_runs_never_import_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path / "out")], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["after_d1"] is False
    assert got["after_assignment"] is True

    a, b = np.random.default_rng(5).standard_normal((2, 32, 2))
    cost = wasserstein_assignment(2, EmpiricalMeasure(a), EmpiricalMeasure(b))
    assert float.fromhex(got["cost"]) == cost

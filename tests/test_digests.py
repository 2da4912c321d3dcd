"""Golden sha256 digests of the CSVs that `runner.run` writes.

Each config is small enough to run in well under a second, and together
they reach every engine path: coupled runs with closed-form and tamed
cubic drift, the cubic drift by prefix moments in one dimension and
pairwise in two, a coupled n_grid that is not nested in powers of 2 (a
one-particle size included) over several replica chunks, recorded
particle-system runs at a stride, the kinetic family's degenerate
diffusion, and 2-D transport.  A change that
keeps the numbers must keep these digests; a change that means to alter
them must say so and record the new values.
"""

import hashlib
import os

import pytest

from meanfieldlab.config import parse_config
from meanfieldlab.runner import run

CONFIGS = {
    "chaos_quadratic": """
[model]
family = granular_quadratic
[sim]
dt = 0.05
t_final = 0.5
n_grid = 8, 16, 32
replicas = 6
seed = 7
[reference]
m = 512
picard_iters = 2
[output]
plots = false
""",
    "chaos_cubic_tamed": """
[model]
family = granular_cubic
w_coeff = 1.0
init_mean = 1.5
[sim]
dt = 0.05
t_final = 0.5
n_grid = 8, 16
replicas = 4
taming = true
seed = 11
[reference]
m = 256
picard_iters = 2
[output]
plots = false
""",
    "chaos_cubic_2d_tamed": """
[model]
family = granular_cubic
dim = 2
w_coeff = 1.0
init_mean = 1.5
[sim]
dt = 0.05
t_final = 0.5
n_grid = 8, 16
replicas = 4
taming = true
seed = 19
[reference]
m = 256
picard_iters = 2
[output]
plots = false
""",
    "chaos_kinetic_grid": """
[model]
family = kinetic
dim = 1
init_mean = 0.5
[sim]
dt = 0.05
t_final = 0.5
n_grid = 1, 12, 20, 48
replicas = 120
seed = 23
[reference]
picard_iters = 3
[output]
plots = false
""",
    "observable_kinetic_norm": """
[model]
family = kinetic
dim = 1
[sim]
dt = 0.05
t_final = 0.5
n_particles = 16
replicas = 64
seed = 5
[reference]
m = 256
picard_iters = 2
[experiment]
kind = observable_deviation
observable = norm
r_grid = 0.0, 0.05, 0.1, 0.15, 0.3
[output]
plots = false
""",
    "empirical_sup_stride2": """
[model]
family = granular_quadratic
init_mean = 0.5
[sim]
dt = 0.05
t_final = 0.5
n_particles = 16
replicas = 64
seed = 13
[reference]
m = 256
picard_iters = 2
[experiment]
kind = empirical_deviation
sup_over_time = true
r_grid = 0.2, 0.4, 0.5, 0.55, 0.6, 0.65, 0.7, 0.8
[output]
snapshot_stride = 2
plots = false
""",
    "equilibrium_2d_gaps": """
[model]
family = granular_quadratic
dim = 2
init_mean = 3.0
[sim]
dt = 0.05
t_final = 0.5
n_particles = 16
replicas = 4
seed = 17
[reference]
m = 256
picard_iters = 2
[experiment]
kind = equilibrium
t_equilibrium = 1.0
gap_times = 0.25, 0.5, 1.0
[output]
snapshot_stride = 2
plots = false
""",
}

DIGESTS = {
    "chaos_quadratic": {
        "rate_fit.csv": "d46cd356d9a9d94c899babb685c1070c0f5064ae7e4ade7e8c2522cfd612fdf1",
        "rate_fit_summary.csv": "057552a36c5b1441fcbbd99c1b6b9b16fcb2eb684e7cb13d4486d99ff3a43b45",
    },
    "chaos_cubic_tamed": {
        "rate_fit.csv": "80e2d4598d7957e98bc75dadddfcc23c252b0bc833fea2931971654994871368",
        "rate_fit_summary.csv": "9c744319e8a7b0ad4473bf2d256de47b055142cde1ca7f9f076a353a4597a60b",
    },
    "chaos_cubic_2d_tamed": {
        "rate_fit.csv": "19b7ca56cb6a48f5897e94c8afd623ecf8ae9c77d1ba9d0e6052970acc608fec",
        "rate_fit_summary.csv": "9cc9ae9003383707ace374757efa3bcb62604f15bc30239031272dbcf036389d",
    },
    "chaos_kinetic_grid": {
        "rate_fit.csv": "3615b9d6f26b0e2ac5fbee4c0dfb3de9a2bade86d39ee06375e12d9d3241b6b0",
        "rate_fit_summary.csv": "be697dbbfc6d78183d1596182123548297e394acf7b6228efe8b43e49229bb9b",
    },
    "observable_kinetic_norm": {
        "deviation_summary.csv": "11c57fe4143a60b76723aef4ec87fb0bc72b02bb8ea48a6f62ddb8ad0f5431ff",
        "deviation_table.csv": "a50bd55dffb16d79cbf2005d9bd2b32caed84df0f53192b75e7b7fc605fc2955",
    },
    "empirical_sup_stride2": {
        "deviation_summary.csv": "64e3cfcd3a5efea30e1bf9808f89cf9a28cb0fa04b1f3e01e9665ab83817d9f2",
        "deviation_table.csv": "12c3475b237bf854f0174e71a127062d4b77e967a96ec52e2135fe0fe0509b67",
    },
    "equilibrium_2d_gaps": {
        "equilibrium_curve.csv": "b7002559ce226cd77ff6e306c0d5c1accb0225bcb6c7d5e060f9f4b8167a3757",
        "equilibrium_summary.csv": "53879353882e171fb6e978ac762e2b543b57d95f618d82d37823442eb9a667c3",
        "gap_uniformity.csv": "bfa8c394c8a8d14ffdfd01a5766b1e63ac11e7a000e173322f4ea52e55bd1b4f",
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_csv_digests_are_pinned(name, tmp_path):
    run(parse_config(CONFIGS[name]), output_dir=str(tmp_path))
    got = {}
    for fname in sorted(os.listdir(tmp_path)):
        if fname.endswith(".csv"):
            with open(tmp_path / fname, "rb") as fh:
                got[fname] = hashlib.sha256(fh.read()).hexdigest()
    assert got == DIGESTS[name]

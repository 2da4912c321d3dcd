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
        "rate_fit.csv": "6583e55c3b4d67061b4be1a89c953440c8975efb23e2ae9496be2f1b52fb7f6b",
        "rate_fit_summary.csv": "059b45763a872def118eaf2b3c703258f40519e4dc762a2bbe80273fe0f387e0",
    },
    "chaos_cubic_tamed": {
        "rate_fit.csv": "c6c7fd66bae37619e43369a43a6ec3e1caa8a3143cd74f32a71227e4b88d9479",
        "rate_fit_summary.csv": "0d30f0f2818d74956517962f569535d45976f211dfd928207efca2871e1029cc",
    },
    "chaos_cubic_2d_tamed": {
        "rate_fit.csv": "4077b0672628db593f18a8d7cc1bbb7d490497233d2d7a1cd737febb61efb819",
        "rate_fit_summary.csv": "cc151165b36cb92da937c78b874944e54d04c35f809f44fea02c589550f56147",
    },
    "chaos_kinetic_grid": {
        "rate_fit.csv": "3d46743a85b9b3abd9bffe43ced7c21cef0fa1366d73c6533c4a8bf9675d3af2",
        "rate_fit_summary.csv": "06cb902d03cc07156f34a6849a1995623d3e1d03066b1cbafd7df8094409934b",
    },
    "observable_kinetic_norm": {
        "deviation_summary.csv": "35c751451c117f9a2c0a0941633697769dc256b0bcef10505dce9573d6377add",
        "deviation_table.csv": "4802e060506ff258f76bc8d0855aa605bce6924f9eff50fa024ad4af8fbd6f21",
    },
    "empirical_sup_stride2": {
        "deviation_summary.csv": "5ddfa2617f745501f9e5fd0ecf0968bb11ffcff4de2dc3ea8fd5b5feab8f861f",
        "deviation_table.csv": "8e05b61bfe3332936a944839f4ba1b1ea15bde21441c490405c9abeed29326ad",
    },
    "equilibrium_2d_gaps": {
        "equilibrium_curve.csv": "52f6185ef5888c5cfb05c751ca3b9b9a04eb1cb80b24f5087fbb9dad4f1a6c89",
        "equilibrium_summary.csv": "0f98dbcabf1b627356f8435ec697213815a71d6b2f84ae9fe287169194972b23",
        "gap_uniformity.csv": "f57b292bbbc80ac33ec4930e6d7de8b589bc43756976b2c72d1730f8748d11cb",
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

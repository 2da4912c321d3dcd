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
        "rate_fit.csv": "a454683f831b4dbb75946b4c2ee6edd5b5f0d17344f6a55a04a216baa1f4fa04",
        "rate_fit_summary.csv": "0d6a91a35ccd8fd360aeb9a1ff9c8efd82ef7692a054aadf5219c5f7aa097b41",
    },
    "chaos_cubic_tamed": {
        "rate_fit.csv": "3a1fab5db2bf734fda3e001c1c7fd00157c2d1ab15a569e6eac4871763f1b047",
        "rate_fit_summary.csv": "22f1d425dd85ee2f7d8c55356294b8de3743aeed57257010d4b6dae09fb54bd2",
    },
    "chaos_cubic_2d_tamed": {
        "rate_fit.csv": "121cdd14b28fb60644e5ada778cb5a2563b8c1a4124d0c946fa8af6825f3824c",
        "rate_fit_summary.csv": "1dd82714aa5d2e41fb4a91455c5e407ef088726cfc6d95a843c5133c3e150392",
    },
    "chaos_kinetic_grid": {
        "rate_fit.csv": "c2ca1b2549c1bbf325bec16d7ad2017a23a7264706928966a8e9fe55fdad471d",
        "rate_fit_summary.csv": "3eb51f08b4bbe28220d3953e4de3cca8968ad3b7ea66018fd9db9a2f309a9eb6",
    },
    "observable_kinetic_norm": {
        "deviation_summary.csv": "1ee21ef2a5d4f554c6375418ed8556a62cc66a1ae55090cc58f3920897e5788d",
        "deviation_table.csv": "97d8bc68d59933c8c5beaa143c48a009fa88893b901f320a85682d8543f11294",
    },
    "empirical_sup_stride2": {
        "deviation_summary.csv": "93ae6a05eeac0373e953a09a7c0473357d268f5298cde7183c14af8d22dd02d1",
        "deviation_table.csv": "7cf22c6945f3072804810cf46f3ffa99e5e03bb71cbe0b3e468e37ddf111c8fd",
    },
    "equilibrium_2d_gaps": {
        "equilibrium_curve.csv": "efe42ac5ad5507c748170af66884cb62c4e0c975fd4994ec90306945d2089312",
        "equilibrium_summary.csv": "ed0100812e6e84861015af369156e5e3211ad7625e43edbaf68bc9db521efb58",
        "gap_uniformity.csv": "6e3eb59c6a81f3b01e2529c9b04bca22cee167a925b3aab4f7fbcf7b51ec4943",
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

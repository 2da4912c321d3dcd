"""meanfieldlab: particle approximation of mean-field diffusion equations.

Simulates interacting particle systems coupled synchronously to their
nonlinear (McKean) limit processes and measures propagation of chaos,
Wasserstein convergence rates, Gaussian deviation tails and long-time
equilibration.
"""

__version__ = "0.1.0"

from .errors import DivergenceError, ValidationError
from .measures import EmpiricalMeasure
from .models import (DiffusionSpec, DriftKernel, InitialLaw, ModelSpec, Observable,
                     Potential, granular_media_model, ou_mean, ou_variance,
                     power_potential, quadratic_potential,
                     vlasov_fokker_planck_model, zero_potential)
from .rng import NoiseGrid
from .engine import (CoupledEnsemble, SimConfig, TrajectoryEnsemble, build_reference_flow,
                     euler_step, simulate_coupled, simulate_particle_system)
from .wasserstein import (kr_dual_lower_bound, quantile_dual_family, sample_w1, sample_w2,
                          wasserstein_1d, wasserstein_assignment)
from .experiments import (DeviationTable, EquilibriumCurve, RateFit,
                          chaos_rate_experiment, empirical_measure_deviation,
                          equilibrium_convergence, observable_deviation_experiment,
                          wilson_interval)
from .config import RunConfig, parse_config, serialize_config

"""Long-time behavior: exponential approach to the steady state.

Two views of equilibration.  First an Ornstein-Uhlenbeck process (the
granular model with no interaction), where the exact decay rate is known,
started far from its Gaussian steady state.  Second the quadratic granular
model, where we also check that the particle-vs-nonlinear coupling gap stays
flat in time, which is what makes time-uniform chaos estimates plausible.

Run:  python3 demos/equilibration.py
"""

import numpy as np

from meanfieldlab import (InitialLaw, SimConfig, equilibrium_convergence,
                          granular_media_model, quadratic_potential, zero_potential)

# OU: dX = sqrt(2) dB - X dt, started at mean 3; W2 to N(0,1) decays at rate 1
ou = granular_media_model(quadratic_potential(1.0), zero_potential(), 1,
                          initial_law=InitialLaw.gaussian([3.0], 1.0))
config = SimConfig(dt=0.02, t_final=4.0, n_particles=512, seed=21, snapshot_stride=10)


def gaussian_target(n, salt):
    return np.random.default_rng(1000 + salt).normal(size=(n, 1))


curve = equilibrium_convergence(ou, config, target_sampler=gaussian_target, replicas=8)
print("OU model:")
print(f"  fitted decay rate: {curve.fitted_decay_rate:.3f}  (exact: 1.0)")
print(f"  sampling noise floor: {curve.noise_floor:.4f}")
print("  t, W2:", ", ".join(f"({t:.1f}, {w:.3f})"
                            for t, w in zip(curve.times[::4], curve.w2_to_target[::4])))

# granular media, displaced start, burned-in target, plus gap flatness in time
model = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1,
                             initial_law=InitialLaw.gaussian([3.0], [[1.0]]))
gconfig = SimConfig(dt=0.02, t_final=8.0, n_particles=128, seed=22, snapshot_stride=20)
gcurve = equilibrium_convergence(model, gconfig, replicas=16,
                                 gap_times=[1.0, 2.0, 4.0, 8.0], m_reference=2048)
print("\ngranular media model:")
print(f"  fitted decay rate: {gcurve.fitted_decay_rate:.3f}")
print("  coupling gap at t in {1, 2, 4, 8}:",
      ", ".join(f"{g:.2e}" for g in gcurve.gap_means))
print(f"  gap trend slope: {gcurve.gap_slope:.2e} +- {gcurve.gap_slope_se:.2e} "
      "(flat within noise means no accumulation of coupling error)")

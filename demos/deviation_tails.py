"""Gaussian concentration of particle averages around the mean-field value.

For a 1-Lipschitz observable phi, the deviation of the particle average
from integral phi df_t should have sub-Gaussian tails in N r^2: the
probability of exceeding sqrt(C/N) + r decays like exp(-c N r^2).  We
tabulate empirical tail probabilities with Wilson confidence bands and fit
the exponential constant.

Run:  python3 demos/deviation_tails.py
"""

import numpy as np

from meanfieldlab import (Observable, SimConfig, granular_media_model,
                          observable_deviation_experiment, quadratic_potential)

model = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1)
phi = Observable(eval=lambda x: np.asarray(x)[..., 0], lipschitz_constant=1.0, name="x0")
config = SimConfig(dt=0.01, t_final=1.0, n_particles=128, seed=11)

table = observable_deviation_experiment(
    model, phi, r_grid=[0.01, 0.02, 0.04, 0.06, 0.08, 0.12],
    replicas=1000, config=config, m_reference=4096)

print(f"mean-square error of the particle average: {table.mean_square_error:.3e}")
print(f"implied law-of-large-numbers constant N*mse: {table.lln_constant:.3f}")
print(f"event threshold sqrt(mse): {table.threshold:.4f}\n")

print("r        N r^2    P[|avg - ref| > thr + r]   Wilson 95%")
for r, p, lo, hi in zip(table.r_grid, table.empirical_probs,
                        table.wilson_lows, table.wilson_highs):
    print(f"{r:<8.3f} {config.n_particles * r * r:<8.3f} {p:<26.4f} [{lo:.4f}, {hi:.4f}]")

if table.fitted_c is not None:
    print(f"\nfitted tail constant c: {table.fitted_c:.3f} +- {table.fitted_c_se:.3f}")
    print(f"fit window (r values): {table.fit_window}")
    print("domination check P <= 2 exp(-(c/2) N r^2):",
          all(p <= 2 * np.exp(-table.fitted_c / 2 * config.n_particles * r * r)
              for r, p in zip(table.r_grid, table.empirical_probs)))

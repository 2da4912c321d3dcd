"""How fast does a finite particle system approach its mean-field limit?

We simulate the granular media model dX = sqrt(2) dB - (V'(X) + W' * f)(X) dt
with quadratic confinement and interaction, couple each N-particle system to
N independent copies of the limiting nonlinear process driven by the same
Brownian motions, and watch the terminal mean-square gap shrink as 1/N.

Run:  python3 demos/chaos_rate.py
"""

import numpy as np

from meanfieldlab import (SimConfig, chaos_rate_experiment, granular_media_model,
                          quadratic_potential)
from meanfieldlab.plots import emit_plot

model = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1)
config = SimConfig(dt=0.01, t_final=1.0, n_particles=1, seed=7)

# a modest grid keeps this demo under a minute; the acceptance suite pushes
# to N = 512 with 200 replicas and sees the same slope
fit = chaos_rate_experiment(model, n_grid=[16, 32, 64, 128], config=config,
                            replicas=40, m_reference=2048)

print("N      E|X - Xbar|^2   (stderr)      sample W2^2 to f_t (debiased; may dip")
print("                                      below 0 at this replica count)")
for n, g, s, w in zip(fit.n_grid, fit.mean_sq_gaps, fit.stderrs, fit.w2_sq_estimates):
    print(f"{n:<6d} {g:.4e}     ({s:.1e})     {w:.4e}")
print(f"\nlog-log slope: {fit.slope:.3f} +- {fit.slope_se:.3f}   (theory: -1)")
print(f"r^2 of the fit: {fit.r_squared:.4f}")

svg = emit_plot(fit.n_grid, fit.mean_sq_gaps, yerr=fit.stderrs, kind="loglog",
                slope=fit.slope, intercept=fit.intercept,
                title="mean-square coupling gap vs N", xlabel="N",
                ylabel="E|X - Xbar|^2")
with open("chaos_rate_demo.svg", "w") as fh:
    fh.write(svg)
print("wrote chaos_rate_demo.svg")

"""Exact optimal transport between empirical measures, three ways.

Every measure is a uniform cloud.  The quantile coupling solves 1D transport
between clouds of any sizes; optimal assignment solves equal-size clouds in
any dimension; and the Kantorovich-Rubinstein dual gives a certified lower
bound on W1 from a family of 1-Lipschitz test functions.  The three agree where their domains
overlap, which is the cross-check the whole laboratory leans on.

Run:  python3 demos/wasserstein_basics.py
"""

import numpy as np

from meanfieldlab import (EmpiricalMeasure, kr_dual_lower_bound, quantile_dual_family,
                          wasserstein_1d, wasserstein_assignment)

rng = np.random.default_rng(3)

# 1D, 3 points against 2: the quantile coupling splits mass at the CDF steps
# 1/3, 1/2 and 2/3, here masses 1/3, 1/6, 1/6 and 1/3 over gaps 0.5, 0.5, 1 and 1
mu = EmpiricalMeasure([[0.0], [1.0], [3.0]])
nu = EmpiricalMeasure([[0.5], [2.0]])
for p in (1, 2):
    print(f"W_{p}(mu, nu) = {wasserstein_1d(p, mu, nu):.6f}")

# equal-size clouds in 2D: optimal assignment
a = EmpiricalMeasure(rng.normal(size=(64, 2)))
b = EmpiricalMeasure(rng.normal(size=(64, 2)) + np.array([1.0, 0.0]))
w1 = wasserstein_assignment(1, a, b)
w2 = wasserstein_assignment(2, a, b)
print(f"2D clouds, unit shift: W1 = {w1:.4f}, W2 = {w2:.4f} (both near 1, W1 <= W2)")

# dual lower bound: never exceeds the primal, close for 1D data
x = EmpiricalMeasure(rng.normal(size=(200, 1)))
y = EmpiricalMeasure(rng.normal(size=(200, 1)) + 1.0)
primal = wasserstein_1d(1, x, y)
dual = kr_dual_lower_bound(x, y, quantile_dual_family(x, y, n_anchors=64))
print(f"1D primal W1 = {primal:.5f}, certified dual lower bound = {dual:.5f}")
print(f"dual/primal = {dual / primal:.4f}")

"""Time per call of the lab's layers at fixed shapes.

Each layer is timed on its own, at the shapes the engine calls it with:

- the drift evaluator, `models.mean_field_batch`, on the tamed cubic
  interaction at the shapes of the `chaos_cubic` benchmark workload (the
  1,024-point reference flow against itself, 20 replicas of 16, 32 and 64
  particles against themselves, and 20 x 64 nonlinear copies against the
  flow), and on the closed-form quadratic at 88 replicas x 128 particles;
- the noise generator, a step's Brownian increments in d = 1 as the step
  loop makes them (`NoiseGrid.normals` of a count, then an in-place scale by
  sqrt(dt)), at replicas x particles 200 x 16, 88 x 128, 20 x 64,
  1 x 2048 and 128 x 128 (a chunk of acceptance criterion c06, bound by its
  noise);
- the Euler step, `engine.euler_step` with taming, in d = 1 at the
  `chaos_cubic` shapes 1 x 1024 and 20 x 16, 32 and 64;
- the transport solver, `wasserstein.wasserstein_assignment` with p = 2 in
  d = 2, on two n-point clouds of the same law and on clouds whose means lie
  3 apart in each coordinate (as the W2 curve of `equilibrium_2d` starts), at
  n = 64, 128, 256 and 512;
- the 1-D quantile coupling, `sample_w2` in d = 1, on a stack of 22
  200-point clouds against 22 others (the raw and floor solves of a
  `chaos_quadratic` run's sample-W2) and on 4 200-point clouds against one
  of 128 points (the sample-W2 of a chaos run whose reference has fewer
  points than its replicas).

A round times a loop of calls at one shape (CALLS, or TRANSPORT_CALLS for
the transport solver); the script prints one JSON line with the best and the
median over the rounds of the time per call, in microseconds.  The inputs are
fixed normal samples, so two checkouts time the same work.  It is run by
hand, not by the test suite:

    PYTHONPATH=src python scripts/layer_times.py [--rounds K] [--smallest]
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import time

import numpy as np

from meanfieldlab import (DiffusionSpec, EmpiricalMeasure, euler_step, granular_media_model,
                          power_potential, quadratic_potential, sample_w2,
                          wasserstein_assignment)
from meanfieldlab.models import mean_field_batch
from meanfieldlab.rng import NoiseGrid

# (replicas, particles, cloud size) of a drift call; a cloud size of None
# is the states themselves
CUBIC_SHAPES = {
    "cubic 1x1024 vs itself": (1, 1024, None),
    "cubic 20x16 vs itself": (20, 16, None),
    "cubic 20x32 vs itself": (20, 32, None),
    "cubic 20x64 vs itself": (20, 64, None),
    "cubic 20x64 vs 1024": (20, 64, 1024),
}
QUADRATIC_SHAPES = {"quadratic 88x128 vs 2048": (88, 128, 2048)}
# (replicas, particles) of a draw
NOISE_SHAPES = {"200x16": (200, 16), "88x128": (88, 128), "20x64": (20, 64),
                "1x2048": (1, 2048), "128x128": (128, 128)}
# (replicas, particles) of a tamed Euler step
EULER_SHAPES = {"1x1024": (1, 1024), "20x16": (20, 16), "20x32": (20, 32), "20x64": (20, 64)}
# (points per cloud, shift of the second cloud's mean in each coordinate)
TRANSPORT_SHAPES = {f"{n} {name}": (n, shift) for n in (64, 128, 256, 512)
                    for name, shift in (("same law", 0.0), ("shifted by 3", 3.0))}
# (clouds, points per cloud, points of the one other cloud) of a 1-D sample_w2
# call; no other cloud is a stack of as many clouds of the same size
QUANTILE_SHAPES = {"22x200 vs 22x200": (22, 200, None), "4x200 vs 128": (4, 200, 128)}
CALLS = 200  # calls per round
TRANSPORT_CALLS = 5  # calls per round of a transport solve, up to ~0.1 s each


def _drift_call(kernel, replicas, n, cloud_size, rng):
    """A call of mean_field_batch on normal states: (n, 1) for one replica, else (R, n, 1)."""
    X = rng.normal(size=(n, 1) if replicas == 1 else (replicas, n, 1))
    points = X if cloud_size is None else rng.normal(size=(cloud_size, 1))
    return lambda: mean_field_batch(kernel, X, points)


def _noise_call(replicas, n):
    """Draws of increments at successive steps, as the step loop makes them."""
    grid = NoiseGrid(7, np.arange(replicas) if replicas > 1 else 0)
    steps = itertools.count()
    scale = np.sqrt(0.02)

    def call():
        dW = grid.normals(n, next(steps), 1)
        dW *= scale
        return dW

    return call


def _euler_call(replicas, n, rng):
    """A tamed Euler step of normal states, drifts and increments at dt = 0.02, sigma = sqrt(2)."""
    shape = (n, 1) if replicas == 1 else (replicas, n, 1)
    X, drift, dW = rng.normal(size=shape), rng.normal(size=shape), rng.normal(size=shape)
    diffusion = DiffusionSpec.isotropic(1)
    return lambda: euler_step(X, drift, diffusion, dW, 0.02, taming=True)


def _transport_call(n, shift):
    """A W2 assignment between two fixed n-point clouds in d = 2, the same at every shift."""
    rng = np.random.default_rng(n)
    mu = EmpiricalMeasure(rng.normal(size=(n, 2)))
    nu = EmpiricalMeasure(rng.normal(size=(n, 2)) + shift)
    return lambda: wasserstein_assignment(2, mu, nu)


def _quantile_call(clouds, n, other):
    """A 1-D sample_w2 between fixed normal clouds: a stack of n-point clouds against
    as many others, or against one other-point cloud."""
    rng = np.random.default_rng(n)
    A = rng.normal(size=(clouds, n, 1))
    B = rng.normal(size=(clouds, n, 1) if other is None else (other, 1))
    return lambda: sample_w2(A, B)


def _pick(shapes: dict, smallest: bool, size=lambda shape: shape[0] * shape[1]) -> dict:
    """Every shape, or with smallest those of the least size."""
    if not smallest:
        return shapes
    least = min(map(size, shapes.values()))
    return {name: shape for name, shape in shapes.items() if size(shape) == least}


def _time(call, rounds: int, calls: int = CALLS) -> dict:
    call()  # warm up
    per_call = []
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(calls):
            call()
        per_call.append((time.perf_counter() - start) / calls * 1e6)
    return {"best": round(min(per_call), 1), "median": round(statistics.median(per_call), 1)}


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=9, help="rounds per shape (default 9)")
    parser.add_argument("--smallest", action="store_true",
                        help="time only the smallest shape of each layer")
    args = parser.parse_args(argv)
    small = args.smallest

    rng = np.random.default_rng(0)
    cubic = granular_media_model(quadratic_potential(1.0), power_potential(3.0), 1).drift
    quadratic = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1).drift
    drift = {name: _drift_call(cubic, *spec, rng)
             for name, spec in _pick(CUBIC_SHAPES, small).items()}
    drift.update({name: _drift_call(quadratic, *spec, rng)
                  for name, spec in _pick(QUADRATIC_SHAPES, small).items()})
    noise = {name: _noise_call(*shape) for name, shape in _pick(NOISE_SHAPES, small).items()}
    euler = {name: _euler_call(*shape, rng) for name, shape in _pick(EULER_SHAPES, small).items()}
    transport = {name: _transport_call(*shape) for name, shape in
                 _pick(TRANSPORT_SHAPES, small, size=lambda shape: shape[0]).items()}
    quantile = {name: _quantile_call(*shape) for name, shape in
                _pick(QUANTILE_SHAPES, small).items()}

    result = {"unit": "us per call", "rounds": args.rounds, "calls": CALLS,
              "transport_calls": TRANSPORT_CALLS,
              "mean_field_batch": {k: _time(f, args.rounds) for k, f in drift.items()},
              "increments": {k: _time(f, args.rounds) for k, f in noise.items()},
              "euler_step": {k: _time(f, args.rounds) for k, f in euler.items()},
              "wasserstein_assignment": {k: _time(f, args.rounds, TRANSPORT_CALLS)
                                         for k, f in transport.items()},
              "sample_w2_1d": {k: _time(f, args.rounds) for k, f in quantile.items()}}
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()

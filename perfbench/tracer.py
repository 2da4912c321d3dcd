"""Outside-in span tracer for meanfieldlab.

The tracer replaces a layer's entry points, at the names their callers look
up, with wrappers that record a span: its name, its layer, start and end on
`time.perf_counter`, the span that was open when it started (its parent) and
an optional size computed from the call. Spans stay in memory until
`write_spans`. Nothing inside meanfieldlab is edited; `restore` puts the
original objects back.

A target whose owner or attribute no longer exists is recorded in `absent`
and skipped, so the benchmark keeps running when an entry point is removed.
"""

from __future__ import annotations

import functools
import importlib
import json
import time


def _rows(args, kwargs, result):
    return getattr(result, "size", 0)


def _pairwise_evals(args, kwargs, result):
    """n*m when mean_field_batch takes the pairwise path, else 0."""
    kernel, X, points = args[0], args[1], args[2]
    if getattr(kernel, "law_free", False) or getattr(kernel, "mean_field", None) is not None:
        return 0
    return len(X) * len(points)


def _cost_entries(args, kwargs, result):
    mu, nu = args[1], args[2]
    return len(mu.points) * len(nu.points)


# (module, attribute path, span name, layer, size function)
TARGETS = [
    ("meanfieldlab.rng", "NoiseGrid.normals", "rng.normals", "rng", _rows),
    ("meanfieldlab.rng", "NoiseGrid.uniforms", "rng.uniforms", "rng", _rows),
    ("meanfieldlab.engine", "mean_field_batch", "models.mean_field_batch", "models",
     _pairwise_evals),
    ("meanfieldlab.experiments", "build_reference_flow", "engine.reference_flow", "engine", None),
    ("meanfieldlab.experiments", "simulate_coupled", "engine.coupled", "engine", None),
    ("meanfieldlab.experiments", "simulate_particle_system", "engine.particle_system", "engine",
     None),
    ("meanfieldlab.experiments", "sample_w1", "wasserstein.sample_w1", "wasserstein", None),
    ("meanfieldlab.experiments", "sample_w2", "wasserstein.sample_w2", "wasserstein", None),
    ("meanfieldlab.wasserstein", "sample_w2", "wasserstein.sample_w2", "wasserstein", None),
    ("meanfieldlab.wasserstein", "wasserstein_1d", "wasserstein.solve_1d", "wasserstein", None),
    ("meanfieldlab.wasserstein", "wasserstein_assignment", "wasserstein.solve_assignment",
     "wasserstein", _cost_entries),
    ("meanfieldlab.runner", "chaos_rate_experiment", "experiments.chaos_rate", "experiments",
     None),
    ("meanfieldlab.runner", "observable_deviation_experiment", "experiments.observable_deviation",
     "experiments", None),
    ("meanfieldlab.runner", "empirical_measure_deviation", "experiments.empirical_deviation",
     "experiments", None),
    ("meanfieldlab.runner", "equilibrium_convergence", "experiments.equilibrium", "experiments",
     None),
    ("meanfieldlab.runner", "run", "runner.run", "runner", None),
]

# span fields
NAME, LAYER, PARENT, START, END, SIZE = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._open: list[int] = []
        self._patched: list[tuple] = []

    def install(self, targets=TARGETS):
        self.absent = []
        for module_name, path, name, layer, size in targets:
            try:
                owner = importlib.import_module(module_name)
                *owner_path, attr = path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, layer, size))

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def reset(self):
        self.spans = []

    def _wrap(self, original, name, layer, size):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, layer, tracer._open[-1] if tracer._open else -1, 0.0, 0.0, 0]
            tracer._open.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                tracer._open.pop()
            if size is not None:
                span[SIZE] = size(args, kwargs, result)
            return result

        return traced

    def write_spans(self, path: str, run_id: int):
        with open(path, "w") as fh:
            for i, (name, layer, parent, start, end, size) in enumerate(self.spans):
                fh.write(json.dumps({"run": run_id, "id": i, "parent": parent, "name": name,
                                     "layer": layer, "start": start, "end": end,
                                     "size": size}) + "\n")


def summarize(spans: list[list]) -> dict:
    """Per-name calls and sizes, per-layer busy and self time.

    A layer's busy time is the total duration of its outermost spans (spans
    with no ancestor in the same layer); its self time is the total over its
    spans of duration minus the durations of their direct children.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    calls, sizes, busy, layer_busy, self_time = {}, {}, {}, {}, {}
    for i, (name, layer, parent, start, end, size) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        sizes[name] = sizes.get(name, 0) + size
        self_time[layer] = self_time.get(layer, 0.0) + (end - start) - child_time[i]
        while parent >= 0 and spans[parent][LAYER] != layer:
            parent = spans[parent][PARENT]
        if parent < 0:
            busy[name] = busy.get(name, 0.0) + (end - start)
            layer_busy[layer] = layer_busy.get(layer, 0.0) + (end - start)
    return {"calls": calls, "sizes": sizes, "busy": busy, "layer_busy": layer_busy,
            "self": self_time}

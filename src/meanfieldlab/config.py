"""Run configuration: sectioned key=value files, strictly validated.

Unknown sections or keys are hard errors (with a closest-match suggestion),
every violation is reported at once, and parse -> serialize -> parse is the
identity on the resolved structure.
"""

from __future__ import annotations

import configparser
import difflib
import math
import re
from dataclasses import dataclass, field, fields as dc_fields

from .engine import (equilibrium_time_errors, n_grid_errors, reference_size_errors,
                     time_grid_errors)
from .errors import ValidationError, count_errors
from .rng import seed_errors

__all__ = ["RunConfig", "parse_config", "serialize_config", "observable_errors",
           "EXPERIMENT_KINDS", "MODEL_FAMILIES"]

MODEL_FAMILIES = ("granular_quadratic", "granular_cubic", "kinetic")
EXPERIMENT_KINDS = ("chaos_rate", "observable_deviation", "empirical_deviation", "equilibrium")


@dataclass
class ModelBlock:
    family: str = "granular_quadratic"
    dim: int = 1
    v_coeff: float = 1.0            # confinement strength (granular families)
    w_coeff: float = 1.0            # interaction strength
    u_coeff: float = 1.0            # kinetic family interaction
    friction_coeff: float = 1.0     # kinetic A(v) = friction_coeff * v
    confinement_coeff: float = 1.0  # kinetic B(x) = confinement_coeff * x
    init_mean: float = 0.0
    init_var: float = 1.0


@dataclass
class SimBlock:
    dt: float = 0.01
    t_final: float = 1.0
    n_particles: int = 0            # 0 means unset; chaos_rate uses n_grid instead
    n_grid: list = field(default_factory=list)
    seed: int = 1
    replicas: int = 100
    taming: bool = False
    allow_large_dt: bool = False


@dataclass
class ReferenceBlock:
    m: int = 0                      # 0 is the default size, 16 N (16 max N for chaos_rate)


@dataclass
class ExperimentBlock:
    kind: str = "chaos_rate"
    r_grid: list = field(default_factory=list)
    sup_over_time: bool = False
    observable: str = "x0"
    t_equilibrium: float = 8.0
    gap_times: list = field(default_factory=list)
    target: str = "burn_in"         # or "gaussian"
    target_mean: float = 0.0
    target_var: float = 1.0


@dataclass
class OutputBlock:
    directory: str = "runs/out"
    snapshot_stride: int = 1
    plots: bool = True


@dataclass
class RunConfig:
    model: ModelBlock = field(default_factory=ModelBlock)
    sim: SimBlock = field(default_factory=SimBlock)
    reference: ReferenceBlock = field(default_factory=ReferenceBlock)
    experiment: ExperimentBlock = field(default_factory=ExperimentBlock)
    output: OutputBlock = field(default_factory=OutputBlock)


_BLOCKS = {
    "model": ModelBlock,
    "sim": SimBlock,
    "reference": ReferenceBlock,
    "experiment": ExperimentBlock,
    "output": OutputBlock,
}

# Keys of earlier versions that change no run of any family that still parses:
# the old linear family's rate, mean0 and var0 (the Ornstein-Uhlenbeck model is
# granular_quadratic with w_coeff = 0), and picard_iters (the reference flow is
# its own Picard fixed point).  They are accepted at any value and ignored, so
# every manifest that lists them still reruns.
_RETIRED_KEYS = {("model", "rate"), ("model", "mean0"), ("model", "var0"),
                 ("reference", "picard_iters")}

_LIST_KEYS = {("sim", "n_grid"): int, ("experiment", "r_grid"): float,
              ("experiment", "gap_times"): float}


def _parse_bool(raw: str, where: str, errors: list) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    errors.append(f"{where}: cannot parse {raw!r} as a boolean")
    return False


def _parse_value(section: str, key: str, raw: str, target_type, errors: list):
    """The value of `raw` as `target_type`; every number in it must be finite."""
    where = f"[{section}] {key}"
    if target_type is bool:
        return _parse_bool(raw, where, errors)
    if target_type is str:
        return raw
    elem = _LIST_KEYS.get((section, key))
    try:
        value = [elem(tok) for tok in raw.replace(",", " ").split()] if elem else target_type(raw)
        if all(map(math.isfinite, value if elem else [value])):
            return value
    except ValueError:
        pass
    kind = f"{elem.__name__} list" if elem else target_type.__name__
    errors.append(f"{where}: cannot parse {raw!r} as finite {kind}")
    return target_type()


def _suggest(name: str, options) -> str:
    close = difflib.get_close_matches(name, options, n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises ValidationError listing every violation."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValidationError(f"config parse error: {exc}") from exc

    cfg = RunConfig()
    errors: list[str] = []
    for section in cp.sections():
        if section not in _BLOCKS:
            errors.append(f"unknown section [{section}]{_suggest(section, _BLOCKS)}")
            continue
        block = getattr(cfg, section)
        known = {f.name: f.type for f in dc_fields(block)}
        types = {f.name: type(getattr(block, f.name)) for f in dc_fields(block)}
        for key, raw in cp.items(section):
            if (section, key) in _RETIRED_KEYS:
                continue
            if key not in known:
                errors.append(f"unknown key {key!r} in [{section}]{_suggest(key, known)}")
                continue
            setattr(block, key, _parse_value(section, key, raw,
                                             types[key] if types[key] is not list else list,
                                             errors))

    errors.extend(_semantic_errors(cfg))
    if errors:
        raise ValidationError("invalid configuration:\n" + "\n".join(f"  - {e}" for e in errors))
    return cfg


def _semantic_errors(cfg: RunConfig) -> list[str]:
    errs = []
    if cfg.model.family not in MODEL_FAMILIES:
        errs.append(f"[model] family {cfg.model.family!r} not in {MODEL_FAMILIES}"
                    f"{_suggest(cfg.model.family, MODEL_FAMILIES)}")
    if cfg.experiment.kind not in EXPERIMENT_KINDS:
        errs.append(f"[experiment] kind {cfg.experiment.kind!r} not in {EXPERIMENT_KINDS}"
                    f"{_suggest(cfg.experiment.kind, EXPERIMENT_KINDS)}")
    errs.extend(f"[sim] {e}"
                for e in time_grid_errors(cfg.sim.dt, cfg.sim.t_final, cfg.sim.allow_large_dt))
    errs.extend(count_errors("[sim] replicas", cfg.sim.replicas))
    errs.extend(f"[sim] {e}" for e in seed_errors(cfg.sim.seed))
    errs.extend(count_errors("[model] dim", cfg.model.dim))
    if cfg.experiment.kind == "chaos_rate":
        errs.extend(f"[sim] {e}" for e in n_grid_errors(cfg.sim.n_grid))
    else:
        errs.extend(count_errors("[sim] n_particles", cfg.sim.n_particles))
    if cfg.experiment.kind in ("observable_deviation", "empirical_deviation") \
            and not cfg.experiment.r_grid:
        errs.append("[experiment] r_grid is required for deviation experiments")
    chaos_grid = cfg.sim.n_grid if cfg.experiment.kind == "chaos_rate" else ()
    errs.extend(f"[reference] {e}" for e in reference_size_errors(cfg.reference.m, chaos_grid))
    errs.extend(count_errors("[output] snapshot_stride", cfg.output.snapshot_stride))
    if cfg.experiment.kind == "equilibrium":
        errs.extend(f"[experiment] {e}" for e in equilibrium_time_errors(
            cfg.sim.dt, cfg.experiment.t_equilibrium, cfg.experiment.gap_times))
    # the kinetic family's state is (position, velocity): 2 * dim coordinates
    coords = 2 * cfg.model.dim if cfg.model.family == "kinetic" else cfg.model.dim
    errs.extend(f"[experiment] {e}" for e in observable_errors(cfg.experiment.observable, coords))
    if cfg.experiment.target not in ("burn_in", "gaussian"):
        errs.append("[experiment] target must be 'burn_in' or 'gaussian'")
    errs.extend(f"{key} must be nonnegative" for key, var in
                (("[model] init_var", cfg.model.init_var),
                 ("[experiment] target_var", cfg.experiment.target_var)) if var < 0)
    return errs


def observable_errors(name: str, coords: int) -> list[str]:
    """Why `name` names no observable of a state with `coords` coordinates: [] if it does.

    An observable is 'norm', or coordinate k of 'x<k>' ('x' is x0) with k < coords.
    """
    if not re.fullmatch("norm|x[0-9]*", name):
        return [f"observable {name!r} must be 'norm', 'x' or 'x<k>' for a coordinate k"]
    if name != "norm" and int(name[1:] or 0) >= coords:
        return [f"observable {name!r} out of range: the state has {coords} coordinates"]
    return []


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list):
        return ", ".join(_fmt_value(e) for e in v)
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text with every key explicit; parse(serialize(c)) == c."""
    lines = []
    for section, cls in _BLOCKS.items():
        lines.append(f"[{section}]")
        block = getattr(cfg, section)
        for f in dc_fields(cls):
            lines.append(f"{f.name} = {_fmt_value(getattr(block, f.name))}")
        lines.append("")
    return "\n".join(lines)

"""Run configuration: a small YAML schema for system, weights,
simulation, sweep, and grid-certification settings.

Config is a thin shell over the library. One table of defaults names
every key and its type; the library constructors (the system builders,
``SimConfig``, ``GridSpec``) decide which values are valid, and their
errors come back as ``ConfigError`` prefixed with the config section.
The effective configuration (every field resolved to a concrete value)
can be emitted back as YAML; re-reading it reproduces identical runs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
import yaml

from .analysis import GridSpec
from .control import DESIGN_SELECTORS
from .linalg import as_square
from .model import FeedbackLinearization, PendulumParams, SystemModel, lti_system, pendulum_system
from .sim import SimConfig


class ConfigError(Exception):
    """A configuration file could not be parsed or validated."""


#: Marks a system parameter that has no default.
_REQUIRED = object()

#: ``system.name`` -> (parameter defaults, builder returning (system, fbl)).
_SYSTEMS = {
    "pendulum": (asdict(PendulumParams()), lambda p: pendulum_system(PendulumParams(**p))),
    "lti": ({"A": _REQUIRED, "B": _REQUIRED}, lambda p: lti_system(p["A"], p["B"])),
}

#: Every settable key besides ``system`` with its default. A value must have
#: its default's type, where a float key takes whatever ``float()`` accepts;
#: None marks a value filled in once the system is built, mostly from its
#: dimensions.
_DEFAULTS = {
    "weights": {"Q": None, "R": None},
    "sim": {"h": 0.01, "n_steps": 1500, "x0": None, "zoh": False},
    "sweep": {"n_angles": 1000, "theta_min_deg": 0.0, "theta_max_deg": 89.0},
    "roa": {"lower": None, "upper": None, "points_per_axis": None, "sublevel": None},
    "design": "i",
    "out_dir": "out",
    "seed": 0,
}


@dataclass(frozen=True)
class RunConfig:
    """What the commands use, built and validated once."""

    system: SystemModel
    fbl: FeedbackLinearization | None
    Q: np.ndarray
    R: np.ndarray
    sim: SimConfig
    grid: GridSpec
    sublevel: float | None  # None means the largest certified one
    n_angles: int
    theta_range_deg: tuple[float, float]
    design: str
    out_dir: str
    effective: dict  # every key resolved to plain Python values, ready for YAML


def _typed(value, default, path: str):
    if default is None or default is _REQUIRED:
        return value
    if isinstance(default, float):
        try:
            return float(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path} must be a number") from exc
    if type(value) is not type(default):  # so a bool is no int here
        raise ConfigError(f"{path} must be of type {type(default).__name__}")
    return value


def _merge(defaults: dict, layers: list, where: str, prefix: str = "") -> dict:
    """Walk ``defaults``, taking each key from the last layer that sets it."""
    layers = [{} if layer is None else layer for layer in layers]
    for layer in layers:
        if not isinstance(layer, dict):
            raise ConfigError(f"{where} must be a mapping")
        unknown = set(layer) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown key(s) {sorted(unknown)} under {where}")
    merged = {}
    for key, default in defaults.items():
        path = prefix + key
        given = [layer[key] for layer in layers if key in layer]
        if isinstance(default, dict):
            merged[key] = _merge(default, given, path, path + ".")
            continue
        checked = [_typed(value, default, path) for value in given]
        if not checked and default is _REQUIRED:
            raise ConfigError(f"{path} is required")
        merged[key] = checked[-1] if checked else default
    return merged


def _axis_points(n: int) -> int:
    """Default grid points per axis: 101 up to n = 2, then the largest k
    with k**n <= 101**2 (at least 2)."""
    return max(2, min(101, int(101 ** (2 / n))))


def _fill(eff: dict, n: int, m: int) -> None:
    """Replace each None in ``eff`` by its default for an n-state,
    m-input system."""
    box = [1.4, 4.0] if n == 2 else [1.0] * n
    filled = {
        "weights": {"Q": np.eye(n), "R": np.eye(m)},
        "sim": {"x0": np.zeros(n)},
        "roa": {"lower": [-b for b in box], "upper": box,
                "points_per_axis": [_axis_points(n)] * n, "sublevel": "auto"},
    }
    for section, values in filled.items():
        for key, value in values.items():
            if eff[section][key] is None:
                eff[section][key] = value


def parse_config(data: dict | None, source: str = "<config>",
                 overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from a parsed YAML mapping, with ``overrides``
    (a mapping of the same schema) taking precedence."""
    system = data.get("system") if isinstance(data, dict) else None
    name = system.get("name", "pendulum") if isinstance(system, dict) else "pendulum"
    if not isinstance(name, str) or name not in _SYSTEMS:
        raise ConfigError(f"system.name must be one of {sorted(_SYSTEMS)}, got {name!r}")
    params, build = _SYSTEMS[name]
    table = {"system": {"name": name, name: params}, **_DEFAULTS}
    eff = _merge(table, [data, overrides], source)

    section = f"system.{name}"
    try:
        sys_model, fbl = build(eff["system"][name])
        eff["system"][name] = {k: np.asarray(v, dtype=float).tolist()
                               for k, v in eff["system"][name].items()}
        _fill(eff, sys_model.n, sys_model.m)
        section = "weights"
        Q = as_square(eff["weights"]["Q"], "Q")
        R = as_square(eff["weights"]["R"], "R")
        if Q.shape[0] != sys_model.n or R.shape[0] != sys_model.m:
            raise ValueError("weight dimensions do not match the system")
        section = "sim"
        sim = SimConfig(**eff["sim"])
        if sim.x0.shape[0] != sys_model.n:
            raise ValueError("x0 dimension does not match the system")
        section = "sweep"
        sweep = eff["sweep"]
        if sweep["n_angles"] < 1:
            raise ValueError("n_angles must be at least 1")
        if not -np.inf < sweep["theta_min_deg"] <= sweep["theta_max_deg"] < np.inf:
            raise ValueError("angle range must be finite and nonempty")
        section = "roa"
        roa = eff["roa"]
        grid = GridSpec(roa["lower"], roa["upper"], roa["points_per_axis"])
        if grid.dim != sys_model.n:
            raise ValueError("grid dimension does not match the system")
        section = "roa.sublevel"
        sublevel = None if roa["sublevel"] == "auto" else float(roa["sublevel"])
        if sublevel is not None and not sublevel >= 0:
            raise ValueError("must be nonnegative or 'auto'")
        section = "design"
        if eff["design"] not in DESIGN_SELECTORS:
            raise ValueError(f"must be one of {', '.join(DESIGN_SELECTORS)}, "
                             f"got {eff['design']!r}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc

    eff["weights"] = {"Q": Q.tolist(), "R": R.tolist()}
    eff["sim"]["x0"] = sim.x0.tolist()
    roa.update(lower=grid.lower.tolist(), upper=grid.upper.tolist(),
               points_per_axis=list(grid.points_per_axis),
               sublevel="auto" if sublevel is None else sublevel)
    return RunConfig(
        system=sys_model, fbl=fbl, Q=Q, R=R, sim=sim, grid=grid, sublevel=sublevel,
        n_angles=sweep["n_angles"],
        theta_range_deg=(sweep["theta_min_deg"], sweep["theta_max_deg"]),
        design=eff["design"], out_dir=eff["out_dir"], effective=eff,
    )


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Read a YAML config file, or the built-in defaults when None."""
    if path is None:
        return parse_config(None, overrides=overrides)
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path!r}: {exc}") from exc
    return parse_config(data, source=path, overrides=overrides)


def dump_effective(cfg: RunConfig) -> str:
    """Serialize the fully resolved configuration as YAML, through libyaml's
    safe emitter where PyYAML has it and its pure-Python one otherwise."""
    dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
    return yaml.dump(cfg.effective, Dumper=dumper, sort_keys=False, default_flow_style=None)


__all__ = ["ConfigError", "RunConfig", "dump_effective", "load_config", "parse_config"]

"""Run configuration: a small YAML schema for system, weights,
simulation, sweep, and grid-certification settings.

The effective configuration (every field resolved to a concrete value)
can be emitted back as YAML; re-reading it reproduces identical runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import yaml

from .linalg import as_matrix, as_square, as_vector
from .model import PendulumParams, lti_system, pendulum_system
from .sim import SimConfig


class ConfigError(Exception):
    """A configuration file could not be parsed or validated."""


_TOP_KEYS = {"system", "weights", "sim", "sweep", "roa", "design", "out_dir", "seed"}


@dataclass
class RunConfig:
    system_name: str = "pendulum"
    pendulum: PendulumParams = field(default_factory=PendulumParams)
    lti_A: np.ndarray | None = None
    lti_B: np.ndarray | None = None
    Q: np.ndarray | None = None
    R: np.ndarray | None = None
    h: float = 0.01
    n_steps: int = 1500
    x0: np.ndarray | None = None
    zoh: bool = False
    sweep_n_angles: int = 1000
    sweep_theta_min_deg: float = 0.0
    sweep_theta_max_deg: float = 89.0
    roa_lower: np.ndarray | None = None
    roa_upper: np.ndarray | None = None
    roa_points_per_axis: tuple[int, ...] = (101, 101)
    roa_sublevel: float | None = None  # None means the largest certified one
    design: str = "i"
    out_dir: str = "out"
    seed: int = 0

    def build_system(self):
        """Instantiate the configured model; returns (system, fbl)."""
        if self.system_name == "pendulum":
            return pendulum_system(self.pendulum)
        if self.system_name == "lti":
            return lti_system(self.lti_A, self.lti_B)
        raise ConfigError(f"unknown system {self.system_name!r}")

    def resolved(self) -> "RunConfig":
        """Fill dimension-dependent defaults (weights, x0, grid)."""
        system, _ = self.build_system()
        if self.Q is None:
            self.Q = np.eye(system.n)
        if self.R is None:
            self.R = np.eye(system.m)
        if self.x0 is None:
            self.x0 = np.zeros(system.n)
        if self.roa_lower is None:
            self.roa_lower = np.array([-1.4, -4.0]) if system.n == 2 else -np.ones(system.n)
        if self.roa_upper is None:
            self.roa_upper = np.array([1.4, 4.0]) if system.n == 2 else np.ones(system.n)
        if len(self.roa_points_per_axis) != system.n:
            raise ConfigError("roa.points_per_axis length does not match the state dimension")
        self.Q = as_square(self.Q, "Q")
        self.R = as_square(self.R, "R")
        if self.Q.shape[0] != system.n or self.R.shape[0] != system.m:
            raise ConfigError("weight dimensions do not match the system")
        self.x0 = _as_vector(self.x0, "sim.x0")
        if self.x0.shape != (system.n,):
            raise ConfigError("sim.x0 dimension does not match the system")
        self.roa_lower = _as_vector(self.roa_lower, "roa.lower")
        self.roa_upper = _as_vector(self.roa_upper, "roa.upper")
        if self.roa_lower.shape != (system.n,) or self.roa_upper.shape != (system.n,):
            raise ConfigError("roa.lower and roa.upper dimensions do not match the system")
        if not np.all(self.roa_lower < self.roa_upper):
            raise ConfigError("roa.lower must be strictly below roa.upper")
        return self

    def sim_config(self) -> SimConfig:
        return SimConfig(h=self.h, n_steps=self.n_steps, x0=np.asarray(self.x0, float),
                         zoh=self.zoh)

    def effective_dict(self) -> dict:
        """Every field resolved to plain Python values, ready for YAML."""
        self.resolved()
        system: dict = {"name": self.system_name}
        if self.system_name == "pendulum":
            p = self.pendulum
            system["pendulum"] = {"mass": float(p.mass), "gravity": float(p.gravity),
                                  "length": float(p.length), "inertia": float(p.inertia)}
        else:
            system["lti"] = {"A": self.lti_A.tolist(), "B": self.lti_B.tolist()}
        return {
            "system": system,
            "weights": {"Q": self.Q.tolist(), "R": self.R.tolist()},
            "sim": {"h": float(self.h), "n_steps": int(self.n_steps),
                    "x0": np.asarray(self.x0, float).tolist(), "zoh": bool(self.zoh)},
            "sweep": {"n_angles": int(self.sweep_n_angles),
                      "theta_min_deg": float(self.sweep_theta_min_deg),
                      "theta_max_deg": float(self.sweep_theta_max_deg)},
            "roa": {"lower": np.asarray(self.roa_lower, float).tolist(),
                    "upper": np.asarray(self.roa_upper, float).tolist(),
                    "points_per_axis": list(self.roa_points_per_axis),
                    "sublevel": "auto" if self.roa_sublevel is None else float(self.roa_sublevel)},
            "design": self.design,
            "out_dir": self.out_dir,
            "seed": int(self.seed),
        }


def _require_mapping(value, path: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be a mapping")
    return value


def _check_keys(data: dict, allowed: set[str], path: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} under {path}")


def _as_float(value, path: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path} must be a number") from exc


def _as_int(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{path} must be an integer")
    return value


def _as_matrix(value, path: str) -> np.ndarray:
    try:
        return as_matrix(value, path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _as_vector(value, path: str) -> np.ndarray:
    try:
        return as_vector(value, path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(data: dict | None, source: str = "<config>") -> RunConfig:
    """Build a RunConfig from a parsed YAML mapping."""
    cfg = RunConfig()
    data = _require_mapping(data, source)
    _check_keys(data, _TOP_KEYS, source)

    system = _require_mapping(data.get("system"), "system")
    _check_keys(system, {"name", "pendulum", "lti"}, "system")
    cfg.system_name = system.get("name", "pendulum")
    if cfg.system_name not in ("pendulum", "lti"):
        raise ConfigError(f"system.name must be 'pendulum' or 'lti', got {cfg.system_name!r}")
    pend = _require_mapping(system.get("pendulum"), "system.pendulum")
    _check_keys(pend, {"mass", "gravity", "length", "inertia"}, "system.pendulum")
    if pend:
        try:
            cfg.pendulum = PendulumParams(
                mass=_as_float(pend.get("mass", 1.0), "system.pendulum.mass"),
                gravity=_as_float(pend.get("gravity", 9.81), "system.pendulum.gravity"),
                length=_as_float(pend.get("length", 1.0), "system.pendulum.length"),
                inertia=_as_float(pend.get("inertia", 0.0), "system.pendulum.inertia"),
            )
        except ValueError as exc:
            raise ConfigError(f"system.pendulum: {exc}") from exc
    if cfg.system_name == "lti":
        lti = _require_mapping(system.get("lti"), "system.lti")
        _check_keys(lti, {"A", "B"}, "system.lti")
        if "A" not in lti or "B" not in lti:
            raise ConfigError("system.lti must provide A and B")
        cfg.lti_A = _as_matrix(lti["A"], "system.lti.A")
        cfg.lti_B = _as_matrix(lti["B"], "system.lti.B")

    weights = _require_mapping(data.get("weights"), "weights")
    _check_keys(weights, {"Q", "R"}, "weights")
    if "Q" in weights:
        cfg.Q = _as_matrix(weights["Q"], "weights.Q")
    if "R" in weights:
        cfg.R = _as_matrix(weights["R"], "weights.R")

    sim = _require_mapping(data.get("sim"), "sim")
    _check_keys(sim, {"h", "n_steps", "x0", "zoh"}, "sim")
    cfg.h = _as_float(sim.get("h", cfg.h), "sim.h")
    cfg.n_steps = _as_int(sim.get("n_steps", cfg.n_steps), "sim.n_steps")
    if not 0 < cfg.h < np.inf or cfg.n_steps < 1:
        raise ConfigError("sim.h must be positive and finite and sim.n_steps at least 1")
    if "x0" in sim:
        cfg.x0 = sim["x0"]
    zoh = sim.get("zoh", False)
    if not isinstance(zoh, bool):
        raise ConfigError("sim.zoh must be a boolean")
    cfg.zoh = zoh

    sweep = _require_mapping(data.get("sweep"), "sweep")
    _check_keys(sweep, {"n_angles", "theta_min_deg", "theta_max_deg"}, "sweep")
    cfg.sweep_n_angles = _as_int(sweep.get("n_angles", cfg.sweep_n_angles), "sweep.n_angles")
    cfg.sweep_theta_min_deg = _as_float(sweep.get("theta_min_deg", cfg.sweep_theta_min_deg),
                                        "sweep.theta_min_deg")
    cfg.sweep_theta_max_deg = _as_float(sweep.get("theta_max_deg", cfg.sweep_theta_max_deg),
                                        "sweep.theta_max_deg")
    if cfg.sweep_n_angles < 1:
        raise ConfigError("sweep.n_angles must be at least 1")
    if not -np.inf < cfg.sweep_theta_min_deg <= cfg.sweep_theta_max_deg < np.inf:
        raise ConfigError("sweep angle range must be finite and nonempty")

    roa = _require_mapping(data.get("roa"), "roa")
    _check_keys(roa, {"lower", "upper", "points_per_axis", "sublevel"}, "roa")
    if "lower" in roa:
        cfg.roa_lower = roa["lower"]
    if "upper" in roa:
        cfg.roa_upper = roa["upper"]
    if "points_per_axis" in roa:
        cfg.roa_points_per_axis = tuple(_as_int(k, "roa.points_per_axis")
                                        for k in roa["points_per_axis"])
        if min(cfg.roa_points_per_axis, default=0) < 2:
            raise ConfigError("roa.points_per_axis needs at least two points per axis")
    sublevel = roa.get("sublevel", "auto")
    if sublevel == "auto":
        cfg.roa_sublevel = None
    else:
        cfg.roa_sublevel = _as_float(sublevel, "roa.sublevel")
        if not cfg.roa_sublevel >= 0:
            raise ConfigError("roa.sublevel must be nonnegative or 'auto'")

    design = data.get("design", cfg.design)
    if design not in ("i", "ii", "iii", "iv"):
        raise ConfigError(f"design must be one of i, ii, iii, iv, got {design!r}")
    cfg.design = design
    out_dir = data.get("out_dir", cfg.out_dir)
    if not isinstance(out_dir, str):
        raise ConfigError("out_dir must be a string")
    cfg.out_dir = out_dir
    cfg.seed = _as_int(data.get("seed", cfg.seed), "seed")

    return cfg.resolved()


def load_config(path: str | None) -> RunConfig:
    """Read a YAML config file, or the built-in defaults when None."""
    if path is None:
        return RunConfig().resolved()
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path!r}: {exc}") from exc
    return parse_config(data, source=path)


def dump_effective(cfg: RunConfig) -> str:
    """Serialize the fully resolved configuration as YAML."""
    return yaml.safe_dump(cfg.effective_dict(), sort_keys=False, default_flow_style=None)


__all__ = ["ConfigError", "RunConfig", "dump_effective", "load_config", "parse_config"]

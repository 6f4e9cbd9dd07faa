"""Command-line interface: synthesize, simulate, sweep, roa.

Exit codes: 0 on completion (including non-stabilized runs, whose
outcome is data), 1 when standard output closes early (after the files
are written), 2 on configuration errors, a design structure that the
model does not have included, 3 when the stabilizability gate fails.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from .analysis import roa_certify, sweep_initial_angles, write_roa_csv, write_sweep_csv
from .clf import build_lqr_clf
from .config import ConfigError, RunConfig, dump_effective, load_config
from .control import synthesize_design
from .riccati import BadWeights, NotStabilizable, _residual_and_scale
from .sim import cost_index, distorted_cost, lyap_decay_check, simulate, write_trajectory_csv

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_CONFIG = 2
EXIT_NOT_STABILIZABLE = 3


def _fmt_matrix(M) -> str:
    return np.array2string(np.asarray(M, dtype=float), precision=12,
                           suppress_small=False, separator=", ")


def _flag_layer(args, theta0: bool = True) -> dict:
    """The command-line flags as one more config mapping; ``theta0``
    False leaves out the x0 that ``--theta0-deg`` sets."""
    layer = {key: value for key, value in (("design", getattr(args, "design", None)),
                                            ("out_dir", args.out), ("seed", args.seed))
             if value not in (None, "")}
    sim = {}
    if getattr(args, "zoh", False):
        sim["zoh"] = True
    if theta0 and getattr(args, "theta0_deg", None) is not None:
        sim["x0"] = [np.radians(args.theta0_deg), 0.0]
    if sim:
        layer["sim"] = sim
    return layer


def _load(args) -> RunConfig:
    """The run configuration, built once. ``--theta0-deg`` sets x0 to
    (angle, 0); when that x0 fails, a system that is not two-state is
    reported as such rather than as an x0 of the wrong length."""
    try:
        return load_config(args.config, _flag_layer(args))
    except ConfigError:
        if getattr(args, "theta0_deg", None) is None:
            raise
        if load_config(args.config, _flag_layer(args, theta0=False)).system.n != 2:
            raise ConfigError("--theta0-deg needs a two-state (angle, rate) system") from None
        raise


def _prepare_out(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.yaml").write_text(dump_effective(cfg))
    return out


def _synthesize(selector: str, cfg: RunConfig):
    """``synthesize_design`` on the configured system and weights; a
    structure it rejects (ValueError) is a configuration error."""
    try:
        return synthesize_design(selector, cfg.system, cfg.fbl, cfg.Q, cfg.R)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_synthesize(cfg: RunConfig) -> int:
    system = cfg.system
    result = _synthesize(cfg.design, cfg)
    design = result.lqr
    _, scale = _residual_and_scale(design.A, design.B, design.Q, design.P, design.K)
    rel = design.are_residual / scale
    print(f"system: {system.name or 'custom'} (n={system.n}, m={system.m})")
    print(f"design: {result.selector} ({result.label})")
    print(f"A =\n{_fmt_matrix(design.A)}")
    print(f"B =\n{_fmt_matrix(design.B)}")
    print(f"P =\n{_fmt_matrix(design.P)}")
    print(f"K =\n{_fmt_matrix(design.K)}")
    print(f"are_residual = {design.are_residual:.6e} (relative {rel:.6e})")
    # solve_care returns only designs whose closed loop it certified Hurwitz
    print("closed_loop_hurwitz = True")
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    system = cfg.system
    result = _synthesize(cfg.design, cfg)
    clf = result.clf if result.clf is not None else build_lqr_clf(result.lqr)
    traj = simulate(system, result.controller, cfg.sim, clf=clf)
    out = _prepare_out(cfg)
    csv_path = out / "trajectory.csv"
    write_trajectory_csv(traj, csv_path)
    sontag = traj.vdot is not None  # designs i and ii
    print(f"design: {result.selector} ({result.label})")
    print(f"x0 = {_fmt_matrix(traj.states[0])}")
    print(f"J_quadratic = {cost_index(traj, cfg.Q, cfg.R):.17g}")
    print(f"J_distorted = {distorted_cost(traj):.17g}" if sontag else "J_distorted = n/a")
    print(f"stabilized = {traj.stabilized}")
    if sontag and not traj.diverged:
        print(f"max_lyapunov_decay_mismatch = {lyap_decay_check(traj):.6e}")
    else:
        print("max_lyapunov_decay_mismatch = n/a")
    raised = sorted({f for row in traj.flags for f in row.split(";") if f})
    print(f"flags: {', '.join(raised) if raised else 'none'}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    system = cfg.system
    if system.n != 2:
        raise ConfigError("sweep needs a two-state (angle, rate) system")
    designs = {
        "sontag": _synthesize("i", cfg).controller,
        "fbl": _synthesize("iii", cfg).controller,
        "lqr": _synthesize("iv", cfg).controller,
    }
    result = sweep_initial_angles(system, designs, cfg.Q, cfg.R, cfg.sim,
                                  n_angles=cfg.n_angles, theta_range_deg=cfg.theta_range_deg)
    out = _prepare_out(cfg)
    csv_path = out / "sweep.csv"
    write_sweep_csv(result, csv_path)
    lo, hi = cfg.theta_range_deg
    print(f"swept {cfg.n_angles} initial angles in [{lo:g}, {hi:g}] deg")
    for line in result.summary_lines():
        print(line)
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_roa(cfg: RunConfig) -> int:
    sontag = _synthesize("i", cfg)
    lqr = _synthesize("iv", cfg)
    cert = roa_certify(cfg.system, sontag.clf, lqr=lqr.controller, sontag=sontag.controller,
                       grid=cfg.grid, C=cfg.sublevel)
    out = _prepare_out(cfg)
    csv_path = out / "roa.csv"
    write_roa_csv(cert, csv_path)
    print(f"C_lqr = {cert.C_lqr:.17g}")
    print(f"C_sontag = {cert.C_sontag:.17g}")
    print(f"C = {cert.C:.17g}")
    print(f"members_lqr = {int(cert.members_lqr.sum())}")
    print(f"members_sontag = {int(cert.members_sontag.sum())}")
    print(f"subset_holds = {cert.subset_holds}")
    print(f"wrote {csv_path}")
    return EXIT_OK


@functools.cache  # built on first use, once per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sontagctl",
        description="Sontag-type CLF controller synthesis, simulation, and certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, design=False, theta0=False, zoh=False):
        p.add_argument("--config", default=None, help="YAML configuration file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="seed recorded with the run")
        if design:
            p.add_argument("--design", choices=["i", "ii", "iii", "iv"], default=None,
                           help="controller design selector")
        if theta0:
            p.add_argument("--theta0-deg", type=float, default=None, dest="theta0_deg",
                           help="initial angle in degrees (rate starts at zero)")
        if zoh:
            p.add_argument("--zoh", action="store_true",
                           help="hold the input over each integration step")

    p = sub.add_parser("synthesize", help="run the synthesis pipeline and print the design")
    common(p, design=True)
    p = sub.add_parser("simulate", help="closed-loop run with trajectory CSV and cost report")
    common(p, design=True, theta0=True, zoh=True)
    p = sub.add_parser("sweep", help="initial-angle cost sweep over the benchmark designs")
    common(p, zoh=True)
    p = sub.add_parser("roa", help="grid certification of attraction-region membership")
    common(p)
    return parser


_COMMANDS = {
    "synthesize": cmd_synthesize,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "roa": cmd_roa,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load(args)
        status = _COMMANDS[args.command](cfg)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return status
    except BrokenPipeError:  # the rest goes nowhere, so exit flushes quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ConfigError, BadWeights) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NotStabilizable as exc:
        print(f"error: not stabilizable: {exc}", file=sys.stderr)
        return EXIT_NOT_STABILIZABLE


if __name__ == "__main__":
    raise SystemExit(main())

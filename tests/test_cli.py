import filecmp
import re
import subprocess
import sys

import numpy as np
import pytest
import yaml

from conftest import cli_env
from sontagctl.cli import EXIT_BROKEN_PIPE
from sontagctl.riccati import RESIDUAL_RTOL

SONTAGCTL = [sys.executable, "-m", "sontagctl"]


def run_cli(*args, cwd=None):
    return subprocess.run(SONTAGCTL + list(args), capture_output=True, text=True, cwd=cwd,
                          env=cli_env())


@pytest.fixture
def small_config(tmp_path):
    cfg = {
        "sweep": {"n_angles": 12, "theta_max_deg": 70.0},
        "sim": {"h": 0.01, "n_steps": 300},
        "roa": {"points_per_axis": [31, 31]},
    }
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


IMPORT_FOOTPRINT = """
import sys
UNWANTED = ("scipy", "multiprocessing", "concurrent.futures")

def unwanted():
    return sorted(m for m in sys.modules
                  if any(m == u or m.startswith(u + ".") for u in UNWANTED))

import sontagctl
assert not unwanted(), f"import sontagctl: {unwanted()}"
import sontagctl.cli
assert sontagctl.cli.main(["synthesize"]) == 0
assert not unwanted(), f"synthesize: {unwanted()}"
"""


def test_runtime_does_not_import_scipy(tmp_path):
    # scipy is the tests' oracle, not a dependency of the package; the
    # process pool is imported by the sweep alone, so import time and
    # the other commands do not pay for it
    proc = subprocess.run([sys.executable, "-c", IMPORT_FOOTPRINT], capture_output=True,
                          text=True, cwd=tmp_path, env=cli_env())
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_exits_quietly(tmp_path, small_config, unbuffered):
    # `sontagctl roa | head -1`: the reader has gone before roa prints.
    # The pipe is closed before the child can print (reading a line
    # first would race with the child's later writes), and both stdout
    # modes are covered: unbuffered, print fails inside the command;
    # block-buffered, the flush in main does.
    env = {**cli_env(), "PYTHONUNBUFFERED": unbuffered}
    proc = subprocess.Popen(SONTAGCTL + ["roa", "--config", str(small_config),
                                         "--out", str(tmp_path / "out")],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_BROKEN_PIPE
    assert stderr == b""
    assert (tmp_path / "out" / "roa.csv").stat().st_size > 0


class TestSynthesize:
    def test_pendulum_defaults(self):
        proc = run_cli("synthesize")
        assert proc.returncode == 0
        assert "are_residual" in proc.stdout
        assert "closed_loop_hurwitz = True" in proc.stdout
        rel = float(proc.stdout.split("relative ")[1].split(")")[0])
        assert rel < 1e-8

    def test_double_integrator_gain(self, tmp_path):
        cfg = tmp_path / "dbl.yaml"
        cfg.write_text(yaml.safe_dump({
            "system": {"name": "lti",
                       "lti": {"A": [[0.0, 1.0], [0.0, 0.0]], "B": [[0.0], [1.0]]}},
        }))
        proc = run_cli("synthesize", "--config", str(cfg))
        assert proc.returncode == 0
        # K = [1, sqrt(3)]
        assert "1.732050" in proc.stdout

    def test_relative_residual_is_the_certified_ratio(self, tmp_path):
        # seed 94's n = 4 care-lti draw: |P| ~ 1e5 puts the residual
        # (2.9e-8 with the default OpenBLAS kernel) above 1e-8 |Q|, but
        # not above 1e-8 of its own terms, the ratio solve_care certifies
        rng = np.random.default_rng([94, 2])
        A = rng.normal(size=(4, 4)) / 2
        B = rng.normal(size=(4, 1))
        cfg = tmp_path / "lti.yaml"
        cfg.write_text(yaml.safe_dump({
            "system": {"name": "lti", "lti": {"A": A.tolist(), "B": B.tolist()}},
        }))
        proc = run_cli("synthesize", "--config", str(cfg))
        assert proc.returncode == 0, proc.stderr
        rel = float(proc.stdout.split("relative ")[1].split(")")[0])
        assert rel <= RESIDUAL_RTOL
        assert "closed_loop_hurwitz = True" in proc.stdout

    def test_not_stabilizable_gate(self, tmp_path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump({
            "system": {"name": "lti",
                       "lti": {"A": [[1.0, 0.0], [0.0, 1.0]], "B": [[0.0], [0.0]]}},
        }))
        proc = run_cli("synthesize", "--config", str(cfg))
        assert proc.returncode == 3
        assert "not stabilizable" in proc.stderr

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "broken.yaml"
        cfg.write_text("design: seventeen\n")
        proc = run_cli("synthesize", "--config", str(cfg))
        assert proc.returncode == 2
        assert "config error" in proc.stderr

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "unknown.yaml"
        cfg.write_text("simulation: {h: 0.01}\n")
        proc = run_cli("synthesize", "--config", str(cfg))
        assert proc.returncode == 2

    @pytest.mark.parametrize("command, text", [
        ("roa", "roa: {lower: [-1, -1, -1]}\n"),  # the pendulum state has length 2
        ("roa", "roa: {lower: [1, 1], upper: [-1, -1]}\n"),
        ("roa", "roa: {points_per_axis: [0, 5]}\n"),
        ("roa", "roa: {sublevel: .nan}\n"),
        ("sweep", "sweep: {theta_max_deg: .inf}\n"),
        ("simulate", "sim: {x0: [.nan, 0]}\n"),
        ("simulate", "sim: {h: .nan}\n"),
        ("simulate", "sim: {h: .inf}\n"),
        ("synthesize", "system: {name: lti, lti: {A: [[0, 1], [0, 0]], B: [[1]]}}\n"),
        ("roa", "roa: {points_per_axis: 5}\n"),
        # without a name the pendulum runs, so the lti section would be ignored
        ("synthesize", "system: {lti: {A: [[1]], B: [[1]]}}\n"),
        ("sweep", "system: {name: lti, lti: {A: [[0, 1, 0], [0, 0, 1], [-1, -2, -3]],"
                  " B: [[0], [0], [1]]}}\n"),
    ], ids=["roa-length", "roa-empty-box", "roa-points", "sublevel-nan", "theta-inf", "x0-nan",
            "h-nan", "h-inf", "lti-B-rows", "points-scalar", "unselected-system",
            "sweep-three-states"])
    def test_invalid_values_exit_code(self, tmp_path, command, text):
        cfg = tmp_path / "invalid.yaml"
        cfg.write_text(text)
        proc = run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert "config error" in proc.stderr


def test_three_states_run_without_roa_section(tmp_path):
    cfg = tmp_path / "third.yaml"
    cfg.write_text(yaml.safe_dump({
        "system": {"name": "lti", "lti": {"A": [[0, 1, 0], [0, 0, 1], [-1, -2, -3]],
                                          "B": [[0], [0], [1]]}},
        "sim": {"n_steps": 50},
    }))
    assert run_cli("synthesize", "--config", str(cfg)).returncode == 0
    out = tmp_path / "run"
    proc = run_cli("simulate", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    roa = yaml.safe_load((out / "config.yaml").read_text())["roa"]
    assert roa["points_per_axis"] == [21, 21, 21]
    assert roa["lower"] == [-1.0] * 3 and roa["upper"] == [1.0] * 3


DEFAULT_CONFIG_YAML = """\
system:
  name: pendulum
  pendulum: {mass: 1.0, gravity: 9.81, length: 1.0, inertia: 0.0}
weights:
  Q:
  - [1.0, 0.0]
  - [0.0, 1.0]
  R:
  - [1.0]
sim:
  h: 0.01
  n_steps: 1500
  x0: [0.0, 0.0]
  zoh: false
sweep: {n_angles: 1000, theta_min_deg: 0.0, theta_max_deg: 89.0}
roa:
  lower: [-1.4, -4.0]
  upper: [1.4, 4.0]
  points_per_axis: [101, 101]
  sublevel: auto
design: i
out_dir: <out>
seed: 0
"""
DOUBLE_INTEGRATOR_SYSTEM_YAML = """\
system:
  name: lti
  lti:
    A:
    - [0.0, 1.0]
    - [0.0, 0.0]
    B:
    - [0.0]
    - [1.0]
"""


@pytest.mark.parametrize("system", [None, "lti"])
def test_effective_config_bytes(tmp_path, system):
    args = ["simulate", "--out", str(tmp_path / "out")]
    expected = DEFAULT_CONFIG_YAML
    if system == "lti":
        cfg = tmp_path / "dbl.yaml"
        cfg.write_text("system: {name: lti, lti: {A: [[0, 1], [0, 0]], B: [[0], [1]]}}\n")
        args += ["--config", str(cfg)]
        # the three system lines differ; the rest is the pendulum's default
        expected = DOUBLE_INTEGRATOR_SYSTEM_YAML + expected.split("\n", 3)[3]
    assert run_cli(*args).returncode == 0
    text = (tmp_path / "out" / "config.yaml").read_text()
    assert re.sub(r"(?m)^out_dir: .*$", "out_dir: <out>", text) == expected


class TestSimulate:
    def test_lqr_small_angle(self, tmp_path):
        out = tmp_path / "run"
        proc = run_cli("simulate", "--design", "iv", "--theta0-deg", "25",
                       "--out", str(out))
        assert proc.returncode == 0
        assert "stabilized = True" in proc.stdout
        # the CLF-dependent cost is the Sontag law's
        assert "J_distorted = n/a\n" in proc.stdout
        assert (out / "trajectory.csv").exists()
        assert (out / "config.yaml").exists()

    def test_sontag_large_angle(self, tmp_path):
        out = tmp_path / "run"
        proc = run_cli("simulate", "--design", "i", "--theta0-deg", "67",
                       "--out", str(out))
        assert proc.returncode == 0
        assert "stabilized = True" in proc.stdout
        assert "max_lyapunov_decay_mismatch" in proc.stdout

    def test_lqr_large_angle_fails_with_exit_zero(self, tmp_path):
        # a non-stabilized run is data, not an error
        out = tmp_path / "run"
        proc = run_cli("simulate", "--design", "iv", "--theta0-deg", "67",
                       "--out", str(out))
        assert proc.returncode == 0
        assert "stabilized = False" in proc.stdout

    def test_equilibrium_start(self, tmp_path):
        out = tmp_path / "run"
        proc = run_cli("simulate", "--design", "i", "--theta0-deg", "0",
                       "--out", str(out))
        assert proc.returncode == 0
        assert "J_quadratic = 0" in proc.stdout
        assert "J_distorted = 0\n" in proc.stdout  # +0, not -0
        rows = (out / "trajectory.csv").read_text().splitlines()[1:]
        assert all(float(r.split(",")[1]) == 0.0 for r in rows)

    @pytest.mark.parametrize("deg", ["25", "67"])
    def test_identity_coordinates_designs_agree(self, tmp_path, deg):
        # the pendulum's transformed coordinates are its states, so the
        # transformed CLF of design ii is design i's CLF
        outs = []
        for design in ("i", "ii"):
            out = tmp_path / design
            proc = run_cli("simulate", "--design", design, "--theta0-deg", deg,
                           "--out", str(out))
            assert proc.returncode == 0
            outs.append(out / "trajectory.csv")
        assert filecmp.cmp(*outs, shallow=False)

    def test_huge_angle_writes_no_warning(self, tmp_path):
        proc = run_cli("simulate", "--theta0-deg", "1e300", "--out", str(tmp_path / "run"))
        assert proc.returncode == 0
        assert "stabilized = False" in proc.stdout
        assert proc.stderr == ""

    def test_theta0_needs_two_states(self, tmp_path):
        cfg = tmp_path / "third.yaml"
        cfg.write_text(yaml.safe_dump({
            "system": {"name": "lti", "lti": {"A": [[0, 1, 0], [0, 0, 1], [-1, -2, -3]],
                                              "B": [[0], [0], [1]]}},
        }))
        proc = run_cli("simulate", "--config", str(cfg), "--theta0-deg", "20",
                       "--out", str(tmp_path / "run"))
        assert proc.returncode == 2
        assert "config error: --theta0-deg needs a two-state (angle, rate) system" in proc.stderr

    def test_zoh_flag(self, tmp_path):
        out = tmp_path / "run"
        proc = run_cli("simulate", "--design", "i", "--theta0-deg", "25",
                       "--zoh", "--out", str(out))
        assert proc.returncode == 0
        assert "stabilized = True" in proc.stdout


@pytest.mark.parametrize("argv", [("simulate", "--design", "iii"), ("synthesize", "--design", "iii"),
                                  ("sweep",)], ids=["simulate", "synthesize", "sweep"])
def test_rejected_structure_is_a_config_error(tmp_path, argv):
    # B's column is not a unit vector, so the feedback-linearizing
    # design (iii, which the sweep runs too) cannot be built
    cfg = tmp_path / "lti.yaml"
    cfg.write_text("system: {name: lti, lti: {A: [[0, 1], [0, 0]], B: [[1], [1]]}}\n")
    proc = run_cli(*argv, "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: ") and proc.stderr.count("\n") == 1


class TestSweep:
    def test_runs_and_summarizes(self, tmp_path, small_config):
        out = tmp_path / "sweep"
        proc = run_cli("sweep", "--config", str(small_config), "--out", str(out))
        assert proc.returncode == 0
        assert "sontag:" in proc.stdout
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 13
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and first[4] == "1"

    def test_bit_identical_reruns(self, tmp_path, small_config):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert run_cli("sweep", "--config", str(small_config), "--out", str(out1)).returncode == 0
        assert run_cli("sweep", "--config", str(small_config), "--out", str(out2)).returncode == 0
        assert filecmp.cmp(out1 / "sweep.csv", out2 / "sweep.csv", shallow=False)

    def test_effective_config_round_trip(self, tmp_path, small_config):
        # re-running from the emitted effective config reproduces the run
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert run_cli("sweep", "--config", str(small_config), "--out", str(out1)).returncode == 0
        emitted = out1 / "config.yaml"
        text = yaml.safe_load(emitted.read_text())
        text["out_dir"] = str(out2)
        emitted.write_text(yaml.safe_dump(text))
        assert run_cli("sweep", "--config", str(emitted)).returncode == 0
        assert filecmp.cmp(out1 / "sweep.csv", out2 / "sweep.csv", shallow=False)


class TestRoa:
    def test_pendulum_defaults(self, tmp_path, small_config):
        out = tmp_path / "roa"
        proc = run_cli("roa", "--config", str(small_config), "--out", str(out))
        assert proc.returncode == 0
        assert "subset_holds = True" in proc.stdout
        lines = (out / "roa.csv").read_text().splitlines()
        assert lines[0] == "x1,x2,V,member_lqr,member_sontag"
        assert len(lines) == 31 * 31 + 1

    def test_lti_identical_members(self, tmp_path):
        cfg = tmp_path / "lti.yaml"
        cfg.write_text(yaml.safe_dump({
            "system": {"name": "lti",
                       "lti": {"A": [[0.0, 1.0], [0.0, 0.0]], "B": [[0.0], [1.0]]}},
            "roa": {"lower": [-2.0, -2.0], "upper": [2.0, 2.0],
                    "points_per_axis": [21, 21], "sublevel": 1.0},
        }))
        out = tmp_path / "roa"
        proc = run_cli("roa", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0
        assert "subset_holds = True" in proc.stdout
        members = [line.split(",")[3:] for line in
                   (out / "roa.csv").read_text().splitlines()[1:]]
        assert all(l == s for l, s in members)

    def test_forced_zero_sublevel(self, tmp_path):
        cfg = tmp_path / "zero.yaml"
        cfg.write_text(yaml.safe_dump({
            "roa": {"points_per_axis": [21, 21], "sublevel": 0.0},
        }))
        out = tmp_path / "roa"
        proc = run_cli("roa", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0
        assert "members_lqr = 0" in proc.stdout
        assert "\nC = 0\n" in proc.stdout
        assert "subset_holds = True" in proc.stdout

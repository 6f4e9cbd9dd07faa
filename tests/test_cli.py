import filecmp
import subprocess
import sys

import pytest
import yaml

from conftest import cli_env

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


class TestSimulate:
    def test_lqr_small_angle(self, tmp_path):
        out = tmp_path / "run"
        proc = run_cli("simulate", "--design", "iv", "--theta0-deg", "25",
                       "--out", str(out))
        assert proc.returncode == 0
        assert "stabilized = True" in proc.stdout
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
        rows = (out / "trajectory.csv").read_text().splitlines()[1:]
        assert all(float(r.split(",")[1]) == 0.0 for r in rows)

    def test_zoh_flag(self, tmp_path):
        out = tmp_path / "run"
        proc = run_cli("simulate", "--design", "i", "--theta0-deg", "25",
                       "--zoh", "--out", str(out))
        assert proc.returncode == 0
        assert "stabilized = True" in proc.stdout


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
        assert "subset_holds = True" in proc.stdout

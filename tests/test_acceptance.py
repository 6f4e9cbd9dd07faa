"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import filecmp
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg
import yaml

from sontagctl.analysis import GridSpec, roa_certify, sweep_initial_angles
from sontagctl.clf import QuadraticClf, global_clf_margin
from sontagctl.control import LqrController, SontagController, hjb_residual, synthesize_design
from sontagctl.linalg import cholesky_pd, is_hurwitz, max_abs
from sontagctl.model import lti_system, pendulum_system
from sontagctl.riccati import solve_care
from sontagctl.sim import SimConfig, cost_index, distorted_cost, lyap_decay_check, simulate

from conftest import cli_env, random_lti, random_spd


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({title}): FAIL")
        raise
    print(f"criterion {number} ({title}): PASS")


@pytest.fixture(scope="module")
def pendulum_setup():
    sys_m, fbl = pendulum_system()
    Q, R = np.eye(2), np.array([[1.0]])
    designs = {sel: synthesize_design(sel, sys_m, fbl, Q, R)
               for sel in ("i", "ii", "iii", "iv")}
    return sys_m, fbl, Q, R, designs


def test_criterion_1_lqr_recovery():
    with criterion(1, "Sontag law recovers the LQR on linear systems"):
        rng = np.random.default_rng(90001)
        for _ in range(20):
            A, B = random_lti(rng, n_max=5, m_max=2)
            Q = random_spd(rng, A.shape[0])
            R = random_spd(rng, B.shape[1])
            design = solve_care(A, B, Q, R)
            sys_m, _ = lti_system(A, B)
            ctrl = SontagController(QuadraticClf(design.P), sys_m, Q, R)
            X = rng.normal(size=(100, A.shape[0])).T
            parts = ctrl._parts(X)
            U_lqr = -(design.K @ X)
            u_err = np.abs(parts.U - U_lqr).max(axis=0)
            assert np.all(u_err <= 1e-9 * (1.0 + np.abs(U_lqr).max(axis=0)))
            assert np.all(np.abs(parts.lam[parts.nonzero] - 1.0) <= 1e-10)


def test_criterion_2_are_certification():
    with criterion(2, "Riccati solutions certified (residual, PD, Hurwitz)"):
        rng = np.random.default_rng(90002)
        for _ in range(50):
            A, B = random_lti(rng, n_max=5, m_max=2)
            Q = random_spd(rng, A.shape[0])
            R = random_spd(rng, B.shape[1])
            d = solve_care(A, B, Q, R)
            residual = max_abs(A.T @ d.P + d.P @ A
                               - d.P @ B @ np.linalg.solve(R, B.T @ d.P) + Q)
            assert residual <= 1e-8 * max_abs(Q)
            assert max_abs(d.P - d.P.T) <= 1e-10 * max_abs(d.P)
            cholesky_pd(d.P)
            assert is_hurwitz(A - B @ d.K)
        s3 = np.sqrt(3.0)
        d = solve_care([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], np.eye(2), [[1.0]])
        assert np.abs(d.P - np.array([[s3, 1.0], [1.0, s3]])).max() <= 1e-9


def test_criterion_3_decay_identity(pendulum_setup):
    with criterion(3, "closed-form CLF decay matches finite differences"):
        sys_m, _, Q, R, designs = pendulum_setup
        res = designs["i"]
        mismatches = []
        for h, n in ((0.01, 1500), (0.005, 3000)):
            cfg = SimConfig(h=h, n_steps=n, x0=np.array([np.radians(25.0), 0.0]))
            traj = simulate(sys_m, res.controller, cfg, clf=res.clf)
            mismatches.append(lyap_decay_check(traj))
        assert mismatches[0] <= 5e-3, f"mismatch {mismatches[0]:.2e}"
        ratio = mismatches[0] / mismatches[1]
        assert 3.0 <= ratio <= 6.0, f"halving improved only {ratio:.2f}x"


def test_criterion_4_hjb_identity():
    with criterion(4, "zero HJB residual and undistorted cost on linear loops"):
        rng = np.random.default_rng(90004)
        for _ in range(5):
            A, B = random_lti(rng, n_max=4, m_max=2)
            Q = random_spd(rng, A.shape[0])
            R = random_spd(rng, B.shape[1])
            design = solve_care(A, B, Q, R)
            sys_m, _ = lti_system(A, B)
            clf = QuadraticClf(design.P)
            X = rng.normal(size=(100, A.shape[0])).T
            res = hjb_residual(clf, sys_m, Q, R, X)
            assert np.all(np.abs(res) <= 1e-9 * (1.0 + np.sum(X * X, axis=0)))
            ctrl = SontagController(clf, sys_m, Q, R)
            cfg = SimConfig(h=0.01, n_steps=1500, x0=rng.normal(size=A.shape[0]))
            traj = simulate(sys_m, ctrl, cfg, clf=clf)
            assert not traj.diverged
            jq = cost_index(traj, Q, R)
            assert distorted_cost(traj) == pytest.approx(jq, rel=1e-9)


def test_criterion_5_roa_grid(pendulum_setup):
    with criterion(5, "grid attraction sets: LQR members inside Sontag members"):
        sys_m, _, _, _, designs = pendulum_setup
        grid = GridSpec(lower=[-1.4, -4.0], upper=[1.4, 4.0], points_per_axis=(101, 101))
        clf = designs["i"].clf
        cert = roa_certify(sys_m, clf, lqr=designs["iv"].controller,
                           sontag=designs["i"].controller, grid=grid)
        assert cert.C_sontag >= cert.C_lqr > 0.0
        assert cert.subset_holds
        assert cert.members_lqr.sum() > 0


def test_criterion_6_global_clf_certificate(pendulum_setup):
    with criterion(6, "transformed CLF condition certified on the whole domain"):
        _, fbl, _, _, designs = pendulum_setup
        assert global_clf_margin(fbl, designs["ii"].clf.P_tilde) > 0.0
        assert global_clf_margin(fbl, np.eye(2)) == 0.0


def test_criterion_7_qualitative_sweep(pendulum_setup):
    with criterion(7, "pendulum sweep reproduces the qualitative comparison"):
        sys_m, _, Q, R, designs = pendulum_setup

        # (a) every design stabilizes a 25 degree displacement
        for sel in ("i", "ii", "iii", "iv"):
            cfg = SimConfig(x0=np.array([np.radians(25.0), 0.0]))
            clf = designs[sel].clf if designs[sel].clf is not None else None
            traj = simulate(sys_m, designs[sel].controller, cfg, clf=clf)
            assert traj.stabilized, f"design {sel} failed at 25 degrees"

        sweep = sweep_initial_angles(
            sys_m,
            {"sontag": designs["i"].controller, "lqr": designs["iv"].controller,
             "fbl": designs["iii"].controller},
            Q, R, SimConfig(h=0.01, n_steps=1500),
            n_angles=1000, theta_range_deg=(0.0, 89.0))

        # (b) an angle exists where the LQR fails but the Sontag law
        # stabilizes; under the default parameters it sits near 66.9 deg
        found = ~sweep.stab_lqr & sweep.stab_sontag
        assert found.any()
        theta_star = float(sweep.theta0_deg[found][0])
        assert abs(theta_star - 66.906) < 1.0, f"theta* moved to {theta_star:.3f}"
        print(f"  discovered theta* = {theta_star:.3f} deg")

        # (c) near-unity cost ratio at small angles
        small = (sweep.theta0_deg > 0) & (sweep.theta0_deg <= 5.0)
        assert np.all(sweep.ratio_lqr[small] >= 0.99)
        assert np.all(sweep.ratio_lqr[small] <= 1.01)

        # (d) a contiguous range at least 20 degrees wide where the
        # Sontag law beats feedback linearization
        good = np.isfinite(sweep.ratio_fbl) & (sweep.ratio_fbl < 1.0)
        best = 0
        run = 0
        for g in good:
            run = run + 1 if g else 0
            best = max(best, run)
        step = sweep.theta0_deg[1] - sweep.theta0_deg[0]
        width = (best - 1) * step
        assert width >= 20.0, f"widest run only {width:.1f} deg"


def test_criterion_8_rk4_order():
    with criterion(8, "fourth-order convergence of the integrator"):
        d = solve_care([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], np.eye(2), [[1.0]])
        sys_m, _ = lti_system(d.A, d.B)
        ctrl = LqrController(d.K)
        x0 = np.array([1.0, 1.0])
        exact = scipy.linalg.expm(d.A - d.B @ d.K) @ x0
        errors = []
        for h, n in ((0.1, 10), (0.05, 20)):
            traj = simulate(sys_m, ctrl, SimConfig(h=h, n_steps=n, x0=x0))
            errors.append(np.abs(traj.states[-1] - exact).max())
        ratio = errors[0] / errors[1]
        assert 12.0 <= ratio <= 20.0, f"error ratio {ratio:.2f}"


def test_criterion_9_sweep_determinism(tmp_path):
    with criterion(9, "repeated sweeps produce bit-identical CSVs"):
        cfg = tmp_path / "config.yaml"
        cfg.write_text(yaml.safe_dump({
            "sweep": {"n_angles": 25, "theta_max_deg": 80.0},
            "sim": {"h": 0.01, "n_steps": 400},
            "seed": 7,
        }))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "sontagctl", "sweep",
                 "--config", str(cfg), "--out", str(out)],
                capture_output=True, text=True, env=cli_env())
            assert proc.returncode == 0, proc.stderr
            outs.append(out / "sweep.csv")
        assert filecmp.cmp(outs[0], outs[1], shallow=False)
        assert outs[0].read_bytes() == outs[1].read_bytes()

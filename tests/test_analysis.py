import concurrent.futures
import dataclasses
import multiprocessing
import os
import types

import numpy as np
import pytest

from sontagctl.analysis import (
    GridSpec,
    RoaCertificate,
    SweepResult,
    roa_certify,
    sweep_initial_angles,
    write_roa_csv,
    write_sweep_csv,
)
from sontagctl.clf import TransformedClf, clf_condition_at, global_clf_margin
from sontagctl.control import LqrController, SontagController, synthesize_design
from sontagctl.linalg import solve_lyapunov
from sontagctl.model import lti_system
from sontagctl.sim import SimConfig, cost_index, rollout_costs, simulate

import csv_reference
from conftest import EXTREMES, counted, counting_drift, format_cell


@pytest.fixture(scope="module")
def pendulum_grid():
    return GridSpec(lower=[-1.4, -4.0], upper=[1.4, 4.0], points_per_axis=(101, 101))


class TestGridSpec:
    def test_points_shape_and_order(self):
        grid = GridSpec(lower=[0.0, 0.0], upper=[1.0, 2.0], points_per_axis=(2, 3))
        pts = grid.points()
        assert pts.shape == (2, 6)
        np.testing.assert_allclose(pts[:, 0], [0.0, 0.0])
        np.testing.assert_allclose(pts[:, 1], [0.0, 1.0])  # the last axis varies fastest
        np.testing.assert_allclose(pts[:, -1], [1.0, 2.0])
        np.testing.assert_array_equal(pts, grid.points())  # deterministic

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(lower=[0.0], upper=[0.0], points_per_axis=(5,))
        with pytest.raises(ValueError):
            GridSpec(lower=[0.0], upper=[1.0], points_per_axis=(1,))


class TestRoaCertify:
    def test_lti_identical_member_sets(self, double_integrator, dbl_int_design, dbl_int_clf):
        # the Sontag-type law equals the LQR here, so membership matches
        sys_m, _ = double_integrator
        sontag = SontagController(dbl_int_clf, sys_m, dbl_int_design.Q, dbl_int_design.R)
        lqr = LqrController(dbl_int_design.K)
        grid = GridSpec(lower=[-2.0, -2.0], upper=[2.0, 2.0], points_per_axis=(41, 41))
        cert = roa_certify(sys_m, dbl_int_clf, lqr=lqr, sontag=sontag, grid=grid, C=1.0)
        assert cert.subset_holds
        np.testing.assert_array_equal(cert.members_lqr, cert.members_sontag)
        assert cert.members_lqr.sum() > 0

    def test_pendulum_subset(self, pendulum, pendulum_designs, pendulum_grid):
        sys_m, _ = pendulum
        res_s = pendulum_designs["i"]
        res_l = pendulum_designs["iv"]
        c = roa_certify(sys_m, res_s.clf, lqr=res_l.controller,
                        sontag=res_s.controller, grid=pendulum_grid).C_sontag
        cert = roa_certify(sys_m, res_s.clf, lqr=res_l.controller,
                           sontag=res_s.controller, grid=pendulum_grid, C=c)
        assert cert.subset_holds
        assert cert.members_sontag.sum() > cert.members_lqr.sum() > 0

    def test_tiny_sublevel_local(self, pendulum, pendulum_designs):
        # even a degenerate sublevel certifies on a fine local grid
        sys_m, _ = pendulum
        res_s = pendulum_designs["i"]
        res_l = pendulum_designs["iv"]
        grid = GridSpec(lower=[-2e-5, -2e-5], upper=[2e-5, 2e-5], points_per_axis=(41, 41))
        cert = roa_certify(sys_m, res_s.clf, lqr=res_l.controller,
                           sontag=res_s.controller, grid=grid, C=1e-9)
        assert cert.members_lqr.sum() > 0
        assert cert.members_sontag.sum() > 0
        assert cert.subset_holds

    def test_shrinking_c_never_adds_members(self, pendulum, pendulum_designs, pendulum_grid):
        sys_m, _ = pendulum
        res_s = pendulum_designs["i"]
        res_l = pendulum_designs["iv"]
        big = roa_certify(sys_m, res_s.clf, lqr=res_l.controller,
                          sontag=res_s.controller, grid=pendulum_grid, C=3.0)
        small = roa_certify(sys_m, res_s.clf, lqr=res_l.controller,
                            sontag=res_s.controller, grid=pendulum_grid, C=1.0)
        assert np.all(big.members_lqr | ~small.members_lqr)
        assert np.all(big.members_sontag | ~small.members_sontag)


    def test_auto_sublevel_matches_explicit(self, pendulum, pendulum_designs, pendulum_grid):
        sys_m, _ = pendulum
        res_s = pendulum_designs["i"]
        kw = dict(lqr=pendulum_designs["iv"].controller, sontag=res_s.controller,
                  grid=pendulum_grid)
        auto = roa_certify(sys_m, res_s.clf, **kw)
        fixed = roa_certify(sys_m, res_s.clf, C=auto.C, **kw)
        assert auto.C_sontag >= auto.C_lqr > 0.0
        assert auto.C == max(auto.C_lqr, auto.C_sontag)
        assert (fixed.C, fixed.C_lqr, fixed.C_sontag) == (auto.C, auto.C_lqr, auto.C_sontag)
        for name in ("points", "values", "members_lqr", "members_sontag"):
            assert getattr(fixed, name).tobytes() == getattr(auto, name).tobytes(), name
        assert fixed.subset_holds == auto.subset_holds

    @pytest.mark.parametrize("C", [-1.0, float("nan")])
    def test_rejects_negative_or_nan_sublevel(self, pendulum, pendulum_designs, C):
        # a NaN C used to certify nothing and report the subset as holding
        sys_m, _ = pendulum
        res_s = pendulum_designs["i"]
        grid = GridSpec(lower=[-1.4, -4.0], upper=[1.4, 4.0], points_per_axis=(11, 11))
        with pytest.raises(ValueError):
            roa_certify(sys_m, res_s.clf, lqr=pendulum_designs["iv"].controller,
                        sontag=res_s.controller, grid=grid, C=C)

    def test_one_evaluation_per_decision(self, pendulum, pendulum_designs, monkeypatch):
        # the grid, V, its gradient and each law's closed loop are
        # evaluated once, on the whole grid, for both sublevel constants
        # and the members; the second gradient is the Sontag law's own
        sys_m, _ = pendulum
        res = pendulum_designs["i"]
        calls = {name: [] for name in ("points", "value", "grad", "f", "G")}
        model = dataclasses.replace(sys_m, f=counted(sys_m.f, calls["f"]),
                                    G=counted(sys_m.G, calls["G"]))
        clf = types.SimpleNamespace(value=counted(res.clf.value, calls["value"]),
                                    grad=counted(res.clf.grad, calls["grad"]))
        monkeypatch.setattr(GridSpec, "points", counted(GridSpec.points, calls["points"]))
        for log in calls.values():
            log.clear()
        grid = GridSpec(lower=[-1.4, -4.0], upper=[1.4, 4.0], points_per_axis=(11, 11))
        roa_certify(model, clf, lqr=pendulum_designs["iv"].controller,
                    sontag=SontagController(clf, model, res.lqr.Q, res.lqr.R), grid=grid)
        assert {name: len(log) for name, log in calls.items()} == {
            "points": 1, "value": 1, "grad": 2, "f": 2, "G": 2}
        for name in ("value", "grad", "f", "G"):
            assert all(shape == (2, 121) for shape in calls[name]), name


class TestLargestSublevel:
    def test_fully_certified_grid(self, double_integrator, dbl_int_design, dbl_int_clf):
        # a stable linear closed loop certifies the entire grid, so the
        # constant is the largest sampled value (attained on the boundary)
        sys_m, _ = double_integrator
        lqr = LqrController(dbl_int_design.K)
        sontag = SontagController(dbl_int_clf, sys_m, dbl_int_design.Q, dbl_int_design.R)
        grid = GridSpec(lower=[-1.0, -1.0], upper=[1.0, 1.0], points_per_axis=(21, 21))
        c = roa_certify(sys_m, dbl_int_clf, lqr=lqr, sontag=sontag, grid=grid).C_lqr
        pts = grid.points()
        v = dbl_int_clf.value(pts)
        assert c == float(v.max())

    def test_sublevel_is_an_exact_order_statistic(self, pendulum, pendulum_designs,
                                                  pendulum_grid):
        # C is a sampled V, every nonzero sample with V <= C strictly
        # decays and every nonzero sample that does not decay lies above C
        sys_m, _ = pendulum
        res_s, res_l = pendulum_designs["i"], pendulum_designs["iv"]
        cert = roa_certify(sys_m, res_s.clf, lqr=res_l.controller, sontag=res_s.controller,
                           grid=pendulum_grid)
        pts = pendulum_grid.points()
        V = res_s.clf.value(pts)
        nonzero = np.abs(pts).max(axis=0) > 0.0
        for C, law in ((cert.C_lqr, res_l.controller), (cert.C_sontag, res_s.controller)):
            xdot = sys_m.f(pts) + np.einsum("ijk,jk->ik", sys_m.G(pts), law.u(pts))
            decays = (res_s.clf.grad(pts) * xdot).sum(axis=0) < 0.0
            assert C > 0.0 and C in V[nonzero]
            assert np.all(decays[nonzero & (V <= C)])
            assert np.all(V[nonzero & ~decays] > C)

    def test_near_zero_node_keeps_both_constants(self, pendulum, pendulum_designs):
        # linspace puts a node at x1 = 2.2e-16 on this grid; its Vdot of
        # about -1e-30 is a decay, and no absolute margin zeroes C
        sys_m, _ = pendulum
        res_s = pendulum_designs["i"]
        grid = GridSpec(lower=[-1.57, -8.0], upper=[1.57, 8.0], points_per_axis=(201, 201))
        cert = roa_certify(sys_m, res_s.clf, lqr=pendulum_designs["iv"].controller,
                           sontag=res_s.controller, grid=grid)
        assert cert.C_lqr > 0.0
        assert cert.C_sontag > 0.0

    def test_pendulum_ordering(self, pendulum, pendulum_designs, pendulum_grid):
        sys_m, _ = pendulum
        res_s = pendulum_designs["i"]
        cert = roa_certify(sys_m, res_s.clf, lqr=pendulum_designs["iv"].controller,
                           sontag=res_s.controller, grid=pendulum_grid)
        c_lqr, c_sontag = cert.C_lqr, cert.C_sontag
        assert 0.0 < c_lqr < np.inf
        assert c_sontag >= c_lqr

    def test_one_drift_call_for_sontag_law(self, pendulum, pendulum_designs):
        # the decay test's one model evaluation supplies both f + G u and
        # the Sontag law's Lie terms, so each law's decay test evaluates
        # the batched drift once and the law's own model is not called
        sys_m, _ = pendulum
        res = pendulum_designs["i"]
        lqr = pendulum_designs["iv"].controller
        model, calls = counting_drift(sys_m)
        ctrl = SontagController(res.clf, model, res.lqr.Q, res.lqr.R)
        grid = GridSpec(lower=[-1.4, -4.0], upper=[1.4, 4.0], points_per_axis=(11, 11))
        c = roa_certify(model, res.clf, lqr=lqr, sontag=ctrl, grid=grid).C_sontag
        assert calls == [(2, 121), (2, 121)]
        assert c == roa_certify(sys_m, res.clf, lqr=lqr, sontag=res.controller,
                                grid=grid).C_sontag

    def test_uncontrolled_pendulum_gives_zero(self, pendulum, pendulum_designs, pendulum_grid):
        # with zero gain the CLF grows along the unstable direction
        # arbitrarily close to the origin
        sys_m, _ = pendulum
        res_s = pendulum_designs["i"]
        zero_gain = LqrController(np.zeros((1, 2)))
        cert = roa_certify(sys_m, res_s.clf, lqr=zero_gain, sontag=res_s.controller,
                           grid=pendulum_grid)
        assert cert.C_lqr == 0.0


def _integer_kernel(C):
    """Integer basis of ker C, as columns, for a 2x4 integer C whose
    first two columns are independent: each column expands a 3x3
    determinant with a repeated row of C along its first row."""
    def minor(i, j):
        return C[0, i] * C[1, j] - C[0, j] * C[1, i]
    return np.array([[minor(1, 2), -minor(0, 2), minor(0, 1), 0],
                     [minor(1, 3), -minor(0, 3), 0, minor(0, 1)]]).T


class TestGlobalClfCheck:
    def test_pendulum_construction_passes(self, pendulum, pendulum_designs):
        # ker(B'P) is spanned by v = P^{-1} e1, so the one pivot squared
        # is -v'(A'P + PA)v
        _, fbl = pendulum
        P = pendulum_designs["ii"].clf.P_tilde
        v = np.linalg.solve(P, [1.0, 0.0])
        margin = global_clf_margin(fbl, P)
        assert margin ** 2 == pytest.approx(-(v @ (fbl.A_tilde.T @ P + P @ fbl.A_tilde) @ v),
                                            rel=1e-12)
        assert margin ** 2 == pytest.approx(3.622, rel=1e-3)

    def test_identity_matrix_fails(self, pendulum):
        # a(z) and b(z) both vanish on the z1 axis
        sys_m, fbl = pendulum
        assert global_clf_margin(fbl, np.eye(2)) == 0.0
        assert not clf_condition_at(TransformedClf(np.eye(2), fbl), sys_m, np.array([1.0, 0.0]))

    def test_hurwitz_drift_always_passes(self):
        # strictly negative drift form never needs the input direction
        A = np.array([[-1.0, 0.2], [0.0, -2.0]])
        _, fbl = lti_system(A, np.array([[0.0], [1.0]]))
        assert global_clf_margin(fbl, solve_lyapunov(A, np.eye(2))) > 0.0

    def test_square_input_matrix_passes(self):
        # with m = n, b = 0 only at the origin, whatever the drift
        _, fbl = lti_system(np.eye(2), np.eye(2))
        assert global_clf_margin(fbl, np.eye(2)) == np.inf

    def test_random_systems_against_witnesses(self):
        # Integer draws make every a and b exact: B'PN = 0 by
        # construction, so N spans ker(B'P), and the condition fails there
        # iff K = N'(A'P + PA)N is not negative definite, which one of the
        # witnesses N e1, N e2, N (-K12, K11) then shows with a >= 0, b = 0.
        rng = np.random.default_rng(7001)
        rejected = draws = 0
        while draws < 200:
            A = rng.integers(-2, 3, size=(4, 4))
            L = np.tril(rng.integers(-2, 3, size=(4, 4)), -1) + np.diag(rng.integers(1, 3, 4))
            P = L @ L.T
            N = rng.integers(-2, 3, size=(4, 2))
            W = P @ N
            if W[0, 0] * W[1, 1] == W[0, 1] * W[1, 0]:
                continue
            B = _integer_kernel(W.T)
            B //= np.gcd.reduce(B, axis=0)
            if np.linalg.matrix_rank(np.hstack([np.linalg.matrix_power(A, k) @ B
                                                for k in range(4)])) < 4:
                continue   # no design ii without a stabilizing Riccati solution
            draws += 1
            K = N.T @ (A.T @ P + P @ A) @ N
            Z = N @ np.array([[1, 0, -K[0, 1]], [0, 1, K[0, 0]]])
            sys_m, fbl = lti_system(A, B)
            fails = not clf_condition_at(TransformedClf(P, fbl), sys_m, Z.astype(float)).all()
            assert (global_clf_margin(fbl, P) == 0.0) == fails
            rejected += fails
            design = synthesize_design("ii", sys_m, fbl, np.eye(4), np.eye(2))
            assert global_clf_margin(fbl, design.clf.P_tilde) > 0.0
        assert 0 < rejected < draws


@pytest.fixture(scope="module")
def sweep_designs(pendulum_designs):
    return {name: pendulum_designs[sel].controller
            for name, sel in (("sontag", "i"), ("lqr", "iv"), ("fbl", "iii"))}


@pytest.fixture(scope="module")
def small_sweep(pendulum, sweep_designs, pendulum_weights):
    sys_m, _ = pendulum
    Q, R = pendulum_weights
    return sweep_initial_angles(sys_m, sweep_designs, Q, R,
                                SimConfig(h=0.01, n_steps=1500),
                                n_angles=24, theta_range_deg=(0.0, 69.0))


def set_usable_cpus(monkeypatch, count):
    """Make the sweep see ``count`` usable CPUs, whichever call it reads."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


@pytest.fixture
def pools(monkeypatch):
    """(workers, start method) of each process pool a sweep creates."""
    made = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            made.append((max_workers, kwargs["mp_context"].get_start_method()))
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return made


class TestSweep:
    def test_equilibrium_row(self, small_sweep):
        assert small_sweep.theta0_deg[0] == 0.0
        assert small_sweep.j_sontag[0] == 0.0
        assert small_sweep.ratio_lqr[0] == 1.0
        assert small_sweep.ratio_fbl[0] == 1.0

    def test_small_angles_near_unity(self, small_sweep):
        mask = (small_sweep.theta0_deg > 0) & (small_sweep.theta0_deg <= 5.0)
        assert mask.any()
        assert np.all(np.abs(small_sweep.ratio_lqr[mask] - 1.0) <= 0.01)

    def test_ratio_unavailable_when_lqr_fails(self, small_sweep):
        failed = ~small_sweep.stab_lqr
        assert failed.any()
        assert np.all(np.isnan(small_sweep.ratio_lqr[failed]))

    def test_rows_match_single_simulations(self, pendulum, sweep_designs, pendulum_weights):
        sys_m, _ = pendulum
        Q, R = pendulum_weights
        designs = sweep_designs
        cfg = SimConfig(h=0.01, n_steps=400)
        result = sweep_initial_angles(sys_m, designs, Q, R, cfg,
                                      n_angles=4, theta_range_deg=(10.0, 40.0))
        for row, theta in enumerate(result.theta0_deg):
            run_cfg = SimConfig(h=0.01, n_steps=400,
                                x0=np.array([np.radians(theta), 0.0]))
            traj = simulate(sys_m, designs["sontag"], run_cfg)
            assert result.j_sontag[row] == pytest.approx(
                cost_index(traj, Q, R), rel=1e-9)

    def test_csv_encoding(self, tmp_path, small_sweep):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(small_sweep, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("theta0_deg,J_sontag,J_lqr,J_fbl,ratio_lqr,ratio_fbl,"
                            "stab_sontag,stab_lqr,stab_fbl")
        assert len(lines) == 25
        # rows where the LQR failed carry an empty ratio and, once the
        # run diverges, an 'inf' cost
        failed_rows = [lines[1 + i] for i in range(24) if not small_sweep.stab_lqr[i]]
        assert failed_rows
        for row in failed_rows:
            fields = row.split(",")
            assert fields[4] == ""
            assert fields[7] == "0"
        if np.isinf(small_sweep.j_lqr).any():
            assert any(r.split(",")[2] == "inf" for r in failed_rows)

    def test_requires_all_designs(self, pendulum, pendulum_weights):
        sys_m, _ = pendulum
        Q, R = pendulum_weights
        with pytest.raises(ValueError):
            sweep_initial_angles(sys_m, {"sontag": None}, Q, R, SimConfig())

    def test_deterministic_repetition(self, pendulum, sweep_designs, pendulum_weights):
        sys_m, _ = pendulum
        Q, R = pendulum_weights
        designs = sweep_designs
        cfg = SimConfig(h=0.01, n_steps=300)
        r1 = sweep_initial_angles(sys_m, designs, Q, R, cfg, n_angles=8,
                                  theta_range_deg=(0.0, 60.0))
        r2 = sweep_initial_angles(sys_m, designs, Q, R, cfg, n_angles=8,
                                  theta_range_deg=(0.0, 60.0))
        np.testing.assert_array_equal(r1.j_sontag, r2.j_sontag)
        np.testing.assert_array_equal(r1.j_lqr, r2.j_lqr)
        np.testing.assert_array_equal(r1.j_fbl, r2.j_fbl)

    @pytest.mark.parametrize("zoh", [False, True])
    def test_pool_rows_are_the_in_process_rows(self, monkeypatch, pools, pendulum,
                                               sweep_designs, pendulum_weights, zoh):
        sys_m, _ = pendulum
        Q, R = pendulum_weights
        cfg = SimConfig(h=0.01, n_steps=300, zoh=zoh)

        def sweep():
            return sweep_initial_angles(sys_m, sweep_designs, Q, R, cfg, n_angles=12,
                                        theta_range_deg=(0.0, 80.0))

        pooled = {}
        for cpus in (2, 8):
            set_usable_cpus(monkeypatch, cpus)
            pooled[cpus] = sweep()
        assert pools == [(2, "fork"), (3, "fork")]  # one worker per design at most
        result = pooled[8]
        X0 = np.stack([np.radians(result.theta0_deg), np.zeros(12)])
        for name in ("sontag", "lqr", "fbl"):
            costs, stabilized, _ = rollout_costs(sys_m, sweep_designs[name], X0, Q, R,
                                                 cfg.h, cfg.n_steps, zoh=zoh)
            np.testing.assert_array_equal(getattr(result, f"j_{name}"), costs)
            np.testing.assert_array_equal(getattr(result, f"stab_{name}"), stabilized)

        def forbidden():
            raise AssertionError("the in-process path forked")

        set_usable_cpus(monkeypatch, 1)
        monkeypatch.setattr(os, "fork", forbidden)
        serial = sweep()
        monkeypatch.delattr(os, "fork")  # a platform without fork
        set_usable_cpus(monkeypatch, 8)
        no_fork = sweep()
        assert len(pools) == 2
        for other in (pooled[2], serial, no_fork):
            for field in dataclasses.fields(SweepResult):
                np.testing.assert_array_equal(getattr(other, field.name),
                                              getattr(result, field.name))

    def test_worker_failure_is_raised_and_no_worker_outlives_a_sweep(
            self, monkeypatch, pools, pendulum, sweep_designs, pendulum_weights):
        sys_m, _ = pendulum
        Q, R = pendulum_weights
        cfg = SimConfig(h=0.01, n_steps=50)
        set_usable_cpus(monkeypatch, 8)
        sweep_initial_angles(sys_m, sweep_designs, Q, R, cfg, n_angles=4)
        assert multiprocessing.active_children() == []

        class Failing:
            def u(self, X):
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="^boom$"):
            sweep_initial_angles(sys_m, {**sweep_designs, "fbl": Failing()}, Q, R, cfg,
                                 n_angles=4)
        assert multiprocessing.active_children() == []
        assert [workers for workers, _ in pools] == [3, 3]

    def test_daemon_process_sweeps_in_process(self, monkeypatch, pendulum, sweep_designs,
                                              pendulum_weights):
        # a multiprocessing.Pool worker is a daemon, and a daemon may start
        # no process of its own
        sys_m, _ = pendulum
        Q, R = pendulum_weights
        set_usable_cpus(monkeypatch, 8)

        def sweep():
            return sweep_initial_angles(sys_m, sweep_designs, Q, R,
                                        SimConfig(h=0.01, n_steps=50), n_angles=4)

        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)

        def child():
            try:
                send.send(sweep().j_sontag)
            except Exception as exc:
                send.send(exc)

        proc = ctx.Process(target=child, daemon=True)
        proc.start()
        assert receive.poll(60)
        got = receive.recv()
        proc.join(60)
        assert proc.exitcode == 0
        assert not isinstance(got, Exception), got
        np.testing.assert_array_equal(got, sweep().j_sontag)


class TestCsvOracle:
    """The sweep and ROA writers against per-cell formatting and against
    the row-by-row writers on hand-built results."""

    def test_sweep(self, tmp_path):
        rng = np.random.default_rng(4030)
        k = 3 * EXTREMES.size

        def column(shift):
            col = rng.normal(size=k)
            col[shift:shift + EXTREMES.size] = EXTREMES
            return col

        stab = [rng.random(k) < 0.5 for _ in range(3)]
        result = SweepResult(theta0_deg=column(0), j_sontag=column(2), j_lqr=column(5),
                             j_fbl=column(8), ratio_lqr=column(11), ratio_fbl=column(13),
                             stab_sontag=stab[0], stab_lqr=stab[1], stab_fbl=stab[2])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(result, path)
        lines = ["theta0_deg,J_sontag,J_lqr,J_fbl,ratio_lqr,ratio_fbl,"
                 "stab_sontag,stab_lqr,stab_fbl"]
        for i in range(k):
            row = [format_cell(col[i]) for col in (result.theta0_deg, result.j_sontag,
                                             result.j_lqr, result.j_fbl)]
            row += ["" if np.isnan(r[i]) else format_cell(r[i])
                    for r in (result.ratio_lqr, result.ratio_fbl)]
            row += [str(int(s[i])) for s in stab]
            lines.append(",".join(row))
        text = path.read_text()
        assert text == "\n".join(lines) + "\n"
        assert text == csv_reference.sweep_csv(result)
        assert ",inf," in text and ",-inf," in text and ",," in text

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_roa(self, tmp_path, n):
        rng = np.random.default_rng(4031 + n)
        k = 2 * EXTREMES.size
        points = rng.normal(size=(k, n))
        points.flat[:EXTREMES.size] = EXTREMES
        values = rng.normal(size=k)
        values[-EXTREMES.size:] = EXTREMES
        grid = GridSpec(lower=[0.0] * n, upper=[1.0] * n, points_per_axis=(2,) * n)
        cert = RoaCertificate(C=1.0, C_lqr=1.0, C_sontag=1.0, grid=grid, points=points,
                              values=values, members_lqr=rng.random(k) < 0.5,
                              members_sontag=rng.random(k) < 0.5, subset_holds=False)
        path = tmp_path / "roa.csv"
        write_roa_csv(cert, path)
        lines = [",".join([f"x{i + 1}" for i in range(n)] + ["V", "member_lqr",
                                                              "member_sontag"])]
        for i in range(k):
            row = [format_cell(v) for v in points[i]] + [format_cell(values[i])]
            row += [str(int(cert.members_lqr[i])), str(int(cert.members_sontag[i]))]
            lines.append(",".join(row))
        assert path.read_text() == "\n".join(lines) + "\n"
        assert path.read_text() == csv_reference.roa_csv(cert)

    def test_roa_repeated_values(self, tmp_path):
        # each distinct bit pattern of a column is formatted once and
        # reused: -0.0 beside 0.0, NaNs of other payloads and signs, and
        # values repeated many times keep their own text in every row
        nans = np.array([0x7FF8000000000001, 0xFFF8000000000002], dtype=np.uint64).view(float)
        pool = np.concatenate([EXTREMES, nans, [0.0, 2.5]])
        rng = np.random.default_rng(4035)
        k = 400
        points, values = rng.choice(pool, size=(k, 2)), rng.choice(pool, size=k)
        grid = GridSpec(lower=[0.0, 0.0], upper=[1.0, 1.0], points_per_axis=(2, 2))
        cert = RoaCertificate(C=1.0, C_lqr=1.0, C_sontag=1.0, grid=grid, points=points,
                              values=values, members_lqr=rng.random(k) < 0.5,
                              members_sontag=rng.random(k) < 0.5, subset_holds=False)
        path = tmp_path / "roa.csv"
        write_roa_csv(cert, path)
        text = path.read_text()
        assert text == csv_reference.roa_csv(cert)
        assert "-0," in text and "nan," in text and text.count("\n") == 1 + k

    def test_roa_default_grid(self, tmp_path, pendulum, pendulum_designs, pendulum_grid):
        # the 101 x 101 grid of the default config, with extreme V values
        sys_m, _ = pendulum
        cert = roa_certify(sys_m, pendulum_designs["i"].clf,
                           lqr=pendulum_designs["iv"].controller,
                           sontag=pendulum_designs["i"].controller, grid=pendulum_grid)
        values = cert.values.copy()
        values[::1000][:EXTREMES.size] = EXTREMES
        cert = dataclasses.replace(cert, values=values)
        path = tmp_path / "roa.csv"
        write_roa_csv(cert, path)
        text = path.read_text()
        assert text.count("\n") == 1 + 101 * 101
        assert text == csv_reference.roa_csv(cert)

import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from sontagctl.control import FblController, LqrController, SontagController, synthesize_design
from sontagctl.model import SystemModel, lti_system
from sontagctl.sim import (
    FLAG_CLF_VIOLATION,
    FLAG_DIVERGENCE,
    FLAG_DOMAIN,
    SimConfig,
    Trajectory,
    _rollout,
    cost_index,
    distorted_cost,
    lyap_decay_check,
    rk4_step,
    rollout_costs,
    simulate,
    write_trajectory_csv,
)

import csv_reference
from conftest import EXTREMES, counted, counting_drift, format_cell, frozen_pendulum


def _frozen_system():
    return SystemModel(n=1, m=1,
                       f=lambda X: np.zeros_like(np.asarray(X, dtype=float)),
                       G=lambda X: np.zeros((1, 1) + np.shape(X)[1:]))


def _scalar_decay():
    return SystemModel(n=1, m=1,
                       f=lambda X: -np.asarray(X, dtype=float),
                       G=lambda X: np.zeros((1, 1) + np.shape(X)[1:]))


class _ZeroController:
    def u(self, X):
        X = np.asarray(X, dtype=float)
        return np.zeros((1,) + X.shape[1:])


class TestRk4Step:
    def test_frozen_system(self):
        x = np.array([1.23])
        out = rk4_step(_frozen_system(), _ZeroController(), x, 0.1)
        np.testing.assert_array_equal(out, x)

    def test_scalar_exponential(self):
        # one step of xdot = -x: local error is fifth order in h
        out = rk4_step(_scalar_decay(), _ZeroController(), np.array([1.0]), 0.1)
        assert abs(float(out[0]) - np.exp(-0.1)) <= 1e-7

    def test_fourth_order_convergence(self, double_integrator, dbl_int_design):
        sys_m, _ = double_integrator
        ctrl = LqrController(dbl_int_design.K)
        closed = dbl_int_design.A - dbl_int_design.B @ dbl_int_design.K
        x0 = np.array([1.0, 1.0])
        exact = scipy.linalg.expm(closed) @ x0
        errors = []
        for h, n in ((0.1, 10), (0.05, 20)):
            traj = simulate(sys_m, ctrl, SimConfig(h=h, n_steps=n, x0=x0))
            errors.append(np.abs(traj.states[-1] - exact).max())
        assert 12.0 <= errors[0] / errors[1] <= 20.0

    def test_batched_states(self, double_integrator, dbl_int_design):
        sys_m, _ = double_integrator
        ctrl = LqrController(dbl_int_design.K)
        X = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, -0.5]]).T
        out = rk4_step(sys_m, ctrl, X, 0.01)
        rows = [rk4_step(sys_m, ctrl, x, 0.01) for x in X.T]
        np.testing.assert_allclose(out, np.stack(rows, axis=-1), rtol=1e-14)

    @pytest.mark.parametrize("zoh", [False, True])
    @pytest.mark.parametrize("selector", ["i", "ii", "iii", "iv"])
    def test_matches_one_simulated_step(self, pendulum, pendulum_designs, selector, zoh):
        # rk4_step and the rollout loop share one step kernel
        sys_m, _ = pendulum
        ctrl = pendulum_designs[selector].controller
        x0 = np.array([0.4, -0.3])
        traj = simulate(sys_m, ctrl, SimConfig(n_steps=1, x0=x0, zoh=zoh))
        out = rk4_step(sys_m, ctrl, x0, traj.h, zoh=zoh)
        np.testing.assert_array_equal(out, traj.states[1])


@pytest.mark.parametrize("h", [0.0, -0.01, np.nan, np.inf])
def test_sim_config_rejects_bad_step(h):
    with pytest.raises(ValueError):
        SimConfig(h=h)


def test_sim_config_rejects_non_integer_steps():
    with pytest.raises(TypeError):
        SimConfig(n_steps=2.5)


class TestSimulate:
    def test_rest_at_origin(self, pendulum, pendulum_designs):
        sys_m, _ = pendulum
        res = pendulum_designs["i"]
        cfg = SimConfig(n_steps=200, x0=np.zeros(2))
        traj = simulate(sys_m, res.controller, cfg, clf=res.clf)
        np.testing.assert_array_equal(traj.states, np.zeros((201, 2)))
        assert traj.stabilized
        assert cost_index(traj, res.lqr.Q, res.lqr.R) == 0.0

    def test_shapes_and_times(self, pendulum, pendulum_designs):
        sys_m, _ = pendulum
        res = pendulum_designs["i"]
        cfg = SimConfig(h=0.01, n_steps=100, x0=np.array([0.3, 0.0]))
        traj = simulate(sys_m, res.controller, cfg, clf=res.clf)
        assert traj.states.shape == (101, 2)
        assert traj.inputs.shape == (100, 1)
        assert traj.clf_values.shape == (101,)
        assert traj.lambdas.shape == (100,)
        np.testing.assert_allclose(traj.times, 0.01 * np.arange(101), rtol=1e-15)

    def test_pendulum_small_angle_stabilizes(self, pendulum, pendulum_designs):
        sys_m, _ = pendulum
        res = pendulum_designs["i"]
        cfg = SimConfig(x0=np.array([np.radians(25.0), 0.0]))
        traj = simulate(sys_m, res.controller, cfg, clf=res.clf)
        assert traj.stabilized and not traj.diverged

    def test_lqr_fails_at_large_angle(self, pendulum, pendulum_designs):
        # 67 degrees sits just past the spurious closed-loop equilibrium
        # of the linear gain under the default parameters
        sys_m, _ = pendulum
        ctrl = pendulum_designs["iv"].controller
        cfg = SimConfig(x0=np.array([np.radians(67.0), 0.0]))
        traj = simulate(sys_m, ctrl, cfg)
        assert not traj.stabilized

    def test_divergence_flagged(self):
        # unstable scalar plant with no control authority
        sys_m = SystemModel(n=1, m=1,
                            f=lambda X: 30.0 * np.asarray(X, dtype=float),
                            G=lambda X: np.zeros((1, 1) + np.shape(X)[1:]))
        traj = simulate(sys_m, _ZeroController(), SimConfig(h=0.1, n_steps=50, x0=np.array([1.0])))
        assert traj.diverged and not traj.stabilized
        assert FLAG_DIVERGENCE in traj.flags[-1]
        assert traj.states.shape[0] < 51
        assert cost_index(traj, np.eye(1), np.eye(1)) == np.inf

    @pytest.mark.parametrize("selector", ["i", "ii", "iii", "iv"])
    def test_huge_start_halts_without_warning(self, pendulum, pendulum_designs, selector):
        # V at the recorded x0 overflows; the run halts and says so in
        # its flags, not through a numpy warning
        sys_m, _ = pendulum
        res = pendulum_designs[selector]
        clf = pendulum_designs["i"].clf if res.clf is None else res.clf
        cfg = SimConfig(n_steps=50, x0=np.array([np.radians(1e300), 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = simulate(sys_m, res.controller, cfg, clf=clf)
        assert traj.diverged and not traj.stabilized
        assert traj.clf_values.shape == (traj.states.shape[0],)

    @pytest.mark.parametrize("selector, flag", [("i", FLAG_DOMAIN), ("ii", FLAG_DOMAIN),
                                                ("iii", FLAG_DIVERGENCE),
                                                ("iv", FLAG_DIVERGENCE)])
    def test_infinite_angle_in_a_stage_halts_with_a_flag(self, pendulum, pendulum_designs,
                                                         selector, flag):
        # a stage state reaches x1 = +-inf; math.sin would raise there,
        # the model keeps numpy's NaN and the run halts with its flag
        sys_m, _ = pendulum
        res = pendulum_designs[selector]
        clf = pendulum_designs["i"].clf if res.clf is None else res.clf
        cfg = SimConfig(h=1e10, n_steps=5, x0=np.array([0.5, 1e300]))
        traj = simulate(sys_m, res.controller, cfg, clf=clf)
        assert isinstance(traj, Trajectory)
        assert traj.flags == [flag] and traj.diverged and not traj.stabilized
        n_inputs = 1 if flag == FLAG_DIVERGENCE else 0  # a domain violation records none
        assert traj.states.shape == (1, 2) and traj.inputs.shape == (n_inputs, 1)

    def test_domain_violation_halts(self, pendulum, pendulum_designs):
        sys_m, _ = pendulum
        ctrl = pendulum_designs["iii"].controller
        cfg = SimConfig(n_steps=50, x0=np.array([2.0, 0.0]))  # beyond pi/2
        traj = simulate(sys_m, ctrl, cfg)
        assert traj.diverged
        assert FLAG_DOMAIN in traj.flags[-1]
        assert traj.inputs.shape[0] == 0

    def test_zoh_toggle(self, pendulum, pendulum_designs):
        sys_m, _ = pendulum
        res = pendulum_designs["i"]
        cfg = SimConfig(x0=np.array([np.radians(25.0), 0.0]), zoh=True)
        traj = simulate(sys_m, res.controller, cfg, clf=res.clf)
        assert traj.stabilized
        cfg2 = SimConfig(x0=np.array([np.radians(25.0), 0.0]), zoh=False)
        traj2 = simulate(sys_m, res.controller, cfg2, clf=res.clf)
        j1 = cost_index(traj, res.lqr.Q, res.lqr.R)
        j2 = cost_index(traj2, res.lqr.Q, res.lqr.R)
        assert j1 != j2 and abs(j1 - j2) / j2 < 0.05

    @pytest.mark.parametrize("selector", ["i", "ii"])
    def test_sontag_run_converges_past_any_dead_band(self, pendulum, pendulum_designs, selector):
        # the law acts down to the smallest states: no band of zero
        # input around the origin lets the unstable drift take over
        sys_m, _ = pendulum
        res = pendulum_designs[selector]
        cfg = SimConfig(h=0.01, n_steps=6000, x0=np.array([np.radians(25.0), 0.0]))
        traj = simulate(sys_m, res.controller, cfg, clf=res.clf)
        assert np.linalg.norm(traj.states[-1]) <= 1e-12
        assert sum(f.count(FLAG_CLF_VIOLATION) for f in traj.flags) == 0

    def test_clf_decreases_along_sontag_run(self, pendulum, pendulum_designs):
        sys_m, _ = pendulum
        res = pendulum_designs["i"]
        cfg = SimConfig(x0=np.array([np.radians(25.0), 0.0]))
        traj = simulate(sys_m, res.controller, cfg, clf=res.clf)
        assert np.all(np.diff(traj.clf_values) < 1e-12)


class TestHaltFlags:
    """``diverged`` and ``stabilized`` are plain bools that say whether the
    run halted. A single state's halt masks are Python bools, on which
    ``~`` gives -2 or -1, both truthy, so every design is run both ways,
    with and without a zero-order hold."""

    @pytest.mark.parametrize("zoh", [False, True])
    @pytest.mark.parametrize("selector", ["i", "ii", "iii", "iv"])
    def test_stabilizing_run(self, pendulum, pendulum_designs, selector, zoh):
        sys_m, _ = pendulum
        cfg = SimConfig(x0=np.array([np.radians(30.0), 0.0]), zoh=zoh)
        traj = simulate(sys_m, pendulum_designs[selector].controller, cfg)
        assert traj.diverged is False and traj.stabilized is True
        assert traj.states.shape == (cfg.n_steps + 1, 2) and not any(traj.flags)

    @pytest.mark.parametrize("zoh", [False, True])
    @pytest.mark.parametrize("selector", ["i", "ii", "iii", "iv"])
    def test_diverging_run(self, pendulum, pendulum_designs, selector, zoh):
        # one-second steps blow up every design's discretized loop; from
        # 179 degrees designs ii and iii also leave their domain at once
        sys_m, _ = pendulum
        ctrl = pendulum_designs[selector].controller
        for cfg in (SimConfig(h=1.0, n_steps=200, x0=np.array([np.radians(30.0), 0.0]), zoh=zoh),
                    SimConfig(x0=np.array([np.radians(179.0), 0.0]), zoh=zoh)):
            traj = simulate(sys_m, ctrl, cfg)
            if cfg.h == 1.0 or selector in ("ii", "iii"):
                assert traj.diverged is True and traj.stabilized is False
                assert traj.states.shape[0] <= cfg.n_steps and traj.flags[-1]
            else:  # designs i and iv swing up from 179 degrees
                assert traj.diverged is False and traj.stabilized is True


def _constant_trajectory(n_steps=1500, h=0.01):
    states = np.tile([1.0, 0.0], (n_steps + 1, 1))
    inputs = np.zeros((n_steps, 1))
    return Trajectory(times=h * np.arange(n_steps + 1), states=states, inputs=inputs,
                      clf_values=None, lambdas=None,
                      flags=[""] * (n_steps + 1), h=h)


class TestCosts:
    def test_constant_state(self):
        traj = _constant_trajectory()
        assert cost_index(traj, np.eye(2), np.eye(1)) == pytest.approx(7.5, rel=1e-12)

    def test_q_scaling_linearity(self):
        traj = _constant_trajectory(n_steps=100)
        j1 = cost_index(traj, np.eye(2), np.eye(1))
        j2 = cost_index(traj, 2.0 * np.eye(2), np.eye(1))
        assert j2 == pytest.approx(2.0 * j1, rel=1e-13)

    def test_reindexing_invariance(self):
        # the cost is a pure function of the recorded samples
        traj = _constant_trajectory(n_steps=100)
        shifted = Trajectory(times=traj.times + 5.0, states=traj.states,
                             inputs=traj.inputs, clf_values=None, lambdas=None,
                             flags=traj.flags, h=traj.h)
        assert cost_index(traj, np.eye(2), np.eye(1)) == \
            cost_index(shifted, np.eye(2), np.eye(1))

    def test_sontag_cost_equals_lqr_cost_on_lti(self, double_integrator,
                                                dbl_int_design, dbl_int_clf):
        # identical control laws produce identical quadratic costs
        sys_m, _ = double_integrator
        sontag = SontagController(dbl_int_clf, sys_m, dbl_int_design.Q, dbl_int_design.R)
        lqr = LqrController(dbl_int_design.K)
        cfg = SimConfig(x0=np.array([1.2, -0.7]))
        j_sontag = cost_index(simulate(sys_m, sontag, cfg), dbl_int_design.Q, dbl_int_design.R)
        j_lqr = cost_index(simulate(sys_m, lqr, cfg), dbl_int_design.Q, dbl_int_design.R)
        assert j_sontag == pytest.approx(j_lqr, rel=1e-9)

    def test_distorted_equals_quadratic_on_lti(self, double_integrator,
                                               dbl_int_design, dbl_int_clf):
        sys_m, _ = double_integrator
        ctrl = SontagController(dbl_int_clf, sys_m, dbl_int_design.Q, dbl_int_design.R)
        cfg = SimConfig(x0=np.array([1.0, 0.5]))
        traj = simulate(sys_m, ctrl, cfg, clf=dbl_int_clf)
        jq = cost_index(traj, dbl_int_design.Q, dbl_int_design.R)
        assert distorted_cost(traj) == pytest.approx(jq, rel=1e-9)

    def test_all_zero_run_costs_positive_zero(self, pendulum, pendulum_designs):
        # at the origin a = 0 and beta = 0, so every recorded rate is 0;
        # the sum of their negatives must still read +0, not -0
        sys_m, _ = pendulum
        res = pendulum_designs["i"]
        cfg = SimConfig(n_steps=50, x0=np.zeros(2))
        traj = simulate(sys_m, res.controller, cfg, clf=res.clf)
        assert np.all(np.isnan(traj.lambdas)) and np.all(traj.vdot == 0.0)
        jd = distorted_cost(traj)
        assert jd == 0.0 and math.copysign(1.0, jd) == 1.0

    def test_pendulum_run_fallbacks_only_in_converged_tail(self, pendulum, pendulum_designs):
        # the factor is defined wherever beta = b R^{-1} b' is nonzero;
        # numerically beta underflows to 0 only once the state has
        # collapsed to the origin
        sys_m, _ = pendulum
        res = pendulum_designs["i"]
        cfg = SimConfig(x0=np.array([np.radians(25.0), 0.0]))
        traj = simulate(sys_m, res.controller, cfg, clf=res.clf)
        assert np.isfinite(distorted_cost(traj))
        undefined = ~np.isfinite(traj.lambdas)
        norms = np.abs(traj.states[:-1]).max(axis=1)
        assert np.all(norms[undefined] < 1e-8)
        assert not undefined[: len(undefined) // 2].any()

    @pytest.mark.parametrize("deg", [5.0, 25.0, 45.0, 67.0, 85.0])
    @pytest.mark.parametrize("sel", ["i", "ii"])
    def test_vdot_is_the_lambda_weighted_running_cost(self, pendulum, pendulum_designs,
                                                      sel, deg):
        # along the Sontag law (x'Qx + u'Ru)/(2 lambda) = sqrt(a^2 + x'Qx beta) = -Vdot
        sys_m, _ = pendulum
        res = pendulum_designs[sel]
        Q, R = res.lqr.Q, res.lqr.R
        traj = simulate(sys_m, res.controller, SimConfig(x0=np.array([np.radians(deg), 0.0])),
                        clf=res.clf)
        X, U = traj.states[:-1], traj.inputs
        weighted = 0.5 * (np.einsum("ki,ij,kj->k", X, Q, X)
                          + np.einsum("ki,ij,kj->k", U, R, U)) / traj.lambdas
        defined = np.isfinite(traj.lambdas)
        assert defined[:100].all()
        np.testing.assert_allclose(weighted[defined], -traj.vdot[defined], rtol=1e-14, atol=0)

    def test_distorted_cost_error_is_first_order(self, pendulum, pendulum_designs):
        # the step-start sum of -Vdot misses V(x0) - V(xN) by O(h)
        # (ROADMAP item 10 replaces the sum with the stage quadrature)
        sys_m, _ = pendulum
        res = pendulum_designs["i"]
        gaps = []
        for h, n in ((0.01, 1500), (0.005, 3000)):
            cfg = SimConfig(h=h, n_steps=n, x0=np.array([np.radians(25.0), 0.0]))
            traj = simulate(sys_m, res.controller, cfg, clf=res.clf)
            gaps.append(abs(distorted_cost(traj) - (traj.clf_values[0] - traj.clf_values[-1])))
        assert 1.7 <= gaps[0] / gaps[1] <= 2.3

    def test_distorted_cost_needs_a_sontag_run(self, pendulum, pendulum_designs):
        sys_m, _ = pendulum
        res = pendulum_designs["iv"]
        traj = simulate(sys_m, res.controller, SimConfig(n_steps=5, x0=np.array([0.3, 0.0])))
        assert traj.vdot is None and traj.lambdas is None
        with pytest.raises(ValueError):
            distorted_cost(traj)
        with pytest.raises(ValueError):
            lyap_decay_check(traj)

    def test_diverged_sontag_run_costs_inf(self, double_integrator, dbl_int_design,
                                           dbl_int_clf):
        sys_m, _ = double_integrator
        ctrl = SontagController(dbl_int_clf, sys_m, dbl_int_design.Q, dbl_int_design.R)
        traj = simulate(sys_m, ctrl, SimConfig(x0=np.array([2e6, 0.0])), clf=dbl_int_clf)
        assert traj.diverged
        assert distorted_cost(traj) == np.inf


class TestLyapDecay:
    def test_lti_mismatch_small(self, double_integrator, dbl_int_design, dbl_int_clf):
        sys_m, _ = double_integrator
        ctrl = SontagController(dbl_int_clf, sys_m, dbl_int_design.Q, dbl_int_design.R)
        cfg = SimConfig(x0=np.array([1.0, 0.5]))
        traj = simulate(sys_m, ctrl, cfg, clf=dbl_int_clf)
        assert lyap_decay_check(traj) <= 5e-3

    def test_equilibrium_mismatch_zero(self, pendulum, pendulum_designs):
        sys_m, _ = pendulum
        res = pendulum_designs["i"]
        cfg = SimConfig(n_steps=20, x0=np.zeros(2))
        traj = simulate(sys_m, res.controller, cfg, clf=res.clf)
        assert lyap_decay_check(traj) == 0.0

    def test_halving_step_improves(self, pendulum, pendulum_designs):
        sys_m, _ = pendulum
        res = pendulum_designs["i"]
        mismatches = []
        for h, n in ((0.01, 1500), (0.005, 3000)):
            cfg = SimConfig(h=h, n_steps=n, x0=np.array([np.radians(25.0), 0.0]))
            traj = simulate(sys_m, res.controller, cfg, clf=res.clf)
            mismatches.append(lyap_decay_check(traj))
        assert 3.0 <= mismatches[0] / mismatches[1] <= 6.0


class TestBatchRollout:
    def test_matches_scalar_simulation(self, pendulum, pendulum_designs):
        sys_m, _ = pendulum
        Q = pendulum_designs["i"].lqr.Q
        R = pendulum_designs["i"].lqr.R
        thetas = np.radians([5.0, 15.0, 30.0, 45.0, 60.0])
        X0 = np.stack([thetas, np.zeros_like(thetas)])
        for sel in ("i", "iii", "iv"):
            ctrl = pendulum_designs[sel].controller
            J, stab, div = rollout_costs(sys_m, ctrl, X0, Q, R, 0.01, 1500)
            for row, th in enumerate(thetas):
                cfg = SimConfig(x0=np.array([th, 0.0]))
                traj = simulate(sys_m, ctrl, cfg)
                assert J[row] == pytest.approx(cost_index(traj, Q, R), rel=1e-9)
                assert bool(stab[row]) == traj.stabilized

    @pytest.mark.parametrize("zoh", [False, True], ids=["continuous", "zoh"])
    @pytest.mark.parametrize("selector", ["i", "ii", "iii", "iv"])
    def test_whole_runs_are_stack_columns(self, pendulum, pendulum_designs, selector, zoh):
        # one state's run on Python floats records, bit for bit, the states
        # and inputs of its column in one stacked rollout, up to the same
        # halt: starts at rest from 5 to 89 degrees, and one at (1.4, 3.0)
        # that halts mid-run under design ii (divergence, or the domain
        # with zoh) and design iii with zoh (the domain)
        sys_m, _ = pendulum
        ctrl = pendulum_designs[selector].controller
        thetas = np.radians([5.0, 25.0, 45.0, 60.0, 80.0, 89.0])
        X0 = np.stack([np.append(thetas, 1.4), np.append(np.zeros_like(thetas), 3.0)])
        steps = []
        stab, halted = _rollout(sys_m, ctrl, X0, 0.01, 1500, zoh, steps.append)
        for row, x0 in enumerate(X0.T):
            traj = simulate(sys_m, ctrl, SimConfig(x0=x0, zoh=zoh))
            live = [s for s in steps if s.running[row]]
            inputs = [s.U[:, row] for s in live if s.u_ok[row]]
            states = [X0[:, row]] + [s.X_new[:, row] for s in live
                                     if s.u_ok[row] and np.isfinite(s.x_max[row])]
            assert traj.inputs.tobytes() == np.array(inputs).reshape(-1, 1).tobytes(), x0
            assert traj.states.tobytes() == np.array(states).tobytes(), x0
            assert (traj.stabilized, traj.diverged) == (stab[row], halted[row])

    def test_diverged_rows_frozen(self):
        sys_m = SystemModel(n=1, m=1,
                            f=lambda X: 30.0 * np.asarray(X, dtype=float),
                            G=lambda X: np.zeros((1, 1) + np.shape(X)[1:]))
        X0 = np.array([[0.0, 1.0]])
        J, stab, div = rollout_costs(sys_m, _ZeroController(), X0, np.eye(1), np.eye(1),
                                     0.1, 50)
        assert J[0] == 0.0 and stab[0] and not div[0]
        assert J[1] == np.inf and not stab[1] and div[1]


class TestArrayModels:
    # models that return arrays keep working: _model_at reads one state's
    # f and G through .tolist() and a stack's as they are
    @pytest.fixture(scope="class")
    def array_pendulum(self, pendulum, pendulum_weights):
        sys_m, fbl = pendulum
        f, G = frozen_pendulum()
        model = SystemModel(n=2, m=1, f=f, G=G, f_jac=sys_m.f_jac, name="array pendulum")
        Q, R = pendulum_weights
        return model, {d: synthesize_design(d, model, fbl, Q, R) for d in ("i", "ii", "iii", "iv")}

    @pytest.mark.parametrize("selector", ["i", "ii", "iii", "iv"])
    def test_same_single_state_run_as_the_row_model(self, pendulum, pendulum_designs,
                                                    array_pendulum, selector):
        model, designs = array_pendulum
        for deg in (45.0, 100.0):
            cfg = SimConfig(n_steps=300, x0=np.array([np.radians(deg), 0.5]))
            want = simulate(pendulum[0], pendulum_designs[selector].controller, cfg)
            got = simulate(model, designs[selector].controller, cfg)
            for name in ("states", "inputs", "lambdas", "vdot"):
                w, g = getattr(want, name), getattr(got, name)
                assert (w is None and g is None) or w.tobytes() == g.tobytes(), name
            assert got.flags == want.flags

    @pytest.mark.parametrize("selector", ["i", "iii", "iv"])
    def test_same_stacked_costs_as_the_row_model(self, pendulum, pendulum_designs,
                                                 pendulum_weights, array_pendulum, selector):
        model, designs = array_pendulum
        Q, R = pendulum_weights
        X0 = np.stack([np.radians(np.linspace(-80.0, 80.0, 9)), np.zeros(9)])
        want = rollout_costs(pendulum[0], pendulum_designs[selector].controller, X0, Q, R,
                             0.01, 200)
        got = rollout_costs(model, designs[selector].controller, X0, Q, R, 0.01, 200)
        for w, g in zip(want, got):
            assert w.tobytes() == g.tobytes()

    @pytest.mark.parametrize("zoh", [False, True])
    def test_scalar_decay_state_matches_its_stack(self, zoh):
        X = np.array([[1.0, -0.3, 0.0, 2.5e-7]])
        stack = rk4_step(_scalar_decay(), _ZeroController(), X, 0.1, zoh=zoh)
        for k in range(X.shape[1]):
            one = rk4_step(_scalar_decay(), _ZeroController(), X[:, k], 0.1, zoh=zoh)
            assert one.shape == (1,) and one.tobytes() == stack[:, k].tobytes()


class TestModelCalls:
    @pytest.mark.parametrize("entry", ["simulate", "rollout_costs", "rk4_step"])
    @pytest.mark.parametrize("zoh", [False, True])
    @pytest.mark.parametrize("selector", ["i", "iii", "iv"])
    def test_four_drift_calls_per_step(self, pendulum, pendulum_designs, selector, zoh,
                                       entry):
        # the step-start evaluation supplies RK4's k1, so each step
        # evaluates f once per RK4 stage, with or without a held input,
        # in every entry point
        sys_m, _ = pendulum
        res = pendulum_designs[selector]
        counted, calls = counting_drift(sys_m)
        ctrl = res.controller
        if selector == "i":
            ctrl = SontagController(res.clf, counted, res.lqr.Q, res.lqr.R)
        n = 50
        if entry == "simulate":
            cfg = SimConfig(n_steps=n, x0=np.array([0.3, 0.0]), zoh=zoh)
            traj = simulate(counted, ctrl, cfg, clf=res.clf)
            assert traj.inputs.shape[0] == n
        elif entry == "rollout_costs":
            X0 = np.array([[0.3, 0.0], [-0.5, 1.0], [1.0, 0.0]]).T
            _, _, diverged = rollout_costs(counted, ctrl, X0, res.lqr.Q, res.lqr.R, 0.01, n,
                                           zoh=zoh)
            assert not diverged.any()
        else:
            n = 1
            rk4_step(counted, ctrl, np.array([0.3, 0.0]), 0.01, zoh=zoh)
        assert len(calls) == 4 * n

    @pytest.mark.parametrize("rows", [None, 1000])
    @pytest.mark.parametrize("selector", ["i", "ii", "iii", "iv"])
    def test_four_model_calls_per_rk4_step(self, pendulum, pendulum_designs, selector, rows):
        # the closed loop evaluates f and G once per RK4 stage and hands
        # them to the law, which never calls the model itself
        sys_m, fbl = pendulum
        res = pendulum_designs[selector]
        f_calls, G_calls = [], []
        model = dataclasses.replace(sys_m, f=counted(sys_m.f, f_calls),
                                    G=counted(sys_m.G, G_calls))
        if selector in ("i", "ii"):
            ctrl = SontagController(res.clf, model, res.lqr.Q, res.lqr.R)
        elif selector == "iii":
            ctrl = FblController(fbl, model, res.controller.K_fbl)
        else:
            ctrl = res.controller
        x = np.random.default_rng(4011).uniform(-1.4, 1.4, (2,) if rows is None else (2, rows))
        f_calls.clear()
        G_calls.clear()
        rk4_step(model, ctrl, x, 0.01)
        assert f_calls == [x.shape] * 4 and G_calls == [x.shape] * 4

    def test_design_ii_needs_no_finite_differences(self, pendulum, pendulum_designs,
                                                   monkeypatch):
        # the pendulum declares identity coordinates, so no T Jacobian
        # is ever formed
        import sontagctl.clf
        import sontagctl.model

        def refuse(*args, **kwargs):
            raise AssertionError("fd_jacobian called")

        monkeypatch.setattr(sontagctl.clf, "fd_jacobian", refuse)
        monkeypatch.setattr(sontagctl.model, "fd_jacobian", refuse)
        sys_m, _ = pendulum
        res = pendulum_designs["ii"]
        cfg = SimConfig(n_steps=200, x0=np.array([np.radians(67.0), 0.0]))
        traj = simulate(sys_m, res.controller, cfg, clf=res.clf)
        assert traj.inputs.shape == (200, 1) and np.isfinite(traj.clf_values).all()


class TestTrajectoryCsv:
    def test_format(self, tmp_path, pendulum, pendulum_designs):
        sys_m, _ = pendulum
        res = pendulum_designs["i"]
        cfg = SimConfig(n_steps=10, x0=np.array([0.3, 0.0]))
        traj = simulate(sys_m, res.controller, cfg, clf=res.clf)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x1,x2,u1,V,lambda,flags"
        assert len(lines) == 12
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(0.3)
        # final state row has no input or lambda sample
        last = lines[-1].split(",")
        assert last[3] == "" and last[5] == ""

    def test_lambda_empty_when_undefined(self, tmp_path, pendulum, pendulum_designs):
        sys_m, _ = pendulum
        res = pendulum_designs["i"]
        cfg = SimConfig(n_steps=5, x0=np.zeros(2))
        traj = simulate(sys_m, res.controller, cfg, clf=res.clf)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        for line in path.read_text().splitlines()[1:]:
            assert line.split(",")[5] == ""

    def test_header_when_halted_before_first_input(self, tmp_path):
        # -Kx overflows at the first step, so the run records no input;
        # the header still names both inputs
        sys_m, fbl = lti_system([[0.0, 1.0], [0.0, 0.0]], np.eye(2))
        res = synthesize_design("iv", sys_m, fbl, np.eye(2), np.eye(2))
        cfg = SimConfig(n_steps=5, x0=np.array([1.7e308, 1.7e308]))
        traj = simulate(sys_m, res.controller, cfg)
        assert traj.inputs.shape == (0, 2) and FLAG_DOMAIN in traj.flags[0]
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x1,x2,u1,u2,V,lambda,flags"
        assert len(lines[1].split(",")) == 8


def _reference_trajectory_csv(traj) -> str:
    """The trajectory CSV formatted cell by cell."""
    n, m = traj.states.shape[1], traj.inputs.shape[1]
    lines = [",".join(["t"] + [f"x{i + 1}" for i in range(n)]
                      + [f"u{j + 1}" for j in range(m)] + ["V", "lambda", "flags"])]
    for k in range(traj.states.shape[0]):
        row = [format_cell(traj.times[k])] + [format_cell(v) for v in traj.states[k]]
        if k < traj.inputs.shape[0]:
            row += [format_cell(v) for v in traj.inputs[k]]
        else:
            row += [""] * m
        row.append("" if traj.clf_values is None else format_cell(traj.clf_values[k]))
        lam = traj.lambdas
        row.append(format_cell(lam[k]) if lam is not None and k < len(lam) and np.isfinite(lam[k])
                   else "")
        row.append(traj.flags[k] if k < len(traj.flags) else "")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


class TestTrajectoryCsvOracle:
    """The writer against per-cell formatting and against the row-by-row
    writer on hand-built runs."""

    @staticmethod
    def _traj(n_states, n_inputs, m, clf_values=True, lambdas="nan"):
        rng = np.random.default_rng(4020 + n_states + 10 * m)
        states = rng.normal(size=(n_states, 2))
        states.flat[:EXTREMES.size] = EXTREMES
        inputs = rng.normal(size=(n_inputs, m))
        k = min(inputs.size, EXTREMES.size)
        inputs.flat[:k] = EXTREMES[::-1][:k]
        lam = None
        if lambdas == "nan":
            lam = rng.uniform(0.5, 2.0, n_inputs)
            lam[::3] = np.nan
            lam[1::4] = np.inf
        elif lambdas == "all":
            lam = rng.uniform(0.5, 2.0, n_inputs)
            lam[:3] = [5e-324, 1.7976931348623157e308, -0.0]
        flags = [FLAG_CLF_VIOLATION if k % 4 == 1 else "" for k in range(n_states)]
        flags[-1] = FLAG_DIVERGENCE
        if n_inputs < n_states - 1 or n_inputs == 0:
            # halted on an input that was not finite
            flags[n_inputs] = f"{FLAG_CLF_VIOLATION};{FLAG_DOMAIN}"
        return Trajectory(
            times=0.01 * np.arange(n_states),
            states=states,
            inputs=inputs,
            clf_values=EXTREMES[np.arange(n_states) % EXTREMES.size] if clf_values else None,
            lambdas=lam,
            flags=flags,
        )

    @pytest.mark.parametrize("n_states,n_inputs,m,clf_values,lambdas", [
        (12, 11, 1, True, "nan"),      # completed run
        (12, 5, 1, True, "all"),       # halted: fewer inputs than states
        (9, 9, 2, True, "nan"),        # halted on a non-finite successor
        (10, 4, 2, False, None),       # no CLF, no lambda
        (7, 6, 2, False, "all"),
        (1, 0, 2, True, None),         # halted before the first input
    ])
    def test_matches_per_cell_formatting(self, tmp_path, n_states, n_inputs, m,
                                         clf_values, lambdas):
        traj = self._traj(n_states, n_inputs, m, clf_values, lambdas)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        text = path.read_text()
        assert text == _reference_trajectory_csv(traj)
        assert text == csv_reference.trajectory_csv(traj)

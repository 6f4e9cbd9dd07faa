import os
from pathlib import Path

import numpy as np
import pytest

import sontagctl
from sontagctl.clf import build_lqr_clf
from sontagctl.control import synthesize_design
from sontagctl.model import SystemModel, lti_system, pendulum_system
from sontagctl.riccati import solve_care


def random_spd(rng, k, floor=0.5):
    """Random symmetric positive definite matrix with eigenvalue floor."""
    L = rng.normal(size=(k, k))
    return L @ L.T + floor * np.eye(k)


def random_lti(rng, n_max=5, m_max=2):
    """Random (A, B) pair; generic draws are controllable."""
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    return rng.normal(size=(n, n)), rng.normal(size=(n, m))


def cli_env() -> dict:
    """Environment for a ``python -m sontagctl`` subprocess: PYTHONPATH
    leads with the directory this session imports sontagctl from, so the
    CLI runs from a checkout without an install."""
    src = str(Path(sontagctl.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + rest if rest else src}


def counting_drift(sys_m):
    """The same model with its drift wrapped in a call counter."""
    calls = [0]

    def f(X):
        calls[0] += 1
        return sys_m.f(X)

    counted = SystemModel(n=sys_m.n, m=sys_m.m, f=f, G=sys_m.G, f_jac=sys_m.f_jac)
    calls[0] = 0
    return counted, calls


@pytest.fixture(scope="session")
def pendulum():
    return pendulum_system()


@pytest.fixture(scope="session")
def pendulum_weights():
    return np.eye(2), np.array([[1.0]])


@pytest.fixture(scope="session")
def pendulum_designs(pendulum, pendulum_weights):
    sys_m, fbl = pendulum
    Q, R = pendulum_weights
    return {sel: synthesize_design(sel, sys_m, fbl, Q, R) for sel in ("i", "ii", "iii", "iv")}


@pytest.fixture(scope="session")
def double_integrator():
    return lti_system([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]])


@pytest.fixture(scope="session")
def dbl_int_design():
    return solve_care([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], np.eye(2), [[1.0]])


@pytest.fixture(scope="session")
def dbl_int_clf(dbl_int_design):
    return build_lqr_clf(dbl_int_design)

import dataclasses
import os
from pathlib import Path

import numpy as np
import pytest

import sontagctl
from sontagctl.clf import build_lqr_clf
from sontagctl.control import synthesize_design
from sontagctl.model import lti_system, pendulum_system
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


#: Float values at the edges of %.17g formatting: infinities, NaN, signed
#: zero, the smallest subnormal and the largest finite double.
EXTREMES = np.array([np.inf, -np.inf, np.nan, -0.0, 5e-324, 1.7976931348623157e308,
                     0.1, -1.0 / 3.0])


def format_cell(v) -> str:
    """One CSV cell formatted on its own, the reference for the writers."""
    return f"{v:.17g}"


def counted(fn, calls: list):
    """``fn`` wrapped so that each call appends the shape of its first
    argument to ``calls``: ``len(calls)`` counts the calls, and one log
    may be shared by several wrapped functions."""
    def wrapper(*args, **kwargs):
        calls.append(np.shape(args[0]) if args else ())
        return fn(*args, **kwargs)
    return wrapper


def counting_drift(sys_m):
    """The same model with its drift ``counted``; the check call that
    model construction makes is not in the log."""
    calls = []
    model = dataclasses.replace(sys_m, f=counted(sys_m.f, calls))
    calls.clear()
    return model, calls


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

"""The public surface of the package: the exact set of names that
``import sontagctl`` exports, and the ``__all__`` lists of its modules."""

import importlib
import pkgutil
import types

import pytest

import sontagctl

PUBLIC_NAMES = {
    # analysis
    "GridSpec", "RoaCertificate", "SweepResult", "roa_certify",
    "sweep_initial_angles",
    # clf
    "QuadraticClf", "TransformedClf", "build_global_clf",
    "clf_condition_at", "global_clf_margin", "lie_terms", "transform_P",
    # control
    "FblController", "LqrController", "SontagController", "SynthesisResult",
    "fbl_gain_design", "hjb_residual", "synthesize_design",
    # linalg
    "NotPositiveDefinite", "NotSymmetric", "SingularMatrix", "cholesky_pd",
    "is_hurwitz", "solve_lyapunov",
    # model
    "FeedbackLinearization", "PendulumParams", "SystemModel", "linearize",
    "lti_system", "pendulum_system",
    # riccati
    "BadWeights", "LqrDesign", "NotStabilizable", "solve_care",
    # sim
    "SimConfig", "Trajectory", "cost_index", "distorted_cost", "lyap_decay_check",
    "rk4_step", "simulate",
}

MODULES = sorted(info.name for info in pkgutil.iter_modules(sontagctl.__path__)
                 if not info.name.startswith("_"))


def test_public_names():
    exported = {name for name, value in vars(sontagctl).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC_NAMES


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"sontagctl.{name}")
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert not missing


@pytest.mark.parametrize("cls", [sontagctl.SontagController, sontagctl.LqrController,
                                 sontagctl.FblController])
def test_controller_methods(cls):
    # a controller's only public evaluation method is u
    methods = {name for name, value in vars(cls).items()
               if callable(value) and not name.startswith("_")}
    assert methods == {"u"}

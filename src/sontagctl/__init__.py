"""Sontag-type control from LQR-based control Lyapunov functions.

Construct CLFs from a Riccati design or from feedback-linearization
coordinates, synthesize the Sontag-type feedback, and verify
optimality, stability, and region-of-attraction properties by
closed-loop simulation and grid certification.
"""

from .analysis import (
    GridSpec,
    RoaCertificate,
    SweepResult,
    roa_certify,
    sweep_initial_angles,
)
from .clf import (
    QuadraticClf,
    TransformedClf,
    build_global_clf,
    build_lqr_clf,
    clf_condition_at,
    global_clf_margin,
    lie_terms,
    transform_P,
)
from .control import (
    FblController,
    LqrController,
    SontagController,
    SynthesisResult,
    fbl_gain_design,
    hjb_residual,
    synthesize_design,
)
from .linalg import (
    NotPositiveDefinite,
    NotSymmetric,
    SingularMatrix,
    cholesky_pd,
    is_hurwitz,
    solve_lyapunov,
)
from .model import (
    FeedbackLinearization,
    PendulumParams,
    SystemModel,
    linearize,
    lti_system,
    pendulum_system,
)
from .riccati import BadWeights, LqrDesign, NotStabilizable, solve_care
from .sim import (
    CostReport,
    SimConfig,
    Trajectory,
    cost_index,
    distorted_cost,
    lyap_decay_check,
    make_cost_report,
    rk4_step,
    simulate,
)

__version__ = "0.1.0"

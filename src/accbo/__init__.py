"""Accelerated stochastic bilevel optimization.

Nesterov-tracked lower level under drift, Neumann-series hypergradients,
and normalized recursive-momentum upper updates, with analytic synthetic
instances and verification harnesses for the theoretical guarantees.
"""

from .constants import (
    ConstraintViolation,
    ProblemConstants,
    Schedule,
    averaging_theta,
    derive_schedule,
    derive_sigma_bar,
    derive_smoothness_constants,
)
from .hypergrad import EstimatorConfig, bias_bound, estimate_hypergradient
from .optimizer import run_accbo
from .problems import (
    BilevelInstance,
    ExpUpperToy,
    GeneralQuadratic,
    IsotropicQuadratic,
    RidgeWeighting,
    instance_from_json,
    instance_to_json,
)
from .rng import RandomStream
from .snag import (
    DriftProcess,
    SnagState,
    TrackingBoundParams,
    mc_tracking_violation_rate,
    potential,
    run_tracking_experiment,
    snag_step,
    tracking_bound,
)

__version__ = "0.1.0"

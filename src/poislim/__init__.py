"""Estimation for inhomogeneous Poisson processes when regularity breaks.

Simulation by thinning, likelihood-based and Bayesian estimators, the limit
laws of the non-regular regimes (misspecified, non-identifiable, null or
discontinuous Fisher information, boundary, cusp, jump), observation-window
selection, and a Monte Carlo harness that checks normalized estimation errors
against the predicted rates and limit distributions.
"""

from .analysis import (
    MisspecAsymptotics,
    NonIdentCovariance,
    consistency_region,
    fisher_information,
    hellinger_sq,
    higher_order_information,
    kl_objective,
    misspec_asymptotics,
    nonident_covariance,
    theta_star,
)
from .errors import (
    CapabilityError,
    ConfigurationError,
    DegenerateCurvatureError,
    DomainError,
    EstimationError,
    NumericalError,
    PoislimError,
    PreconditionError,
    SingularityError,
)
from .estimators import (Estimate, EstimatorSettings, bayes, mle, moments_preliminary,
                         two_stage_window)
from .experiments import (
    ExperimentReport,
    Scenario,
    ks_two_sample,
    rate_regression,
    region_scan,
    run_scenario,
)
from .intensity import (
    CATALOG,
    IntensityModel,
    ParameterInterval,
    TrueIntensity,
    cumulative,
    evaluate,
    make_model,
    theta_derivative,
)
from .likelihood import LikelihoodEvaluator
from .limits import CuspParams, RegimeLimit, limit_params, sample_limit_batch, simulate_fbm
from .simulate import RngStream, Sample, Trajectory, simulate_sample, simulate_trajectory, slice_periodic
from .windows import Window, jump_sufficient_window, level_threshold, optimal_window, sufficient_window

__version__ = "0.1.0"

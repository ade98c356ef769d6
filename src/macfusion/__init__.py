"""Distributed estimation and detection over a Gaussian multiple-access
channel with bounded per-sensor transmissions.

Sensors observe a common parameter through heterogeneous noise, map their
observations through a bounded nonlinearity, and transmit simultaneously;
the fusion center inverts the mean response (estimation) or applies a
moment-matched quadratic test (detection). The package provides the noise
and transmit-curve families, the numerical substrate, a reproducible Monte
Carlo harness, and a CSV-emitting CLI for the simulation recipes.
"""

__version__ = "0.1.0"

from .noise import NoiseModel, cauchy, gaussian, laplacian
from .transmit import (
    TransmitFunction,
    gudermannian_fn,
    linear_fn,
    rational_fn,
    signed_power_fn,
    tanh_fn,
    uniform_quantizer_fn,
)
from .numerics import (
    QuadratureConvergenceError,
    QuadratureSpec,
    RngStream,
    expect,
    minimize_scalar,
)
from .estimation import (
    EstimationSetup,
    SigmaSequence,
    asymptotic_variance,
    constant_sigmas,
    mean_response,
    sqrt_growth_sigmas,
)
from .detection import (
    DetectionSetup,
    GaussianApproxDetector,
    build_detector,
    decide,
    deflection,
    locally_optimal_nonlinearity,
    matched_density,
    optimal_omega,
)
from .harness import run_detection_experiment, run_estimation_experiment

__all__ = [
    "__version__",
    "NoiseModel", "gaussian", "laplacian", "cauchy",
    "TransmitFunction", "tanh_fn", "gudermannian_fn", "rational_fn",
    "signed_power_fn", "uniform_quantizer_fn", "linear_fn",
    "QuadratureSpec", "QuadratureConvergenceError",
    "RngStream", "expect", "minimize_scalar",
    "EstimationSetup", "SigmaSequence", "constant_sigmas", "sqrt_growth_sigmas",
    "mean_response", "asymptotic_variance",
    "DetectionSetup", "GaussianApproxDetector", "deflection", "optimal_omega",
    "build_detector", "decide",
    "locally_optimal_nonlinearity", "matched_density",
    "run_estimation_experiment", "run_detection_experiment",
]

"""Multiplierless matrix-vector products.

Approximate an arbitrary real matrix as a cheap codebook matrix times a
chain of sparse wiring matrices whose nonzeros are signed powers of two;
the product with a vector then needs only additions and bit shifts, with
exact distortion and operation-cost accounting.
"""

from .analysis import (angle_error_cdf, asymptotic_threshold, code_rate,
                       distortion_lower_bound, mean_sq_angle_error,
                       simulate_angle_error, simulate_decomposition,
                       total_error)
from .codebooks import (CodebookDescriptor, gaussian_build, mailman_additions,
                        mailman_apply, mailman_build, make_codebook,
                        self_design_build, two_sparse_build)
from .engine import apply, baseline_apply
from .errors import (AccuracyUnreachableError, DimensionError,
                     MatrixFormatError, PlanFormatError, PlanVersionError,
                     ShiftAddError)
from .plan import (CostReport, DecompositionPlan, DistortionReport,
                   StageSchedule, achieved_bits, cost_of, deserialize,
                   distortion, reconstruct, serialize, threshold)
from .pot import (CsdForm, Dyadic, SignedPow2, binary_distortion_oracle,
                  binary_encode, csd_decode, csd_distortion_oracle,
                  csd_encode, quantize_pow2)
from .pow2matrix import Pow2Matrix
from .wiring import decompose, fit_stage

__version__ = "0.1.0"

__all__ = [
    "angle_error_cdf", "asymptotic_threshold", "code_rate",
    "distortion_lower_bound", "mean_sq_angle_error",
    "simulate_angle_error", "simulate_decomposition", "total_error",
    "CodebookDescriptor", "gaussian_build",
    "mailman_additions", "mailman_apply", "mailman_build",
    "make_codebook", "self_design_build", "two_sparse_build",
    "apply", "baseline_apply",
    "AccuracyUnreachableError", "DimensionError", "MatrixFormatError",
    "PlanFormatError", "PlanVersionError", "ShiftAddError",
    "CostReport", "DecompositionPlan", "DistortionReport", "StageSchedule",
    "achieved_bits", "cost_of", "deserialize", "distortion", "reconstruct",
    "serialize", "threshold",
    "CsdForm", "Dyadic", "SignedPow2", "binary_distortion_oracle",
    "binary_encode", "csd_decode", "csd_distortion_oracle", "csd_encode",
    "quantize_pow2",
    "Pow2Matrix",
    "decompose", "fit_stage",
]

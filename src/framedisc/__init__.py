"""Certified discretization of continuous frames on finite quadrature models.

The package builds coverings of a finite phase-space grid, measures how much
a frame's reproducing kernel oscillates across them, and turns coverings
whose oscillation budget passes the invertibility condition into sampled
frames with computable constants: contraction certificates, dual frames,
atomic decompositions, and two-sided norm equivalences.
"""

from .coverings import Covering, singleton_covering, uniform_covering, \
    validate_covering, weight_compatibility
from .discretize import SamplingInverse, atomic_decomposition, dual_frame, \
    hilbert_frame_bounds, observed_contraction, reconstruct_from_samples, \
    synthesize_sampled, verify_sampled_bounds
from .errors import CertificationError, SingularOperatorError, StructuralError
from .kernels import SchurSums, Weight2D
from .models import FrameModel, build_gabor_model, build_orthonormal_model, \
    build_random_smooth_model
from .oscillation import OscReport, PhaseFunction, Screened, \
    invertibility_condition, kernel_norms, oscillation_norms, \
    oscillation_report, refine_until, sigma_constant
from .pipeline import DiscretizationResult, cross_check_inversion, \
    residual_suite, run_discretization
from .quadrature import QuadratureSpace, product_grid, uniform_grid
from .spaces import WeightedLp, cell_space, local_integrability_constant, \
    pileup_norms, sup_infinity_space

__all__ = [name for name in dir() if not name.startswith("_")]

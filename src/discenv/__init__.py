"""Analytic-disc functionals on projective space: evaluation, lifting
identities, envelope estimation, and projective-hull membership
certificates."""

from .discs import (AnalyticDiscLift, AreaQuadrature, BoundaryGrid,
                    CompositeDisc, circle_mean, eval_disc,
                    fs_pullback_density, harmonic_extension_and_conjugate,
                    random_disc, riesz_area_term, roots_in_unit_disc)
from .envelope import (CandidateLibrary, DiscFamilySpec, EnvelopeEstimate,
                       OptimizerConfig, envelope_grid, minimize)
from .errors import (BoundaryZeroError, ConfigError, DiscEnvError,
                     DomainError, InfeasibleDiscError, NumericalError,
                     OriginViolation)
from .functionals import (FunctionalValue, identity_check_eqH,
                          omega_functional_direct, omega_functional_lifted,
                          poisson_functional, riesz_residual, sz_functional)
from .hull import (CompactSetSpec, HullCertificate, b_to_bprime, bprime_to_b,
                   hull_test, lambda_c_rho, lambda_schedule, normalize_disc,
                   spherical_lift)
from .kernels import BACKEND
from .projective import (AffineBall, Domain, FsBall, HomPolynomial,
                         HyperplaneComplement, Intersection, LiftedWeight,
                         ProjPoint, Tube, Weight, ZeroWeight, fs_distance,
                         lift, project)
from .structure import (StructureDiscParams, epsilon_upper_bound,
                        make_structure_disc, radius_r, structure_params,
                        verify_feasible)

__version__ = "0.1.0"

__all__ = [
    "AnalyticDiscLift", "AreaQuadrature", "BoundaryGrid", "CompositeDisc",
    "circle_mean", "eval_disc", "fs_pullback_density",
    "harmonic_extension_and_conjugate", "random_disc", "riesz_area_term",
    "roots_in_unit_disc", "CandidateLibrary", "DiscFamilySpec",
    "EnvelopeEstimate", "OptimizerConfig", "envelope_grid", "minimize",
    "BoundaryZeroError", "ConfigError", "DiscEnvError", "DomainError",
    "InfeasibleDiscError", "NumericalError", "OriginViolation",
    "FunctionalValue", "identity_check_eqH", "omega_functional_direct",
    "omega_functional_lifted", "poisson_functional", "riesz_residual",
    "sz_functional", "CompactSetSpec", "HullCertificate", "b_to_bprime",
    "bprime_to_b", "hull_test", "lambda_c_rho", "lambda_schedule",
    "normalize_disc", "spherical_lift", "BACKEND", "AffineBall", "Domain",
    "FsBall", "HomPolynomial", "HyperplaneComplement", "Intersection",
    "LiftedWeight", "ProjPoint", "Tube", "Weight", "ZeroWeight",
    "fs_distance", "lift", "project", "StructureDiscParams",
    "epsilon_upper_bound", "make_structure_disc", "radius_r",
    "structure_params", "verify_feasible",
]

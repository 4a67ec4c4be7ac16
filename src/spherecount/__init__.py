"""Certified counting of real zeros of polynomial systems on the sphere.

The package implements one-point Newton certification (approximate zeros,
inclusion and exclusion caps), the normalized and counting condition
numbers, quasi-uniform sphere grids, and the inclusion-exclusion counting
loop built from them, together with the affine-to-sphere reduction.
"""

from .certification import (Certificate, RefinedZero, chart_beta,
                            exclusion_radius, gamma_bound, inclusion_test,
                            refine_zero, robust_certify)
from .condition import (SingularSpectrum, distance_to_rank_deficient,
                        eckart_young_correction, expected_ln_kappa_bound,
                        kappa_grid, kappa_point, kn_constant,
                        min_singular_value, minimal_singular_perturbation,
                        monte_carlo_ln_kappa, mu, mu_variation_check,
                        sample_gaussian_system, singular_values,
                        smoothed_ln_kappa_bound)
from .convergence import (ALPHA, AlphaConstants, UniversalQuadratic,
                          alpha_star, contraction_coefficients,
                          error_bound_alpha, gamma_error_sequence,
                          newton_h_gamma, psi, r0, r1, robust_alpha_threshold,
                          universal_orbit_closed)
from .counting import (CertGraph, CountResult, build_graph, check_stop,
                       count_affine, predicted_complexity,
                       predicted_eta_threshold, root_count)
from .mesh import (MeshSizeError, SphereMesh, angular_distance, build_mesh,
                   covering_check, sch_membership)
from .polynomials import (AffinePolynomial, HomogeneousPolynomial,
                          PolynomialSystem, evaluate, jacobian, kernel_eval,
                          kernel_polynomial, lift_affine, normalize, rotate,
                          sphere_point, system_from_json, system_to_json,
                          weyl_inner, weyl_norm)

__version__ = "0.1.0"

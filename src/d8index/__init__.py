"""Exact computer algebra for the Fadell-Husseini index of the dihedral
group of order 8, and the derived two-hyperplane mass partition bounds.

The package works entirely in exact arithmetic: cohomology rings with
2- and 4-torsion are presented by generators and rewrite rules, ideal
membership is decided degree by degree by one Howell basis over packed
Z/2 and Z/4 coordinates for F2 and Z rings alike, and every polynomial
identity and inclusion the bounds rest on can be re-verified
mechanically (`d8index verify`).
"""

from .bounds import (AdmissibilityVerdict, BoundReport, admissible,
                     admissible_z, bound_report, min_certified_d, mvz_upper,
                     ramos_lower, verify_inclusion_power_case,
                     verify_inclusion_step, verify_membership_transfer)
from .homs import (F2_DIAGRAM, FULL_TO_BOUND, MOD2_REDUCTION, RestrictionDiagram,
                   RingHom, Z_DIAGRAM, check_reduction_cube, hom_kernel_slice,
                   homs_equal_up_to_degree, lift_bound_to_full, restriction)
from .indexes import (capital_pi_poly, index_h1_z_product, index_join,
                      index_product_groups, index_product_spheres_f2,
                      index_product_spheres_z, index_rep_sphere_z2k,
                      index_sphere_r4j_f2, index_sphere_r4j_z,
                      index_torus_z2k, join_scheme_obstruction,
                      lucas_binom_mod2, pi_in_d8, pi_poly, rho_poly)
from .poly import (GradedSlice, contains_by_enumeration, graded_ideal_slice,
                   ideal_contains, ideal_subset, slice_intersection_is_zero)
from .rings import (CATALOG, ElementParseError, RingElement, RingMismatchError,
                    RingPresentation, YW_F2, f2_polynomial_ring, get_ring)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityVerdict", "BoundReport", "CATALOG", "ElementParseError",
    "F2_DIAGRAM", "FULL_TO_BOUND", "GradedSlice", "MOD2_REDUCTION",
    "RestrictionDiagram", "RingElement", "RingHom", "RingMismatchError",
    "RingPresentation", "YW_F2", "Z_DIAGRAM", "admissible", "admissible_z",
    "bound_report", "capital_pi_poly", "check_reduction_cube",
    "contains_by_enumeration", "f2_polynomial_ring", "get_ring",
    "graded_ideal_slice", "hom_kernel_slice", "homs_equal_up_to_degree",
    "ideal_contains", "ideal_subset",
    "index_h1_z_product", "index_join", "index_product_groups",
    "index_product_spheres_f2", "index_product_spheres_z",
    "index_rep_sphere_z2k", "index_sphere_r4j_f2", "index_sphere_r4j_z",
    "index_torus_z2k", "join_scheme_obstruction", "lift_bound_to_full",
    "lucas_binom_mod2", "min_certified_d", "mvz_upper", "pi_in_d8", "pi_poly",
    "ramos_lower", "restriction", "rho_poly", "slice_intersection_is_zero",
    "verify_inclusion_power_case", "verify_inclusion_step",
    "verify_membership_transfer",
]

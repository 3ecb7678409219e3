"""Exact computer algebra for the Fadell-Husseini index of the dihedral
group of order 8, and the derived two-hyperplane mass partition bounds.

The package works entirely in exact arithmetic: cohomology rings with
2- and 4-torsion are presented by generators and rewrite rules, ideal
membership is decided degree by degree by one Howell basis over packed
Z/2 and Z/4 coordinates for F2 and Z rings alike, and every polynomial
identity and inclusion the bounds rest on can be re-verified
mechanically (`d8index verify`).  A public name of the package loads
its home module on first use (PEP 562): a process imports what it uses.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names the package re-exports from it
_HOMES = {
    "bounds": "AdmissibilityVerdict BoundReport admissible admissible_z bound_report "
              "min_certified_d mvz_upper ramos_lower verify_inclusion_power_case "
              "verify_inclusion_steps verify_membership_transfer",
    "homs": "F2_DIAGRAM MOD2_REDUCTION RestrictionDiagram RingHom Z_DIAGRAM "
            "check_reduction_cube lift_bound_to_full restriction",
    "indexes": "capital_pi_poly index_h1_z_product index_join "
               "index_product_spheres_f2 index_product_spheres_z "
               "index_rep_sphere_z2k index_sphere_r4j_f2 index_sphere_r4j_z "
               "join_scheme_obstruction lucas_binom_mod2 pi_in_d8 pi_poly rho_poly",
    "poly": "graded_ideal_slice ideal_contains ideal_subset "
            "slice_intersection_is_zero span_contains_by_enumeration",
    "rings": "CATALOG ElementParseError RingElement RingMismatchError "
             "RingPresentation YW_F2 get_ring",
}
_HOME_OF = {name: module for module, names in _HOMES.items()
            for name in names.split()}

__all__ = sorted(_HOME_OF)


def __getattr__(name):
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

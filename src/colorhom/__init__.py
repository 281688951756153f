"""Exact-arithmetic kernel for graded color Hom-algebras.

Algebras are finite dimensional, presented by structure constants over the
rationals or a prime field, graded by a finitely generated abelian group,
and carry a twisting endomorphism plus a skew-symmetric bicharacter.  The
package checks the defining identities exactly, runs the standard
constructions (twists, commutator bracket, products from derivations and
averaging operators, sums, tensor products, quadratic structures), and
ships a catalog of concrete instances plus a file-based CLI.

Every export below is resolved on first use (PEP 562): importing the
package loads none of its modules, and colorhom.X imports the module that
defines X.
"""

from importlib import import_module

_EXPORTS = {
    "checks": (
        "Verdict", "Witness", "check_bracket_operator_conditions",
        "check_cyclic_commutator_products", "check_epsilon_commutative",
        "check_hom_associative", "check_hom_lie", "check_hom_novikov", "check_involutive",
        "check_left_symmetric", "check_lie_admissible", "check_multiplicative",
        "check_regular", "check_right_commutative", "commutes_with_twist",
        "identity_residual_on_vectors", "in_alpha_center", "is_averaging", "is_centroid",
        "is_derivation", "is_morphism", "is_rota_baxter", "is_weak_morphism",
    ),
    "constructions": (
        "averaging_product", "bracket_operator_product", "centroid_twist",
        "commutator_algebra", "composed_derivation_product", "derivation_product",
        "direct_sum", "power_twist", "regular_lie_untwist", "tensor_product",
        "untwist_involutive", "xi_square_twist", "yau_twist",
    ),
    "core": (
        "ColorHomAlgebra", "GradedBasis", "GradedLinearMap", "commutator_tensor",
        "compose_maps", "determinant", "eval_map", "eval_product", "identity_map",
        "invert_map", "make_algebra", "make_map", "map_power", "matrix_rank", "scalar_map",
        "trivial_basis", "unit_vector", "zero_vector",
    ),
    "errors": ("HypothesisError", "SingularMapError", "StructureError"),
    "grading": (
        "Bicharacter", "GradeGroup", "GroupElement", "bicharacter_eval", "make_bicharacter",
        "trivial_bicharacter", "validate_bicharacter",
    ),
    "io": ("ParsedDocument", "document_digest", "parse_document", "serialize_document"),
    "quadratic": (
        "BilinearFormStructure", "check_quadratic_structure", "form_value",
        "is_symmetric_automorphism", "quadratic_commutator", "quadratic_untwist_involutive",
        "quadratic_yau_twist", "regular_quadratic_commutator",
    ),
    "scalars": ("Fp", "ScalarField", "prime_field", "rationals"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})

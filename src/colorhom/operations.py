"""The one table of named operations behind the CLI, suites, claims and search.

An entry names its function as (module, function) and looks it up in
colorhom.<module> each time it runs, so loading this table loads none of
the modules it names, and rebinding a module's name (as the traced
benchmark run does) reaches every caller.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable

from .errors import StructureError, _Record

__all__ = ["CHECK", "CONSTRUCTION", "Operation", "OPERATIONS", "OPTIONAL_ARGUMENTS", "CHECKS_BY_NAME", "run_named_check"]

CHECK = "check"
CONSTRUCTION = "construction"


class Operation(_Record):
    """A check or construction addressable by name.

    `takes` names the arguments that follow the algebra, in the order
    `call` receives them, out of "map", "form", "with" (a second algebra),
    "n", "xi", "weight" and "side"; constructions receive `checked` last,
    and those that take a form return (algebra, form).  `adapt`, when set,
    turns the function into one taking that order.

    A one-map check is an operator predicate: its conditions, and the
    linear part colorhom.search solves, are read from its declaration in
    checks.PREDICATE_CONDITIONS under the same name.
    """

    __match_args__ = ("kind", "takes", "module", "function", "adapt")

    def __init__(self, kind: str, takes: tuple, module: str, function: str, adapt: Callable | None = None):
        vars(self).update(kind=kind, takes=takes, module=module, function=function, adapt=adapt)

    def resolve(self) -> Callable:
        """The function as its module binds it now, taking (a, *arguments) in the order of takes."""
        fn = getattr(import_module(f"{__package__}.{self.module}"), self.function)
        return fn if self.adapt is None else self.adapt(fn)

    def call(self, a, *args):
        fn = self.resolve()
        if self.kind == CHECK:
            return fn(a, *args)
        *args, checked = args
        return fn(a, *args, checked=checked)


def _endomorphism(predicate):
    """A predicate on maps a -> b, asked of a map a -> a."""
    return lambda a, m: predicate(a, a, m)


def _ungated(build):
    """A construction with no hypotheses: checked is accepted and ignored."""
    return lambda a, *args, checked: build(a, *args)


# arguments an operation may leave out, with the value they then take
OPTIONAL_ARGUMENTS = {"side": "both", "weight": 0}

OPERATIONS = {
    # algebra checks
    "epsilon_commutative": Operation(CHECK, (), "checks", "check_epsilon_commutative"),
    "hom_associative": Operation(CHECK, (), "checks", "check_hom_associative"),
    "hom_novikov": Operation(CHECK, (), "checks", "check_hom_novikov"),
    "left_symmetric": Operation(CHECK, (), "checks", "check_left_symmetric"),
    "hom_lie": Operation(CHECK, (), "checks", "check_hom_lie"),
    "lie_admissible": Operation(CHECK, (), "checks", "check_lie_admissible"),
    "cyclic_commutator_products": Operation(CHECK, (), "checks", "check_cyclic_commutator_products"),
    "multiplicative": Operation(CHECK, (), "checks", "check_multiplicative"),
    "regular": Operation(CHECK, (), "checks", "check_regular"),
    "involutive": Operation(CHECK, (), "checks", "check_involutive"),
    "quadratic_structure": Operation(CHECK, ("form",), "quadratic", "check_quadratic_structure"),
    # operator predicates
    "weak_morphism": Operation(CHECK, ("map",), "checks", "is_weak_morphism", _endomorphism),
    "morphism": Operation(CHECK, ("map",), "checks", "is_morphism", _endomorphism),
    "derivation": Operation(CHECK, ("map",), "checks", "is_derivation"),
    "averaging": Operation(CHECK, ("map", "side"), "checks", "is_averaging"),
    "centroid": Operation(CHECK, ("map", "side"), "checks", "is_centroid"),
    "rota_baxter": Operation(CHECK, ("map", "weight"), "checks", "is_rota_baxter"),
    "bracket_operator_conditions": Operation(CHECK, ("map",), "checks", "check_bracket_operator_conditions"),
    "symmetric_automorphism": Operation(CHECK, ("form", "map"), "quadratic", "is_symmetric_automorphism"),
    # constructions
    "yau_twist": Operation(CONSTRUCTION, ("map",), "constructions", "yau_twist"),
    "power_twist": Operation(CONSTRUCTION, ("n",), "constructions", "power_twist"),
    "centroid_twist": Operation(CONSTRUCTION, ("map",), "constructions", "centroid_twist"),
    "xi_square_twist": Operation(CONSTRUCTION, ("xi",), "constructions", "xi_square_twist"),
    "commutator_algebra": Operation(CONSTRUCTION, (), "constructions", "commutator_algebra", _ungated),
    "derivation_product": Operation(CONSTRUCTION, ("map",), "constructions", "derivation_product"),
    "composed_derivation_product": Operation(CONSTRUCTION, ("map",), "constructions", "composed_derivation_product"),
    "averaging_product": Operation(CONSTRUCTION, ("map",), "constructions", "averaging_product"),
    "bracket_operator_product": Operation(CONSTRUCTION, ("map",), "constructions", "bracket_operator_product"),
    "direct_sum": Operation(CONSTRUCTION, ("with",), "constructions", "direct_sum", _ungated),
    "tensor_product": Operation(CONSTRUCTION, ("with",), "constructions", "tensor_product"),
    "untwist_involutive": Operation(CONSTRUCTION, (), "constructions", "untwist_involutive"),
    "regular_lie_untwist": Operation(CONSTRUCTION, (), "constructions", "regular_lie_untwist"),
    "quadratic_yau_twist": Operation(CONSTRUCTION, ("form", "map"), "quadratic", "quadratic_yau_twist"),
    "quadratic_commutator": Operation(CONSTRUCTION, ("form",), "quadratic", "quadratic_commutator"),
    "regular_quadratic_commutator": Operation(CONSTRUCTION, ("form",), "quadratic", "regular_quadratic_commutator"),
    "quadratic_untwist_involutive": Operation(CONSTRUCTION, ("form",), "quadratic", "quadratic_untwist_involutive"),
}

# the checks that take nothing but the algebra (claims are drawn from these)
CHECKS_BY_NAME = {name: op.call for name, op in OPERATIONS.items() if op.kind == CHECK and not op.takes}


def run_named_check(a, name: str):
    """The verdict of the named check that takes nothing but the algebra."""
    if name not in CHECKS_BY_NAME:
        raise StructureError(f"unknown check {name!r}")
    return CHECKS_BY_NAME[name](a)

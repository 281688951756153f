"""Invariant bilinear forms and the quadratic versions of the constructions.

A quadratic structure on (A, *, eps, alpha) is an even bilinear form B with
a companion even map beta satisfying, in the order they are checked:

  epsilon-symmetry   B(x, y) = eps(x, y) B(y, x)
  nondegeneracy      det(Gram) != 0 (Bareiss), cross-checked against rank
  invariance         B(x*y, beta(z)) = B(beta(x), y*z)
  twist-b-symmetry   B(alpha(x), y) = B(x, alpha(y))

All but nondegeneracy are declared as terms in checks, with f = beta, and
run on their compiled slices, which read the form's sparse Gram rows.

Evenness (B(x, y) = 0 unless deg x + deg y = 0) is a property of the form
object itself and is enforced at construction; require_even=False turns
that restriction off for experiments.  The constructions import
colorhom.constructions when they run, so reading a form loads none.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product as iproduct

from .checks import (
    PREDICATE_CONDITIONS,
    Verdict,
    _fail,
    _holds,
    check_hom_novikov,
    check_involutive,
    check_multiplicative,
)
from .core import (
    ColorHomAlgebra,
    GradedBasis,
    GradedLinearMap,
    _require_even_endo,
    _row_reduce,
    determinant,
    identity_map,
    sparse_vector,
)
from .errors import HypothesisError, StructureError, _Record

__all__ = [
    "BilinearFormStructure",
    "form_value",
    "check_quadratic_structure",
    "is_symmetric_automorphism",
    "quadratic_yau_twist",
    "quadratic_commutator",
    "regular_quadratic_commutator",
    "quadratic_untwist_involutive",
]


class BilinearFormStructure(_Record):
    """An even bilinear form given by its Gram matrix, plus a companion map.

    gram[i][j] = B(e_i, e_j).  The companion is the even map appearing in
    the invariance clause; identity for the plain quadratic case, the
    twisting map itself for the twisted one.  gram_rows, the nonzero
    entries of each row as kernel scalars, is built on first read.
    """

    __match_args__ = ("basis", "gram", "companion", "require_even")

    def __init__(self, basis: GradedBasis, gram: tuple, companion: GradedLinearMap, require_even: bool = True):
        n = basis.dim
        field = basis.field
        rows = tuple(tuple(field.coerce(v) for v in row) for row in gram)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise StructureError(f"Gram matrix must be {n}x{n}")
        _require_even_endo(basis, companion, "companion")
        if require_even:
            degs = basis.degrees
            for i, j in iproduct(range(n), repeat=2):
                if rows[i][j] != 0 and not (degs[i] + degs[j]).is_zero:
                    raise StructureError(
                        f"form not even: B[{i}][{j}] != 0 but "
                        f"deg(e_{i}) + deg(e_{j}) != 0",
                        indices=(i, j),
                    )
        vars(self).update(basis=basis, gram=rows, companion=companion, require_even=require_even)

    @cached_property
    def gram_rows(self) -> tuple:
        return tuple(sparse_vector(self.basis.field, row) for row in self.gram)

    def pairing(self, x: dict, y: dict):
        """B(x, y) for sparse vectors, as a field element."""
        rows = self.gram_rows
        acc = self.basis.field.zero
        for i, xi in x.items():
            row = rows[i]
            for j, yj in y.items():
                if j in row:
                    acc = acc + xi * row[j] * yj
        return acc


def form_value(f: BilinearFormStructure, x, y):
    """B(x, y) by bilinear extension of the Gram matrix."""
    n = f.basis.dim
    if len(x) != n or len(y) != n:
        raise StructureError(f"vectors must have length {n}")
    field = f.basis.field
    return f.pairing(sparse_vector(field, x), sparse_vector(field, y))


def _require_form(a: ColorHomAlgebra, f) -> None:
    """The one guard for "f is a form on a's basis"; every entry point taking a form runs it first."""
    if not isinstance(f, BilinearFormStructure):
        raise StructureError(f"expected a BilinearFormStructure, got {type(f).__name__}")
    if f.basis != a.basis:
        raise StructureError("form lives on a different basis")


def check_quadratic_structure(a: ColorHomAlgebra, f: BilinearFormStructure) -> Verdict:
    """Run the quadratic clauses in order; the witness names the failed one.

    Scalar-valued comparisons carry length-1 tuples as witness values.  The
    nondegeneracy clause computes the determinant (Bareiss) and the rank
    (core's sparse row reduction) independently and insists that they agree.
    """
    _require_form(a, f)
    v = _holds(a, a, None, (("epsilon-symmetry",),), form=f)
    if not v:
        return v
    det, rank = determinant(a.field, f.gram), len(_row_reduce(a.field, f.gram_rows)[1])
    if (det != 0) != (rank == a.dim):
        raise StructureError(
            "internal disagreement between determinant and rank elimination"
        )
    if det == 0:
        return _fail("nondegeneracy", (), None, None)
    return _holds(a, a, f.companion, (("invariance",), ("twist-b-symmetry",)), form=f)


def is_symmetric_automorphism(a: ColorHomAlgebra, f: BilinearFormStructure, phi: GradedLinearMap) -> Verdict:
    """phi invertible, an algebra morphism of a, and B-symmetric.

    B-symmetry means B(phi(x), y) = B(x, phi(y)) on all basis pairs.
    """
    _require_form(a, f)
    _require_even_endo(a.basis, phi, "map")
    if len(_row_reduce(a.field, phi.sparse_columns)[1]) != a.dim:
        return _fail("invertibility", (), None, None)
    return _holds(a, a, phi, PREDICATE_CONDITIONS["symmetric_automorphism"], form=f)


def _require_identity_companion(op: str, a: ColorHomAlgebra, f: BilinearFormStructure):
    _require_form(a, f)
    if f.companion != identity_map(a.basis):
        raise StructureError(f"{op} expects a form with identity companion")


def _require_alpha_companion(op: str, a: ColorHomAlgebra, f: BilinearFormStructure):
    _require_form(a, f)
    if f.companion != a.alpha:
        raise StructureError(f"{op} expects the twisting map as companion")


def _gram_of_map(f: BilinearFormStructure, m: GradedLinearMap) -> tuple:
    """The Gram matrix of B(m(x), y): entry (i, j) is B(m(e_i), e_j)."""
    n, columns = f.basis.dim, m.sparse_columns
    return tuple(tuple(f.pairing(columns[i], {j: 1}) for j in range(n)) for i in range(n))


def quadratic_yau_twist(a: ColorHomAlgebra, f: BilinearFormStructure, beta: GradedLinearMap, *, checked: bool = True):
    """Twist a quadratic Hom-Novikov algebra along a symmetric automorphism.

    Output: the Yau twist of a along beta, together with the form
    B'(x, y) = B(beta(x), y) whose companion is again the identity.
    Returns (algebra, form).
    """
    from .constructions import _require, yau_twist
    _require_identity_companion("quadratic_yau_twist", a, f)
    if checked:
        _require("quadratic_yau_twist", "hom-novikov", check_hom_novikov(a))
        _require(
            "quadratic_yau_twist", "quadratic-structure", check_quadratic_structure(a, f)
        )
        _require(
            "quadratic_yau_twist",
            "symmetric-automorphism",
            is_symmetric_automorphism(a, f, beta),
        )
    twisted = yau_twist(a, beta, checked=False)
    gram = _gram_of_map(f, beta)
    form = BilinearFormStructure(
        a.basis, gram, identity_map(a.basis), require_even=f.require_even
    )
    return twisted, form


def quadratic_commutator(a: ColorHomAlgebra, f: BilinearFormStructure, *, checked: bool = True):
    """Commutator bracket of a quadratic Hom-Novikov algebra, same form.

    The form stays invariant for the bracket; returns (algebra, form).
    """
    from .constructions import _require, commutator_algebra
    _require_identity_companion("quadratic_commutator", a, f)
    if checked:
        _require("quadratic_commutator", "hom-novikov", check_hom_novikov(a))
        _require(
            "quadratic_commutator", "quadratic-structure", check_quadratic_structure(a, f)
        )
    return commutator_algebra(a), f


def regular_quadratic_commutator(a: ColorHomAlgebra, f: BilinearFormStructure, *, checked: bool = True):
    """Bracket of a regular Hom-Novikov algebra quadratic with companion alpha.

    Output form B'(x, y) = B(alpha(x), y), companion alpha; returns
    (algebra, form).  Requires alpha invertible.
    """
    from .constructions import _require, commutator_algebra
    _require_alpha_companion("regular_quadratic_commutator", a, f)
    if checked:
        _require("regular_quadratic_commutator", "hom-novikov", check_hom_novikov(a))
        _require(
            "regular_quadratic_commutator",
            "quadratic-structure",
            check_quadratic_structure(a, f),
        )
    if len(_row_reduce(a.field, a.alpha.sparse_columns)[1]) != a.dim:
        raise HypothesisError(
            "regular_quadratic_commutator", "invertible-twist",
            detail="alpha is singular",
        )
    gram = _gram_of_map(f, a.alpha)
    form = BilinearFormStructure(a.basis, gram, a.alpha, require_even=f.require_even)
    return commutator_algebra(a), form


def quadratic_untwist_involutive(a: ColorHomAlgebra, f: BilinearFormStructure, *, checked: bool = True):
    """Undo an involutive twist while keeping the form.

    Input: involutive multiplicative Hom-Novikov algebra quadratic with
    companion alpha.  Output: the untwisted algebra (product alpha(x*y),
    identity map) with the same Gram matrix and identity companion.
    Returns (algebra, form).
    """
    from .constructions import _require, untwist_involutive
    _require_alpha_companion("quadratic_untwist_involutive", a, f)
    if checked:
        _require("quadratic_untwist_involutive", "involutive", check_involutive(a))
        _require(
            "quadratic_untwist_involutive", "multiplicative", check_multiplicative(a)
        )
        _require("quadratic_untwist_involutive", "hom-novikov", check_hom_novikov(a))
        _require(
            "quadratic_untwist_involutive",
            "quadratic-structure",
            check_quadratic_structure(a, f),
        )
    plain = untwist_involutive(a, checked=False)
    form = BilinearFormStructure(
        a.basis, f.gram, identity_map(a.basis), require_even=f.require_even
    )
    return plain, form

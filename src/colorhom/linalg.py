"""Exact linear algebra, and the helpers only constructions and the dense boundary call.

What of core and checks no identity scan reads, so a CLI child checking an identity compiles none of
it: the one exact elimination (_row_reduce, behind matrix_rank, invert_map, check_regular, the
quadratic rank tests and search_maps's linear part), determinant, map_power, and identity_sides and
identity_residual_on_vectors, which evaluate every product and image of an identity on vectors: the
route the tests compare the scans against.  core and checks resolve each name on first read.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct

from . import core
from .checks import IDENTITY_ARITY, _compiled, _dense, _Scope
from .core import ColorHomAlgebra, GradedBasis, GradedLinearMap, _algebra_of_fields, _Columns, _eps_table
from .core import _require_grading, identity_map, sparse_add, sparse_sub, sparse_vector
from .errors import SingularMapError, StructureError
from .grading import EPS_MAX_BITS, Bicharacter, GradeGroup
from .scalars import ScalarField

__all__ = ["map_power", "invert_map", "matrix_rank", "determinant", "commutator_tensor", "unit_vector", "zero_vector",
           "homogeneous_components", "identity_sides", "identity_residual_on_vectors"]


def _basis_of_classes(field: ScalarField, group: GradeGroup, distinct: tuple, classes: tuple) -> GradedBasis:
    """The basis whose e_i has degree distinct[classes[i]], with (distinct, classes) as its degree_classes.

    distinct must list the degrees in order of first occurrence along classes, as degree_classes does.
    """
    basis = GradedBasis(field, group, tuple(map(distinct.__getitem__, classes)))
    vars(basis)["degree_classes"] = distinct, classes
    return basis


def map_power(m: GradedLinearMap, n: int) -> GradedLinearMap:
    """m^n by repeated squaring: about log2(n) compositions.

    Over Q entries grow with n; a square with an entry past
    grading.EPS_MAX_BITS bits raises StructureError rather than exhaust memory.
    """
    if not isinstance(n, int) or n < 0:
        raise StructureError(f"map power wants n >= 0, got {n!r}")
    # compose_maps is read from core at each call, so a rebinding of core's name reaches it
    out, square = identity_map(m.basis), m
    while n:
        if n & 1:
            out = core.compose_maps(square, out)
        n >>= 1
        square = _bounded(core.compose_maps(square, square)) if n else square
    return out


def _bounded(m: GradedLinearMap) -> GradedLinearMap:
    for q in (Fraction(c) for column in m.sparse_columns for c in column.values()):
        if max(abs(q.numerator), q.denominator).bit_length() > EPS_MAX_BITS:
            raise StructureError(f"map power too large: an entry passes {EPS_MAX_BITS} bits")
    return m


def _row_reduce(field: ScalarField, rows) -> tuple:
    """The reduced row echelon form of sparse rows {column: kernel scalar}: (reduced rows, pivot columns).

    Exact: over F_p every value is reduced into [0, p), over Q the values are
    ints and Fractions.  reduced[r] is 1 at pivots[r], ascending, and 0 at
    every other pivot column.  Each row is reduced by the rows kept so far;
    a nonzero remainder is kept with its least column as pivot, once that
    column is cleared from the other kept rows.  The RREF of a row space is
    unique, so the order of the rows does not matter.
    """
    p = field.p
    reduce = (lambda x: x % p) if p else (lambda x: x)
    kept: dict = {}  # pivot column -> its row

    def subtract(row, s, other):
        for c, v in other.items():
            if x := reduce(row.get(c, 0) - s * v):
                row[c] = x
            else:
                del row[c]

    for row in rows:
        row = {c: x for c, v in row.items() if (x := reduce(v))}
        for c in [c for c in row if c in kept]:
            subtract(row, row[c], kept[c])
        if row:
            pivot = min(row)
            inverse = pow(row[pivot], -1, p) if p else 1 / Fraction(row[pivot])
            row = {c: reduce(v * inverse) for c, v in row.items()}
            for other in kept.values():
                if pivot in other:
                    subtract(other, other[pivot], row)
            kept[pivot] = row
    pivots = sorted(kept)
    return [kept[c] for c in pivots], pivots


def matrix_rank(field: ScalarField, rows) -> int:
    rows = tuple(rows)
    if len({len(r) for r in rows}) > 1:
        raise StructureError("matrix rank needs rows of one length")
    return len(_row_reduce(field, [sparse_vector(field, r) for r in rows])[1])


def determinant(field: ScalarField, rows):
    """Bareiss fraction-free elimination; every intermediate division is exact."""
    n = len(rows)
    if n == 0:
        return field.one
    m = [[field.coerce(v) for v in r] for r in rows]
    if any(len(r) != n for r in m):
        raise StructureError("determinant needs a square matrix")
    sign = 1
    prev = field.one
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return field.zero
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = field.zero
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign > 0 else -det


def invert_map(m: GradedLinearMap) -> GradedLinearMap:
    """Exact inverse of an even map; raises SingularMapError if not regular.

    The reduced [M^T | I] is [I | (M^-1)^T], so its rows, past column n, are
    the columns of the inverse.
    """
    if not m.is_even:
        raise StructureError("only even maps are inverted here")
    n = m.basis.dim
    reduced, pivots = _row_reduce(m.basis.field, ({**c, n + i: 1} for i, c in enumerate(m.sparse_columns)))
    if pivots[-1] >= n:
        raise SingularMapError("map is singular: not regular")
    return GradedLinearMap(m.basis, _Columns(tuple({c - n: v for c, v in r.items() if c >= n} for r in reduced)))


def _algebra_of_rows(basis: GradedBasis, bicharacter: Bicharacter, rows: tuple, alpha: GradedLinearMap) -> ColorHomAlgebra:
    """The algebra with these product rows, stored as given: for a producer whose rows are canonical by construction.

    rows must be as core._stored_rows returns them: nonzero kernel scalars, keys ascending, every
    product even.  The grading is checked as make_algebra checks it; alpha must be an even map on basis.
    """
    _require_grading(basis, bicharacter)
    return _algebra_of_fields(basis, bicharacter, rows, alpha, _eps_table(basis, bicharacter))


def commutator_tensor(a: ColorHomAlgebra) -> tuple:
    """b[i][j][k] = c[i][j][k] - eps(deg_i, deg_j) * c[j][i][k]."""
    from .checks import _product_algebra  # read at each call, as a rebinding of checks' builder reaches it

    return _product_algebra("bracket", a).structure


def unit_vector(field: ScalarField, dim: int, i: int) -> tuple:
    return tuple(field.one if k == i else field.zero for k in range(dim))


def zero_vector(field: ScalarField, dim: int) -> tuple:
    return (field.zero,) * dim


def homogeneous_components(basis: GradedBasis, x):
    """Split a vector into its homogeneous parts.

    Returns (degree, vector) pairs ordered by first occurrence of the degree
    along the basis; parts that vanish are dropped.
    """
    n = basis.dim
    if len(x) != n:
        raise StructureError(f"vector length {len(x)} != dim {n}")
    zero = basis.field.zero
    parts: list = []
    seen: dict = {}
    for i, d in enumerate(basis.degrees):
        if x[i] == 0:
            continue
        if d not in seen:
            seen[d] = len(parts)
            parts.append((d, [zero] * n))
        parts[seen[d]][1][i] = x[i]
    return [(d, tuple(v)) for d, v in parts]


def _require_arguments(a: ColorHomAlgebra, name: str, vectors, degrees=None) -> None:
    """Raise unless name is an identity whose slots vectors (and degrees) fill, each vector of length dim."""
    if name not in IDENTITY_ARITY:
        raise StructureError(f"unknown identity {name!r}")
    arity = IDENTITY_ARITY[name]
    if len(vectors) != arity or len(vectors if degrees is None else degrees) != arity:
        raise StructureError(f"identity {name!r} takes {arity} arguments")
    for v in vectors:
        if len(v) != a.dim:
            raise StructureError(f"vector length {len(v)} != dim {a.dim}")


def identity_sides(a: ColorHomAlgebra, name: str, degrees, vectors):
    """Evaluate one identity's two sides on homogeneous arguments."""
    _require_arguments(a, name, vectors, degrees)
    return tuple(_dense(a, side) for side in _sparse_sides(a, name, zip(degrees, vectors)))


def _sparse_sides(a: ColorHomAlgebra, name: str, arguments):
    """An identity's sparse sides at homogeneous arguments (degree, vector)."""
    sides = _compiled(name, basis=False)(*_Scope(a, a, None, {}, 0, None))
    return sides(*((d, sparse_vector(a.field, v)) for d, v in arguments))


def identity_residual_on_vectors(a: ColorHomAlgebra, name: str, vectors) -> tuple:
    """left - right on arbitrary vectors, via homogeneous decomposition.

    The identity only makes sense slotwise on homogeneous elements (the
    bicharacter needs degrees), so each argument is split into components
    and the residual summed over all component combinations.
    """
    _require_arguments(a, name, vectors)
    split = [homogeneous_components(a.basis, v) for v in vectors]
    total = {}
    for combo in iproduct(*split):
        total = sparse_add(total, sparse_sub(*_sparse_sides(a, name, combo)))
    return _dense(a, total)

"""Graded bases, even/homogeneous linear maps, and algebras by structure constants.

Conventions used everywhere in the package:
  * vectors are coordinate tuples over the basis, tuple index = basis index;
  * a map's matrix is stored row-major, matrix[k][i] = coefficient of e_k in
    the image of e_i (so columns are images of basis vectors);
  * the product tensor is structure[i][j][k] = coefficient of e_k in e_i * e_j.

All containers are tuples and all dataclasses frozen; operations return new
objects and never mutate their inputs.

An algebra stores its product sparsely, as product_rows[i][j] = {k: c} over
the nonzero coefficients of e_i * e_j; the dense structure tensor is built
from the rows only when something reads it, so an algebra, and the load of
a document, costs what its nonzeros, alpha and eps table cost.  Maps carry
their nonzero columns and algebras their eps value per pair of basis
indices, as views excluded from equality and repr; product_index, which
says where products with alpha can be nonzero, is built on first read.
The kernel (sparse_product, sparse_apply) on sparse vectors, {index:
nonzero coefficient}, is the only way the package evaluates products and
maps.
Coordinate tuples appear only at the boundary: eval_product, eval_map,
commutator_tensor and structure convert, and make_algebra accepts a dense
tensor.

The rows, the views and sparse vectors hold kernel scalars, not field
elements (see ScalarField.kernel_scalar): over Q an int for an integral
value and a Fraction only for a true fraction, over F_p an int residue.
Every value enters the kernel through kernel_scalar, which reduces it into
[0, p) over F_p.  No modulus enters the kernel itself: it only multiplies,
adds and drops exact zeros, so over F_p its results are correct mod p but
unreduced.  They are reduced only where they leave it:
checks._first_failure reduces two sides mod p only when they differ as
ints, catalog.search_maps reduces the residuals of its product pairs, and
dense_vector boxes every value through field.coerce, so tuples, matrices,
witnesses and documents hold Fraction or Fp elements only.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple

from .errors import SingularMapError, StructureError
from .grading import (
    EPS_MAX_BITS,
    Bicharacter,
    GradeGroup,
    GroupElement,
    bicharacter_eval,
    validate_bicharacter,
)
from .scalars import ScalarField

__all__ = [
    "GradedBasis",
    "trivial_basis",
    "GradedLinearMap",
    "ColorHomAlgebra",
    "make_algebra",
    "make_map",
    "identity_map",
    "scalar_map",
    "eval_map",
    "compose_maps",
    "map_power",
    "invert_map",
    "eval_product",
    "sparse_vector",
    "dense_vector",
    "sparse_product",
    "sparse_apply",
    "sparse_add",
    "sparse_sub",
    "sparse_scale",
    "commutator_tensor",
    "unit_vector",
    "zero_vector",
    "homogeneous_components",
    "determinant",
    "matrix_rank",
]


# the view of every all-zero cell and column; never mutated
_EMPTY: dict = {}


def _derived():
    """A field computed at construction, invisible to equality, hashing and repr."""
    return dataclasses.field(init=False, compare=False, repr=False)


@dataclass(frozen=True)
class GradedBasis:
    """An ordered basis with a degree per index, over a fixed scalar field."""

    field: ScalarField
    group: GradeGroup
    degrees: tuple[GroupElement, ...]

    def __post_init__(self):
        degrees = tuple(self.degrees)
        if not degrees:
            raise StructureError("basis dimension must be at least 1")
        for d in degrees:
            if not isinstance(d, GroupElement) or d.group != self.group:
                raise StructureError(f"degree {d!r} not in the grading group")
        object.__setattr__(self, "degrees", degrees)

    @property
    def dim(self) -> int:
        return len(self.degrees)


def trivial_basis(field: ScalarField, dim: int) -> GradedBasis:
    """Everything in degree 0 of the trivial group."""
    g = GradeGroup(0)
    return GradedBasis(field, g, tuple(g.zero() for _ in range(dim)))


@dataclass(frozen=True)
class GradedLinearMap:
    """A homogeneous linear endomap of a graded basis.

    Homogeneity of degree d means matrix[k][i] != 0 forces
    deg(e_k) = deg(e_i) + d; maps of degree 0 are called even.
    """

    basis: GradedBasis
    matrix: tuple
    degree: GroupElement | None = None
    # sparse_columns[i] = {k: matrix[k][i]} over the nonzero entries
    sparse_columns: tuple = _derived()

    def __post_init__(self):
        basis = self.basis
        n = basis.dim
        deg = self.degree if self.degree is not None else basis.group.zero()
        if not isinstance(deg, GroupElement) or deg.group != basis.group:
            raise StructureError("map degree not in the grading group")
        field = basis.field
        rows = tuple(tuple(field.coerce(v) for v in row) for row in self.matrix)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise StructureError(f"matrix must be {n}x{n}")
        degs = basis.degrees
        # targets[i]: the one degree a nonzero entry of column i may land in
        targets = degs if deg.is_zero else tuple(d + deg for d in degs)
        kernel_scalar = field.kernel_scalar
        columns = [{} for _ in range(n)]
        for k, row in enumerate(rows):
            dk = degs[k]
            for i, v in enumerate(row):
                if v:
                    if dk != targets[i]:
                        raise StructureError(
                            f"entry ({k},{i}) breaks homogeneity of degree {deg}",
                            indices=(k, i),
                        )
                    columns[i][k] = kernel_scalar(v)
        object.__setattr__(self, "matrix", rows)
        object.__setattr__(self, "degree", deg)
        object.__setattr__(self, "sparse_columns", tuple(c or _EMPTY for c in columns))

    @property
    def is_even(self) -> bool:
        return self.degree.is_zero

    def column(self, i: int) -> tuple:
        return tuple(row[i] for row in self.matrix)


def _even_map_of_parts(basis: GradedBasis, matrix: tuple, columns: list) -> GradedLinearMap:
    """An even map from coerced rows, nonzero on even positions only, and their sparse columns.

    Nothing is coerced or checked again: for a caller that built both parts.
    """
    m = object.__new__(GradedLinearMap)
    object.__setattr__(m, "basis", basis)
    object.__setattr__(m, "matrix", matrix)
    object.__setattr__(m, "degree", basis.group.zero())
    object.__setattr__(m, "sparse_columns", tuple(c or _EMPTY for c in columns))
    return m


def make_map(basis: GradedBasis, rows, degree: GroupElement | None = None) -> GradedLinearMap:
    return GradedLinearMap(basis, tuple(tuple(r) for r in rows), degree)


def identity_map(basis: GradedBasis) -> GradedLinearMap:
    one, zero = basis.field.one, basis.field.zero
    n = basis.dim
    return GradedLinearMap(
        basis, tuple(tuple(one if k == i else zero for i in range(n)) for k in range(n))
    )


def scalar_map(basis: GradedBasis, s) -> GradedLinearMap:
    s = basis.field.coerce(s)
    zero = basis.field.zero
    n = basis.dim
    return GradedLinearMap(
        basis, tuple(tuple(s if k == i else zero for i in range(n)) for k in range(n))
    )


def eval_map(m: GradedLinearMap, x) -> tuple:
    n = m.basis.dim
    if len(x) != n:
        raise StructureError(f"vector length {len(x)} != dim {n}")
    field = m.basis.field
    return dense_vector(field, n, sparse_apply(m, sparse_vector(field, x)))


def sparse_apply(m: GradedLinearMap, x: dict) -> dict:
    """m(x) for a sparse vector x, through the map's sparse columns."""
    columns = m.sparse_columns
    out = {}
    merged = False
    for i, xi in x.items():
        for k, c in columns[i].items():
            if k in out:
                out[k] = out[k] + c * xi
                merged = True
            else:
                out[k] = c * xi
    return _nonzero(out) if merged else out


def compose_maps(m: GradedLinearMap, n: GradedLinearMap) -> GradedLinearMap:
    """m after n; degrees add."""
    if m.basis != n.basis:
        raise StructureError("composition needs a shared basis")
    field, dim = m.basis.field, m.basis.dim
    columns = [dense_vector(field, dim, sparse_apply(m, column)) for column in n.sparse_columns]
    return GradedLinearMap(m.basis, tuple(zip(*columns)), m.degree + n.degree)


def map_power(m: GradedLinearMap, n: int) -> GradedLinearMap:
    """m^n by repeated squaring: about log2(n) compositions.

    Over Q entries grow with n; a square with an entry past
    grading.EPS_MAX_BITS bits raises StructureError rather than exhaust memory.
    """
    if not isinstance(n, int) or n < 0:
        raise StructureError(f"map power wants n >= 0, got {n!r}")
    out, square = identity_map(m.basis), m
    while n:
        if n & 1:
            out = compose_maps(square, out)
        n >>= 1
        square = _bounded(compose_maps(square, square)) if n else square
    return out


def _bounded(m: GradedLinearMap) -> GradedLinearMap:
    for q in (Fraction(c) for column in m.sparse_columns for c in column.values()):
        if max(abs(q.numerator), q.denominator).bit_length() > EPS_MAX_BITS:
            raise StructureError(f"map power too large: an entry passes {EPS_MAX_BITS} bits")
    return m


def _gauss_rank_inverse(field: ScalarField, rows):
    """Exact Gauss-Jordan: (rank, inverse-or-None for square input, reduced rows, pivot columns).

    The reduced rows are the rank nonzero rows of the reduced row echelon
    form: reduced[r] has 1 in column pivots[r] and 0 in every other pivot
    column.
    """
    n = len(rows)
    m = [list(r) for r in rows]
    square = all(len(r) == n for r in m)
    aug = None
    if square:
        one, zero = field.one, field.zero
        aug = [[one if i == j else zero for j in range(n)] for i in range(n)]
    ncols = len(m[0]) if m else 0
    rank = 0
    pivots = []
    for col in range(ncols):
        pivot = None
        for r in range(rank, n):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        if aug is not None:
            aug[rank], aug[pivot] = aug[pivot], aug[rank]
        inv = field.one / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        if aug is not None:
            aug[rank] = [v * inv for v in aug[rank]]
        for r in range(n):
            if r == rank or m[r][col] == 0:
                continue
            f = m[r][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
            if aug is not None:
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[rank])]
        pivots.append(col)
        rank += 1
    inverse = tuple(tuple(r) for r in aug) if square and rank == n else None
    return rank, inverse, m[:rank], pivots


def matrix_rank(field: ScalarField, rows) -> int:
    coerced = [[field.coerce(v) for v in r] for r in rows]
    return _gauss_rank_inverse(field, coerced)[0]


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
    """Exact inverse of an even map; raises SingularMapError if not regular."""
    if not m.is_even:
        raise StructureError("only even maps are inverted here")
    inv = _gauss_rank_inverse(m.basis.field, m.matrix)[1]
    if inv is None:
        raise SingularMapError("map is singular: not regular")
    return GradedLinearMap(m.basis, inv, m.basis.group.zero())


class _Cells(NamedTuple):
    """Products as a sparse cell function, (i, j) -> e_i * e_j, in place of a dense tensor."""

    cell: Callable


@dataclass(frozen=True, init=False, repr=False)
class ColorHomAlgebra:
    """A graded algebra (A, *, eps, alpha) given by structure constants.

    ColorHomAlgebra(basis, bicharacter, structure, alpha) takes the dense
    tensor structure[i][j][k], the e_k coefficient of e_i * e_j, coerces it
    and checks its shape and the evenness of the product; alpha is the even
    twisting endomap.  make_algebra also validates the bicharacter and alpha.

    Stored: product_rows[i][j] = {k: c} over the nonzero coefficients, as
    kernel scalars with k ascending and one shared empty cell, so equal rows
    mean equal tensors; equality and hashing read them.  eps_table[i][j] =
    eps(deg e_i, deg e_j) is derived alongside.  structure is built from the
    rows on first read and cached, with one shared all-zero cell.
    """

    basis: GradedBasis
    bicharacter: Bicharacter
    product_rows: tuple
    alpha: GradedLinearMap
    eps_table: tuple = _derived()

    def __init__(self, basis: GradedBasis, bicharacter: Bicharacter, structure, alpha: GradedLinearMap):
        cell = structure.cell if isinstance(structure, _Cells) else _dense_cell(basis, structure)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "bicharacter", bicharacter)
        object.__setattr__(self, "product_rows", _stored_rows(basis, cell))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "eps_table", _eps_table(basis.field, bicharacter, basis.degrees))

    @cached_property
    def product_index(self) -> ProductIndex:
        """Where products with alpha can be nonzero, built from the rows on first read and cached."""
        return _product_index(self.product_rows, self.alpha.sparse_columns)

    @cached_property
    def structure(self) -> tuple:
        """The dense tensor structure[i][j][k], built from the rows on first read."""
        rows = self.product_rows
        return _dense_cells(self.basis, lambda i, j: rows[i][j])

    def __hash__(self):
        # cells keep their keys in ascending order, so items() is canonical
        cells = tuple(tuple(cell.items()) for row in self.product_rows for cell in row)
        return hash((self.basis, self.bicharacter, cells, self.alpha))

    def __repr__(self):
        return (
            f"{type(self).__qualname__}(basis={self.basis!r}, bicharacter={self.bicharacter!r}, "
            f"structure={self.structure!r}, alpha={self.alpha!r})"
        )

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def field(self) -> ScalarField:
        return self.basis.field

    @property
    def group(self) -> GradeGroup:
        return self.basis.group

    @property
    def degrees(self) -> tuple:
        return self.basis.degrees

    def eps(self, a: GroupElement, c: GroupElement):
        return bicharacter_eval(self.bicharacter, a, c)


class ProductIndex(NamedTuple):
    """The nonempty cells of an algebra, and where alpha meets them.

    by_row[i] / by_col[j]: the j / the i with e_i * e_j != 0, ascending;
    by_key[m]: the cells whose product has an e_m term, as a bit set with
    bit i*n + j for the cell (i, j); aright[m] / aleft[m]: bit set of the r
    with e_m * alpha(e_r) / of the p with alpha(e_p) * e_m able to be
    nonzero, that is, some term of alpha's column meets a nonempty cell.
    A product outside these sets is zero by construction.
    """

    by_row: tuple
    by_col: tuple
    by_key: tuple
    aright: tuple
    aleft: tuple


def _product_index(rows: tuple, columns: tuple) -> ProductIndex:
    n = len(rows)
    by_row = [[j for j, cell in enumerate(row) if cell] for row in rows]
    by_col = [[] for _ in range(n)]
    by_key = [0] * n
    for i, js in enumerate(by_row):
        row, base = rows[i], i * n
        for j in js:
            by_col[j].append(i)
            bit = 1 << base + j
            for m in row[j]:
                by_key[m] |= bit
    # alpha_rows[k]: bit set of the r whose image alpha(e_r) has an e_k term
    alpha_rows = [0] * n
    for r, column in enumerate(columns):
        for k in column:
            alpha_rows[k] |= 1 << r

    def meets(ks):
        mask = 0
        for k in ks:
            mask |= alpha_rows[k]
        return mask

    return ProductIndex(
        tuple(by_row), tuple(by_col), tuple(by_key),
        tuple(map(meets, by_row)), tuple(map(meets, by_col)),
    )


def _dense_cell(basis: GradedBasis, structure):
    """A dense tensor read as a cell function; each cell is shape-checked and coerced when read."""
    n, coerce = basis.dim, basis.field.coerce

    def cell(i, j):
        planes_fit = len(structure) == n and len(structure[i]) == n
        values = tuple(map(coerce, structure[i][j])) if planes_fit else ()
        if len(values) != n:
            raise StructureError(f"product tensor must be {n}x{n}x{n}")
        return {k: c for k, c in enumerate(values) if c}

    return cell


def _stored_rows(basis: GradedBasis, cell) -> tuple:
    """The canonical rows of the products cell(i, j) = e_i * e_j, validated in cell order.

    Each nonempty cell keeps its nonzero coefficients as kernel scalars, keys
    ascending; an uneven product names its first offending (i, j, k).
    """
    n = basis.dim
    kernel_scalar = basis.field.kernel_scalar
    distinct, classes = _degree_classes(basis.degrees)
    position = {d: p for p, d in enumerate(distinct)}
    # (class of e_i, class of e_j) -> the class of their degree sum, -1 if no
    # basis vector has it; filled only for pairs with a nonempty cell
    sum_class: dict = {}
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            c = cell(i, j)
            nonzero = {k: v for k in sorted(c) if (v := kernel_scalar(c[k]))} if c else None
            if not nonzero:
                row.append(_EMPTY)
                continue
            pair = (classes[i], classes[j])
            target = sum_class.get(pair)
            if target is None:
                target = sum_class[pair] = position.get(distinct[pair[0]] + distinct[pair[1]], -1)
            for k in nonzero:
                if classes[k] != target:
                    raise StructureError(
                        f"product not even: c[{i}][{j}][{k}] != 0 but "
                        f"deg(e_{k}) != deg(e_{i}) + deg(e_{j})",
                        indices=(i, j, k),
                    )
            row.append(nonzero)
        rows.append(tuple(row))
    return tuple(rows)


def _eps_table(field: ScalarField, b: Bicharacter, degrees) -> tuple:
    """eps for every pair of basis indices, as kernel scalars.

    One evaluation per pair of distinct degrees; indices of equal degree
    share one row tuple.
    """
    distinct, classes = _degree_classes(degrees)
    rows = [
        tuple(values[q] for q in classes)
        for values in (
            [field.kernel_scalar(bicharacter_eval(b, d, e)) for e in distinct] for d in distinct
        )
    ]
    return tuple(rows[p] for p in classes)


def _degree_classes(degrees) -> tuple:
    """The distinct degrees in order of first occurrence, and each index's position among them."""
    position: dict = {}
    for d in degrees:
        position.setdefault(d, len(position))
    return list(position), [position[d] for d in degrees]


def make_algebra(basis: GradedBasis, bichar: Bicharacter, structure, alpha: GradedLinearMap) -> ColorHomAlgebra:
    """Validate and assemble from a dense tensor structure[i][j][k].  Raises StructureError on:

      * field or group mismatch between basis and bicharacter,
      * a bicharacter failing its axioms,
      * a product tensor of the wrong shape,
      * an evenness violation (the first offending (i, j, k) is named),
      * an eps value too large to compute (see grading.EPS_MAX_BITS),
      * alpha on the wrong basis or of nonzero degree.
    """
    if bichar.group != basis.group:
        raise StructureError("bicharacter and basis use different grading groups")
    if bichar.field != basis.field:
        raise StructureError("bicharacter and basis use different scalar fields")
    report = validate_bicharacter(bichar)
    if not report.ok:
        raise StructureError(
            f"bicharacter axiom '{report.axiom}' fails at generator pair "
            f"{report.pair}: {report.detail}"
        )
    algebra = ColorHomAlgebra(basis, bichar, structure, alpha)
    _require_even_endo(basis, alpha, "alpha")
    return algebra


def _require_even_endo(basis: GradedBasis, f: GradedLinearMap, role: str):
    """The one guard for "f is an even map on this basis"; role names f in the message."""
    if f.basis != basis:
        raise StructureError(f"{role} lives on a different basis")
    if not f.is_even:
        raise StructureError(f"{role} must be even (degree 0)")


def _algebra_from_cells(basis: GradedBasis, bicharacter: Bicharacter, cell, alpha: GradedLinearMap) -> ColorHomAlgebra:
    """make_algebra on the products cell(i, j) = e_i * e_j, given as sparse vectors.

    The one way an algebra is built from computed products: make_algebra
    validates the cells and stores them as the algebra's rows, with no
    dense tensor in between.
    """
    return make_algebra(basis, bicharacter, _Cells(cell), alpha)


def _dense_cells(basis: GradedBasis, cell) -> tuple:
    """The dense tensor of sparse cells; every empty cell is one shared zero tuple."""
    n, field = basis.dim, basis.field
    zero_cell = (field.zero,) * n
    return tuple(
        tuple(dense_vector(field, n, c) if (c := cell(i, j)) else zero_cell for j in range(n))
        for i in range(n)
    )


def eval_product(a: ColorHomAlgebra, x, y) -> tuple:
    """Bilinear extension of the structure constants to arbitrary vectors."""
    n = a.dim
    if len(x) != n or len(y) != n:
        raise StructureError(f"vectors must have length {n}")
    field = a.field
    return dense_vector(field, n, sparse_product(a, sparse_vector(field, x), sparse_vector(field, y)))


def sparse_product(a: ColorHomAlgebra, x: dict, y: dict) -> dict:
    """x * y for sparse vectors, through the algebra's product rows."""
    rows = a.product_rows
    out = {}
    merged = False
    for i, xi in x.items():
        row = rows[i]
        for j, yj in y.items():
            cell = row[j]
            if cell:
                coeff = xi * yj
                for k, c in cell.items():
                    if k in out:
                        out[k] = out[k] + coeff * c
                        merged = True
                    else:
                        out[k] = coeff * c
    return _nonzero(out) if merged else out


def _nonzero(x: dict) -> dict:
    # only sums can cancel: a product of nonzero field elements is nonzero
    return {k: c for k, c in x.items() if c}


def sparse_vector(field: ScalarField, x) -> dict:
    """The nonzero coordinates of a coordinate sequence, {index: kernel scalar}."""
    kernel_scalar = field.kernel_scalar
    return {k: c for k, c in enumerate(map(kernel_scalar, x)) if c}


def dense_vector(field: ScalarField, dim: int, x: dict) -> tuple:
    """The coordinate tuple of a sparse vector, every value boxed as a field element."""
    out = [field.zero] * dim
    coerce = field.coerce
    for k, c in x.items():
        out[k] = coerce(c)
    return tuple(out)


def sparse_add(x: dict, y: dict) -> dict:
    out = dict(x)
    merged = False
    for k, c in y.items():
        if k in out:
            out[k] = out[k] + c
            merged = True
        else:
            out[k] = c
    return _nonzero(out) if merged else out


def sparse_sub(x: dict, y: dict) -> dict:
    out = dict(x)
    merged = False
    for k, c in y.items():
        if k in out:
            out[k] = out[k] - c
            merged = True
        else:
            out[k] = -c
    return _nonzero(out) if merged else out


def sparse_scale(s, x: dict) -> dict:
    return {k: s * c for k, c in x.items()} if s else {}


def commutator_tensor(a: ColorHomAlgebra) -> tuple:
    """b[i][j][k] = c[i][j][k] - eps(deg_i, deg_j) * c[j][i][k]."""
    return _dense_cells(a.basis, _bracket_cell(a))


def _bracket_cell(a: ColorHomAlgebra):
    """The commutator as a sparse cell: (i, j) -> e_i*e_j - eps(e_i, e_j) e_j*e_i."""
    rows, eps = a.product_rows, a.eps_table
    return lambda i, j: sparse_sub(rows[i][j], sparse_scale(eps[i][j], rows[j][i]))


def _operator_cell(l: ColorHomAlgebra, f: GradedLinearMap):
    """The operator product x∘y = [f(x), y] as a sparse cell: (i, j) -> f(e_i) * e_j in l."""
    return lambda i, j: sparse_product(l, f.sparse_columns[i], {j: 1})


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

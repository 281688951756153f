"""Graded bases, even/homogeneous linear maps, and algebras by structure constants.

Conventions used everywhere in the package:
  * vectors are coordinate tuples over the basis, tuple index = basis index;
  * a map's matrix is row-major, matrix[k][i] = coefficient of e_k in the
    image of e_i (so columns are images of basis vectors);
  * the product tensor is structure[i][j][k] = coefficient of e_k in e_i * e_j.

All containers are tuples and all dataclasses frozen; operations return new
objects and never mutate their inputs.

An algebra stores its product sparsely, as product_rows[i][j] = {k: c} over
the nonzero coefficients of e_i * e_j, and a map its sparse_columns[i] =
{k: c} over the nonzero coefficients of the image of e_i; the dense
structure tensor and matrix are built only when something reads them, so
an algebra, and the load of a document, costs what its nonzeros and eps
table cost.  Products enter as data: _algebra_from_cells reads the cells
((i, j), e_i * e_j) row-major over the pairs that can be nonzero, as the
dense path reads a tensor's, and _cells yields an algebra's nonempty ones,
so a producer costs its nonzeros rather than n^2 calls; the constructions'
products are declared and built in checks (checks._product_algebra), and
no construction code lives here.  Algebras carry their eps value per pair
of basis indices as a view excluded from equality and repr; product_index,
which lists the products' nonzero terms and alpha's nonzero entries for the
scans, and twisted_index, which lists the products e_i * alpha(e_j) and
alpha(e_i) * e_j, are built on first read.
The kernel (sparse_product, sparse_apply) on sparse vectors, {index:
nonzero coefficient}, is the only way the package evaluates products and
maps.  Coordinate tuples appear only at the boundary: eval_product,
eval_map, commutator_tensor, structure and matrix convert, and
make_algebra and GradedLinearMap accept dense input.

The rows, columns, views and sparse vectors hold kernel scalars, not field
elements (see ScalarField.kernel_scalar): over Q an int for an integral
value and a Fraction only for a true fraction, over F_p an int residue.
Every value enters the kernel through kernel_scalar, which reduces it into
[0, p) over F_p.  No modulus enters the kernel itself: it only multiplies,
adds and drops exact zeros, so over F_p its results are correct mod p but
unreduced.  They are reduced only where they leave it: checks._first_failure
tests a slice's values mod p and reduces two sides mod p only when they
differ as ints, catalog.search_maps reduces the residual of each condition
it visits at a tuple and the forced entries, the one exact elimination
(_row_reduce, behind matrix_rank, invert_map and search_maps's linear
part) reduces every value it keeps, and dense_vector boxes every
value through field.coerce, so tuples, matrices, witnesses and documents
hold Fraction or Fp elements only.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple

from .errors import SingularMapError, StructureError
from .grading import (
    EPS_MAX_BITS,
    Bicharacter,
    GradeGroup,
    GroupElement,
    _require_bicharacter,
    bicharacter_eval,
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

    @cached_property
    def degree_classes(self) -> tuple:
        """The distinct degrees in order of first occurrence, and each index's position among them; computed once."""
        position: dict = {}
        for d in self.degrees:
            position.setdefault(d, len(position))
        return tuple(position), tuple(position[d] for d in self.degrees)


def trivial_basis(field: ScalarField, dim: int) -> GradedBasis:
    """Everything in degree 0 of the trivial group."""
    g = GradeGroup(0)
    return GradedBasis(field, g, tuple(g.zero() for _ in range(dim)))


class _Columns(NamedTuple):
    """A map as computed columns, i -> {k: coefficient of e_k in the image of e_i}, in place of a matrix."""

    columns: tuple


@dataclass(frozen=True, init=False, repr=False)
class GradedLinearMap:
    """A homogeneous linear endomap of a graded basis.

    Homogeneity of degree d means matrix[k][i] != 0 forces
    deg(e_k) = deg(e_i) + d; maps of degree 0 are called even.
    GradedLinearMap(basis, matrix, degree) coerces a dense matrix and checks
    its shape, or takes _Columns in its place; either way every nonzero entry
    is checked for homogeneity, and the first offending (k, i) in row-major
    order is named.

    Stored: sparse_columns[i] = {k: c} over the nonzero entries, as kernel
    scalars with k ascending and one shared empty column, so equal columns
    mean equal matrices; equality and hashing read them.  matrix is built
    from the columns on first read and cached.
    """

    basis: GradedBasis
    sparse_columns: tuple
    degree: GroupElement

    def __init__(self, basis: GradedBasis, matrix, degree: GroupElement | None = None):
        n, degs, field = basis.dim, basis.degrees, basis.field
        deg = degree if degree is not None else basis.group.zero()
        if not isinstance(deg, GroupElement) or deg.group != basis.group:
            raise StructureError("map degree not in the grading group")
        if isinstance(matrix, _Columns):
            columns = matrix.columns
        else:
            rows = tuple(tuple(map(field.coerce, row)) for row in matrix)
            if len(rows) != n or any(len(r) != n for r in rows):
                raise StructureError(f"matrix must be {n}x{n}")
            columns = [{k: row[i] for k, row in enumerate(rows) if row[i]} for i in range(n)]
        kernel_scalar = field.kernel_scalar
        stored = tuple({k: v for k in sorted(c) if (v := kernel_scalar(c[k]))} or _EMPTY for c in columns)
        # targets[i]: the coordinates of the one degree a nonzero entry of column i may land in
        coords = [d.coords for d in degs]
        targets = coords if deg.is_zero else [(d + deg).coords for d in degs]
        offending = [(k, i) for i, c in enumerate(stored) for k in c if coords[k] != targets[i]]
        if offending:
            k, i = min(offending)
            raise StructureError(f"entry ({k},{i}) breaks homogeneity of degree {deg}", indices=(k, i))
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "sparse_columns", stored)
        object.__setattr__(self, "degree", deg)

    @cached_property
    def inverse_lists(self) -> tuple:
        """For each t, the (i, c) with c the e_t coefficient of the image of e_i, i ascending; built on first read."""
        return _column_rows(self.sparse_columns)

    @cached_property
    def matrix(self) -> tuple:
        """The dense matrix, matrix[k][i] the e_k coefficient of the image of e_i, built on first read."""
        field, n = self.basis.field, self.basis.dim
        return tuple(zip(*(dense_vector(field, n, c) for c in self.sparse_columns)))

    def __hash__(self):
        # columns keep their keys in ascending order, so items() is canonical
        return hash((self.basis, tuple(tuple(c.items()) for c in self.sparse_columns), self.degree))

    def __repr__(self):
        return (
            f"{type(self).__qualname__}(basis={self.basis!r}, matrix={self.matrix!r}, "
            f"degree={self.degree!r})"
        )

    @property
    def is_even(self) -> bool:
        return self.degree.is_zero

    def column(self, i: int) -> tuple:
        return tuple(row[i] for row in self.matrix)


def make_map(basis: GradedBasis, rows, degree: GroupElement | None = None) -> GradedLinearMap:
    return GradedLinearMap(basis, tuple(tuple(r) for r in rows), degree)


def identity_map(basis: GradedBasis) -> GradedLinearMap:
    return GradedLinearMap(basis, _Columns(tuple({i: 1} for i in range(basis.dim))))


def scalar_map(basis: GradedBasis, s) -> GradedLinearMap:
    s = basis.field.coerce(s)
    return GradedLinearMap(basis, _Columns(tuple({i: s} for i in range(basis.dim))))


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
    columns = tuple(sparse_apply(m, column) for column in n.sparse_columns)
    return GradedLinearMap(m.basis, _Columns(columns), m.degree + n.degree)


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


class _Cells(NamedTuple):
    """Products as data, ((i, j), e_i * e_j) in row-major order, in place of a dense tensor."""

    cells: Iterable


@dataclass(frozen=True, init=False, repr=False)
class ColorHomAlgebra:
    """A graded algebra (A, *, eps, alpha) given by structure constants.

    ColorHomAlgebra(basis, bicharacter, structure, alpha) takes the dense
    tensor structure[i][j][k], the e_k coefficient of e_i * e_j, or _Cells,
    and checks shape and evenness cell by cell, row-major; alpha is the even
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
    eps_table: tuple = dataclasses.field(compare=False)

    def __init__(self, basis: GradedBasis, bicharacter: Bicharacter, structure, alpha: GradedLinearMap):
        cells = structure.cells if isinstance(structure, _Cells) else _tensor_cells(basis, structure)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "bicharacter", bicharacter)
        object.__setattr__(self, "product_rows", _stored_rows(basis, cells))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "eps_table", _eps_table(basis, bicharacter))

    @cached_property
    def product_index(self) -> ProductIndex:
        """The nonempty cells and alpha's nonzero entries as lists, built on first read and cached."""
        return _product_index(self.product_rows, self.alpha.inverse_lists)

    @cached_property
    def twisted_index(self) -> TwistedIndex:
        """The entries of the products e_i * alpha(e_j) and alpha(e_i) * e_j, each list built on first read and cached."""
        return _twisted_index(self.product_index, self.alpha.sparse_columns)

    @cached_property
    def structure(self) -> tuple:
        """The dense tensor structure[i][j][k], built from the rows on first read; zero cells share a tuple."""
        field, n = self.basis.field, self.basis.dim
        zero_cell = (field.zero,) * n
        return tuple(
            tuple(dense_vector(field, n, c) if c else zero_cell for c in row) for row in self.product_rows
        )

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
    """The nonzero terms of an algebra's products, and alpha's nonzero entries by row.

    by_key[m]: (i, j, c) for each cell (i, j) whose product has the term
    c e_m, row-major; alpha_rows[t]: (r, c) for each r whose image alpha(e_r)
    has the term c e_t, ascending; row_entries[i] / col_entries[j]: (j, m, c)
    / (i, m, c) for each term c e_m of e_i * e_j, the other index ascending,
    so a scan steps through a product in one flat loop.  A product outside
    these lists is zero.
    """

    by_key: tuple
    alpha_rows: tuple
    row_entries: tuple
    col_entries: tuple


class TwistedIndex(NamedTuple):
    """The entries of the twisted products, as ProductIndex lists those of the product.

    xa_row[i] / xa_col[j]: (j, m, c) / (i, m, c) for each term c e_m of
    e_i * alpha(e_j); ax_row and ax_col likewise for alpha(e_i) * e_j.  Each
    product is summed exactly as the kernel sums, unreduced over F_p, with
    its zero sums dropped, so a product outside these lists is zero, as
    sparse_product would compute it.  Each list is built on its first read
    and kept, so a scan that stops early builds the few it read; when alpha
    is the identity they are the lists of the product itself.
    """

    xa_row: object
    xa_col: object
    ax_row: object
    ax_col: object


class _Lists(dict):
    """lists[u] = build(u), built on the first read of u and kept."""

    __slots__ = ("build",)

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, u):
        self[u] = entries = self.build(u)
        return entries


def _product_index(rows: tuple, alpha_rows: tuple) -> ProductIndex:
    by_key, row_entries, col_entries = ([[] for _ in rows] for _ in range(3))
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            if cell:  # most cells are empty
                for m, c in cell.items():
                    by_key[m].append((i, j, c))
                    row_entries[i].append((j, m, c))
                    col_entries[j].append((i, m, c))
    return ProductIndex(tuple(by_key), alpha_rows, tuple(row_entries), tuple(col_entries))


def _twisted_index(index: ProductIndex, alpha_columns: tuple) -> TwistedIndex:
    """The four lists of TwistedIndex, each entry the sum of alpha's entries times the product's."""
    rows, columns, alpha_rows = index.row_entries, index.col_entries, index.alpha_rows
    if alpha_columns == tuple({t: 1} for t in range(len(rows))):  # alpha = id: the product's own lists
        return TwistedIndex(rows, columns, rows, columns)
    return TwistedIndex(
        # e_i * alpha(e_j) = the sum of alpha(e_j)_t e_i * e_t over t, and likewise
        _Lists(lambda i: _summed((j, m, a * c) for t, m, c in rows[i] for j, a in alpha_rows[t])),
        _Lists(lambda j: _summed((i, m, a * c) for t, a in alpha_columns[j].items() for i, m, c in columns[t])),
        _Lists(lambda i: _summed((j, m, a * c) for t, a in alpha_columns[i].items() for j, m, c in rows[t])),
        _Lists(lambda j: _summed((i, m, a * c) for t, m, c in columns[j] for i, a in alpha_rows[t])),
    )


def _summed(contributions) -> list:
    """The (v, m, sum of c) over the contributions (v, m, c), (v, m) ascending, zero sums dropped."""
    sums: dict = {}
    for v, m, c in contributions:
        sums[v, m] = sums.get((v, m), 0) + c
    return [(v, m, c) for (v, m), c in sorted(sums.items()) if c]


def _column_rows(columns) -> tuple:
    """The inverse lists of n sparse columns: for each t, the (r, c) with columns[r][t] = c, r ascending."""
    rows = [[] for _ in columns]
    for r, column in enumerate(columns):
        for t, c in column.items():
            rows[t].append((r, c))
    return tuple(rows)


def _tensor_cells(basis: GradedBasis, structure):
    """A dense tensor's cells, row-major over every pair; each is shape-checked and coerced when reached."""
    n, coerce = basis.dim, basis.field.coerce
    for i in range(n):
        for j in range(n):
            planes_fit = len(structure) == n and len(structure[i]) == n
            values = tuple(map(coerce, structure[i][j])) if planes_fit else ()
            if len(values) != n:
                raise StructureError(f"product tensor must be {n}x{n}x{n}")
            yield (i, j), {k: c for k, c in enumerate(values) if c}


def _stored_rows(basis: GradedBasis, cells) -> tuple:
    """The canonical rows of the products ((i, j), e_i * e_j), given row-major, validated in cell order.

    Each nonempty cell keeps its nonzero coefficients as kernel scalars, keys
    ascending; an uneven product names its first offending (i, j, k), the
    row-major first only if the cells come in that order, so a pair out of
    order or range raises StructureError.  A pair left out is an empty cell.
    """
    n = basis.dim
    kernel_scalar = basis.field.kernel_scalar
    distinct, classes = basis.degree_classes
    position = {d: p for p, d in enumerate(distinct)}
    # (class of e_i, class of e_j) -> the class of their degree sum, -1 if no
    # basis vector has it; filled only for pairs with a nonempty cell
    sum_class: dict = {}
    # rows with no nonempty cell share one tuple; a row with one is a list while it fills
    empty_row = (_EMPTY,) * n
    rows = [empty_row] * n
    last = -1
    for (i, j), c in cells:
        if not (0 <= j < n and last < i * n + j < n * n):
            raise StructureError(f"product cell ({i}, {j}) is out of row-major order or range")
        last = i * n + j
        if len(c) == 1:  # most cells: no sorting, one conversion
            [(k, v)] = c.items()
            nonzero = {k: v} if (v := kernel_scalar(v)) else None
        else:
            nonzero = {k: v for k in sorted(c) if (v := kernel_scalar(c[k]))} if c else None
        if not nonzero:
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
        if rows[i] is empty_row:
            rows[i] = [_EMPTY] * n
        rows[i][j] = nonzero
    for i, row in enumerate(rows):
        rows[i] = tuple(row)
    return tuple(rows)


def _eps_table(basis: GradedBasis, b: Bicharacter) -> tuple:
    """eps for every pair of basis indices, as kernel scalars.

    One evaluation per pair of distinct degrees; indices of equal degree
    share one row tuple.
    """
    field, (distinct, classes) = basis.field, basis.degree_classes
    rows = [
        tuple(values[q] for q in classes)
        for values in (
            [field.kernel_scalar(bicharacter_eval(b, d, e)) for e in distinct] for d in distinct
        )
    ]
    return tuple(rows[p] for p in classes)


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
    _require_bicharacter(bichar)
    algebra = ColorHomAlgebra(basis, bichar, structure, alpha)
    _require_even_endo(basis, alpha, "alpha")
    return algebra


def _require_even_endo(basis: GradedBasis, f: GradedLinearMap, role: str):
    """The one guard for "f is an even map on this basis"; role names f in the message."""
    if f.basis != basis:
        raise StructureError(f"{role} lives on a different basis")
    if not f.is_even:
        raise StructureError(f"{role} must be even (degree 0)")


def _algebra_from_cells(basis: GradedBasis, bicharacter: Bicharacter, cells, alpha: GradedLinearMap) -> ColorHomAlgebra:
    """make_algebra on the products as data, ((i, j), e_i * e_j) with sparse vectors.

    The one way an algebra is built from computed products: the cells come
    row-major over the pairs that can be nonzero, so a producer costs its
    nonempty cells, not n^2 calls, and make_algebra validates them and
    stores them as the algebra's rows, with no dense tensor in between.
    """
    return make_algebra(basis, bicharacter, _Cells(cells), alpha)


def _algebra_like(a: ColorHomAlgebra, cells) -> ColorHomAlgebra:
    """_algebra_from_cells on a's basis, bicharacter and alpha, reusing them and a's eps_table; each cell is still checked."""
    out, rows = object.__new__(ColorHomAlgebra), _stored_rows(a.basis, cells)
    for field, value in zip(dataclasses.fields(out), (a.basis, a.bicharacter, rows, a.alpha, a.eps_table)):
        object.__setattr__(out, field.name, value)
    return out


def _cells(a: ColorHomAlgebra):
    """The nonempty cells of a, ((i, j), e_i * e_j), in row-major order."""
    return (((i, j), cell) for i, row in enumerate(a.product_rows) for j, cell in enumerate(row) if cell)


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
    from .checks import _product_algebra  # here, as checks imports core

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

"""The declared products as they were built before the one-pass builder, kept as a test oracle.

A product's slices were grouped into cells ((i, j), {m: value}), zeros
dropped, row-major (cells_of); the cells were converted, sorted and checked
for evenness again by core._stored_rows, on the parent's basis,
bicharacter, alpha and eps table, or by make_algebra with a new alpha; and
core._product_index listed the stored rows.  A twisted product x*alpha(y)
or alpha(x)*y filled dense rows from its cells, unreduced over F_p, and
listed them the same way.  checks._product_table makes the rows in one
pass over the same slices, so equal rows, indexes and errors pin it down.
"""

from colorhom import checks, core


def cells_of(scan_slice, n: int):
    """The nonempty cells ((i, j), {m: value}) of a product's slices, zeros dropped, row-major."""
    for i in range(n):
        row: dict = {}
        for key, v in scan_slice(i).items():
            if v:
                row.setdefault(key // n, {})[key % n] = v
        yield from (((i, j), row[j]) for j in sorted(row))


def product_algebra(name, a, f=None, alpha=None):
    """checks._product_algebra by the cells: _stored_rows on a's parts, or _algebra_from_cells with a new alpha."""
    checks._require_dim(a, f)
    cells = cells_of(checks._slice(name)(a, a, f), a.dim)
    if alpha is not None:
        return core._algebra_from_cells(a.basis, a.bicharacter, cells, alpha)
    out = object.__new__(core.ColorHomAlgebra)
    vars(out).update(basis=a.basis, bicharacter=a.bicharacter, product_rows=core._stored_rows(a.basis, cells),
                     alpha=a.alpha, eps_table=a.eps_table)
    return out


def product_index(a) -> core.ProductIndex:
    """The index of a's stored rows, listed from them."""
    return core._product_index(a.product_rows)


def twisted(a, name) -> core.ProductIndex:
    """checks._twisted by dense rows: a's own index when alpha is the identity."""
    n = a.dim
    if all(len(c) == 1 and c.get(t) == 1 for t, c in enumerate(a.alpha.sparse_columns)):
        return product_index(a)
    rows = [[{}] * n for _ in range(n)]
    for (i, j), cell in cells_of(checks._slice(name)(a, a, a.alpha), n):
        rows[i][j] = cell if len(cell) == 1 else dict(sorted(cell.items()))
    return core._product_index(rows)

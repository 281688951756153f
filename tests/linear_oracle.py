"""The linear solving of search_maps as it stood before the scattered equations, kept as a test oracle.

solve_linear_part builds one unit map E_(k,m) per even position, runs
condition_residual on it over every tuple, and reduces the dense
coefficient rows by the Gauss-Jordan below.  gauss_jordan also gives the
rank and, for a square matrix of full rank, the inverse, so matrix_rank and
invert_map are compared with it too.  It shares no code with the sparse
elimination in core or the scatter in search: the RREF of a row space is
unique, so equal answers pin both down.
"""

from itertools import product as iproduct

from colorhom import checks
from colorhom.core import GradedLinearMap, make_map, sparse_sub


def _every_tuple(a, arity):
    return iproduct(range(a.dim), repeat=arity)


def condition_residual(a, f, names, weight=0, form=None) -> dict:
    """left - right of the named conditions on (a, a, f) at every tuple.

    Returns {(name, indices, key): field element}, zeros dropped: the sides
    compiled per tuple (checks._compiled) at each tuple of the condition's
    arity.  On the unit maps it gives the equations search._linear_equations
    reads off the slices.
    """
    s = checks._Scope(a, a, f, {}, a.field.kernel_scalar(weight), form)
    coerce = a.field.coerce
    out = {}
    for name in names:
        sides = checks._compiled(name)(*s)
        for idx in _every_tuple(a, checks._CONDITIONS[name][0]):
            for key, value in sparse_sub(*sides(*idx)).items():
                if value := coerce(value):
                    out[name, idx, key] = value
    return out


def gauss_jordan(field, rows):
    """Exact dense Gauss-Jordan on field elements: (rank, inverse or None, reduced rows, pivot columns).

    reduced holds the rank nonzero rows of the RREF; reduced[r] has 1 in
    column pivots[r] and 0 in every other pivot column.  The inverse is
    computed only for square input of full rank.
    """
    n = len(rows)
    m = [[field.coerce(v) for v in r] for r in rows]
    square = all(len(r) == n for r in m)
    one, zero = field.one, field.zero
    aug = [[one if i == j else zero for j in range(n)] for i in range(n)] if square else None
    rank, pivots = 0, []
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, n) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        if aug is not None:
            aug[rank], aug[pivot] = aug[pivot], aug[rank]
        inv = one / m[rank][col]
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


def dense_inverse(m: GradedLinearMap):
    """The inverse of an even map by dense Gauss-Jordan, or None when it is singular."""
    inverse = gauss_jordan(m.basis.field, m.matrix)[1]
    return None if inverse is None else make_map(m.basis, inverse)


def unit_maps(a, positions):
    """E_(k,m) for each position (k, m): the even map sending e_m to e_k and every other basis vector to 0."""
    zero, one = a.field.zero, a.field.one
    units = []
    for k, m in positions:
        rows = [[zero] * a.dim for _ in range(a.dim)]
        rows[k][m] = one
        units.append(make_map(a.basis, rows))
    return units


def solve_linear_part(a, linear, positions, form=None, weight=0):
    """(free, pivots) as search._solve_linear_part returns them, from the residuals on the unit maps."""
    count = len(positions)
    if not linear:
        return list(range(count)), []
    field = a.field
    zero = field.zero
    options = {"weight": weight} if form is None else {"weight": weight, "form": form}
    # one equation per (condition, tuple, output key): the residual's
    # coefficient there is linear in the entries, read off the unit maps
    equations = {}
    for var, unit in enumerate(unit_maps(a, positions)):
        for key, c in condition_residual(a, unit, linear, **options).items():
            equations.setdefault(key, {})[var] = c
    rows = dict.fromkeys(tuple(e.get(v, zero) for v in range(count)) for e in equations.values())
    _, _, reduced, pivot_columns = gauss_jordan(field, list(rows))
    fixed = set(pivot_columns)
    free = [v for v in range(count) if v not in fixed]
    pivots = [(p, [(f, -row[f]) for f in free if row[f]]) for p, row in zip(pivot_columns, reduced)]
    return free, pivots

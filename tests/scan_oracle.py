"""Full-tuple scans, kept as a test oracle for the support-driven ones.

These loops visit every basis tuple in lexicographic order and evaluate
each identity through its own hand-written sides function, the way the
scans ran before they enumerated only the support of an identity's terms
and summed its declared terms.  A support-driven scan that skipped a
failing tuple, or a term list that disagreed with the identity, would give
a different verdict or witness.
"""

from itertools import product as iproduct

from colorhom import checks, core
from colorhom.checks import IDENTITIES_BY_CHECK, PASS
from colorhom.core import sparse_add, sparse_apply, sparse_product, sparse_scale, sparse_sub

# ---------------------------------------------------------------------------
# two-sided identity evaluators on homogeneous arguments
#
# Each takes (algebra, eps, keys, vectors): vectors[s] is a sparse vector and
# eps[keys[s]][keys[t]] the bicharacter on the degrees of slots s and t.
# Each returns (left, right) as sparse vectors.


def _mul(a, x, y):
    return sparse_product(a, x, y)


def _al(a, x):
    return sparse_apply(a.alpha, x)


def _bracket(a, e, x, y):
    # x*y - e y*x with e = eps(x, y), formed from a's own product
    return sparse_sub(_mul(a, x, y), sparse_scale(e, _mul(a, y, x)))


def _sides_epsilon_commutativity(a, eps, keys, vecs):
    (dx, dy), (x, y) = keys, vecs
    return _mul(a, x, y), sparse_scale(eps[dx][dy], _mul(a, y, x))


def _sides_hom_associativity(a, eps, keys, vecs):
    x, y, z = vecs
    return _mul(a, _al(a, x), _mul(a, y, z)), _mul(a, _mul(a, x, y), _al(a, z))


def _sides_right_commutativity(a, eps, keys, vecs):
    (dx, dy, dz), (x, y, z) = keys, vecs
    left = _mul(a, _mul(a, x, y), _al(a, z))
    right = sparse_scale(eps[dy][dz], _mul(a, _mul(a, x, z), _al(a, y)))
    return left, right


def _sides_left_symmetry(a, eps, keys, vecs):
    (dx, dy, dz), (x, y, z) = keys, vecs
    left = sparse_sub(_mul(a, _mul(a, x, y), _al(a, z)), _mul(a, _al(a, x), _mul(a, y, z)))
    assoc_yx = sparse_sub(
        _mul(a, _mul(a, y, x), _al(a, z)), _mul(a, _al(a, y), _mul(a, x, z))
    )
    return left, sparse_scale(eps[dx][dy], assoc_yx)


def _sides_skew_symmetry(a, eps, keys, vecs):
    (dx, dy), (x, y) = keys, vecs
    return _mul(a, x, y), sparse_scale(-eps[dx][dy], _mul(a, y, x))


def _sides_hom_jacobi(a, eps, keys, vecs):
    (dx, dy, dz), (x, y, z) = keys, vecs
    acc = sparse_scale(eps[dz][dx], _mul(a, _al(a, x), _mul(a, y, z)))
    acc = sparse_add(acc, sparse_scale(eps[dx][dy], _mul(a, _al(a, y), _mul(a, z, x))))
    acc = sparse_add(acc, sparse_scale(eps[dy][dz], _mul(a, _al(a, z), _mul(a, x, y))))
    return acc, {}


def _sides_cyclic_right_products(a, eps, keys, vecs):
    (dx, dy, dz), (x, y, z) = keys, vecs
    acc = sparse_scale(eps[dz][dx], _mul(a, _bracket(a, eps[dx][dy], x, y), _al(a, z)))
    acc = sparse_add(
        acc, sparse_scale(eps[dx][dy], _mul(a, _bracket(a, eps[dy][dz], y, z), _al(a, x)))
    )
    acc = sparse_add(
        acc, sparse_scale(eps[dy][dz], _mul(a, _bracket(a, eps[dz][dx], z, x), _al(a, y)))
    )
    return acc, {}


def _sides_cyclic_left_products(a, eps, keys, vecs):
    (dx, dy, dz), (x, y, z) = keys, vecs
    acc = sparse_scale(eps[dz][dx], _mul(a, _al(a, x), _bracket(a, eps[dy][dz], y, z)))
    acc = sparse_add(
        acc, sparse_scale(eps[dx][dy], _mul(a, _al(a, y), _bracket(a, eps[dz][dx], z, x)))
    )
    acc = sparse_add(
        acc, sparse_scale(eps[dy][dz], _mul(a, _al(a, z), _bracket(a, eps[dx][dy], x, y)))
    )
    return acc, {}


SIDES = {
    "epsilon-commutativity": (2, _sides_epsilon_commutativity),
    "hom-associativity": (3, _sides_hom_associativity),
    "right-commutativity": (3, _sides_right_commutativity),
    "left-symmetry": (3, _sides_left_symmetry),
    "skew-symmetry": (2, _sides_skew_symmetry),
    "hom-jacobi": (3, _sides_hom_jacobi),
    "cyclic-right-products": (3, _sides_cyclic_right_products),
    "cyclic-left-products": (3, _sides_cyclic_left_products),
}


# ---------------------------------------------------------------------------
# scans


def unit_vectors(a):
    """The basis vectors of a as sparse vectors."""
    return [{i: 1} for i in range(a.dim)]


def first_failure(a, arity, conditions):
    """The first failing (name, sides) condition over all of range(dim)**arity."""
    p = a.field.p
    for idx in iproduct(range(a.dim), repeat=arity):
        for name, sides in conditions:
            left, right = sides(*idx)
            if left != right and (p is None or checks._reduced(left, p) != checks._reduced(right, p)):
                return checks._fail(name, idx, checks._dense(a, left), checks._dense(a, right))
    return PASS


def scan(a, name):
    arity, sides = SIDES[name]
    eps, units = a.eps_table, unit_vectors(a)
    return first_failure(
        a, arity, [(name, lambda *idx: sides(a, eps, idx, tuple(units[i] for i in idx)))]
    )


def scan_check(a, check):
    for name in IDENTITIES_BY_CHECK[check]:
        v = scan(a, name)
        if not v:
            return v
    return PASS


def bracket_operator_conditions(l, f):
    """check_bracket_operator_conditions with both conditions scanned over every triple."""
    core._require_even_endo(l.basis, f, "operator")
    v = checks.commutes_with_twist(l, f)
    if not v:
        return v
    n = l.dim
    fc, ac, units, eps = f.sparse_columns, l.alpha.sparse_columns, unit_vectors(l), l.eps_table
    fx_y = [[sparse_product(l, fc[i], units[j]) for j in range(n)] for i in range(n)]
    defect = [
        [
            sparse_sub(
                sparse_apply(f, sparse_add(fx_y[i][j], sparse_product(l, units[i], fc[j]))),
                sparse_product(l, fc[i], fc[j]),
            )
            for j in range(n)
        ]
        for i in range(n)
    ]
    v = first_failure(
        l, 3, [("defect-centrality", lambda i, j, k: (sparse_product(l, defect[i][j], ac[k]), {}))]
    )
    if not v:
        return v
    g = [[sparse_apply(f, c) for c in row] for row in fx_y]

    def operator_right_commutativity(i, j, k):
        left = sparse_product(l, g[i][j], ac[k])
        return left, sparse_scale(eps[j][k], sparse_product(l, g[i][k], ac[j]))

    return first_failure(l, 3, [("operator-right-commutativity", operator_right_commutativity)])

"""The per-tuple route of the operator predicates and quadratic clauses, kept as a test oracle.

Before each declared condition was compiled into slices, a condition group
called its sides (checks._compiled, the per-tuple evaluator) at every tuple
of its arity in lexicographic order, z-major for invariance, running all
its conditions at each tuple; in_alpha_center and defect-centrality were
hand-written loops.  These functions keep that route, so a slice that
skipped a failing tuple, read a wrong list or forgot a reduction would give
a different verdict or witness.
"""

from itertools import product as iproduct

from colorhom import checks, core
from colorhom.checks import PASS, PREDICATE_CONDITIONS
from colorhom.core import dense_vector, sparse_add, sparse_apply, sparse_product, sparse_sub


def first_failure(a, tuples, conditions, width=None):
    """The first (name, sides) condition failing at a tuple, the tuples taken in the order given."""
    field = a.field
    p, width = field.p, width or a.dim
    for idx in tuples:
        for name, sides in conditions:
            left, right = sides(*idx)
            if left != right and (p is None or checks._reduced(left, p) != checks._reduced(right, p)):
                return checks._fail(name, idx, dense_vector(field, width, left), dense_vector(field, width, right))
    return PASS


def holds(source, target, f, groups, side="both", weight=0, form=None):
    """Each group's conditions at every tuple of its arity, in order; the first failure wins."""
    s = checks._Scope(target, source, f, {}, weight, form)
    for group in checks._groups(groups, side):
        arity, left, _ = checks._CONDITIONS[group[0]]
        n = source.dim
        tuples = iproduct(range(n), repeat=arity)
        if group == ("invariance",):
            # z-major: for a fixed z the clause pairs off products against it
            tuples = ((i, j, k) for k, j, i in iproduct(range(n), repeat=3))
        width = 1 if type(left[0][2]) is checks.B else None
        v = first_failure(source, tuples, [(name, checks._compiled(name)(*s)) for name in group], width)
        if not v:
            return v
    return PASS


def predicate(name, a, f, side="both", weight=0, form=None):
    """The named one-map predicate of checks.PREDICATE_CONDITIONS on (a, f), argument guards left out."""
    if name == "bracket_operator_conditions":
        return bracket_operator_conditions(a, f)
    if name == "symmetric_automorphism":
        return symmetric_automorphism(a, form, f)
    return holds(a, a, f, PREDICATE_CONDITIONS[name], side, a.field.kernel_scalar(weight), form)


def in_alpha_center(l, x):
    xs, ac = core.sparse_vector(l.field, x), l.alpha.sparse_columns
    center = [("alpha-center", lambda j: (sparse_product(l, xs, ac[j]), {}))]
    return bool(first_failure(l, iproduct(range(l.dim), repeat=1), center))


def bracket_operator_conditions(l, f):
    v = holds(l, l, f, (("twist-commutation",),))
    if not v:
        return v
    fc, ac, n = f.sparse_columns, l.alpha.sparse_columns, l.dim
    defect = {}
    for i, j in iproduct(range(n), repeat=2):
        inner = sparse_add(sparse_product(l, fc[i], {j: 1}), sparse_product(l, {i: 1}, fc[j]))
        defect[i, j] = sparse_sub(sparse_apply(f, inner), sparse_product(l, fc[i], fc[j]))
    # both sides vanish where the defect of (i, j) is empty
    nonzero = ((i, j, k) for i, j in iproduct(range(n), repeat=2) if defect[i, j] for k in range(n))
    v = first_failure(l, nonzero, [("defect-centrality", lambda i, j, k: (sparse_product(l, defect[i, j], ac[k]), {}))])
    if not v:
        return v
    v = checks._scan(checks._product_algebra("image-times", l, f), "right-commutativity")
    if v:
        return v
    _, *rest = (getattr(v.witness, name) for name in checks.Witness.__match_args__)
    return checks.Verdict(False, checks.Witness("operator-right-commutativity", *rest))


def quadratic_structure(a, form):
    v = holds(a, a, None, (("epsilon-symmetry",),), form=form)
    if not v:
        return v
    det, rank = core.determinant(a.field, form.gram), core.matrix_rank(a.field, form.gram)
    assert (det != 0) == (rank == a.dim)
    if det == 0:
        return checks._fail("nondegeneracy", (), None, None)
    return holds(a, a, form.companion, (("invariance",), ("twist-b-symmetry",)), form=form)


def symmetric_automorphism(a, form, phi):
    if core.matrix_rank(a.field, phi.matrix) != a.dim:
        return checks._fail("invertibility", (), None, None)
    return holds(a, a, phi, PREDICATE_CONDITIONS["symmetric_automorphism"], form=form)

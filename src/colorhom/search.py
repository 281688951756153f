"""search_maps: the even maps a named predicate accepts, found by one deterministic walk.

The predicate's linear part is solved (linear_conditions, _solve_linear_part),
its other conditions visited as the walk sets columns (search_instances), and
one _Search object holds the walk's state.  catalog.search_maps and
checks.linear_conditions and search_instances resolve here on first use.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product as iproduct

from .checks import _CONDITIONS, PREDICATE_CONDITIONS, F, _evaluator, _groups, _Images, _Scope, _slice
from .core import ColorHomAlgebra, GradedLinearMap, _Columns, _column_rows
from .errors import StructureError
from .linalg import _row_reduce
from .operations import CHECK, OPERATIONS, OPTIONAL_ARGUMENTS

__all__ = ["search_maps", "linear_conditions", "search_instances"]


def search_maps(a: ColorHomAlgebra, predicate: str, *, budget: int = 10000, values=None,
                form: BilinearFormStructure | None = None, weight=None, side: str = "both") -> list:
    """Deterministic backtracking search for even maps satisfying a named predicate.

    The predicate is any check in OPERATIONS that takes exactly one map;
    form, weight and side supply its other arguments, and giving one it does
    not take is a StructureError.  The answer is every matrix supported on
    the even positions (deg e_k = deg e_i), with each entry in a small value
    set (default -1, 0, 1, 2), that satisfies the predicate.

    The predicate's linear part (linear_conditions: its declared
    conditions of degree 1 in the map) is solved exactly, its equations
    scattered from the nonzero contributions of each term and reduced by
    one sparse elimination, which leaves some entries free and fixes the
    rest; numbered latest column first, a fixed entry reads free entries of
    its own column or earlier ones.  A depth-first search sets the columns
    f(e_0), f(e_1), ... in turn: column i branches over the values of its
    free entries, fills its fixed entries and is set, all at branch i; a
    fixed entry outside the values abandons the branch.  Every other
    declared condition reads f(x_0) first (search_instances):
    setting column k visits it at each tuple with x_0 = e_k, and a tuple
    that reads another unset column waits on it.  A tuple that reads one
    unset column, and only through terms f(y) at the top of a side with y
    not reading it, is affine in the column and forces it: the column is
    set without branching, or the branch is abandoned when it leaves the
    values or the even positions.  Every complete candidate is re-checked
    by the predicate itself.

    budget bounds the leaves of the search tree, complete candidates plus
    abandoned partial assignments, which never outnumber len(values) **
    (free entries); at the bound the search stops and returns the hits found
    so far, the same on every run.  budget must be an int (not a bool).
    Hits come back sorted by their row-major matrix entries, each read as the
    (numerator, denominator) of its kernel scalar.
    """
    op = OPERATIONS.get(predicate)
    if op is None or op.kind != CHECK or op.takes.count("map") != 1:
        raise StructureError(f"unknown search predicate {predicate!r}")
    if type(budget) is not int:
        raise StructureError(f"search budget must be an integer, got {budget!r}")
    passed = {"form": form is not None, "weight": weight is not None, "side": side != "both"}
    for arg, is_passed in passed.items():
        if is_passed and arg not in op.takes:
            raise StructureError(f"{predicate} search takes no {arg}")
    given = {**OPTIONAL_ARGUMENTS, "form": form, "side": side}
    if weight is not None:
        given["weight"] = weight
    for arg in op.takes:
        if arg != "map" and given.get(arg) is None:
            raise StructureError(f"{predicate} search needs {arg}=...")
    # distinct kernel scalars in first-seen order; canon maps a solved entry to
    # its value, also a Fraction equal to an int, since equal numbers hash alike
    canon = {v: v for v in map(a.field.kernel_scalar, (-1, 0, 1, 2) if values is None else values)}
    if not canon:
        return []
    search = _Search(a, predicate, op, given, canon, budget)
    search.descend(0)
    # every entry off the even positions is zero: this is the order of the hits' matrices
    search.hits.sort(key=lambda hit: [(v.numerator, v.denominator) for v in hit[0]])
    return [m for _, m in search.hits]


class _Search:
    """A search's state, set up from search_maps's arguments; its methods are the steps of its walk."""

    def __init__(self, a: ColorHomAlgebra, predicate: str, op, given: dict, canon: dict, budget: int):
        field, n, classes = a.field, a.dim, a.basis.degree_classes[1]
        rows = [[k for k in range(n) if classes[k] == classes[i]] for i in range(n)]
        # the latest column first: each equation's pivot is its entry in its latest
        # column, so a fixed entry reads free entries of its own column or earlier ones
        positions = [(k, i) for i in reversed(range(n)) for k in rows[i]]
        check = op.resolve()
        self.accepts = lambda m: check(a, *[m if arg == "map" else given[arg] for arg in op.takes])
        # the zero map meets every linear condition: the predicate on it checks
        # the other arguments before any system is built
        self.accepts(GradedLinearMap(a.basis, _Columns(tuple({} for _ in range(n)))))
        free, pivots = _solve_linear_part(a, linear_conditions(predicate, given["side"]), positions, given["form"])
        # column i branches over its free rows, then fills its fixed entries:
        # fixed[i] holds (row, [(row, column, kernel coefficient)]) for each
        self.branching, self.fixed = [[] for _ in range(n)], [[] for _ in range(n)]
        for p in free:
            k, i = positions[p]
            self.branching[i].append(k)
        for p, terms in pivots:
            k, i = positions[p]
            self.fixed[i].append((k, [(*positions[q], c) for q, c in terms]))
        # columns: the sparse kernel column of each set column (reading an unset one
        # raises KeyError); waiting[k]: what the branch filed to visit once column k
        # is set; log: how to undo each change to columns and waiting, in order
        self.columns, self.waiting, self.log = {}, [[] for _ in range(n)], []
        kept = search_instances(predicate, given["side"], a, self.columns, field.kernel_scalar(given["weight"]), given["form"])
        self.conditions = [(sides, tuple(iproduct(range(n), repeat=arity - 1))) for sides, arity in kept]
        self.reduce = (lambda x: x % field.p) if field.characteristic else (lambda x: x)
        self.inverse = cache(lambda c: pow(c, -1, field.p) if field.characteristic else field.kernel_scalar(Fraction(1, c)))
        self.basis, self.n, self.rows, self.row_major, self.budget = a.basis, n, rows, sorted(positions), budget
        self.canon, self.values, self.hits, self.leaves = canon, tuple(canon), [], 0

    def wait(self, sides, idx, *ks) -> bool:
        for k in ks:
            self.waiting[k].append((sides, idx))
            self.log.append(self.waiting[k].pop)
        return True

    def set_column(self, k, column) -> bool:
        """Set column k and visit each condition at x_0 = e_k, then what waits on k; False on a failure."""
        columns, visit = self.columns, self.visit
        columns[k] = column
        self.log.append(columns.popitem)  # columns are set and unset last in, first out
        for sides, tails in self.conditions:
            for tail in tails:
                if not visit(sides, (k, *tail)):
                    return False
        for sides, idx in self.waiting[k]:
            if not visit(sides, idx):
                return False
        return True

    def visit(self, sides, idx) -> bool:
        """Check the tuple, force the one unset column it reads, or file it to wait; False on a failure."""
        try:
            rest, *top = sides(*idx)
        except KeyError as unset:  # only columns is a dict the sides index
            return self.wait(sides, idx, unset.args[0])
        columns, reduce = self.columns, self.reduce
        # left - right = r + the sum over unset k of slope[k] f(e_k)
        r, slope = dict(rest), {}
        for y in top:
            for j, c in y.items():
                if j not in columns:
                    slope[j] = slope.get(j, 0) + c
                else:
                    for t, x in columns[j].items():
                        r[t] = r.get(t, 0) + c * x
        unset = list(slope)
        if len(unset) > 1:
            # two watches: all but one of these columns are set only once one of the two is
            return self.wait(sides, idx, *unset[:2])
        if unset and (g := reduce(slope[unset[0]])):
            k, scale, column, canon = unset[0], self.inverse(-g), {}, self.canon
            for t in self.rows[k]:
                v = canon.get(reduce(r.pop(t, 0) * scale))
                if v is None:
                    return False
                if v:
                    column[t] = v
            # what is left of r lies off the even positions
            return not any(map(reduce, r.values())) and self.set_column(k, column)
        return not any(map(reduce, r.values()))

    def settle(self, i, column) -> bool:
        """Fill column i's fixed entries from it and the columns before it, then set it; False on a failure."""
        columns, canon, reduce = self.columns, self.canon, self.reduce
        for k, terms in self.fixed[i]:
            v = canon.get(reduce(sum(c * (column if j == i else columns[j]).get(t, 0) for t, j, c in terms)))
            if v is None:
                return False
            if v:
                column[k] = v
        return self.set_column(i, column)

    def descend(self, i):
        columns, n = self.columns, self.n
        if i == n:
            self.leaves += 1
            m = GradedLinearMap(self.basis, _Columns(tuple(columns[j] for j in range(n))))
            if self.accepts(m):
                self.hits.append((tuple(columns[j].get(k, 0) for k, j in self.row_major), m))
            return
        if i in columns:  # forced
            return self.descend(i + 1)
        branching, log = self.branching[i], self.log
        for vals in iproduct(self.values, repeat=len(branching)):
            if self.leaves >= self.budget:
                return
            mark = len(log)
            if self.settle(i, {k: v for k, v in zip(branching, vals) if v}):
                self.descend(i + 1)
            else:
                self.leaves += 1
            while len(log) > mark:
                log.pop()()


def _f_degree(node) -> int:
    """The number of F nodes in a term."""
    return 0 if type(node) is int else (type(node) is F) + sum(map(_f_degree, node))


def linear_conditions(predicate: str, side: str = "both") -> tuple:
    """The predicate's linear part: the conditions side keeps whose terms all have degree 1 in f."""
    if predicate not in PREDICATE_CONDITIONS:
        raise StructureError(f"unknown predicate {predicate!r}")
    return tuple(
        name for group in _groups(PREDICATE_CONDITIONS[predicate], side) for name in group
        if all(_f_degree(node) == 1 for terms in _CONDITIONS[name][1:] for _, _, node in terms)
    )


def _linear_equations(a: ColorHomAlgebra, names, positions, form=None) -> list:
    """The equations the named linear conditions put on the entries of an even map, as sparse rows.

    Variable v is the entry at positions[v] = (k, m), the e_k coefficient of
    f(e_m).  The slices run with v in each key (_slice(name, True)) on the
    map whose entry there is v, so a key codes a tuple, an output key and
    the variable: each (tuple, output key) is one row, unreduced (over F_p a
    value may be a multiple of p, which the elimination drops).  No map is
    built and no side is evaluated.
    """
    n, rows, columns = a.dim, {}, [{} for _ in range(a.dim)]
    for v, (k, m) in enumerate(positions):
        columns[m][k] = v
    entries = _Images(tuple(columns), _column_rows(columns), a.group.zero())
    for name in names:
        scan_slice = _slice(name, True)(*_Scope(a, a, entries, {}, 0, form))
        for i in range(n):
            for key, value in scan_slice(i).items():
                rows.setdefault((name, i, key // (n * n)), {})[key % (n * n)] = value
    return list(rows.values())


def _split(name: str) -> tuple:
    """A condition's left - right less its terms f(y) at the top, and (sign, factors, y) for each, signed likewise."""
    _, left, right = _CONDITIONS[name]
    signed = [*left, *((-s, c, t) for s, c, t in right)]
    return [t for t in signed if type(t[2]) is not F], [(s, c, t.x) for s, c, t in signed if type(t) is F]


@cache
def _forcing(name: str):
    """A condition's rest and the y of each top term f(y) (_split), compiled once: a function of a scope's fields."""
    rest, top = _split(name)
    return _evaluator(_CONDITIONS[name][0], rest, *([term] for term in top))


def search_instances(predicate: str, side: str, a: ColorHomAlgebra, columns, weight=0, form=None) -> list:
    """(sides, arity) for each condition side keeps beyond the predicate's linear part, in order, on (a, a, f).

    f is the even map with the given columns, only ever indexed: a search
    passes the columns it has set and learns which unset one a tuple reads
    from what indexing raises.  Every such condition reads f(x_0) before any
    other column, so a search visits its tuples with x_0 = e_k once column k
    is set.  sides(*idx) is (rest, y_1, ..., y_m), left - right = rest +
    f(y_1) + ... + f(y_m): each term f(y) at the top of a side is kept
    unapplied, its coefficient in y.  weight is a kernel scalar.
    """
    linear = linear_conditions(predicate, side)
    scope = _Scope(a, a, _Images(columns, None, a.group.zero()), {}, weight, form)
    names = [name for group in _groups(PREDICATE_CONDITIONS[predicate], side) for name in group if name not in linear]
    return [(_forcing(name)(*scope), _CONDITIONS[name][0]) for name in names]


def _solve_linear_part(a: ColorHomAlgebra, linear, positions, form) -> tuple:
    """The solutions of the linear conditions, over maps on the given positions.

    Returns (free, pivots): free lists the positions left free, ascending;
    pivots lists (position, terms) for each fixed one, where the entry at
    position is the sum of c times the entry at q over (q, c) in terms, each
    q free and each c a kernel scalar (field.kernel_scalar), as search_maps
    multiplies them.  With no linear condition every position is free.
    """
    field = a.field
    reduced, pivot_columns = _row_reduce(field, _linear_equations(a, linear, positions, form))
    fixed = set(pivot_columns)
    free = [v for v in range(len(positions)) if v not in fixed]
    return free, [(p, [(f, field.kernel_scalar(-row[f])) for f in free if f in row]) for p, row in zip(pivot_columns, reduced)]

"""search_maps: the even maps a named predicate accepts, found by one deterministic walk.

The predicate's linear part is solved (linear_conditions, _solve_linear_part),
its other conditions visited as the walk sets columns (search_instances), their
sides at a tuple compiled by checks' one per-tuple generator (_forcing), and
one _Search object holds the walk's state.  The solved linear part is kept in
the algebra's instance dict (_SOLVED), as checks keep their scans there.
catalog.search_maps resolves here on first use.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product as iproduct

from .checks import _CONDITIONS, PREDICATE_CONDITIONS, F, _compiled, _groups, _Images, _kept, _Scope, _slice
from .core import _EMPTY, ColorHomAlgebra, GradedLinearMap, _column_rows
from .errors import StructureError
from .linalg import _row_reduce
from .operations import CHECK, OPERATIONS, OPTIONAL_ARGUMENTS
from .quadratic import BilinearFormStructure

__all__ = ["search_maps", "linear_conditions", "search_instances"]

# what a search keeps in an algebra's instance dict, beside checks._SCANS: each solved
# linear part laid out by column (_solved_layout), by (linear_conditions, form)
_SOLVED = "solved_linear_parts"


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
    its own column or earlier ones.  The solution is kept on a by (linear
    part, form), so a repeated search of the same algebra object, or one of
    a predicate with the same linear part, solves nothing.  A depth-first
    search sets the columns f(e_0), f(e_1), ... in turn: column i branches
    over the values of its free entries, fills its fixed entries and is set,
    all at branch i; a fixed entry outside the values abandons the branch.
    Every other declared condition reads f(x_0) first (search_instances):
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
    check, at, basis = op.resolve(), op.takes.index("map"), a.basis
    before, after = [given[arg] for arg in op.takes[:at]], [given[arg] for arg in op.takes[at + 1:]]

    def accepts(m):
        return check(a, *before, m, *after)

    # distinct kernel scalars in first-seen order; canon maps a solved entry to
    # its value, also a Fraction equal to an int, since equal numbers hash alike
    canon = {v: v for v in map(basis.field.kernel_scalar, (-1, 0, 1, 2) if values is None else values)}
    # the zero map meets every linear condition: the predicate on it checks
    # the other arguments before any system is built or any key hashed
    accepts(_even_map(basis, (_EMPTY,) * basis.dim))
    if not canon:
        return []
    search = _Search(a, predicate, given, canon, budget, accepts)
    search.descend(0)
    # every entry off the even positions is zero: this is the order of the hits' matrices
    search.hits.sort(key=lambda hit: [(v.numerator, v.denominator) for v in hit[0]])
    return [m for _, m in search.hits]


def _even_map(basis, columns: tuple) -> GradedLinearMap:
    """The even map with these canonical columns, stored unchecked, as core._algebra_of_fields restores an algebra.

    Each column must be as GradedLinearMap stores one: kernel scalars on rows
    of its column's degree, keys ascending, _EMPTY if it has no entry.  The
    walk builds its columns so, and the predicate re-checks each candidate.
    """
    out = object.__new__(GradedLinearMap)
    vars(out).update(basis=basis, sparse_columns=columns, degree=basis.group.zero(), inverse_lists=_column_rows(columns))
    return out


class _Search:
    """A search's state, set up from search_maps's arguments; its methods are the steps of its walk."""

    def __init__(self, a: ColorHomAlgebra, predicate: str, given: dict, canon: dict, budget: int, accepts):
        field, n = a.basis.field, a.basis.dim
        key = linear_conditions(predicate, given["side"]), given["form"]
        if key not in (solved := vars(a).setdefault(_SOLVED, {})):
            solved[key] = _solved_layout(a, *key)
        self.rows, self.row_major, self.branching, self.plan = solved[key]
        # columns: the sparse kernel column of each set column (reading an unset one
        # raises KeyError); waiting[k]: what the branch filed to visit once column k
        # is set; log: how to undo each change to columns and waiting, in order
        self.columns, self.waiting, self.log = {}, [[] for _ in range(n)], []
        kept = search_instances(predicate, given["side"], a, self.columns, field.kernel_scalar(given["weight"]), given["form"])
        self.conditions = [(sides, tuple(iproduct(range(n), repeat=arity - 1))) for sides, arity in kept]
        self.p, self.kernel_scalar, self.accepts = field.p, field.kernel_scalar, accepts
        self.basis, self.n, self.budget = a.basis, n, budget
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
            # left - right = r + the sum over unset k of slope[k] f(e_k)
            r, slope = sides(*idx)
        except KeyError as unset:  # only columns is a dict the sides index
            return self.wait(sides, idx, unset.args[0])
        p = self.p
        unset, column = list(slope), None
        if len(unset) > 1:
            # two watches: all but one of these columns are set only once one of the two is
            return self.wait(sides, idx, *unset[:2])
        if unset and (g := slope[unset[0]] % p if p else slope[unset[0]]):
            k, canon, column = unset[0], self.canon, {}
            scale = pow(-g, -1, p) if p else self.kernel_scalar(Fraction(-1, g))
            for t in self.rows[k]:
                v = canon.get(r.pop(t, 0) * scale % p if p else r.pop(t, 0) * scale)
                if v is None:
                    return False
                if v:
                    column[t] = v
        # with a column forced, what is left of r lies off the even positions
        if any(r.values() if p is None else map(p.__rmod__, r.values())):
            return False
        return column is None or self.set_column(k, column or _EMPTY)

    def settle(self, i, vals) -> bool:
        """Fill column i from its free entries' values and the columns before it, then set it; False on a failure.

        plan[i] holds each row of column i, ascending, with the index of its
        value in vals if the entry is free, else the (source, column, kernel
        coefficient) terms of its fixed value, source an index into vals for
        column i and a row for an earlier column.
        """
        columns, canon, p, column = self.columns, self.canon, self.p, {}
        for k, entry in self.plan[i]:
            if type(entry) is int:
                v = vals[entry]
            else:
                v = sum(c * (vals[t] if j == i else columns[j].get(t, 0)) for t, j, c in entry)
                if (v := canon.get(v % p if p else v)) is None:
                    return False
            if v:
                column[k] = v
        return self.set_column(i, column or _EMPTY)

    def descend(self, i):
        columns, n = self.columns, self.n
        if i == n:
            self.leaves += 1
            m = _even_map(self.basis, tuple(map(columns.__getitem__, range(n))))
            if self.accepts(m):
                self.hits.append((tuple(columns[j].get(k, 0) for k, j in self.row_major), m))
            return
        if i in columns:  # forced
            return self.descend(i + 1)
        log = self.log
        for vals in iproduct(self.values, repeat=self.branching[i]):
            if self.leaves >= self.budget:
                return
            mark = len(log)
            if self.settle(i, vals):
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
    return _parts(predicate, side)[0]


def _parts(predicate: str, side: str) -> tuple:
    """(linear_conditions, the names of the other conditions side keeps), in order, found once per (predicate, side)."""
    if predicate not in PREDICATE_CONDITIONS:
        raise StructureError(f"unknown predicate {predicate!r}")
    _groups((), side)  # a side that is not left, right or both raises here, before it is hashed
    return _parted(predicate, side)


@cache
def _parted(predicate: str, side: str) -> tuple:
    names = [name for group in _kept(PREDICATE_CONDITIONS[predicate], side) for name in group]
    linear = tuple(
        name for name in names if all(_f_degree(node) == 1 for terms in _CONDITIONS[name][1:] for _, _, node in terms)
    )
    return linear, tuple(name for name in names if name not in linear)


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


def _forcing(name: str):
    """A condition's sides at a basis tuple as a search visits them, (r, slope) (checks._tuple_source)."""
    return _compiled(name, False)


def search_instances(predicate: str, side: str, a: ColorHomAlgebra, columns, weight=0, form=None) -> list:
    """(sides, arity) for each condition side keeps beyond the predicate's linear part, in order, on (a, a, f).

    f is the even map with the given columns, only ever indexed: a search
    passes the columns it has set and learns which unset one a tuple reads
    from what indexing raises.  Every such condition reads f(x_0) before any
    other column, so a search visits its tuples with x_0 = e_k once column k
    is set.  sides(*idx) is (r, slope), left - right = r + the sum of
    slope[k] f(e_k) over the unset columns k, r a new dict the caller may
    change (_forcing): each term f(y) at the top of a side is applied to the
    set columns y reads and its coefficients on the unset ones kept in slope,
    each in the order y first reads it nonzero.  weight is a kernel scalar.
    """
    scope = a, a, _Images(columns, None, a.basis.group.zero()), {}, weight, form
    return [(_forcing(name)(*scope), _CONDITIONS[name][0]) for name in _parts(predicate, side)[1]]


def _solved_layout(a: ColorHomAlgebra, linear, form) -> tuple:
    """The linear part solved on a's even positions, laid out by column, as a search walks it.

    Returns (rows, row_major, branching, plan): rows[i], the rows k with
    deg e_k = deg e_i; row_major, the even positions (k, i) in row-major
    order; branching[i], the number of free entries of column i; plan[i],
    (k, entry) for each row k of column i, ascending, entry the index of the
    value among column i's free entries, ascending, or for a fixed one its
    terms (source, column, kernel coefficient), source such an index in
    column i and the row in an earlier one.  The positions are numbered
    latest column first, so each equation's pivot is its entry in its latest
    column and a fixed entry reads free entries of its own column or earlier
    ones.  Lists and tuples of ints and kernel scalars alone, kept on a under
    _SOLVED and read, never changed, by each search.
    """
    n, classes = a.dim, a.basis.degree_classes[1]
    rows = [[k for k in range(n) if classes[k] == classes[i]] for i in range(n)]
    positions = [(k, i) for i in reversed(range(n)) for k in rows[i]]
    free, pivots = _solve_linear_part(a, linear, positions, form)
    entry, branching = {}, [0] * n
    for p in free:  # ascending, so by row within a column
        i = positions[p][1]
        entry[positions[p]], branching[i] = branching[i], branching[i] + 1
    for p, terms in pivots:
        i = positions[p][1]
        entry[positions[p]] = [(entry[k, j] if j == i else k, j, c) for (k, j), c in ((positions[q], c) for q, c in terms)]
    return rows, sorted(positions), branching, [[(k, entry[k, i]) for k in rows[i]] for i in range(n)]


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

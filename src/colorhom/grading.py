"""Grading groups and skew-symmetric bicharacters.

The grading group is finitely generated abelian, presented as
Z^r x Z_{n_1} x ... x Z_{n_t}.  A bicharacter is determined by its values on
generator pairs; evaluation extends those values biadditively:
eps(a, c) = prod_{i,j} E[i][j]^(a_i * c_j).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .errors import StructureError, _Record
from .scalars import ScalarField

__all__ = [
    "GradeGroup",
    "GroupElement",
    "Bicharacter",
    "BicharacterReport",
    "make_bicharacter",
    "trivial_bicharacter",
    "validate_bicharacter",
    "bicharacter_eval",
    "EPS_MAX_BITS",
]

# Largest rational eps value, in bits of numerator or denominator, that
# bicharacter_eval will compute: free coordinates are unbounded integers,
# and a generator value like 2 raised to their product would not fit in memory.
EPS_MAX_BITS = 1 << 16


class GradeGroup(_Record):
    """Z^free_rank x Z_{n_1} x ... x Z_{n_t}, orders listed after the free part."""

    __match_args__ = ("free_rank", "torsion_orders")

    def __init__(self, free_rank: int, torsion_orders: tuple[int, ...] = ()):
        if type(free_rank) is not int or free_rank < 0:
            raise StructureError(f"bad free rank {free_rank!r}")
        torsion_orders = tuple(torsion_orders)
        vars(self).update(free_rank=free_rank, torsion_orders=torsion_orders)
        for n in torsion_orders:
            if not isinstance(n, int) or n < 2:
                raise StructureError(f"bad torsion order {n!r}")

    @property
    def ngen(self) -> int:
        return self.free_rank + len(self.torsion_orders)

    def element(self, coords) -> "GroupElement":
        return GroupElement(self, tuple(coords))

    def zero(self) -> "GroupElement":
        # one shared zero per group, made on first use; elements are immutable
        if "_zero" not in vars(self):
            object.__setattr__(self, "_zero", GroupElement(self, (0,) * self.ngen))
        return self._zero


class GroupElement(_Record):
    """Element in canonical form: torsion coordinates reduced into [0, n_i)."""

    __match_args__ = ("group", "coords")

    def __init__(self, group: GradeGroup, coords: tuple[int, ...]):
        coords = tuple(coords)
        if len(coords) != group.ngen:
            raise StructureError(
                f"element needs {group.ngen} coordinates, got {len(coords)}"
            )
        canon = []
        for i, c in enumerate(coords):
            if not isinstance(c, int):
                raise StructureError(f"coordinate {c!r} is not an integer")
            if i >= group.free_rank:
                c %= group.torsion_orders[i - group.free_rank]
            canon.append(c)
        # object.__setattr__ keeps the fields in the instance's compact storage: vars(self) would build a dict
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coords", tuple(canon))

    def __add__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        if other.group != self.group:
            raise StructureError("cannot add degrees from different groups")
        return GroupElement(
            self.group, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.group, tuple(-c for c in self.coords))

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def __str__(self):
        return "(" + ",".join(str(c) for c in self.coords) + ")"


class Bicharacter(_Record):
    """Generator value table E; entry E[i][j] is the value on (g_i, g_j).

    Construction normalizes entries into the field but does not check the
    axioms; run validate_bicharacter, or build through make_bicharacter.
    """

    __match_args__ = ("field", "group", "gen_table")

    def __init__(self, field: ScalarField, group: GradeGroup, gen_table: tuple):
        rows = tuple(tuple(field.coerce(v) for v in row) for row in gen_table)
        vars(self).update(field=field, group=group, gen_table=rows)


class BicharacterReport(_Record):
    """Outcome of validate_bicharacter: pass, or the first violated axiom.

    axiom is one of "invertibility", "skew", "torsion"; pair names the
    generator indices whose table entry witnesses the violation.
    """

    __match_args__ = ("ok", "axiom", "pair", "detail")

    def __init__(self, ok: bool, axiom: str | None = None, pair: tuple[int, int] | None = None, detail: str = ""):
        vars(self).update(ok=ok, axiom=axiom, pair=pair, detail=detail)


def validate_bicharacter(b: Bicharacter) -> BicharacterReport:
    """Check the three bicharacter axioms on the generator table.

    Biadditivity holds by construction (values are defined on generators and
    extended by exponents), so the axioms reduce to: every entry invertible;
    E[i][j] * E[j][i] = 1; and for a torsion generator of order n, every
    entry in its row and column is an n-th root of unity.
    """
    g = b.group
    n = g.ngen
    table = b.gen_table
    if len(table) != n or any(len(row) != n for row in table):
        raise StructureError(f"generator table must be {n}x{n}")
    for i, j in product(range(n), repeat=2):
        if table[i][j] == 0:
            return BicharacterReport(
                False, "invertibility", (i, j), f"E[{i}][{j}] = 0"
            )
    for i, j in product(range(n), repeat=2):
        if table[i][j] * table[j][i] != b.field.one:
            return BicharacterReport(
                False,
                "skew",
                (i, j),
                f"E[{i}][{j}]*E[{j}][{i}] = "
                f"{b.field.format(table[i][j] * table[j][i])} != 1",
            )
    # by the skew axiom E[j][i] = E[i][j]^-1, a root of unity exactly when
    # E[i][j] is one, so checking a torsion generator's row covers its column
    for t, order in enumerate(g.torsion_orders):
        i = g.free_rank + t
        for j in range(n):
            if not _root_of_unity(table[i][j], order, b.field.one):
                return BicharacterReport(
                    False, "torsion", (i, j),
                    f"E[{i}][{j}] has no order dividing {order}",
                )
    return BicharacterReport(True)


def _root_of_unity(v, order: int, one) -> bool:
    # the only rational roots of unity are +-1; v ** order is never formed for
    # other rationals, since the order can be huge
    if isinstance(v, Fraction) and abs(v) != 1:
        return False
    return v ** order == one


def make_bicharacter(field: ScalarField, group: GradeGroup, rows) -> Bicharacter:
    """Build and validate; raises StructureError on any axiom violation."""
    return _require_bicharacter(Bicharacter(field, group, tuple(tuple(r) for r in rows)))


def _require_bicharacter(b: Bicharacter) -> Bicharacter:
    """The one guard for "b passes its axioms": b, or StructureError naming the first violation; a pass is kept on b."""
    if not _validated(b):
        report = validate_bicharacter(b)
        if not report.ok:
            raise StructureError(
                f"bicharacter axiom '{report.axiom}' fails at generator pair {report.pair}: {report.detail}"
            )
        vars(b)["valid"] = True
    return b


def _validated(b: Bicharacter) -> bool:
    """Whether b has passed _require_bicharacter."""
    return "valid" in vars(b)


def trivial_bicharacter(field: ScalarField, group: GradeGroup) -> Bicharacter:
    one = field.one
    n = group.ngen
    return Bicharacter(field, group, tuple((one,) * n for _ in range(n)))


def bicharacter_eval(b: Bicharacter, a: GroupElement, c: GroupElement):
    """eps(a, c) by square-and-multiply on generator values.

    Pre: b passed validation and a, c are canonical elements of b.group.
    Torsion lets exponents reduce mod the generator order, and prime-field
    powers reduce mod p, so those stay cheap for coordinates of any size.
    A rational value other than +-1 grows with its exponent: the size of
    each power is bounded before it is taken, and a value that could exceed
    EPS_MAX_BITS raises StructureError.
    """
    g = b.group
    if a.group != g or c.group != g:
        raise StructureError("degree from the wrong group")
    r = g.free_rank
    orders = g.torsion_orders
    out = b.field.one
    bits = 0
    for i, ai in enumerate(a.coords):
        if ai == 0:
            continue
        for j, cj in enumerate(c.coords):
            if cj == 0:
                continue
            e = ai * cj
            if i >= r:
                e %= orders[i - r]
            elif j >= r:
                e %= orders[j - r]
            if e == 0:
                continue
            v = b.gen_table[i][j]
            if isinstance(v, Fraction):
                height = max(abs(v.numerator), v.denominator)
                if height > 1:
                    bits += abs(e) * height.bit_length()
                    if bits > EPS_MAX_BITS:
                        raise StructureError(
                            f"eps value too large: generator pair ({i}, {j}) "
                            f"raises {v} past {EPS_MAX_BITS} bits"
                        )
            out = out * v ** e
    return out


def _eps_rows(b: Bicharacter, rows, cols) -> list:
    """eps(x, y) as kernel scalars, a list over y in cols for each x in rows, all canonical coordinate tuples.

    bicharacter_eval's product over generator pairs, exponents reduced by
    torsion, on the generator values as kernel scalars (listed once per b,
    the pairs whose value is 1 left out): pow(v, e, p) over F_p, int powers
    over Q.  A rational value other than +-1 counts its bits as
    bicharacter_eval does, so the same pair raises the same StructureError.
    """
    p = b.field.p
    if "eps_terms" not in vars(b):
        g, kernel_scalar, table = b.group, b.field.kernel_scalar, b.gen_table
        r, orders, terms = g.free_rank, g.torsion_orders, []
        for s, t in product(range(g.ngen), repeat=2):
            if (v := kernel_scalar(table[s][t])) != 1:
                height = max(abs(v.numerator), v.denominator) if p is None else 1
                order = orders[s - r] if s >= r else orders[t - r] if t >= r else 0
                terms.append((s, t, order, v, height.bit_length() if height > 1 else 0))
        vars(b)["eps_terms"] = terms
    value = _fp_eps if p else _q_eps
    out = []
    for x in rows:
        live = [(s, x[s], t, order, v, h) for s, t, order, v, h in vars(b)["eps_terms"] if x[s]]
        out.append([value(live, y, p) for y in cols])
    return out


def _fp_eps(live, y, p) -> int:
    out = 1
    for _, xs, t, order, v, _ in live:
        if e := xs * y[t] % order if order else xs * y[t]:
            # a zero value (a table failing invertibility) has no negative power, as in Fp
            out = out * (pow(v, e, p) if v else 0**e) % p
    return out


def _q_eps(live, y, p):
    num = den = 1
    bits = 0
    for s, xs, t, order, v, h in live:
        if e := xs * y[t] % order if order else xs * y[t]:
            if h:
                bits += abs(e) * h
                if bits > EPS_MAX_BITS:
                    raise StructureError(
                        f"eps value too large: generator pair ({s}, {t}) raises {v} past {EPS_MAX_BITS} bits"
                    )
            n, d = (v.numerator, v.denominator) if e > 0 else (v.denominator, v.numerator)
            num, den = num * n ** abs(e), den * d ** abs(e)
    if den == 1:
        return num
    q = Fraction(num, den)
    return q.numerator if q.denominator == 1 else q

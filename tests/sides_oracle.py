"""A declaration's sides at a basis tuple, evaluated by kernel calls, kept as a test oracle.

Before one generator (checks._tuple_source) compiled both a witness's sides
and a search visit's, the sides were compiled into kernel calls: each term's
value is the stored cell or column where it is one, else sparse_product,
sparse_apply or form.pairing on its operands' values (every intermediate
sum with its exact zeros dropped), scaled by its coefficient (sparse_scale)
and summed (sparse_add).  evaluator keeps that route for any list of sides,
so the accumulations of the generator are compared with the sums of the
kernel, which shares none of their code.
"""

from colorhom import checks
from colorhom.checks import _CONDITIONS, _IDENTITIES, B, F, P, _eps_f, _split
from colorhom.core import sparse_add, sparse_apply, sparse_product, sparse_scale


def _source(node, under: bool = False) -> str:
    """Python source for a node's value at the basis indices k0, k1, ...; under says whether an F encloses it."""
    kind = type(node)
    if kind is int:
        return f"{{k{node}: 1}}"
    algebra = "source" if under else "target"
    if kind is P:
        x, y = node
        if type(x) is int and type(y) is int:
            return f"{algebra}.product_rows[k{x}][k{y}]"
        return f"sparse_product({algebra}, {_source(x, under)}, {_source(y, under)})"
    if kind is B:
        v = f"form.pairing({_source(node.x, under)}, {_source(node.y, under)})"
        return f"({{0: {algebra}.field.kernel_scalar(v)}} if (v := {v}) else {{}})"
    m, under = ("f", True) if kind is F else (f"{algebra}.alpha", under)
    if type(node.x) is int:
        return f"{m}.sparse_columns[k{node.x}]"
    return f"sparse_apply({m}, {_source(node.x, under)})"


def _side_source(terms) -> str:
    """Python source for the signed sum of a side's terms; a slot pair reads its arguments' eps."""
    if len(terms) == 1 and terms[0][:2] == (1, ()):
        return _source(terms[0][2])
    parts = []
    for sign, factors, node in terms:
        coefficient = [str(sign), *(c if type(c) is str else "source.eps_table[k{}][k{}]".format(*c) for c in factors)]
        parts.append(f"({' * '.join(coefficient)}, {_source(node)})")
    return f"_sum({', '.join(parts)})"


def _sum(*terms) -> dict:
    """The sum of coefficient * value over the (coefficient, value) terms."""
    out = {}
    for coefficient, value in terms:
        if value:
            if coefficient != 1:
                value = sparse_scale(coefficient, value)
            # value may be a stored cell: sparse_add copies, nothing is mutated
            out = sparse_add(out, value) if out else value
    return out


_NAMES = {"_eps_f": _eps_f, "_sum": _sum, "sparse_add": sparse_add, "sparse_apply": sparse_apply,
          "sparse_product": sparse_product}


def evaluator(arity: int, *sides):
    """The sides as a function of a scope's fields, giving at the indices k0, k1, ... the tuple of their values."""
    keys = ", ".join(f"k{p}" for p in range(arity))
    body = ", ".join(map(_side_source, sides))
    return eval(f"lambda {', '.join(checks._Scope._fields)}: lambda {keys}: ({body},)", dict(_NAMES))


def sides(name: str):
    """A declaration's (left, right), as checks._compiled(name) gives them."""
    return evaluator(*(_IDENTITIES.get(name) or _CONDITIONS[name]))


def forcing_sides(name: str):
    """A condition's (rest, y_1, ..., y_m) (checks._split), each top term f(y) kept as its coefficient times y."""
    rest, top = _split(name)
    return evaluator(_CONDITIONS[name][0], rest, *([term] for term in top))

"""The grading of a basis as it was computed per pair of degrees, kept as a test oracle.

Each pair of distinct degrees had its eps value from bicharacter_eval and
its degree sum from GroupElement.__add__, looked up among the distinct
degrees.  core now reads both off class tables compiled once per basis and
bicharacter (GradedBasis.class_sums, grading._eps_rows), and tensor_product
and direct_sum hand their output its classes, so equal tables pin them down.
"""

from colorhom.grading import bicharacter_eval


def degree_classes(degrees) -> tuple:
    """The distinct degrees in order of first occurrence, and each index's position among them."""
    position: dict = {}
    for d in degrees:
        position.setdefault(d, len(position))
    return tuple(position), tuple(position[d] for d in degrees)


def class_sums(degrees) -> list:
    """sums[c][d]: the class of the sum of the degrees of classes c and d, -1 where no degree in degrees has it."""
    distinct = degree_classes(degrees)[0]
    position = {d: c for c, d in enumerate(distinct)}
    return [[position.get(d + e, -1) for e in distinct] for d in distinct]


def eps_table(basis, b) -> tuple:
    """eps for every pair of basis indices as kernel scalars, one bicharacter_eval per pair of distinct degrees."""
    field, (distinct, classes) = basis.field, degree_classes(basis.degrees)
    rows = [
        tuple(values[q] for q in classes)
        for values in ([field.kernel_scalar(bicharacter_eval(b, d, e)) for e in distinct] for d in distinct)
    ]
    return tuple(rows[p] for p in classes)

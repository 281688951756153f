"""identity_sides takes only the degrees its vectors have.

identity_sides evaluates an identity's sides on homogeneous vectors, with
eps read from their stated degrees.  A degree that is not an element of the
algebra's grading group, and a nonzero vector that is not homogeneous of its
stated degree, are StructureErrors: not an AttributeError, and not sides
with the wrong signs, a false failure on an algebra that passes.
"""

import pytest

from colorhom.catalog import super_commutative_line, truncated_polynomial
from colorhom.errors import StructureError
from colorhom.linalg import identity_sides
from colorhom.scalars import rationals

Q = rationals()
E0, E1, ZERO = (Q.one, Q.zero), (Q.zero, Q.one), (Q.zero, Q.zero)


@pytest.mark.parametrize("degree", ["z", None, (5,), truncated_polynomial(2).degrees[0]], ids=repr)
def test_a_degree_outside_the_grading_group_raises(degree):
    a = super_commutative_line(Q)
    for degrees in ((degree, a.degrees[1]), (a.degrees[1], degree)):
        with pytest.raises(StructureError, match="is not an element of the algebra's grading group"):
            identity_sides(a, "epsilon-commutativity", degrees, (E0, E1))


def test_a_vector_not_of_its_stated_degree_raises():
    a = super_commutative_line(Q)
    d0, d1 = a.degrees
    left, right = identity_sides(a, "epsilon-commutativity", (d0, d1), (E0, E1))
    assert left == right == (Q.zero, Q.one)  # the algebra is eps-commutative
    for degrees, vectors in [((d1, d1), (E0, E1)), ((d0, d0), (E0, E1)), ((d0, d1), (E0, (Q.one, Q.one)))]:
        with pytest.raises(StructureError, match="vector is not homogeneous of degree"):
            identity_sides(a, "epsilon-commutativity", degrees, vectors)
    # the zero vector is homogeneous of every degree
    assert identity_sides(a, "epsilon-commutativity", (d1, d1), (ZERO, E1)) == ((Q.zero, Q.zero), (Q.zero, Q.zero))

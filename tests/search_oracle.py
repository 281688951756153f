"""References for search.search_maps.

brute_force_search runs the predicate on every even matrix over the value
set, built by the public make_map; it shares no code with the linear
solving in search_maps, so equal answers pin the search down exactly.

sampled_search is the search as it stood before exact solving: the whole
space when it fits in the budget, else `budget` seeded draws, one value per
even position.  Where the whole space fits, the backtracking search must
still get exactly its answer.
"""

import random
from itertools import product as iproduct

from colorhom.catalog import OPERATIONS, OPTIONAL_ARGUMENTS
from colorhom.core import make_map


def even_positions(a):
    degs = a.degrees
    return [(k, i) for k in range(a.dim) for i in range(a.dim) if degs[k] == degs[i]]


def _map(a, positions, assignment):
    rows = [[a.field.zero] * a.dim for _ in range(a.dim)]
    for (k, i), v in zip(positions, assignment):
        rows[k][i] = v
    return make_map(a.basis, rows)


def _call(a, predicate, m, given):
    op = OPERATIONS[predicate]
    args = {**OPTIONAL_ARGUMENTS, **given}
    return op.call(a, *(m if arg == "map" else args[arg] for arg in op.takes))


def _sorted(a, maps):
    return sorted(maps, key=lambda m: tuple(a.field.sort_key(v) for row in m.matrix for v in row))


def candidates(a, values):
    """Every even map with entries in values (coerced, duplicates dropped)."""
    values = tuple(dict.fromkeys(a.field.coerce(v) for v in values))
    positions = even_positions(a)
    return [_map(a, positions, t) for t in iproduct(values, repeat=len(positions))]


def brute_force_search(a, predicate, maps, **given):
    """The maps among `maps` (see candidates) that pass the predicate, sorted like search_maps."""
    return _sorted(a, [m for m in maps if _call(a, predicate, m, given)])


def sampled_search(a, predicate, *, seed=0, budget=10000, values=(-1, 0, 1, 2), **given):
    values = tuple(a.field.coerce(v) for v in values)
    positions = even_positions(a)
    if len(values) ** len(positions) <= budget:
        assignments = iproduct(values, repeat=len(positions))
    else:
        rng = random.Random(seed)
        assignments = (tuple(rng.choice(values) for _ in positions) for _ in range(budget))
    seen, hits = set(), []
    for assignment in assignments:
        if assignment in seen:
            continue
        seen.add(assignment)
        m = _map(a, positions, assignment)
        if _call(a, predicate, m, given):
            hits.append(m)
    return _sorted(a, hits)

"""Reference for the adjacency check of ``Graph(adjacency)``: the scan over
the neighbour lists that the check on the arc arrays replaced.  Rows are read
in vertex order, so the first bad neighbour is the one named; the symmetry
scan also runs in that order.  ``test_validation.py`` compares the two."""

from typing import Sequence

from drglab.errors import InputError


def validate(adjacency: Sequence[Sequence[int]]) -> None:
    """Raise InputError unless every neighbour is in range, no vertex is its
    own neighbour, every list is strictly ascending and every arc has its
    reverse."""
    n = len(adjacency)
    seen = set()
    for v, nbs in enumerate(adjacency):
        last = -1
        for u in nbs:
            if not (0 <= u < n):
                raise InputError(f"neighbor {u} of {v} out of range")
            if u == v:
                raise InputError(f"loop at vertex {v}")
            if u <= last:
                raise InputError(f"neighbor list of {v} not strictly ascending")
            last = u
            seen.add((v, u))
    for v, nbs in enumerate(adjacency):
        for u in nbs:
            if (u, v) not in seen:
                raise InputError(f"adjacency not symmetric: {v}->{u}")

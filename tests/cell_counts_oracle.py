"""Reference for the count rows that the library reads from the arcs
(``graph._count_rows``, behind ``graph._quotient`` and
``graph.equitable_quotient``): every vertex's row in every cell, by one
whole-arc gather.

Every arc's source and target cell are gathered at once and counted by one
``bincount``, so a call holds several int64 entries per arc however many
arcs there are.  The library counts only the rows that a result reports,
each over its own vertex's arcs; ``test_equitability.py`` and
``test_pair_budget.py`` compare those rows with these.
"""

import numpy as np

from drglab.graph import Graph


def cell_counts(g: Graph, cell: np.ndarray, ncells: int) -> np.ndarray:
    """Row v counts the neighbours of v in each cell; cell[u] is the cell of
    vertex u, or -1 when u lies in no cell."""
    rows, target = g._sources(), cell[g._dst]
    if target.min(initial=0) < 0:
        inside = target >= 0
        rows, target = rows[inside], target[inside]
    return np.bincount(rows * ncells + target,
                       minlength=g.n * ncells).reshape(g.n, ncells)

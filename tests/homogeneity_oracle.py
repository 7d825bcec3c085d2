"""Reference for ``homogeneous.check_i_homogeneous``: the pair-by-pair route
it replaced.

Each pair's joint distance partition gets its own call of the per-cell
counting kernel (``graph._equitable``): the cells are labelled
(d(x, v), d(y, v)), ordered lexicographically, and every vertex is counted
against every cell.  Exhaustive mode reads every pair in
``np.nonzero(dm == i)`` order; sampled mode reads the pairs and rows that
``homogeneous._sampled_pairs`` draws.  The differential tests in
``test_equitability.py`` compare whole reports against it.
"""

import numpy as np

from drglab.errors import InputError
from drglab.graph import EquitabilityWitness, Graph, _equitable
from drglab.homogeneous import HomogeneityReport, _sampled_pairs


def _pair_quotient(g: Graph, dx: np.ndarray, dy: np.ndarray):
    span = int(max(dx.max(), dy.max())) + 1
    keys = dx.astype(np.intp) * span + dy
    present = np.bincount(keys, minlength=span * span) > 0
    labels = tuple(divmod(int(key), span) for key in np.flatnonzero(present))
    return _equitable(g, (np.cumsum(present) - 1)[keys], labels)


def check_i_homogeneous(g: Graph, i: int, mode: str = "exhaustive",
                        seed=None, count=None) -> HomogeneityReport:
    if mode == "sampled":
        xs, ys, rows = _sampled_pairs(g, i, seed, count)
        pairs = ((xs[t], ys[t], rows[t], rows[count + t]) for t in range(count))
    else:
        dm = g.distance_matrix()
        if dm.min() < 0:
            raise InputError("homogeneity is defined for connected graphs")
        at_i = np.argwhere(dm == i).tolist()
        if not at_i:
            raise InputError(f"no pair of vertices at distance {i}")
        pairs = ((x, y, dm[x], dm[y]) for x, y in at_i)
    ref = None
    checked = 0
    for x, y, dx, dy in pairs:
        checked += 1
        quotient = _pair_quotient(g, dx, dy)
        if isinstance(quotient, EquitabilityWitness):
            a, b = quotient.vertex_a, quotient.vertex_b
            lab = (int(dx[a]), int(dy[a]))
            return HomogeneityReport(i, False, witness=(int(x), int(y), lab, a, b),
                                     mode=mode, pairs_checked=checked)
        if ref is None:
            ref = quotient
        elif quotient != ref:
            return HomogeneityReport(i, False, witness=(int(x), int(y), None, None, None),
                                     mode=mode, pairs_checked=checked)
    return HomogeneityReport(i, True, ref.labels, ref.matrix, None, mode, checked)

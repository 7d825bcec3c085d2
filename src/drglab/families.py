"""Constructors for the concrete graph families, plus antipodal folding.

Vertex numbering is always the lexicographic rank of the combinatorial label
(subset, word, grid coordinate, ...), so golden files are stable.  Every
builder but the two fixed graphs (icosahedron, Petersen) goes through one
numpy builder that writes the arc arrays of the ``Graph`` directly: for a
block of vertices it computes the matrix of their neighbours' ranks, sorts
each row and drops repeats and the vertex itself.  Ranks come from
arithmetic: a word is a base-q integer with coordinate 0 most significant (a
move shifts one digit), the even word of rank v is 2v plus the parity of v
(a move flips two bits), a d-subset's rank is a sum of binomial coefficients
(a move exchanges an element for a non-element), and the block graphs of
designs read the columns that share a symbol, or the blocks through a point,
off one argsort.  The folded Johnson and folded halved cubes map each rank
to the first label of its antipodal class (complementation reverses the
label order), so the doubled parent is never built.  The vertex cap
(``DRG_LAB_VERTEX_CAP``) applies to the graph that is returned.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from math import comb, isqrt
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError, ResourceError
from .graph import Graph

DEFAULT_VERTEX_CAP = 2_000_000


def vertex_cap() -> int:
    env = os.environ.get("DRG_LAB_VERTEX_CAP")
    return int(env) if env else DEFAULT_VERTEX_CAP


@dataclass(frozen=True)
class FamilySpec:
    """Tagged family descriptor; ``data`` carries Steiner blocks or OA rows."""

    name: str
    params: Tuple[int, ...] = ()
    data: Optional[tuple] = None

    @classmethod
    def parse(cls, text: str, data=None) -> "FamilySpec":
        name, _, rest = text.partition(":")
        params = tuple(int(t) for t in rest.split(",") if t) if rest else ()
        if data is not None:
            data = tuple(tuple(row) for row in data)
        return cls(name.strip().lower().replace("-", "_"), params, data)


#: neighbour entries per block of rows while a family graph is built
_BLOCK = 1 << 18


def _check_cap(n: int):
    if n > vertex_cap():
        raise ResourceError(f"construction of {n} vertices exceeds cap {vertex_cap()}")


def _label_graph(n: int, width: int,
                 neighbours: Callable[[np.ndarray], np.ndarray]) -> Graph:
    """Graph on vertices 0..n-1 where ``neighbours(v)``, for an array v of
    vertices, is the (len(v), width) matrix of the vertices their labels move
    to, in any order.  Each row is sorted, and repeats and the vertex itself
    are dropped: a folded builder may send several moves to one class, or a
    move to the vertex's own class, and a grid or design lists the vertex in
    each of its lines.  Rows go ``_BLOCK`` entries at a time."""
    step = max(1, _BLOCK // max(width, 1))
    deg = np.empty(n, dtype=np.int32)
    dst = np.empty(n * width, dtype=np.int32)
    m = 0
    for lo in range(0, n, step):
        v = np.arange(lo, min(n, lo + step))
        nb = np.sort(neighbours(v), axis=1)
        keep = nb != v[:, None]
        keep[:, 1:] &= nb[:, 1:] != nb[:, :-1]
        deg[v] = keep.sum(axis=1)
        row = nb[keep]
        dst[m:m + len(row)] = row
        m += len(row)
    return Graph._from_arcs(n, np.repeat(np.arange(n, dtype=np.int32), deg), dst[:m])


def _fold(parent: int) -> Callable[[np.ndarray], np.ndarray]:
    """Complementation reverses the label order of J(2d, d) and of the halved
    cubes of even length, so the class of the vertex of rank r among
    ``parent`` is numbered by its first label, min(r, parent - 1 - r)."""
    return lambda r: np.minimum(r, parent - 1 - r)


def _exchanges(n: int, d: int, count: int) -> Callable[[np.ndarray], np.ndarray]:
    """Johnson moves on the first ``count`` d-subsets of range(n), numbered in
    lexicographic order: each exchange of an element for a non-element, as
    the rank of the subset it gives.

    Element i is bit j = n-1-i of the subset's mask, and the lexicographic
    rank of a subset is N-1 minus the colex rank sum_t C(s_t, t+1) of its
    ascending bits s_0 < ... < s_{d-1} (N = C(n, d)).  Removing bit s_p and
    adding bit b shifts the bits between them by one place, so the new rank
    is a difference of row prefix sums plus C(b, .) for b's new place.
    """
    N = comb(n, d)
    labels = np.fromiter(itertools.chain.from_iterable(
        itertools.islice(itertools.combinations(range(n), d), count)),
        dtype=np.min_scalar_type(n), count=count * d).reshape(count, d)
    # C(x, y) for y <= d + 1 by the hockey-stick sums; entries above N are
    # clipped to N, which leaves every term of a rank below N exact
    binom = np.zeros((n + 1, d + 2), dtype=np.int64)
    binom[:, 0] = 1
    for y in range(1, d + 2):
        np.minimum(np.cumsum(binom[:-1, y - 1]), N, out=binom[1:, y])
    t = np.arange(d)

    def neighbours(v: np.ndarray) -> np.ndarray:
        rows = np.arange(len(v))[:, None]
        bits = (n - 1 - labels[v, ::-1]).astype(np.intp)  # ascending
        member = np.zeros((len(v), n), dtype=bool)
        member[rows, bits] = True
        zeros = np.nonzero(~member)[1].reshape(len(v), n - d)
        below = zeros - np.arange(n - d)  # bits below each non-element
        term = binom[bits, t + 1]
        # down[j]: sum over t < j of the change when bit t moves one place
        # down; up[j] likewise one place up
        down = np.zeros((len(v), d + 1), dtype=np.int64)
        up = np.zeros((len(v), d + 1), dtype=np.int64)
        np.cumsum(binom[bits, t] - term, axis=1, out=down[:, 1:])
        np.cumsum(binom[bits, t + 2] - term, axis=1, out=up[:, 1:])
        # (row, p, u): remove bits[p], add zeros[u]
        colex = np.where(
            zeros[:, None, :] > bits[:, :, None],
            down[rows, below][:, None, :] - down[:, 1:, None]
            + binom[zeros, below][:, None, :],
            up[:, :-1, None] - up[rows, below][:, None, :]
            + binom[zeros, below + 1][:, None, :])
        colex += (N - 1 - v[:, None] - term)[:, :, None]
        return N - 1 - colex.reshape(len(v), -1)
    return neighbours


def _even_words(length: int) -> Callable[[np.ndarray], np.ndarray]:
    """Halved-cube moves: the even-weight words of the given length in
    ascending order (coordinate 0 most significant), where the word of rank
    v is 2v plus the parity of v, and each flip of two coordinates as the
    rank w >> 1 of the word w it gives."""
    flips = np.array([(1 << i) | (1 << j)
                      for i, j in itertools.combinations(range(length), 2)],
                     dtype=np.int64)
    return lambda v: ((v << 1 | np.bitwise_count(v) & 1)[:, None] ^ flips) >> 1


def johnson(n: int, d: int) -> Graph:
    if not 1 <= d <= n:
        raise InputError("Johnson graph needs 1 <= d <= n")
    N = comb(n, d)
    _check_cap(N)
    return _label_graph(N, d * (n - d), _exchanges(n, d, N))


def hamming(D: int, q: int) -> Graph:
    """Words of length D over range(q) as base-q integers, coordinate 0 most
    significant; adjacent when they differ in one coordinate."""
    if D < 1 or q < 2:
        raise InputError("Hamming graph needs D >= 1, q >= 2")
    _check_cap(q ** D)
    weights = q ** np.arange(D - 1, -1, -1, dtype=np.int64)
    shifts = np.arange(1, q)

    def neighbours(x: np.ndarray) -> np.ndarray:
        digit = (x[:, None] // weights % q)[:, :, None]
        moved = x[:, None, None] + ((digit + shifts) % q - digit) * weights[:, None]
        return moved.reshape(len(x), -1)
    return _label_graph(q ** D, D * (q - 1), neighbours)


def hypercube(length: int) -> Graph:
    return hamming(length, 2)


def halved_cube(length: int) -> Graph:
    """Even-weight binary words of the given length, adjacent at Hamming
    distance 2."""
    if length < 2:
        raise InputError("halved cube needs length >= 2")
    _check_cap(2 ** (length - 1))
    return _label_graph(2 ** (length - 1), comb(length, 2), _even_words(length))


def grid(p: int, q: int) -> Graph:
    """The p x q grid: vertex i q + j is adjacent to the rest of row i and
    of column j."""
    if p < 1 or q < 1:
        raise InputError("grid needs positive side lengths")
    _check_cap(p * q)
    return _label_graph(p * q, p + q, lambda v: np.hstack(
        [(v // q * q)[:, None] + np.arange(q), np.arange(p) * q + (v % q)[:, None]]))


def complete_multipartite(t: int, m: int) -> Graph:
    """K_{t x m}: every vertex, with the part of v (v // m) replaced by v."""
    if t < 2 or m < 1:
        raise InputError("complete multipartite needs t >= 2, m >= 1")
    _check_cap(t * m)
    every = np.arange(t * m)
    return _label_graph(t * m, t * m, lambda v: np.where(
        every // m == (v // m)[:, None], v[:, None], every))


def cocktail_party(t: int) -> Graph:
    return complete_multipartite(t, 2)


def triangular(n: int) -> Graph:
    return johnson(n, 2)


def complete(n: int) -> Graph:
    if n < 1:
        raise InputError("complete graph needs n >= 1")
    return _label_graph(n, n, lambda v: np.broadcast_to(np.arange(n), (len(v), n)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise InputError("cycle needs n >= 3")
    return _label_graph(n, 2, lambda v: (v[:, None] + [-1, 1]) % n)


def petersen() -> Graph:
    """Kneser graph K(5, 2)."""
    labels = list(itertools.combinations(range(5), 2))
    return Graph([[j for j, other in enumerate(labels) if not set(lab) & set(other)]
                  for lab in labels])


_ICOSAHEDRON_ADJ = [
    [1, 2, 3, 4, 5], [0, 2, 5, 6, 7], [0, 1, 3, 7, 8], [0, 2, 4, 8, 9],
    [0, 3, 5, 9, 10], [0, 1, 4, 6, 10], [1, 5, 7, 10, 11], [1, 2, 6, 8, 11],
    [2, 3, 7, 9, 11], [3, 4, 8, 10, 11], [4, 5, 6, 9, 11], [6, 7, 8, 9, 10],
]


def icosahedron() -> Graph:
    return Graph(_ICOSAHEDRON_ADJ)


# -- design-backed families -------------------------------------------------


def validate_orthogonal_array(rows: Sequence[Sequence[int]]) -> Tuple[int, int]:
    """Check OA(m, n) row-pair axioms; returns (m, n)."""
    m = len(rows)
    if m < 2:
        raise InputError("orthogonal array needs at least 2 rows")
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise InputError("orthogonal array rows have unequal length")
    n = isqrt(ncols)
    if n * n != ncols:
        raise InputError("orthogonal array must have n^2 columns")
    for r in rows:
        if any(v not in range(n) for v in r):
            raise InputError("orthogonal array entries must lie in 0..n-1")
    for i in range(m):
        for j in range(i + 1, m):
            pairs = set(zip(rows[i], rows[j]))
            if len(pairs) != n * n:
                raise InputError(
                    f"rows {i}, {j} do not hit every ordered pair exactly once")
    return m, n


def latin_square_graph(m: int = None, n: int = None,
                       oa: Optional[Sequence[Sequence[int]]] = None) -> Graph:
    """Block graph of an orthogonal array.

    With (m, n) given and no OA data, the cyclic table over Z_n supplies
    OA(m, n) for m <= 3 (rows, columns, symbols); larger m needs caller data.
    """
    if oa is None:
        if m is None or n is None:
            raise InputError("latin square graph needs (m, n) or OA data")
        if not 2 <= m <= 3:
            raise InputError(
                "cyclic construction only covers m in {2, 3}; supply OA data for larger m")
        if n < 2:
            raise InputError("latin square graph needs n >= 2")
        cols = list(itertools.product(range(n), repeat=2))
        oa = [[x for x, _ in cols], [y for _, y in cols]]
        if m == 3:
            oa.append([(x + y) % n for x, y in cols])
    m, n = validate_orthogonal_array(oa)
    _check_cap(n * n)
    # two columns agree in at most one row of an OA, and each symbol fills n
    # columns of a row: the neighbours of v are, row by row, the columns
    # that share v's symbol
    rows = np.array(oa, dtype=np.intp)
    share = np.argsort(rows, axis=1, kind="stable").reshape(m, n, n)
    return _label_graph(n * n, m * n, lambda v: np.hstack(
        [share[r, rows[r, v]] for r in range(m)]))


def validate_steiner_blocks(blocks: Sequence[Sequence[int]]) -> Tuple[int, int]:
    """Check the blocks form a 2-(n, m, 1) design; returns (m, n)."""
    if not blocks:
        raise InputError("no blocks given")
    sizes = {len(b) for b in blocks}
    if len(sizes) != 1:
        raise InputError("blocks must have a common size")
    m = sizes.pop()
    if m < 2:
        raise InputError("blocks must have size >= 2")
    points = sorted({p for b in blocks for p in b})
    if any(len(set(b)) != len(b) for b in blocks):
        raise InputError("repeated point inside a block")
    cover: Dict[Tuple[int, int], int] = {}
    for b in blocks:
        for pair in itertools.combinations(sorted(b), 2):
            cover[pair] = cover.get(pair, 0) + 1
            if cover[pair] > 1:
                raise InputError(f"point pair {pair} covered twice (lambda must be 1)")
    for pair in itertools.combinations(points, 2):
        if pair not in cover:
            raise InputError(f"point pair {pair} not covered by any block")
    return m, len(points)


def steiner_block_graph(blocks: Sequence[Sequence[int]]) -> Graph:
    """Block graph of a Steiner system: blocks adjacent iff they share a point."""
    m, _ = validate_steiner_blocks(blocks)
    _check_cap(len(blocks))
    # two blocks share at most one point, and each point lies on the same
    # number r of blocks: the neighbours of v are the blocks through its
    # points, with points ranked by value
    _, point = np.unique(np.array(blocks), return_inverse=True)
    point = point.reshape(len(blocks), m)
    through = (np.argsort(point.ravel(), kind="stable") // m).reshape(point.max() + 1, -1)
    return _label_graph(len(blocks), m * through.shape[1],
                        lambda v: through[point[v]].reshape(len(v), -1))


# -- antipodal folding ------------------------------------------------------


def antipodal_quotient(g: Graph) -> Graph:
    """Quotient on the antipodal classes (each vertex with the vertices at
    distance D from it), read from the dense distance matrix (at most 6000
    vertices); classes are numbered by their smallest vertex and adjacent iff
    some members are adjacent."""
    dm = g.distance_matrix()
    closed = dm == dm.max()
    np.fill_diagonal(closed, True)
    first = closed.argmax(axis=1)
    # each vertex must see exactly its first member's class at distance D
    if not (closed == closed[first]).all():
        raise InputError("not antipodal: distance-D relation is not an equivalence")
    sizes = closed.sum(axis=1)
    if sizes.min() != sizes.max() or sizes[0] == 1:
        raise InputError("not antipodal: classes must have a common size >= 2")
    is_first = first == np.arange(g.n)
    cls = (np.cumsum(is_first) - 1)[first]
    # the rows of the classes' first members, padded with the class itself
    src, dst = g._src, g._dst
    width = int(g.degrees()[is_first].max())
    moves = np.repeat(np.arange(is_first.sum()), width).reshape(-1, width)
    arc = np.flatnonzero(is_first[src])
    moves[cls[src[arc]], arc - g._starts[src[arc]]] = cls[dst[arc]]
    return _label_graph(len(moves), width, moves.__getitem__)


def folded_johnson(n: int, d: int) -> Graph:
    """J(2d, d) with each d-set identified with its complement."""
    if n != 2 * d or d < 1:
        raise InputError("folded Johnson graph is defined for J(2d, d), d >= 1")
    N = comb(n, d)
    _check_cap(N // 2)
    moves, fold = _exchanges(n, d, N // 2), _fold(N)
    return _label_graph(N // 2, d * d, lambda v: fold(moves(v)))


def folded_halved_cube(length: int) -> Graph:
    """Halved cube of even length with each word identified with its
    complement."""
    if length < 2 or length % 2:
        raise InputError("folded halved cube needs even length >= 2")
    _check_cap(2 ** (length - 2))
    moves, fold = _even_words(length), _fold(2 ** (length - 1))
    return _label_graph(2 ** (length - 2), comb(length, 2), lambda v: fold(moves(v)))


_BUILDERS = {
    "johnson": lambda spec: johnson(*spec.params),
    "hamming": lambda spec: hamming(*spec.params),
    "hypercube": lambda spec: hypercube(*spec.params),
    "halved_cube": lambda spec: halved_cube(*spec.params),
    "folded_johnson": lambda spec: folded_johnson(*spec.params),
    "folded_halved_cube": lambda spec: folded_halved_cube(*spec.params),
    "grid": lambda spec: grid(*spec.params),
    "complete_multipartite": lambda spec: complete_multipartite(*spec.params),
    "cocktail_party": lambda spec: cocktail_party(*spec.params),
    "triangular": lambda spec: triangular(*spec.params),
    "latin_square": lambda spec: (
        latin_square_graph(oa=spec.data) if spec.data
        else latin_square_graph(*spec.params)),
    "steiner_block_graph": lambda spec: steiner_block_graph(spec.data),
    "cycle": lambda spec: cycle(*spec.params),
    "complete": lambda spec: complete(*spec.params),
    "icosahedron": lambda spec: icosahedron(),
    "petersen": lambda spec: petersen(),
}


def build_family(spec: FamilySpec) -> Graph:
    builder = _BUILDERS.get(spec.name)
    if builder is None:
        raise InputError(f"unknown family {spec.name!r}; known: {sorted(_BUILDERS)}")
    try:
        return builder(spec)
    except TypeError as exc:
        raise InputError(f"bad parameters for family {spec.name!r}: {exc}") from exc

"""Constructors for the concrete graph families.

Vertex numbering is always the lexicographic rank of the combinatorial label
(subset, word, grid coordinate, ...), so golden files are stable.  Every
builder but the two fixed graphs (icosahedron, Petersen) goes through one
numpy builder that writes the arc arrays of the ``Graph`` directly: for a
block of vertices it computes the matrix of their neighbours' ranks, sorts
each row and drops repeats and the vertex itself.

Hamming graphs, halved and folded halved cubes, grids, complete multipartite
and complete graphs and cycles are Cayley graphs on a finite abelian group
Z_{r_0} x ... x Z_{r_{k-1}}: a vertex is a word of digits, ranked as a
mixed-radix integer with coordinate 0 most significant, and it is adjacent
to v + s, added digit by digit, for each word s of a connection set S.  The
halved L-cube is Z_2^{L-1} (the even word of rank v is 2v plus the parity of
v), and its fold identifies each word with its complement, which leaves
Z_2^{L-2}: a move that flips coordinate 0 is complemented back.  Johnson
ranks are sums of binomial coefficients (a move exchanges an element for a
non-element), the folded Johnson graph maps each rank to the first label of
its antipodal class (complementation reverses the label order), and the
block graphs of designs read the columns that share a symbol, or the blocks
through a point, off one argsort.  No doubled parent is built.

Each builder predicts the bytes of the graph it returns from its parameters
(``_vertices``): 8 per arc slot of its n rows of neighbours, the intp
targets (the graph keeps no sources), plus the per-vertex arrays, one
block's scratch and any label or design table.  A folded graph counts its
own vertices.
``errors.require_room`` refuses a graph that does not fit in memory before
any connection set, label table or exponential count exists: a count with
a lower bound 2 ** b is first checked at 2 ** min(b, 64) vertices, so a
count far beyond memory is never computed.  There is no vertex cap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, isqrt, prod
from typing import Callable, Dict, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError, require_room
from .graph import Graph, _per_block


@dataclass(frozen=True)
class FamilySpec:
    """Tagged family descriptor; ``data`` carries Steiner blocks or OA rows."""

    name: str
    params: Tuple[int, ...] = ()
    data: Optional[tuple] = None

    @classmethod
    def parse(cls, text: str, data=None) -> "FamilySpec":
        name, _, rest = text.partition(":")
        try:
            params = tuple(int(t) for t in rest.split(",") if t)
            if data is not None:
                data = tuple(tuple(row) for row in data)
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad parameters or data for {text!r}: {exc}") from None
        return cls(name.strip().lower().replace("-", "_"), params, data)


#: bytes of scratch per entry of a build block's rows: the Johnson exchanges
#: peaked at 44-46 (tracemalloc), the Cayley builds at 15-19
_SCRATCH = 48


def _graph_bytes(n: int, width: int) -> int:
    """Bytes to build a graph of n rows of ``width`` neighbours: the intp
    target of every arc slot, 16 per vertex (the offsets, and the degrees
    a reader takes from them), the scratch of one block of
    ``_label_graph``'s rows, and 288 per neighbour of a row for the Python
    tuples of a Cayley connection set (108-284 per word, tracemalloc)."""
    return 8 * n * (width + 2) + width * (_SCRATCH * _per_block(width, _SCRATCH) + 288)


def _vertices(width: int, count: Callable[[], int], min_bits: int = 0,
              tables: Callable[[int], int] = lambda n: 0) -> int:
    """``count()``, the vertices of a family graph whose rows have ``width``
    neighbours, once the graph and the builder's ``tables(n)`` bytes are
    known to fit in memory.  2 ** min_bits is a lower bound on the count; it
    is checked first, capped at 2 ** 64 vertices (more bytes than any
    memory), so a count far beyond memory is refused before it is computed."""
    if min_bits:
        require_room(f"2^{min(min_bits, 64)} or more vertices of width {width}",
                     _graph_bytes(1 << min(min_bits, 64), width))
    n = count()
    require_room(f"{n} vertices of width {width}", _graph_bytes(n, width) + tables(n))
    return n


def _label_graph(n: int, width: int,
                 neighbours: Callable[[np.ndarray], np.ndarray]) -> Graph:
    """Graph on vertices 0..n-1 where ``neighbours(v)``, for an array v of
    vertices, is the (len(v), width) matrix of the vertices their labels move
    to, in any order.  Each row is sorted, and repeats and the vertex itself
    are dropped: a fold may send several moves to one class, or a move to
    the vertex's own class, and a design lists the vertex in each of its
    lines.  Rows go as many at a time as ``graph._BUDGET`` bytes hold at
    ``_SCRATCH`` bytes per entry; the caller has checked the room for
    ``_graph_bytes(n, width)``."""
    step = _per_block(width, _SCRATCH)
    starts = np.zeros(n + 1, dtype=np.intp)
    dst = np.empty(n * width, dtype=np.intp)
    for lo in range(0, n, step):
        v = np.arange(lo, min(n, lo + step), dtype=np.int32)
        nb = np.sort(neighbours(v), axis=1)
        keep = nb != v[:, None]
        keep[:, 1:] &= nb[:, 1:] != nb[:, :-1]
        hi = lo + len(v)
        starts[lo + 1:hi + 1] = starts[lo] + np.cumsum(keep.sum(axis=1))
        dst[starts[lo]:starts[hi]] = nb[keep]
    return Graph._from_arcs(n, starts, dst[:starts[n]])


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
        zeros = (np.flatnonzero(~member) % n).reshape(len(v), n - d)
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


def _exchange_bytes(n: int, d: int) -> Callable[[int], int]:
    """The bytes of ``_exchanges(n, d, count)``'s tables, as a function of
    count: the labels and the binomial coefficients."""
    return lambda count: count * d * np.min_scalar_type(n).itemsize + 8 * (n + 1) * (d + 2)


def johnson(n: int, d: int) -> Graph:
    if not 1 <= d <= n:
        raise InputError("Johnson graph needs 1 <= d <= n")
    if d == n:  # one vertex and no exchanges, so no table is predicted or built
        return Graph._from_arcs(1, np.zeros(2, dtype=np.intp), np.empty(0, dtype=np.intp))
    N = _vertices(d * (n - d), lambda: comb(n, d), min(d, n - d), _exchange_bytes(n, d))
    return _label_graph(N, d * (n - d), _exchanges(n, d, N))


def _cayley(radices: Sequence[int], moves: Iterable[Sequence[int]]) -> Graph:
    """Cayley graph of Z_{r_0} x ... x Z_{r_{k-1}}: vertex v is the word of
    digits v_i, ranked with coordinate 0 most significant (digit i weighs the
    product p_i of the radices after it), and is adjacent to v + s, added
    digit by digit, for each word s of ``moves``.  Per block, each distinct
    (digit i, shift s) of the set is one int32 column of rank offsets,
    s p_i where v_i + s < r_i and (s - r_i) p_i where it wraps, and v + s is
    v plus the columns of the nonzero digits of s."""
    # each word as its (digit, shift) terms, the words with most terms
    # first; the zero word is the vertex itself, which no row lists
    words = sorted(filter(None, (tuple((i, s % r) for i, (s, r) in enumerate(zip(word, radices))
                                       if s % r) for word in moves)), key=len, reverse=True)
    column = {term: j for j, term in enumerate(dict.fromkeys(itertools.chain(*words)))}
    digit, shift = np.array(list(column), dtype=np.int32).reshape(-1, 2).T
    place = np.array([prod(radices[i + 1:]) for i in range(len(radices))], dtype=np.int32)
    radix = np.array(radices, dtype=np.int32)
    wrap = radix[digit] - shift
    up, down = shift * place[digit], -wrap * place[digit]
    # picks[j]: the column of term j of each word with more than j terms
    picks = [np.array([column[w[j]] for w in words if len(w) > j], dtype=np.intp)
             for j in range(max(map(len, words), default=1))]

    def neighbours(v: np.ndarray) -> np.ndarray:
        offset = np.where((v[:, None] // place % radix)[:, digit] >= wrap, down, up)
        nb = v[:, None] + offset[:, picks[0]]
        for pick in picks[1:]:
            nb[:, :len(pick)] += offset[:, pick]
        return nb
    return _label_graph(prod(radices), len(words), neighbours)


def _of_weight(radices: Sequence[int], *weights: int) -> Iterator[Tuple[int, ...]]:
    """The words with the given numbers of nonzero digits."""
    for t in sorted(set(weights) & set(range(len(radices) + 1))):
        for at in itertools.combinations(range(len(radices)), t):
            yield from itertools.product(*(range(1, r) if i in at else (0,)
                                           for i, r in enumerate(radices)))


def hamming(D: int, q: int) -> Graph:
    """Z_q^D; adjacent when the words differ in one coordinate."""
    if D < 1 or q < 2:
        raise InputError("Hamming graph needs D >= 1, q >= 2")
    _vertices(D * (q - 1), lambda: q ** D, D)
    return _cayley((q,) * D, _of_weight((q,) * D, 1))


def hypercube(length: int) -> Graph:
    return hamming(length, 2)


def halved_cube(length: int) -> Graph:
    """Even-weight binary words of the given length, adjacent at Hamming
    distance 2: Z_2^{length-1}, the words of weight 1 and 2."""
    if length < 2:
        raise InputError("halved cube needs length >= 2")
    _vertices(comb(length, 2), lambda: 2 ** (length - 1), length - 1)
    return _cayley((2,) * (length - 1), _of_weight((2,) * (length - 1), 1, 2))


def folded_halved_cube(length: int) -> Graph:
    """Halved cube of even length with each word identified with its
    complement: Z_2^{length-2}, the words of weight 1, 2, length - 3 and
    length - 2 (at most C(length, 2) words)."""
    if length < 2 or length % 2:
        raise InputError("folded halved cube needs even length >= 2")
    _vertices(comb(length, 2), lambda: 2 ** (length - 2), length - 2)
    radices = (2,) * (length - 2)
    return _cayley(radices, _of_weight(radices, 1, 2, length - 3, length - 2))


def grid(p: int, q: int) -> Graph:
    """The p x q grid Z_p x Z_q: vertex i q + j is adjacent to the rest of
    row i and of column j."""
    if p < 1 or q < 1:
        raise InputError("grid needs positive side lengths")
    _vertices(p + q - 2, lambda: p * q)
    return _cayley((p, q), _of_weight((p, q), 1))


def complete_multipartite(t: int, m: int) -> Graph:
    """K_{t x m} on Z_t x Z_m: vertex v is in part v // m, and adjacent to
    every vertex of the other parts."""
    if t < 2 or m < 1:
        raise InputError("complete multipartite needs t >= 2, m >= 1")
    _vertices((t - 1) * m, lambda: t * m)
    return _cayley((t, m), itertools.product(range(1, t), range(m)))


def cocktail_party(t: int) -> Graph:
    return complete_multipartite(t, 2)


def triangular(n: int) -> Graph:
    return johnson(n, 2)


def complete(n: int) -> Graph:
    if n < 1:
        raise InputError("complete graph needs n >= 1")
    _vertices(n - 1, lambda: n)
    return _cayley((n,), _of_weight((n,), 1))


def cycle(n: int) -> Graph:
    if n < 3:
        raise InputError("cycle needs n >= 3")
    _vertices(2, lambda: n)
    return _cayley((n,), [(1,), (n - 1,)])


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
    else:
        m, n = validate_orthogonal_array(oa)
    # the cyclic rows, the rows as intp and their argsort
    _vertices(m * n, lambda: n * n, tables=lambda N: 8 * (2 * m + 3) * N)
    if oa is None:
        x, y = np.divmod(np.arange(n * n), n)
        oa = [x, y, (x + y) % n][:m]
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
    m, v = validate_steiner_blocks(blocks)
    # each point lies on (v - 1) / (m - 1) blocks; the block table, the
    # points and their sorts take 48 bytes per entry
    _vertices(m * ((v - 1) // (m - 1)), lambda: len(blocks), tables=lambda N: 48 * m * N)
    # two blocks share at most one point, and each point lies on the same
    # number r of blocks: the neighbours of v are the blocks through its
    # points, with points ranked by value
    _, point = np.unique(np.array(blocks), return_inverse=True)
    point = point.reshape(len(blocks), m)
    through = (np.argsort(point.ravel(), kind="stable") // m).reshape(point.max() + 1, -1)
    return _label_graph(len(blocks), m * through.shape[1],
                        lambda v: through[point[v]].reshape(len(v), -1))


# -- folded Johnson graphs --------------------------------------------------


def folded_johnson(n: int, d: int) -> Graph:
    """J(2d, d) with each d-set identified with its complement."""
    if n != 2 * d or d < 1:
        raise InputError("folded Johnson graph is defined for J(2d, d), d >= 1")
    half = _vertices(d * d, lambda: comb(n, d) // 2, d - 1, _exchange_bytes(n, d))
    moves = _exchanges(n, d, half)

    def neighbours(v: np.ndarray) -> np.ndarray:
        # complementation reverses the label order, so a class is numbered
        # by its first label: rank r goes to min(r, 2 half - 1 - r)
        r = moves(v)
        return np.minimum(r, 2 * half - 1 - r)
    return _label_graph(half, d * d, neighbours)


_BUILDERS = {
    "johnson": johnson,
    "hamming": hamming,
    "hypercube": hypercube,
    "halved_cube": halved_cube,
    "folded_johnson": folded_johnson,
    "folded_halved_cube": folded_halved_cube,
    "grid": grid,
    "complete_multipartite": complete_multipartite,
    "cocktail_party": cocktail_party,
    "triangular": triangular,
    "latin_square": lambda *params, data=None: latin_square_graph(*params, oa=data),
    "steiner_block_graph": lambda data=None: steiner_block_graph(data),
    "cycle": cycle,
    "complete": complete,
    "icosahedron": icosahedron,
    "petersen": petersen,
}


def build_family(spec: FamilySpec) -> Graph:
    builder = _BUILDERS.get(spec.name)
    if builder is None:
        raise InputError(f"unknown family {spec.name!r}; known: {sorted(_BUILDERS)}")
    data = {} if spec.data is None else {"data": spec.data}
    try:
        return builder(*spec.params, **data)
    except TypeError as exc:
        raise InputError(f"bad parameters for family {spec.name!r}: {exc}") from exc

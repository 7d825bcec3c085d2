"""Local three-cell (C, A, B) partitions: empirical equitability checks on
graphs, the closed-form parameter recursion driven by the local eigenvalues,
quotient matrices, and the level-2 predictions for the two local shapes.

For vertices x, y at distance i, the local graph at y splits into
C = neighbours of y at distance i-1 from x, A = those at distance i,
B = those at distance i+1.  The level-i parameters are

    gamma_i : neighbours inside C of a C-vertex,
    alpha_i : neighbours inside C of an A-vertex,
    beta_i  : neighbours inside B of an A-vertex,
    delta_i : neighbours inside A of a B-vertex.

The empirical check reads the local-partition pass of ``graph``
(``graph._local_blocks``), a few centres y at a time, and reads a failing
level again in scan order from the pair stream of the distance matrix
(``graph._pairs_at``), a block of pairs (x, y) at a time through the local
gather (``graph._local_gather``).  One stacked product
of the neighbours' cell weights (C 1, A 0, B k + 1, each plus (k + 1)^2)
with the local graphs gives the key C + (k + 1) B + (k + 1)^2 (C + A + B)
of v's count row for every (x, y, v), in float32, exact while (k + 1)^3 is
at most 2^22, or in float64.  With m = -1, 0, 1 for v in C, A and B, the
weight and the key that a pair's cell expects are both quadratics in m,
computed by Horner's rule, so no table is looked up per entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import (DomainError, InputError, PreconditionError, ResourceError,
                     SingularityError, require)
from .graph import Graph, _at, _counts, _local_blocks, _local_gather, _pairs_at, _per_block
from .polys import quadratic_roots
from .scalars import ExactScalar, as_exact, exact_eq, sort_desc


def _div(a, b):
    """Exact division: rational operands stay rational (never float)."""
    if isinstance(a, Rational) and isinstance(b, Rational):
        return as_exact(Fraction(a) / Fraction(b))
    return as_exact(a / b)


@dataclass(frozen=True)
class CabLevelParams:
    level: int
    gamma: ExactScalar
    alpha: Optional[ExactScalar]
    beta: Optional[ExactScalar]
    delta: Optional[ExactScalar]

    def as_tuple(self):
        return (self.gamma, self.alpha, self.beta, self.delta)


@dataclass(frozen=True)
class CabDeviation:
    """Lex-first pair and vertex whose cell counts break the pattern."""

    level: int
    x: int
    y: int
    vertex: int
    counts: Tuple[int, int, int]
    expected: Tuple[int, int, int]
    reason: str


@dataclass(frozen=True)
class CabReport:
    holds: bool
    levels: Tuple[CabLevelParams, ...] = ()
    deviation: Optional[CabDeviation] = None
    pairs_checked: int = 0


@dataclass(frozen=True)
class LocalSrgData:
    """Host valency, local valency a_1, and local SRG data (lam', mu', r, s)."""

    k: ExactScalar
    a1: int
    lam: ExactScalar
    mu: ExactScalar
    r: ExactScalar
    s: ExactScalar

    @classmethod
    def from_eigenvalues(cls, a1: int, r, s) -> "LocalSrgData":
        """mu' = a1 + rs, lam' = mu' + r + s, k = (a1 - r)(a1 - s)/mu'."""
        if isinstance(r, Rational):
            r = as_exact(Fraction(r))
        if isinstance(s, Rational):
            s = as_exact(Fraction(s))
        mu = as_exact(a1 + r * s)
        if exact_eq(mu, 0):
            raise SingularityError("mu' = a1 + rs vanishes; local graph is not coedge-regular")
        lam = as_exact(mu + r + s)
        k = _div((a1 - r) * (a1 - s), mu)
        return cls(k, a1, lam, mu, r, s)

    @classmethod
    def from_params(cls, k: int, a1: int, lam: int, mu: int) -> "LocalSrgData":
        """Recover r > s from x^2 - (lam - mu)x - (a1 - mu)."""
        roots = quadratic_roots(lam - mu, a1 - mu)
        if roots is None or roots[0] == roots[1]:
            raise InputError("local parameters do not give two distinct eigenvalues")
        r, s = roots
        return cls(k, a1, as_exact(Fraction(lam)), as_exact(Fraction(mu)), r, s)


# -- empirical check --------------------------------------------------------


def _has_triangle(g: Graph, k: int) -> bool:
    """Whether some edge of the k-regular g lies in a triangle: an AND of
    the packed rows of its ends in the adjacency (the distance matrix's 1
    entries), the edges of a budget's consecutive vertices at a time, 3
    bytes per (edge, packed byte) for the two rows and their AND.  The
    packed rows take n^2 / 8 bytes, below the 768 bytes per vertex that the
    distance matrix predicts for its engine's blocks (n <= 6000)."""
    dm, n = g.distance_matrix(), g.n
    bits = np.empty((n, -(-n // 8)), dtype=np.uint8)
    step = _per_block(n, 2)  # a bool selection and its packed bit per entry
    for lo in range(0, n, step):
        bits[lo:lo + step] = np.packbits(_at(dm, slice(lo, lo + step), 1, 1, False), axis=1)
    step = _per_block(k * bits.shape[1], 3)
    for lo in range(0, n, step):
        u = np.arange(lo, min(lo + step, n)).repeat(k)
        v = g._dst[lo * k:(lo + step) * k]
        up = v > u  # each edge once
        if (bits[u[up]] & bits[v[up]]).any():
            return True
    return False


def cab_partition_check(g: Graph, i_max: Optional[int] = None) -> CabReport:
    """Check the three-cell local partitions are equitable with
    pair-independent parameters at every level 1..i_max.

    ``i_max`` (in 1..D) defaults to the diameter.  At the top level the B
    cell is empty and only (gamma, alpha) are constrained.  Every ordered
    pair at distance 1..i_max is read.  In scan order (level, x, y, cell
    C/A/B, v), a level's parameters are the first count row seen in each
    cell, and the deviation is the first row that differs.  A level fails
    when one of its cells holds two different rows, in any order, so one
    pass of growing blocks of centres y finds the lowest failing level, and
    only that level is read again, in (x, y) order from the pair stream
    (``graph._pairs_at``), a block of pairs at a time, for its first
    deviation.  A graph in which no edge lies in a triangle (a_1 = 0) is
    refused before any pair is read.
    """
    deg = g.degrees()
    k = int(deg[0]) if g.n else 0
    if (deg != k).any():
        raise PreconditionError("graph is not regular")
    if k > 1 << 12:
        raise ResourceError("valency above 4096: the CAB check takes at most 4096")
    if not k or not _has_triangle(g, k):
        raise PreconditionError("a_1 = 0: local graphs are edgeless, partition degenerates")
    D = g.diameter()
    i_max = D if i_max is None else i_max
    if not 1 <= i_max <= D:
        raise InputError(f"level {i_max} outside 1..{D}")
    dm = g.distance_matrix()
    base = k + 1  # a count row (C, A, B) is the key C + base B + base^2 (C + A + B)
    # keys, their partial sums and the expected keys' coefficients are
    # integers or halves below base^3: float32 holds them exactly below 2^22
    key_type = np.dtype(np.float32 if base ** 3 <= 1 << 22 else np.float64)
    half = (base - 1) / 2
    refs = np.full(3 * (i_max + 1), -1, dtype=key_type)  # by 3 level + cell; -1 until seen
    # by level, the coefficients of the quadratic in m = -1, 0, 1 through
    # the level's reference keys in C, A and B
    coefs = np.empty((3, i_max + 1), dtype=key_type)

    def fit():
        rc, ra, rb = refs.reshape(-1, 3).T
        coefs[:] = ra, (rb - rc) / 2, (rb + rc) / 2 - ra

    def quadratic(m, c0, c1, c2):
        """c0 + c1 m + c2 m^2 in key_type, by Horner."""
        out = np.multiply(m, c2, dtype=key_type)
        out += c1
        out *= m
        out += c0
        return out

    def check(dist, local, top: int):
        """(level, m, key, bad): each pair's level, m = -1, 0, 1 for each
        (v, pair) in C, A and B, its key, and the pairs at levels 1..top
        with a key not their cell's, whose first (y, v) sets it when still
        unseen.  The weight of a neighbour in the product is 1, 0 or base
        in C, A and B, plus base^2, which counts the local degree; both it
        and the key a pair's cell expects are quadratics in m."""
        level = dist.min(axis=1) + 1  # a neighbour of y on a geodesic to x
        m = np.subtract(dist, level[:, None, :], out=dist)
        key = np.matmul(local.astype(key_type), quadratic(m, base ** 2, half, half + 1))
        on = level <= top
        bad = (key != quadratic(m, *coefs[:, level][:, :, None])).any(axis=1) & on
        if bad.any():
            at = (m + (3 * level + 1)[:, None, :]).ravel()
            met = (np.bincount(at, minlength=len(refs)) > 0) & (refs < 0)
            for j in np.flatnonzero(met):
                refs[j] = key.ravel()[np.argmax(at == j)]
            fit()
            bad = (key != quadratic(m, *coefs[:, level][:, :, None])).any(axis=1) & on
        return level, m, key, bad

    fit()

    top = i_max  # the levels above top fail
    # bytes written per entry: an int16 distance, a weight, a key and an
    # expected key, their bool comparison, and at most one of the gather's
    # index (the local graphs' k^2 entries take fewer)
    width = 4 + 3 * key_type.itemsize
    # every pair (x, y) at distance 1..i_max; blocks grow from one centre,
    # so a bad centre early in the order stops the pass early
    for _, _, dist, local in _local_blocks(g, 1, i_max, False, width, grow=True):
        level, _, _, bad = check(dist, local, top)
        if bad.any():
            top = int(level[bad].min()) - 1
            if not top:
                break
    rows = [_unpack(r, base) if r >= 0 else (None,) * 3 for r in refs]
    out_levels = tuple(CabLevelParams(i, rows[3 * i][0] or 0, rows[3 * i + 1][0],
                                      rows[3 * i + 1][2], rows[3 * i + 2][1])
                       for i in range(1, top + 1))
    checked = int(_counts(dm, 1, top, False).sum())
    if top == i_max:
        return CabReport(True, out_levels, None, checked)
    # level i fails: its references go by scan order, read again in (x, y)
    # order from the pair stream, a block of pairs at a time, each pair one
    # centre y with one partner x
    i = top + 1
    refs[3 * i:3 * i + 3] = -1
    fit()
    step = _per_block((k + 1) * k, width)
    for xs, ys, *_ in _pairs_at(dm, i, i, False):
        for lo in range(0, len(xs), step):
            x, y = xs[lo:lo + step], ys[lo:lo + step]
            _, m, key, bad = check(*_local_gather(g, y, x[:, None]), i)
            if bad.any():
                b = int(np.argmax(bad[:, 0]))
                at, key = m[b, :, 0] + 3 * i + 1, key[b, :, 0]
                # the pair's first bad row in (cell, v) order
                a = int(np.argmin(np.where(key != refs[at], at, len(refs))))
                j = at[a]
                return CabReport(False, out_levels, CabDeviation(
                    i, int(x[b]), int(y[b]), g.neighbors(int(y[b]))[a], _unpack(key[a], base),
                    _unpack(refs[j], base), f"counts differ within cell {'CAB'[j % 3]}"),
                    checked + lo + b + 1)
        checked += len(xs)
    raise AssertionError("a failing level has a deviation")


def _unpack(key, base: int) -> Tuple[int, int, int]:
    """The count row (C, A, B) of the key C + base B + base^2 (C + A + B)."""
    c, b, size = int(key) % base, int(key) // base % base, int(key) // base ** 2
    return c, size - c - b, b


# -- closed-form recursion --------------------------------------------------


def cab_formula_params(local: LocalSrgData, c: Sequence[int],
                       levels: Optional[int] = None
                       ) -> Tuple[List[CabLevelParams], List[ExactScalar]]:
    """Predicted parameters at levels 1..levels from the local eigenvalues
    and the c-sequence (c_1..c_D), via the recursion

        gamma_i = delta_{i-1},   delta_0 = 0,
        b_i = k - c_i - c_i (a1-d)^2 / ((a1-d)(a1-r-s+d) - mu'(k-c_i)),
        alpha_i = c_i (a1-d) / (k - c_i - b_i),
        beta_i = mu' b_i / (a1-d),
        delta_i = mu' (k-c_i)/(a1-d) - beta_i,       with d = delta_{i-1}.

    Raises SingularityError naming the level when a denominator vanishes.
    """
    k, a1, mu, r, s = local.k, local.a1, local.mu, local.r, local.s
    if levels is None:
        levels = len(c)
    if levels > len(c):
        raise InputError("more levels requested than c-values supplied")
    trace = as_exact(a1 - r - s)
    delta_prev: ExactScalar = 0
    out = []
    b_pred: List[ExactScalar] = []
    for i in range(1, levels + 1):
        ci = c[i - 1]
        d = delta_prev
        ad = as_exact(a1 - d)
        if exact_eq(ad, 0):
            raise SingularityError(f"level {i}: a_1 - delta_{i-1} vanishes")
        den = as_exact(ad * (trace + d) - mu * (k - ci))
        if exact_eq(den, 0):
            raise SingularityError(f"level {i}: quadratic denominator vanishes")
        bi = as_exact(k - ci - _div(ci * ad * ad, den))
        kb = as_exact(k - ci - bi)
        if exact_eq(kb, 0):
            raise SingularityError(f"level {i}: a-cell size k - c_i - b_i vanishes")
        alpha = _div(ci * ad, kb)
        beta = _div(mu * bi, ad)
        delta = as_exact(_div(mu * (k - ci), ad) - beta)
        # row sums of the quotient matrix force this trace identity
        require(exact_eq(as_exact(alpha + beta + delta - d), trace),
                f"trace identity fails at level {i}")
        out.append(CabLevelParams(i, d, alpha, beta, delta))
        b_pred.append(bi)
        delta_prev = delta
    return out, b_pred


def quotient_matrix(a1: int, p: CabLevelParams) -> Tuple[Tuple[ExactScalar, ...], ...]:
    """3x3 quotient matrix of the level's partition; rows C, A, B."""
    if p.alpha is None or p.beta is None or p.delta is None:
        raise DomainError(f"level {p.level} has an empty cell; no 3x3 quotient")
    g_, al, be, de = p.gamma, p.alpha, p.beta, p.delta
    return (
        (as_exact(g_), as_exact(a1 - g_), 0),
        (as_exact(al), as_exact(a1 - al - be), as_exact(be)),
        (0, as_exact(de), as_exact(a1 - de)),
    )


def quotient_spectrum(Q: Sequence[Sequence[ExactScalar]]) -> List[ExactScalar]:
    """Exact real eigenvalues of a 3x3 rational matrix whose rows share the
    sum a_1, such as a CAB quotient, descending with repeats.

    The all-ones vector gives the eigenvalue a_1, so the characteristic
    polynomial x^3 - tr x^2 + m x - det, m the sum of the principal 2x2
    minors, is (x - a_1)(x^2 - t x + q) with t = tr - a_1 and
    q = m - a_1 t (= det / a_1 when a_1 != 0); when x^2 - t x + q has no
    real root, a_1 is the only one."""
    (a, b, c), (d, e, f), (g, h, i) = (map(Fraction, row) for row in Q)
    a1 = a + b + c
    if d + e + f != a1 or g + h + i != a1:
        raise DomainError("the rows of the quotient do not share one sum")
    t = a + e + i - a1
    minors = a * e - b * d + a * i - c * g + e * i - f * h
    roots = quadratic_roots(t, a1 * t - minors) or ()
    out = [(a1, None), *((r, None) for r in roots)]
    sort_desc(out)
    return [val for val, _ in out]


# -- level-2 shapes ---------------------------------------------------------


@dataclass(frozen=True)
class Cab2Prediction:
    alpha2: ExactScalar
    beta2: ExactScalar
    delta2: ExactScalar
    a2: ExactScalar
    b2: ExactScalar
    c2: ExactScalar


def predict_cab2(kind: str, m: int, n: int) -> Cab2Prediction:
    """Level-2 parameters when the local graph has Latin-square shape LS_m(n)
    or Steiner shape S_m(n)."""
    if n <= m:
        raise DomainError(f"need n > m, got m={m}, n={n}")
    if kind == "latin_square":
        return Cab2Prediction(
            m, (m - 1) * (n - m * m + m), m * m * (m - 1),
            m * m * (n - m), (n - m) * (n - m * m + m), m * m)
    if kind == "steiner":
        b2 = Fraction((m - 1) * (n - m) * (n - m * m + 1), m)
        return Cab2Prediction(
            m + 1, (m - 1) * (n - m * m + 1), m ** 3,
            m * m * (n - m), as_exact(b2), m * (m + 1))
    raise InputError(f"unknown level-2 shape {kind!r}")


def cab2_closed_form(local: LocalSrgData, c2) -> Tuple[ExactScalar, ...]:
    """(gamma2, alpha2, beta2, delta2, b2) straight from the recursion with
    c = (1, c2)."""
    levels, b_pred = cab_formula_params(local, (1, c2))
    p = levels[1]
    return (p.gamma, p.alpha, p.beta, p.delta, b_pred[1])


def c2_bound(b: ExactScalar, mu: ExactScalar) -> ExactScalar:
    """c_2 <= (4b^2 + 1)(mu' + 1)."""
    return as_exact((4 * b * b + 1) * (mu + 1))

"""Exact real-root extraction for polynomials with rational coefficients.

Strategy: factor over Q (sympy), then read roots off the irreducible factors.
Linear factors give rationals, quadratic factors give surds, higher-degree
factors are isolated into certified rational intervals.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Sequence, Tuple

import sympy

from .errors import require
from .scalars import ExactScalar, Interval, Surd, sort_desc

_X = sympy.Symbol("x")


def eval_poly(coeffs: Sequence, x):
    """Horner evaluation; ``coeffs`` ascending by degree."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def poly_mul(p: Sequence[int], q: Sequence[int]) -> List[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _clear_denominators(coeffs: Sequence) -> List[int]:
    fracs = [Fraction(c) for c in coeffs]
    den = 1
    for f in fracs:
        den = den * f.denominator // gcd(den, f.denominator)
    return [int(f * den) for f in fracs]


def _interval_root(factor: "sympy.Poly", root, precision: int) -> Interval:
    def refiner(width: Fraction) -> Tuple[Fraction, Fraction]:
        dx = sympy.Rational(width.numerator, 2 * width.denominator)
        mid = root.eval_rational(dx=dx)
        mid = Fraction(int(mid.p), int(mid.q))
        half = width / 2
        return mid - half, mid + half

    lo, hi = refiner(Fraction(1, 10 ** precision))
    return Interval(lo, hi, refiner)


def real_roots(coeffs: Sequence, precision: int = 9) -> List[Tuple[ExactScalar, int]]:
    """All real roots of the polynomial with ascending ``coeffs``.

    Returns (root, multiplicity) pairs sorted strictly descending.
    """
    ints = _clear_denominators(coeffs)
    while ints and ints[-1] == 0:
        ints.pop()
    if len(ints) <= 1:
        raise ValueError("constant polynomial has no well-defined roots")
    poly = sympy.Poly(list(reversed(ints)), _X, domain="ZZ")
    out: List[Tuple[ExactScalar, int]] = []
    for fac, mult in poly.factor_list()[1]:
        cs = [int(c) for c in fac.all_coeffs()]  # descending
        deg = len(cs) - 1
        if deg == 1:
            a, b = cs
            out.append((Fraction(-b, a), mult))
        elif deg == 2:
            a, b, c = cs
            disc = b * b - 4 * a * c
            if disc <= 0:
                continue  # irreducible with no real roots (disc=0 impossible)
            out.append((Surd(-b, 1, disc, 2 * a), mult))
            out.append((Surd(-b, -1, disc, 2 * a), mult))
        else:
            # CRootOf indexes the real roots of an irreducible factor first,
            # in increasing order, and supports exact rational refinement.
            for idx in range(fac.count_roots()):
                r = sympy.CRootOf(fac.as_expr(), idx)
                out.append((_interval_root(fac, r, precision), mult))
    sort_desc(out)
    return out


def charpoly_tridiagonal(diag: Sequence[int], lower: Sequence[int], upper: Sequence[int]) -> List[int]:
    """Characteristic polynomial det(xI - T) of a tridiagonal matrix.

    ``diag`` has length n, ``lower``/``upper`` length n-1 (entries (i+1,i) and
    (i,i+1)).  Ascending integer coefficients.
    """
    prev2: List[int] = [1]
    prev1: List[int] = [-diag[0], 1]
    for i in range(1, len(diag)):
        term = poly_mul([-diag[i], 1], prev1)
        off = lower[i - 1] * upper[i - 1]
        cur = [a - off * b for a, b in zip(term, prev2 + [0] * (len(term) - len(prev2)))]
        prev2, prev1 = prev1, cur
    return prev1


def charpoly_dense(rows: Sequence[Sequence[int]]) -> List[int]:
    """Exact characteristic polynomial of an integer matrix by interpolation.

    Evaluates det(tI - A) at t = 0..n via fraction-free elimination, then
    interpolates.  O(n^4) big-integer work; intended for small matrices.
    """
    n = len(rows)
    if n == 0:
        return [1]
    points = list(range(n + 1))
    values = []
    for t in points:
        m = [[(t if i == j else 0) - rows[i][j] for j in range(n)] for i in range(n)]
        values.append(_det_bareiss(m))
    # Newton divided differences over the integer points 0..n
    coeffs_newton: List[Fraction] = []
    table = [Fraction(v) for v in values]
    for level in range(n + 1):
        coeffs_newton.append(table[0])
        table = [(table[i + 1] - table[i]) / (points[i + 1 + level] - points[i])
                 for i in range(len(table) - 1)]
    poly: List[Fraction] = [Fraction(0)] * (n + 1)
    basis = [Fraction(1)]
    for level in range(n + 1):
        for i, c in enumerate(basis):
            poly[i] += coeffs_newton[level] * c
        basis = [a - points[level] * b for a, b in
                 zip([Fraction(0)] + basis, basis + [Fraction(0)])]
    require(all(c.denominator == 1 for c in poly), "charpoly must be integral")
    return [int(c) for c in poly]


def _det_bareiss(m: List[List[int]]) -> int:
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rational_nullity(rows: Sequence[Sequence[int]]) -> int:
    """Nullity of an integer matrix over Q (Gaussian elimination)."""
    n = len(rows)
    if n == 0:
        return 0
    mat = [[Fraction(v) for v in row] for row in rows]
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, n) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for r in range(rank + 1, n):
            if mat[r][col] != 0:
                factor = mat[r][col] / pv
                row_r, row_p = mat[r], mat[rank]
                for j in range(col, ncols):
                    row_r[j] -= factor * row_p[j]
        rank += 1
        if rank == n:
            break
    return ncols - rank

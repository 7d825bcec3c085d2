"""Reference for exact spectra (``graph.graph_spectrum``,
``cab.quotient_spectrum``): the routes they replaced.

- ``spectrum_by_verification``: floating-point eigenvalue hints, each
  certified by an exact rational nullity; accepted only when the certified
  multiplicities sum to n.
- ``charpoly_dense``: the characteristic polynomial by interpolation of
  fraction-free (Bareiss) determinants at t = 0..n.
- ``charpoly_berkowitz``: Berkowitz's division-free algorithm (sympy
  ``DomainMatrix.charpoly``) over ZZ, or over QQ when some entry is not an
  integer.

``oracle_spectrum`` is the old ``graph_spectrum``: verification first, the
interpolated characteristic polynomial when it fails.  The differential
tests in ``test_spectrum.py`` compare the library against it and against
the Berkowitz polynomial, and those of ``test_cab.py`` the closed-form
quotient spectrum against the Berkowitz polynomial's roots.
"""

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np
from sympy import QQ, ZZ
from sympy.polys.matrices import DomainMatrix

from drglab.graph import Graph
from drglab.polys import real_roots
from drglab.scalars import ExactScalar, Surd, sort_desc


def rational_nullity(rows: Sequence[Sequence[int]]) -> int:
    """Nullity of an integer matrix over Q, by fraction-free (Bareiss)
    elimination: after each pivot every entry below it is a minor of the
    matrix, so each division by the previous pivot is exact and no Fraction
    is made."""
    mat = [[int(v) for v in row] for row in rows]
    n = len(mat)
    if n == 0:
        return 0
    ncols = len(mat[0])
    rank, prev = 0, 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, n) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        row_p = mat[rank]
        pv = row_p[col]
        # every row below, a zero in the pivot column included, is scaled,
        # so that its entries stay minors
        for r in range(rank + 1, n):
            row_r = mat[r]
            factor = row_r[col]
            for j in range(col + 1, ncols):
                row_r[j] = (row_r[j] * pv - factor * row_p[j]) // prev
            row_r[col] = 0
        prev = pv
        rank += 1
        if rank == n:
            break
    return ncols - rank


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


def charpoly_dense(rows: Sequence[Sequence[int]]) -> List[int]:
    """Exact characteristic polynomial of an integer matrix by interpolation,
    ascending.  Evaluates det(tI - A) at t = 0..n by fraction-free
    elimination, then interpolates: O(n^4) big-integer work."""
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
    assert all(c.denominator == 1 for c in poly), "charpoly must be integral"
    return [int(c) for c in poly]


def charpoly_berkowitz(rows: Sequence[Sequence]) -> List:
    """Characteristic polynomial det(xI - M) of a square integer or rational
    matrix, ascending: ints for an integer matrix, else Fractions."""
    m = [[x if isinstance(x, int) else Fraction(x) for x in row] for row in rows]
    shape = (len(m), len(m))
    if all(x.denominator == 1 for row in m for x in row):
        mat = DomainMatrix([[ZZ(int(x)) for x in row] for row in m], shape, ZZ)
        return [int(c) for c in reversed(mat.charpoly())]
    mat = DomainMatrix([[QQ(x.numerator, x.denominator) for x in row] for row in m],
                       shape, QQ)
    return [Fraction(int(c.numerator), int(c.denominator))
            for c in reversed(mat.charpoly())]


def spectrum_by_verification(g: Graph) -> Optional[List[Tuple[ExactScalar, int]]]:
    """Numeric hints + exact nullity verification.

    Floats only generate candidates; every multiplicity is certified by an
    exact rational rank computation, and the result is accepted only when the
    certified multiplicities sum to n.
    """
    n = g.n
    A = g.adjacency_matrix()
    vals = np.linalg.eigvalsh(A.astype(np.float64))
    clusters: List[float] = []
    for v in sorted(vals.tolist()):
        if not clusters or v - clusters[-1] > 1e-7:
            clusters.append(v)
    ints = [c for c in clusters if abs(c - round(c)) < 1e-6]
    others = [c for c in clusters if abs(c - round(c)) >= 1e-6]
    out: List[Tuple[ExactScalar, int]] = []
    total = 0
    Al = A.tolist()
    for c in ints:
        t = round(c)
        m = [[Al[i][j] - (t if i == j else 0) for j in range(n)] for i in range(n)]
        mult = rational_nullity(m)
        if mult == 0:
            return None
        out.append((Fraction(t), mult))
        total += mult
    # pair leftover clusters into conjugate quadratics x^2 - s x + p
    used = [False] * len(others)
    A2 = (A @ A).tolist()
    for i, ci in enumerate(others):
        if used[i]:
            continue
        hit = False
        for j in range(i + 1, len(others)):
            if used[j]:
                continue
            s, p = ci + others[j], ci * others[j]
            if abs(s - round(s)) < 1e-6 and abs(p - round(p)) < 1e-6:
                si, pi = round(s), round(p)
                disc = si * si - 4 * pi
                if disc <= 0:
                    continue
                fmat = [[A2[r][col] - si * Al[r][col] + (pi if r == col else 0)
                         for col in range(n)] for r in range(n)]
                nullity = rational_nullity(fmat)
                if nullity == 0 or nullity % 2:
                    continue
                mult = nullity // 2
                out.append((Surd(si, 1, disc, 2), mult))
                out.append((Surd(si, -1, disc, 2), mult))
                total += nullity
                used[i] = used[j] = True
                hit = True
                break
        if not hit:
            return None
    if total != n:
        return None
    sort_desc(out)
    return out


def oracle_spectrum(g: Graph) -> List[Tuple[ExactScalar, int]]:
    """The exact spectrum by verification, else by the interpolated
    characteristic polynomial."""
    verified = spectrum_by_verification(g)
    if verified is not None:
        return verified
    return real_roots(charpoly_dense(g.adjacency_matrix().tolist()))

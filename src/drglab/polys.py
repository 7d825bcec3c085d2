"""Exact characteristic polynomials and their real roots.

A characteristic polynomial comes from one of two exact routes: the
three-term recursion for tridiagonal matrices (the intersection matrices of
the array layer), and Berkowitz's division-free algorithm (sympy
``DomainMatrix.charpoly``) for any other square integer or rational matrix.

Roots: factor over Q (sympy), then read roots off the irreducible factors.
Linear factors give rationals, quadratic factors give surds, higher-degree
factors are isolated into certified rational intervals of width
``ROOT_WIDTH`` that refine on demand.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Sequence, Tuple

import sympy
from sympy import QQ, ZZ
from sympy.polys.matrices import DomainMatrix

from .scalars import ExactScalar, Interval, Surd, sort_desc

_X = sympy.Symbol("x")

#: width of the first enclosure of a root of degree 3 or more
ROOT_WIDTH = Fraction(1, 10 ** 9)


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


def _interval_root(root) -> Interval:
    def refiner(width: Fraction) -> Tuple[Fraction, Fraction]:
        dx = sympy.Rational(width.numerator, 2 * width.denominator)
        mid = root.eval_rational(dx=dx)
        mid = Fraction(int(mid.p), int(mid.q))
        half = width / 2
        return mid - half, mid + half

    lo, hi = refiner(ROOT_WIDTH)
    return Interval(lo, hi, refiner)


def real_roots(coeffs: Sequence) -> List[Tuple[ExactScalar, int]]:
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
                out.append((_interval_root(r), mult))
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


def charpoly(rows: Sequence[Sequence]) -> List:
    """Characteristic polynomial det(xI - M) of a square integer or rational
    matrix, ascending: ints for an integer matrix, else Fractions.

    Berkowitz's division-free algorithm (sympy ``DomainMatrix.charpoly``),
    over ZZ, or over QQ when some entry is not an integer.
    """
    m = [[x if isinstance(x, int) else Fraction(x) for x in row] for row in rows]
    shape = (len(m), len(m))
    if all(x.denominator == 1 for row in m for x in row):
        mat = DomainMatrix([[ZZ(int(x)) for x in row] for row in m], shape, ZZ)
        return [int(c) for c in reversed(mat.charpoly())]
    mat = DomainMatrix([[QQ(x.numerator, x.denominator) for x in row] for row in m],
                       shape, QQ)
    return [Fraction(int(c.numerator), int(c.denominator))
            for c in reversed(mat.charpoly())]

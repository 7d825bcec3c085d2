"""Exact characteristic polynomials and their real roots.

A characteristic polynomial comes from one of two exact routes: the
three-term recursion for tridiagonal matrices (the intersection matrices of
the array layer), and, for any other square integer or rational matrix,
Hessenberg reduction modulo word-size primes joined by Chinese remaindering
(``charpoly``; Cohen, *A Course in Computational Algebraic Number Theory*,
1993, ch. 2).  The number of primes follows from Hadamard's bound on the
coefficients, so the result is exact, not probable; a rational matrix is
scaled by its common denominator first.

Roots: split into squarefree parts, factor each over Q (sympy), then read
roots off the irreducible factors.  sympy is imported on first use, by the
functions that factor, isolate or find primes (``real_roots``,
``_interval_root``, ``_prime``), so a process that never factors, such as
``classify --ia`` of an array whose eigenvalues are all integers, never loads
it.
Linear factors give rationals, quadratic factors give surds, higher-degree
factors are isolated into certified rational intervals of width
``ROOT_WIDTH`` that refine on demand.  A tridiagonal matrix with positive
off-diagonal products, such as an intersection matrix, skips the factoring
for its integer roots (``tridiagonal_roots``): they are found by exact Sturm
bisection on the three-term recursion, and only the charpoly divided by them
is factored, when some root is irrational.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, count
from math import gcd, isqrt, lcm
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import require
from .scalars import ExactScalar, Interval, Surd, sort_desc

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


def _interval_root(fac, lo, hi) -> Interval:
    """The root of the irreducible sympy ``Poly`` ``fac`` in its isolating
    interval (lo, hi), refined by ``Poly.refine_root`` from the last
    enclosure."""
    import sympy

    box = [lo, hi]

    def refiner(width: Fraction) -> Tuple[Fraction, Fraction]:
        box[:] = fac.refine_root(*box, eps=sympy.Rational(width.numerator, width.denominator))
        return tuple(Fraction(int(x.p), int(x.q)) for x in box)

    return Interval(*refiner(ROOT_WIDTH), refiner)


def real_roots(coeffs: Sequence) -> List[Tuple[ExactScalar, int]]:
    """All real roots of the polynomial with ascending ``coeffs``.

    Returns (root, multiplicity) pairs sorted strictly descending.
    """
    ints = _clear_denominators(coeffs)
    while ints and ints[-1] == 0:
        ints.pop()
    if len(ints) <= 1:
        raise ValueError("constant polynomial has no well-defined roots")
    import sympy

    poly = sympy.Poly(list(reversed(ints)), sympy.Symbol("x"), domain="ZZ")
    # squarefree parts first: a characteristic polynomial with repeated
    # roots factors much faster part by part than whole
    factors = [(fac, mult * inner) for part, mult in poly.sqf_list()[1]
               for fac, inner in part.factor_list()[1]]
    out: List[Tuple[ExactScalar, int]] = []
    for fac, mult in factors:
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
            # rational isolating intervals of the real roots, none of them
            # rational, refined exactly on demand
            for (lo, hi), _ in fac.intervals():
                out.append((_interval_root(fac, lo, hi), mult))
    sort_desc(out)
    return out


def quadratic_roots(t: int, c: int) -> Optional[Tuple[ExactScalar, ExactScalar]]:
    """The real roots r >= s of x^2 - t x - c, exact: rationals when the
    discriminant t^2 + 4c is a square, else conjugate surds; None when it is
    negative."""
    disc = t * t + 4 * c
    if disc < 0:
        return None
    root = isqrt(disc)
    if root * root == disc:
        return Fraction(t + root, 2), Fraction(t - root, 2)
    return Surd(t, 1, disc, 2), Surd(t, -1, disc, 2)


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


def tridiagonal_roots(diag: Sequence[int], lower: Sequence[int],
                      upper: Sequence[int]) -> List[Tuple[ExactScalar, int]]:
    """``real_roots(charpoly_tridiagonal(diag, lower, upper))`` of an integer
    tridiagonal matrix whose products ``lower[i] * upper[i]`` are all
    positive, such as an intersection matrix, factoring only what is left
    once the integer roots are found.

    Such a matrix is similar to an unreduced symmetric one, so its roots are
    real and simple and those of its leading minors q_0 = 1, ..., q_n
    interlace.  The sign changes in (q_0(x), ..., q_n(x)) at an integer x
    count the roots above x (``_roots_above``).  Bisection over the integers
    in (-R - 1, R], with R the largest absolute row sum, so that every root
    lies in [-R, R], puts the roots in unit intervals (m - 1, m]; m is a
    root exactly when q_n(m) = 0.  Every other root is irrational, as the
    rational roots of a monic integer polynomial are integers, and only the
    charpoly divided by the integer roots goes to ``real_roots``.
    """
    n = len(diag)
    offs = [lo * up for lo, up in zip(lower, upper)]
    if len(offs) != n - 1 or any(off <= 0 for off in offs):
        raise ValueError("Sturm bisection needs n - 1 positive off-diagonal products")
    bound = max(abs(a) + abs(lo) + abs(up)
                for a, lo, up in zip(diag, [0, *lower], [*upper, 0]))
    integers: List[int] = []
    # (lo, roots above lo, hi, (roots above hi, q_n(hi))); no root is above R
    stack = [(-bound - 1, n, bound, _roots_above(diag, offs, bound))]
    while stack:
        lo, above_lo, hi, at_hi = stack.pop()
        if above_lo == at_hi[0]:
            continue
        if hi - lo == 1:
            if at_hi[1] == 0:
                integers.append(hi)
            continue
        mid = (lo + hi) // 2
        at_mid = _roots_above(diag, offs, mid)
        stack += [(lo, above_lo, mid, at_mid), (mid, at_mid[0], hi, at_hi)]
    found: List[Tuple[ExactScalar, int]] = [(Fraction(m), 1) for m in integers]
    if len(integers) < n:
        quotient = charpoly_tridiagonal(diag, lower, upper)
        for m in integers:
            quotient = _divide_linear(quotient, m)
        found += real_roots(quotient)
    sort_desc(found)
    return found


def _roots_above(diag: Sequence[int], offs: Sequence[int], x: int) -> Tuple[int, int]:
    """(number of roots above x, q_n(x)) for the leading minors
    q_{i+1}(x) = (x - diag[i]) q_i(x) - offs[i-1] q_{i-1}(x) with positive
    ``offs``, in exact integers.

    Zeros are skipped when the sign changes are counted: each minor is
    compared with the last nonzero one, in the one pass that computes them
    (q_0 = 1 and q_{-1} = 0).  An inner zero q_i(x) = 0 then makes one
    change, which is right whatever sign it is given, as
    q_{i+1}(x) = -offs[i-1] q_{i-1}(x) has the opposite sign of q_{i-1}(x).
    A zero q_n(x), x a root, makes none: just above x, q_n has the sign of
    q_{n-1}(x) by interlacing.
    """
    prev, q, last, changes = 0, 1, 1, 0
    for a, off in zip(diag, chain((0,), offs)):
        prev, q = q, (x - a) * q - off * prev
        changes += q < 0 < last or last < 0 < q
        last = q or last
    return changes, q


def _divide_linear(coeffs: Sequence[int], m: int) -> List[int]:
    """The ascending quotient of ``coeffs`` by (x - m), a factor of it."""
    out = [0] * (len(coeffs) - 1)
    acc = 0
    for i in range(len(coeffs) - 1, 0, -1):
        acc = acc * m + coeffs[i]
        out[i - 1] = acc
    require(acc * m + coeffs[0] == 0, "divided by a linear factor that does not divide")
    return out


def charpoly(rows: Sequence[Sequence]) -> List:
    """Characteristic polynomial det(xI - M) of a square integer or rational
    matrix, ascending: ints for an integer matrix, else Fractions.

    One exact route: with d the common denominator of the entries, the
    coefficients c_j(dM) of the integer matrix dM are found modulo primes
    (``_charpoly_mod``) and joined by Chinese remaindering, and
    c_j(M) = c_j(dM) / d^(n - j).  The coefficient of x^(n - j) is +- the sum
    of the j x j principal minors, so by Hadamard's inequality it is at most
    B = prod_i (1 + ceil(|row_i|_2)) in absolute value; primes are taken until
    their product exceeds 2B, and each coefficient is the symmetric residue.
    The primes are the largest below 2^b, with b = (63 - bitlength(n)) // 2,
    so that n (p - 1)^2 < 2^63: every int64 intermediate, the n-term dot
    products included, stays below 2^63.
    """
    m = [[x if isinstance(x, int) else Fraction(x) for x in row] for row in rows]
    n = len(m)
    if n == 0:
        return [1]
    den = lcm(*(x.denominator for row in m for x in row if not isinstance(x, int)))
    big = np.array([[int(x * den) for x in row] for row in m], dtype=object)
    bound = 1
    for sq in (big * big).sum(axis=1):
        if sq:
            bound *= isqrt(sq - 1) + 2  # 1 + ceil(sqrt(sq))
    bits = (63 - n.bit_length()) // 2
    coeffs, modulus = np.zeros(n + 1, dtype=object), 1
    for i in count():
        if modulus > 2 * bound:
            break
        p = _prime(bits, i)
        require(n * (p - 1) ** 2 < 1 << 63, "int64 overflow in the modular charpoly")
        residues = _charpoly_mod(np.remainder(big, p).astype(np.int64), p).astype(object)
        coeffs += modulus * ((residues - coeffs) * pow(modulus, -1, p) % p)
        modulus *= p
    half = modulus // 2
    ints = [int(c) - modulus if c > half else int(c) for c in coeffs]
    if den == 1:
        return ints
    return [Fraction(c, den ** (n - j)) for j, c in enumerate(ints)]


#: the largest primes below 2^bits, by bits, found as they are first needed
_PRIMES: Dict[int, List[int]] = {}


def _prime(bits: int, i: int) -> int:
    """The (i + 1)-th largest prime below 2^bits."""
    import sympy

    found = _PRIMES.setdefault(bits, [])
    while len(found) <= i:
        found.append(int(sympy.prevprime(found[-1] if found else 1 << bits)))
    return found[i]


def _charpoly_mod(h: np.ndarray, p: int) -> np.ndarray:
    """det(xI - H) mod p, ascending, of an int64 matrix with entries in
    [0, p), which it overwrites.

    H is reduced to upper Hessenberg form by similarity: for each column j
    a nonzero pivot below the diagonal moves to row j + 1 (a column that is
    zero there is skipped), and the rows beneath subtract multiples of it.
    Then P_m = det(xI - H[:m, :m]) satisfies
    P_m = (x - h[m-1, m-1]) P_{m-1}
          - sum_{i < m-1} h[i, m-1] h[i+1, i] ... h[m-1, m-2] P_i,
    whose subdiagonal products are one vector, updated per column.
    """
    n = len(h)
    for j in range(n - 2):
        below = np.flatnonzero(h[j + 1:, j])
        if below.size == 0:
            continue
        r = j + 1 + int(below[0])
        if r != j + 1:
            h[[j + 1, r]] = h[[r, j + 1]]
            h[:, [j + 1, r]] = h[:, [r, j + 1]]
        u = h[j + 2:, j] * pow(int(h[j + 1, j]), -1, p) % p
        h[j + 2:, j:] = (h[j + 2:, j:] - np.outer(u, h[j + 1, j:])) % p
        h[:, j + 1] = (h[:, j + 1] + h[:, j + 2:] @ u) % p
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    prods = np.ones(n, dtype=np.int64)  # prods[i] = h[i+1, i] ... h[m-1, m-2]
    for m in range(1, n + 1):
        if m >= 2:
            prods[:m - 1] = prods[:m - 1] * h[m - 1, m - 2] % p
        tail = (h[:m - 1, m - 1] * prods[:m - 1] % p) @ polys[:m - 1, :m] % p
        polys[m, 1:m + 1] = polys[m - 1, :m]
        polys[m, :m] = (polys[m, :m] - h[m - 1, m - 1] * polys[m - 1, :m] - tail) % p
    return polys[n]

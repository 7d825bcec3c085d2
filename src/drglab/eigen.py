"""Eigenvalues of intersection arrays and the derived parameter b1/(theta1+1)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from typing import Tuple

from .arrays import IntersectionArray, basic_feasibility
from .errors import InputError, InternalError, require
from .polys import ROOT_WIDTH, charpoly_tridiagonal, real_roots
from .scalars import ExactScalar, Interval, Surd, exact_cmp


@dataclass(frozen=True)
class EigenvalueList:
    """Distinct eigenvalues theta_0 > theta_1 > ... > theta_D."""

    values: Tuple[ExactScalar, ...]

    def __post_init__(self):
        for a, b in zip(self.values, self.values[1:]):
            if exact_cmp(a, b) <= 0:
                raise InternalError("eigenvalues not strictly decreasing")

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __iter__(self):
        return iter(self.values)


def intersection_matrix(ia: IntersectionArray):
    """The (D+1)x(D+1) tridiagonal matrix with rows (c_i, a_i, b_i)."""
    D = ia.D
    rows = [[0] * (D + 1) for _ in range(D + 1)]
    for i in range(D + 1):
        rows[i][i] = ia.a_at(i)
        if i > 0:
            rows[i][i - 1] = ia.c_at(i)
        if i < D:
            rows[i][i + 1] = ia.b_at(i)
    return rows


#: spectra kept by :func:`eigenvalues`; one ``drglab classify`` call asks
#: for the spectrum of its array up to five times
SPECTRUM_CACHE_SIZE = 16


@lru_cache(maxsize=SPECTRUM_CACHE_SIZE)
def _spectrum(ia: IntersectionArray) -> EigenvalueList:
    rep = basic_feasibility(ia)
    if not rep.passed:
        raise InputError(f"infeasible intersection array: {rep.witness}")
    D = ia.D
    diag = [ia.a_at(i) for i in range(D + 1)]
    lower = [ia.c_at(i) for i in range(1, D + 1)]
    upper = [ia.b_at(i) for i in range(D)]
    coeffs = charpoly_tridiagonal(diag, lower, upper)
    roots = real_roots(coeffs)
    if sum(m for _, m in roots) != D + 1 or any(m != 1 for _, m in roots):
        raise InternalError("tridiagonal intersection matrix must have D+1 simple roots")
    return EigenvalueList(tuple(r for r, _ in roots))


def eigenvalues(ia: IntersectionArray) -> EigenvalueList:
    """Exact spectrum of the tridiagonal intersection matrix.

    Rational roots come back exact, quadratic irrationals as surds, the rest
    as certified intervals of width ``polys.ROOT_WIDTH`` that refine on
    demand.  The array and the result are immutable, so the last
    ``SPECTRUM_CACHE_SIZE`` spectra are kept and each array is factored once
    however many analyses read it.
    """
    return _spectrum(ia)


eigenvalues.cache_clear = _spectrum.cache_clear


def b_parameter(ia: IntersectionArray) -> ExactScalar:
    """b = b_1/(theta_1 + 1), exact whenever theta_1 is rational or a surd."""
    if ia.D < 2:
        raise InputError("b parameter needs diameter at least 2")
    theta1 = eigenvalues(ia)[1]
    b1 = ia.b[1]
    if isinstance(theta1, (int, Rational)):
        den = Fraction(theta1) + 1
        if den == 0:
            raise InternalError("theta_1 = -1 cannot occur for a connected graph with D >= 2")
        return Fraction(b1) / den
    if isinstance(theta1, Surd):
        return b1 / (theta1 + 1)
    require(isinstance(theta1, Interval), "theta_1 must be rational, surd or interval")

    def refiner(width):
        # d/dt of b1/(t+1) is bounded near theta_1 > 0, so matching the
        # input width after one extra halving is enough in practice; iterate
        # to be safe.
        w = width / 4
        while True:
            lo, hi = theta1.refined(w).lo, theta1.refined(w).hi
            if lo + 1 <= 0:
                w /= 2
                continue
            blo, bhi = Fraction(b1) / (hi + 1), Fraction(b1) / (lo + 1)
            if bhi - blo <= width:
                return blo, bhi
            w /= 2

    lo, hi = refiner(ROOT_WIDTH)
    return Interval(lo, hi, refiner)

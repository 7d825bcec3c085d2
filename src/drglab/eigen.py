"""Eigenvalues of intersection arrays and the derived parameter b1/(theta1+1)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .arrays import IntersectionArray, basic_feasibility
from .errors import DomainError, InputError, InternalError, require
from .polys import tridiagonal_roots
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


def eigenvalues(ia: IntersectionArray) -> EigenvalueList:
    """Exact spectrum of the tridiagonal intersection matrix.

    Rational roots come back exact, quadratic irrationals as surds, the rest
    as certified intervals of width ``polys.ROOT_WIDTH`` that refine on
    demand.  Integer eigenvalues are found by exact Sturm bisection
    (``polys.tridiagonal_roots``), and only the irrational ones are left to
    factoring.  The array and the result are immutable, so the array keeps
    its spectrum, in its instance ``__dict__`` as ``functools.cached_property``
    would and not as a dataclass field (``fields``, ``==``, ``hash`` and
    ``scalar_json`` do not see it): each array object's spectrum is computed
    once however many analyses read it, and an equal array parsed apart
    computes its own.  An infeasible array raises each time.  This stays a
    plain function: perfbench's tracer wraps only plain functions
    (``inspect.isfunction``), so a cached property or an ``lru_cache`` object
    would leave ``eigen.eigenvalues`` untimed and uncounted.
    """
    if "_eigenvalues" not in ia.__dict__:
        rep = basic_feasibility(ia)
        if not rep.passed:
            raise InputError(f"infeasible intersection array: {rep.witness}")
        # the rows (c_i, a_i, b_i): a_0..a_D, c_1..c_D and b_0..b_{D-1}
        roots = tridiagonal_roots(ia.a, ia.c, ia.b)
        if sum(m for _, m in roots) != ia.D + 1 or any(m != 1 for _, m in roots):
            raise InternalError("tridiagonal intersection matrix must have D+1 simple roots")
        ia.__dict__["_eigenvalues"] = EigenvalueList(tuple(r for r, _ in roots))
    return ia.__dict__["_eigenvalues"]


def _radical_sum(terms) -> ExactScalar:
    """The sum of rationals and surds, the terms over each radical (its
    conjugate pairs) summed first, so that a rational total is reached in
    exact arithmetic; terms over two radicals would make an ``Interval``."""
    parts: dict = {}
    for t in terms:
        d = t.d if isinstance(t, Surd) else 1
        parts[d] = parts.get(d, 0) + t
    return sum(parts.values(), Fraction(0))


def multiplicities(ia: IntersectionArray) -> Tuple[int, ...]:
    """The multiplicity of each eigenvalue of ``eigenvalues(ia)``, in its
    order, when every eigenvalue is rational or a surd (BCN §4.1.B; Biggs,
    *Algebraic Graph Theory*, ch. 21): m(theta) = n / sum_i k_i u_i(theta)^2,
    where u_0 = 1, u_1 = theta / k and
    c_i u_{i-1} + a_i u_i + b_i u_{i+1} = theta u_i.

    For the array of a distance-regular graph each m is a positive integer,
    sum m = n, sum m theta = 0 (the trace of A) and sum m theta^2 = n k (the
    trace of A^2); each is checked with ``require``, so a failure is an
    ``InternalError``, with the surd terms of the sums summed by radical
    first.  An eigenvalue of degree 3 or more (an ``Interval``) is a
    ``DomainError``: its multiplicity is not decided here."""
    thetas = eigenvalues(ia).values
    if any(isinstance(t, Interval) for t in thetas):
        raise DomainError("multiplicities need rational or quadratic eigenvalues")
    rep = basic_feasibility(ia)
    ks, n, k = rep.k_i, rep.v, ia.k
    out = []
    for theta in thetas:
        prev, u = 1, theta / k
        norm = 1 + ks[1] * u * u
        for i in range(1, ia.D):
            prev, u = u, ((theta - ia.a_at(i)) * u - ia.c_at(i) * prev) / ia.b[i]
            norm += ks[i + 1] * u * u
        m = n / norm
        require(isinstance(m, Fraction) and m.denominator == 1 and m > 0,
                f"multiplicity {m} of eigenvalue {theta} is not a positive integer")
        out.append(int(m))
    require(sum(out) == n, "multiplicities do not sum to the number of vertices")
    require(_radical_sum(m * t for m, t in zip(out, thetas)) == 0,
            "eigenvalues times multiplicities do not sum to the trace 0")
    require(_radical_sum(m * t * t for m, t in zip(out, thetas)) == n * k,
            "squared eigenvalues times multiplicities do not sum to n k")
    return tuple(out)


def b_parameter(ia: IntersectionArray) -> ExactScalar:
    """b = b_1/(theta_1 + 1): rational, a surd, or an interval that refines
    on demand, as theta_1 is."""
    if ia.D < 2:
        raise InputError("b parameter needs diameter at least 2")
    return Fraction(ia.b[1]) / (eigenvalues(ia)[1] + 1)

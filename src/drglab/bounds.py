"""Scalar bound polynomials: the valency bounds F and G, the mu-bound, the
claw bound, and the vertex bound phi(m) for strongly regular graphs.

G is the square of 4b^5 + 4b^4 + 4b^3 + 1, so its leading term is 16*b^10.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from .errors import DomainError, require
from .polys import eval_poly
from .scalars import ExactScalar, as_exact, exact_cmp

# ascending coefficients
F_COEFFS = (1, 0, 8, 24, 20, 72, 192, 256, 192, 80, 16)
G_COEFFS = (1, 0, 0, 8, 8, 8, 16, 32, 48, 32, 16)
PHI_COEFFS = (
    Fraction(1), Fraction(-1, 2), Fraction(-5, 2), Fraction(-1, 2),
    Fraction(1), Fraction(4), Fraction(-4), Fraction(-7, 2),
    Fraction(15, 2), Fraction(-9, 2), Fraction(1),
)


def F_bound(b: ExactScalar):
    """F(b) = 16b^10 + 80b^9 + 192b^8 + 256b^7 + 192b^6 + 72b^5 + 20b^4 + 24b^3 + 8b^2 + 1."""
    return as_exact(eval_poly(F_COEFFS, b))


def G_bound(b: ExactScalar):
    """G(b) = (4b^5 + 4b^4 + 4b^3 + 1)^2, expanded."""
    return as_exact(eval_poly(G_COEFFS, b))


def homogeneity_bounds(b) -> Tuple[ExactScalar, ExactScalar]:
    """(F(b), G(b)) for b >= 1; G(b) < F(b) is guaranteed on this domain."""
    if exact_cmp(b, 1) < 0:
        raise DomainError(f"homogeneity bounds require b >= 1, got {b}")
    F, G = F_bound(b), G_bound(b)
    require(exact_cmp(G, F) < 0, "G(b) < F(b) must hold for b >= 1")
    return F, G


def mu_bound(m: int) -> int:
    """Upper bound m^3(2m-3) on mu for primitive SRGs with smallest eigenvalue -m."""
    if m < 2:
        raise DomainError("mu-bound requires m >= 2")
    return m ** 3 * (2 * m - 3)


def claw_f(m: int, mu: int):
    """f(m, mu) = m(m-1)(mu+1)/2 + m - 1."""
    if m < 2:
        raise DomainError("claw bound requires m >= 2")
    return as_exact(Fraction(m * (m - 1), 2) * (mu + 1) + m - 1)


def phi(m: int) -> int:
    """Vertex bound phi(m), evaluated via the simplified degree-10 polynomial
    and cross-checked against the unsimplified expression."""
    if m < 2:
        raise DomainError("phi requires m >= 2")
    simplified = eval_poly(PHI_COEFFS, Fraction(m))
    mb = mu_bound(m)
    unsimplified = (
        mb + m
        + (2 * m - 1 + m ** 2 * (m - 1) ** 2)
        * (Fraction(m * (m - 1), 2) * (mb + 1) - 1)
    )
    require(simplified == unsimplified, "phi evaluation forms disagree")
    return int(simplified)


def srg_bounds(m: int, mu: int) -> Tuple[int, ExactScalar, int]:
    """(mu_bound, claw_f, phi) for smallest eigenvalue -m and the given mu."""
    if m < 2:
        raise DomainError("srg bounds require m >= 2")
    if mu < 1:
        raise DomainError("srg bounds require mu >= 1")
    return mu_bound(m), claw_f(m, mu), phi(m)

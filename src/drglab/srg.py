"""Strongly regular graph parameters, eigenvalues, family recognition, and
the classification of SRGs by smallest eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .bounds import claw_f, mu_bound, phi
from .arrays import IntersectionArray
from .errors import InputError, PreconditionError
from .graph import Graph, check_distance_regular
from .polys import quadratic_roots
from .scalars import ExactScalar, exact_cmp


@dataclass(frozen=True)
class SrgParams:
    """(v, k, lam, mu) with the counting identity k(k-lam-1) = (v-k-1)mu."""

    v: int
    k: int
    lam: int
    mu: int

    def __post_init__(self):
        if not (0 < self.k < self.v):
            raise InputError("need 0 < k < v")
        if self.lam < 0 or self.mu < 0:
            raise InputError("lam, mu must be nonnegative")
        if self.k * (self.k - self.lam - 1) != (self.v - self.k - 1) * self.mu:
            raise InputError(
                f"parameter identity fails: k(k-lam-1) = {self.k * (self.k - self.lam - 1)}"
                f" but (v-k-1)mu = {(self.v - self.k - 1) * self.mu}")

    def as_tuple(self) -> Tuple[int, int, int, int]:
        return (self.v, self.k, self.lam, self.mu)


@dataclass(frozen=True)
class SrgEigen:
    """Nontrivial eigenvalues r > s of a strongly regular graph."""

    r: ExactScalar
    s: ExactScalar


def srg_eigenvalues(p: SrgParams) -> SrgEigen:
    """Roots of x^2 - (lam - mu)x - (k - mu); exact (rational or conjugate
    surds).  The parameter identity keeps the discriminant nonnegative; with
    mu = 0 (disjoint cliques, lam = k - 1) the roots are k and -1."""
    return SrgEigen(*quadratic_roots(p.lam - p.mu, p.k - p.mu))


def srg_from_eigenvalues(r: int, s: int, mu: int) -> SrgParams:
    """Reconstruct (v, k, lam, mu) from integer eigenvalues r > 0 > s and mu."""
    if not (r > 0 > s):
        raise InputError("need r > 0 > s")
    k = mu - r * s
    lam = mu + r + s
    if mu == 0:
        raise InputError("mu = 0 gives disconnected graphs; not reconstructible here")
    v_num = (k - r) * (k - s)
    if v_num % mu:
        raise InputError("v = (k-r)(k-s)/mu is not an integer")
    return SrgParams(v_num // mu, k, lam, mu)


def srg_from_graph(g: Graph) -> Tuple[SrgParams, SrgEigen]:
    """Certify a graph is strongly regular and return its parameters."""
    ia = check_distance_regular(g)
    if not isinstance(ia, IntersectionArray) or ia.D != 2:
        raise InputError("graph is not strongly regular (connected, diameter 2)")
    p = SrgParams(g.n, ia.k, ia.a_at(1), ia.c_at(2))
    return p, srg_eigenvalues(p)


# -- family shapes ----------------------------------------------------------


def latin_square_params(m: int, n: int) -> SrgParams:
    """Pseudo-Latin-square parameters LS_m(n)."""
    return SrgParams(n * n, m * (n - 1), (m - 1) * (m - 2) + n - 2, m * (m - 1))


def steiner_graph_params(m: int, n: int) -> SrgParams:
    """Pseudo-Steiner parameters S_m(n): v = (m + n(m-1))(n+1)/m, k = mn."""
    v_num = (m + n * (m - 1)) * (n + 1)
    if v_num % m:
        raise InputError("S_m(n) vertex count not integral")
    return SrgParams(v_num // m, m * n, m * m - 2 * m + n, m * m)


def steiner_system_block_params(m: int, n: int) -> SrgParams:
    """Block graph of a Steiner system S(2, m, n)."""
    if (n * (n - 1)) % (m * (m - 1)) or (n - 1) % (m - 1) or (n - m) % (m - 1):
        raise InputError("divisibility conditions for S(2, m, n) fail")
    v = n * (n - 1) // (m * (m - 1))
    k = m * (n - m) // (m - 1)
    lam = (m - 1) ** 2 + (n - 1) // (m - 1) - 2
    return SrgParams(v, k, lam, m * m)


def conference_params(mu: int) -> SrgParams:
    return SrgParams(4 * mu + 1, 2 * mu, mu - 1, mu)


def recognize_srg_family(p: SrgParams) -> List[str]:
    """Named shapes the parameter tuple matches (a tuple can match several)."""
    tags = []
    eig = srg_eigenvalues(p)
    if p.mu >= 1 and p.as_tuple() == conference_params(p.mu).as_tuple():
        tags.append(f"Conference({p.v})")
    if p.mu == p.k:
        # complete multipartite K_{t x m}: v = t*m, k = (t-1)m
        m = p.v - p.k
        if p.v % m == 0:
            t = p.v // m
            if t >= 2 and p.lam == p.k - m:
                tags.append(f"CompleteMultipartite(t={t},m={m})")
    if isinstance(eig.s, Fraction) and eig.s.denominator == 1 and eig.s < -1:
        m = int(-eig.s)
        if isinstance(eig.r, Fraction) and eig.r.denominator == 1:
            n = int(eig.r) + m
            for name, params in (("LatinSquare", latin_square_params),
                                 ("SteinerGraph", steiner_graph_params)):
                try:
                    if n >= 1 and p.as_tuple() == params(m, n).as_tuple():
                        tags.append(f"{name}(m={m},n={n})")
                except InputError:
                    pass
            # block graph of S(2, m, n'): mu = m^2, k = m(n'-m)/(m-1)
            if p.mu == m * m and m >= 2:
                num = p.k * (m - 1)
                if num % m == 0:
                    npts = num // m + m
                    try:
                        if p.as_tuple() == steiner_system_block_params(m, npts).as_tuple():
                            tags.append(f"SteinerSystemBlockGraph(m={m},n={npts})")
                    except InputError:
                        pass
    return tags


#: the Sims branch of each shape that ``recognize_srg_family`` names, in the
#: order the branches are tried; a shape not here (Conference) names none
SHAPE_BRANCH = {"CompleteMultipartite": "CompleteMultipartite", "LatinSquare": "LatinSquare",
                "SteinerGraph": "Steiner", "SteinerSystemBlockGraph": "Steiner"}


def sims_classify(p: SrgParams) -> dict:
    """Classify by smallest eigenvalue -m: complete multipartite, Latin-square
    shape, Steiner shape, or a finite exceptional range with mu <= m^3(2m-3).
    """
    eig = srg_eigenvalues(p)
    if not (isinstance(eig.s, Fraction) and eig.s.denominator == 1):
        raise PreconditionError(
            f"smallest eigenvalue {eig.s} is not an integer; classification needs -m with m integral")
    m = int(-eig.s)
    tags = recognize_srg_family(p)
    shapes = {t.split("(")[0] for t in tags}
    branch = "Complete" if m == 1 else next(
        (b for shape, b in SHAPE_BRANCH.items() if shape in shapes), "Sporadic")
    out = {"m": m, "parameters": p.as_tuple(), "branch": branch, "tags": tags}
    if branch == "Sporadic":
        out["mu_bound"] = mu_bound(m)
        out["mu_within_bound"] = p.mu <= mu_bound(m)
        out["vertex_bound"] = phi(m)
        out["v_within_bound"] = p.v <= phi(m)
    return out


def check_bounds(p: SrgParams) -> dict:
    """Evaluate the mu-, claw-, and vertex bounds for an SRG with integral
    smallest eigenvalue -m.

    The claw bound n = r - s <= f(m, mu) is exempt when mu in {m(m-1), m^2}
    (Latin-square and Steiner shapes); the mu and vertex bounds only apply
    outside those shapes too.
    """
    eig = srg_eigenvalues(p)
    if not (isinstance(eig.s, Fraction) and eig.s.denominator == 1) or eig.s > -2:
        raise PreconditionError("bounds need integral smallest eigenvalue <= -2")
    m = int(-eig.s)
    n = int(eig.r) + m if isinstance(eig.r, Fraction) and eig.r.denominator == 1 else None
    exempt = p.mu in (m * (m - 1), m * m)
    fmmu = claw_f(m, p.mu)
    return {
        "m": m,
        "n": n,
        "exempt": exempt,
        "mu_bound": mu_bound(m),
        "mu_ok": exempt or p.mu <= mu_bound(m),
        "claw_bound": str(fmmu),
        "claw_ok": exempt or (n is not None and exact_cmp(n, fmmu) <= 0),
        "vertex_bound": phi(m),
        "vertex_ok": exempt or p.v <= phi(m),
    }

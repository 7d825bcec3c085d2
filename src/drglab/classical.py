"""Classical parameters (D, b, alpha, beta): generated arrays and spectra,
recognition from arrays, the beta lower bound, the fundamental bound and
tightness, the classifiers for classical / tight arrays of diameter >= 5, and
the one classification report of an array, which decides which of the main,
classical and tight classifiers apply to it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import isqrt
from typing import List, Optional

from .arrays import IntersectionArray
from .bounds import F_bound
from .eigen import EigenvalueList, b_parameter, eigenvalues
from .errors import InputError, PreconditionError, ScopeError, require
from .homogeneous import (ClassificationOutcome, Evidence, _named_branches, _outcome,
                          classify_main, named_families, near_polygon_analysis)
from .scalars import ExactScalar, exact_cmp, exact_eq


def gaussian_binomial(i: int, b) -> Fraction:
    """[i; 1]_b = i if b = 1, else (b^i - 1)/(b - 1)."""
    if i < 0:
        raise InputError("index must be nonnegative")
    b = Fraction(b)
    if b == 1:
        return Fraction(i)
    return (b ** i - 1) / (b - 1)


@dataclass(frozen=True)
class ClassicalParams:
    D: int
    b: int
    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        if self.D < 3:
            raise InputError("classical parameters need D >= 3")
        if self.b in (0, -1):
            raise InputError("the base b cannot be 0 or -1")
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))

    def as_tuple(self):
        return (self.D, self.b, self.alpha, self.beta)


def classical_array(cp: ClassicalParams) -> IntersectionArray:
    """b_i = ([D]-[i])(beta - alpha [i]), c_i = [i](1 + alpha [i-1])."""
    D, b, al, be = cp.D, cp.b, cp.alpha, cp.beta
    gb = [gaussian_binomial(i, b) for i in range(D + 1)]
    bs = []
    cs = []
    for i in range(D):
        val = (gb[D] - gb[i]) * (be - al * gb[i])
        if val <= 0 or val.denominator != 1:
            raise InputError(f"b_{i} = {val} is not a positive integer")
        bs.append(int(val))
    for i in range(1, D + 1):
        val = gb[i] * (1 + al * gb[i - 1])
        if val <= 0 or val.denominator != 1:
            raise InputError(f"c_{i} = {val} is not a positive integer")
        cs.append(int(val))
    return IntersectionArray(tuple(bs), tuple(cs))


def a1_zero_criterion(cp: ClassicalParams) -> dict:
    """a_1 = 0 holds exactly when beta = 1 - alpha*b*[D-1]."""
    ia = classical_array(cp)
    threshold = 1 - cp.alpha * cp.b * gaussian_binomial(cp.D - 1, cp.b)
    crit = cp.beta == threshold
    require((ia.a_at(1) == 0) == crit, "a_1 = 0 criterion disagrees with the array")
    return {"a1": ia.a_at(1), "a1_zero": ia.a_at(1) == 0,
            "beta_threshold": threshold, "criterion": crit}


def classical_eigenvalues(cp: ClassicalParams) -> EigenvalueList:
    """theta_i = [D-i](beta - alpha [i]) - [i], sorted descending."""
    D, b, al, be = cp.D, cp.b, cp.alpha, cp.beta
    gb = [gaussian_binomial(i, b) for i in range(D + 1)]
    thetas = [gb[D - i] * (be - al * gb[i]) - gb[i] for i in range(D + 1)]
    ordered = sorted(thetas, reverse=True)
    if b > 0:
        require(thetas == ordered, "natural ordering must hold for b > 0")
    vals = tuple(int(t) if t.denominator == 1 else t for t in ordered)
    return EigenvalueList(vals)


def _bisect_root(f, lo: int, hi: int, sign: int) -> Optional[int]:
    """The integer root in [lo, hi] of f, where sign * f is increasing there."""
    while lo < hi:
        mid = (lo + hi) // 2
        if sign * f(mid) < 0:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo == hi and f(lo) == 0 else None


def _classical_bases(c2: int, c3: int, k: int) -> List[int]:
    """The integer roots in [-k, k], ascending, of (b^2+b+1)(c_2-b) = c_3.

    c_2 = (1+b)(1+alpha) and c_3 = (1+b+b^2)(1+alpha(1+b)) give this cubic
    once alpha is eliminated (b != -1), so every classical base is among
    its at most three roots.  g(b) = b^3 - m b^2 - m b + c_3 - c_2 with
    m = c_2 - 1 rises, falls and rises again between its critical points
    (m -+ sqrt(m^2+3m))/3; each monotone piece is bisected over the integers.
    """
    m = c2 - 1

    def g(b):
        return ((b - m) * b - m) * b + c3 - c2

    disc = m * m + 3 * m
    s = isqrt(disc)
    ceil_s = s if s * s == disc else s + 1
    # floors of the two critical points
    t1, t2 = (m - ceil_s) // 3, (m + s) // 3
    roots = []
    for lo, hi, sign in ((-k, t1, 1), (t1 + 1, t2, -1), (t2 + 1, k, 1)):
        root = _bisect_root(g, max(lo, -k), min(hi, k), sign)
        if root is not None:
            roots.append(root)
    return roots


def recognize_classical(ia: IntersectionArray) -> List[ClassicalParams]:
    """All (D, b, alpha, beta) whose generated array equals ia: each base b
    in [-k, k] \\ {0, -1} that :func:`_classical_bases` admits, with alpha
    solved from c_2 and beta from k."""
    if ia.D < 3:
        raise InputError("classical recognition needs D >= 3")
    out = []
    k = ia.k
    for b in _classical_bases(ia.c_at(2), ia.c_at(3), k):
        if b in (0, -1):
            continue
        alpha = Fraction(ia.c_at(2)) / (1 + b) - 1
        gD = gaussian_binomial(ia.D, b)
        if gD == 0:
            continue
        beta = Fraction(k) / gD
        cand = ClassicalParams(ia.D, b, alpha, beta)
        try:
            if classical_array(cand) == ia:
                out.append(cand)
        except InputError:
            continue
    return out


def beta_bound_check(cp: ClassicalParams) -> dict:
    """beta >= 1 + alpha [D-1], with equality exactly when a_D = 0."""
    if cp.b <= 0:
        raise PreconditionError("beta bound requires b > 0")
    bound = 1 + cp.alpha * gaussian_binomial(cp.D - 1, cp.b)
    ia = classical_array(cp)
    aD = ia.a_at(cp.D)
    eq = cp.beta == bound
    require(eq == (aD == 0), "beta-bound equality must match a_D = 0")
    return {"ok": cp.beta >= bound, "equality": eq, "a_D": aD,
            "bound": bound}


@dataclass(frozen=True)
class TightReport:
    lhs: ExactScalar
    rhs: ExactScalar
    tight: bool
    bipartite: bool
    a_D: int
    r: Optional[ExactScalar]
    s: Optional[ExactScalar]

    def __post_init__(self):
        if self.tight:
            require(not self.bipartite and exact_eq(self.lhs, self.rhs),
                    "a tight array is non-bipartite with lhs = rhs")


def fundamental_bound(ia: IntersectionArray) -> TightReport:
    """(theta_1 + k/(a_1+1))(theta_D + k/(a_1+1)) >= -k a_1 b_1/(a_1+1)^2,
    with equality on a non-bipartite graph defining tightness; the predicted
    local eigenvalues r = -1 - b_1/(theta_D+1), s = -1 - b_1/(theta_1+1)."""
    if ia.D < 3:
        raise InputError("fundamental bound needs diameter >= 3")
    ev = eigenvalues(ia)
    theta1, thetaD = ev[1], ev[ia.D]
    k, a1, b1 = ia.k, ia.a_at(1), ia.b[1]
    shift = Fraction(k, a1 + 1)
    lhs = (theta1 + shift) * (thetaD + shift)
    rhs = Fraction(-k * a1 * b1, (a1 + 1) ** 2)
    require(exact_cmp(lhs, rhs) >= 0, "fundamental bound violated")
    tight = (not ia.is_bipartite) and exact_eq(lhs, rhs)
    r = s = None
    if not exact_eq(thetaD + 1, 0):
        r = -1 - b1 / (thetaD + 1)
    if not exact_eq(theta1 + 1, 0):
        s = -1 - b1 / (theta1 + 1)
    return TightReport(lhs, rhs, tight, ia.is_bipartite, ia.a_at(ia.D), r, s)


def classify_classical(cp: ClassicalParams) -> ClassificationOutcome:
    """Branch decision for a 1-homogeneous array with classical parameters,
    diameter >= 5, a_1 > 0, and b >= 1."""
    if cp.D < 5:
        raise ScopeError(f"classifier requires D >= 5, got {cp.D}")
    if cp.b < 1:
        raise ScopeError("classifier requires b >= 1")
    ia = classical_array(cp)
    if ia.a_at(1) <= 0 and cp.alpha != 0:
        raise ScopeError("classifier requires a_1 > 0")
    evidence = []
    ab = cp.alpha * (1 + cp.b)
    evidence.append(Evidence("alpha-integrality",
                             "alpha(1+b) is a nonnegative integer",
                             (ab, ab.denominator == 1 and ab >= 0)))
    if cp.alpha == 0:
        return _outcome("classical", [("i", "alpha = 0")], evidence)
    branches = _named_branches(ia, evidence)
    if branches:
        return _outcome("classical", branches, evidence)
    if cp.b >= 2:
        lower = Fraction((cp.b ** cp.D - 1) * (cp.b ** (cp.D - 1) - 1),
                         (cp.b + 1) * (cp.b - 1) ** 2)
        F = F_bound(cp.b)
        evidence.append(Evidence(
            "valency-growth", "k lower bound vs F(b) forces D <= 9",
            (lower, F, lower > F)))
        require(cp.D <= 9, "D <= 9 must hold in the alpha>0, b>=2 branch")
        return _outcome("classical", [("vi", "D <= 9, alpha > 0, b >= 2")], evidence)
    return _outcome("classical", [], evidence)


def classify_tight(ia: IntersectionArray) -> ClassificationOutcome:
    """Branch decision for a tight array of diameter >= 5: Johnson J(2D,D),
    halved 2D-cube, or locally connected with k <= F(b)."""
    if ia.D < 5:
        raise ScopeError(f"classifier requires D >= 5, got {ia.D}")
    rep = fundamental_bound(ia)
    if not rep.tight:
        raise PreconditionError("array is not tight")
    evidence = [
        Evidence("a_D", "tight implies a_D = 0", (rep.a_D, rep.a_D == 0)),
        Evidence("bound", "fundamental bound equality", (rep.lhs, rep.rhs)),
        Evidence("local-eigs", "predicted local eigenvalues (r, s)",
                 (rep.r, rep.s)),
    ]
    require(rep.a_D == 0, "a tight array must have a_D = 0")
    # with a_D = 0 the only branch families left are J(2D, D) (main branch
    # ii) and the halved 2D-cube (iii): J(n, D) has a_D = D(n - 2D), the
    # halved (2D+1)-cube 2D and the folded families 2D^2 and 4D^2
    branches = _named_branches(ia, evidence)
    if branches:
        branch, t = branches[0]
        require(branch in ("ii", "iii"), "a tight family is J(2D,D) or a halved 2D-cube")
        tight = "i" if branch == "ii" else "ii"
        return _outcome("tight", [(tight, t)], evidence)
    b = b_parameter(ia)
    F = F_bound(b)
    require(exact_cmp(ia.k, F) <= 0, "k <= F(b) must hold in the fallback branch")
    out = _outcome("tight", [("iii", "locally connected with k <= F(b)")], evidence)
    # the F-bound evidence follows the sorted list
    return replace(out, evidence=out.evidence + (Evidence("F-bound", "k <= F(b)", (ia.k, F)),))


def classification_report(ia: IntersectionArray) -> dict:
    """Everything ``drglab classify`` reports on an array besides its
    homogeneity: the named families, the near-polygon analysis, the
    classical parameters, the fundamental bound (D >= 3) and the
    classifications that apply.  With D >= 5 and a_1 > 0 these are the main
    one, the classical one for each parameter set with b >= 1 and the tight
    one when the bound is tight; otherwise none."""
    out = {"named_families": named_families(ia),
           "near_polygon": near_polygon_analysis(ia)}
    cps = recognize_classical(ia) if ia.D >= 3 else []
    out["classical_parameters"] = cps
    if ia.D >= 3:
        out["fundamental_bound"] = fundamental_bound(ia)
    applied = out["classifications"] = []
    if ia.D >= 5 and ia.a_at(1) > 0:
        applied.append(classify_main(ia))
        applied += [classify_classical(cp) for cp in cps if cp.b >= 1]
        if out["fundamental_bound"].tight:
            applied.append(classify_tight(ia))
    return out

"""Joint distance partitions pi(x, y), near-polygon analysis, named-family
recognition from intersection arrays, and the diameter-5 classifier for
graphs whose pi(x, y) partitions are equitable with pair-independent
parameters ("1-homogeneous" graphs).

Every pair goes through the pair kernel of ``graph`` (``_check_pairs``), a
block of pairs to a call: each vertex's neighbour counts over the cells of
pi(x, y) are packed into exact keys for the whole block at once, by float32
or float64 products with the adjacency matrix or by int64 sums over the
arcs, as ``graph._dense_keys`` chooses.  A pair holds when each vertex's key is the
first pair's key for its cell, with no sort: keys are only compared, and
the kernel counts no quotient.  Each check counts the one it reports, its
first pair's, once from the arcs (``graph._quotient``): exhaustive mode
before its scan, sampled mode only when its pairs hold.  pi(y, x) is
pi(x, y) with the coordinates of its labels swapped, so an exhaustive check
reads each unordered pair once and reports ordered counts, unless the first
pair's quotient, read in the order of its swapped labels, is not the same;
either way the check is one scan of the kernel.
``graph.check_distance_regular`` runs the same kernel on the pairs (x, x),
whose partitions are the distance partitions.  The kernel reads a stream of
pairs and their distance rows, labels the cells itself and stops at the
first refutation, so neither mode peeks at its pairs or scans the distance
matrix for the diameter.  The size policy follows from the mode: exhaustive
checks read both distance rows from the dense distance matrix (at most
``graph._DENSE_CAP`` vertices), counted per row (``graph._counts``) and
streamed (``graph._pairs_at``) a budget's rows at a time, which the kernel
reads in blocks that start at one pair and double; sampled checks work at
any size, and draw their pairs in batches of at most 32, each batch's 64
rows from one call of the distance engine, a batch only when every pair
before it holds.  A sampled level that no pair can have (i < 0, or i above
twice the eccentricity of a drawn x) is refused at once.

A family is named from its array alone: the family generators give plain
(b, c) tuples, compared with the array's own, so naming builds no
``IntersectionArray``.  ``FAMILY_BRANCH`` is the one family-to-branch table:
each family's branch under the main theorem, which the classical classifier
reads too, and under the tight theorem.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from .arrays import IntersectionArray
from .bounds import homogeneity_bounds
from .eigen import b_parameter, eigenvalues
from .errors import InputError, ScopeError, require
from .graph import (Graph, _check_pairs, _common_neighbourhoods, _counts, _pairs_at,
                    _quotient, _witness, check_distance_regular, graph_spectrum,
                    local_graph)
from .scalars import exact_cmp
from .srg import SrgParams, recognize_srg_family, srg_eigenvalues


@dataclass(frozen=True)
class HomogeneityReport:
    level: int
    holds: bool
    labels: Tuple[Tuple[int, int], ...] = ()
    matrix: Tuple[Tuple[int, ...], ...] = ()
    witness: Optional[tuple] = None  # (x, y, cell-label, vertex_a, vertex_b) or reason
    mode: str = "exhaustive"
    pairs_checked: int = 0

    def __post_init__(self):
        require((self.witness is not None) == (not self.holds),
                "a report carries a witness exactly when it fails")
        # the one place where the kernel's int arrays become tuples
        object.__setattr__(self, "labels", tuple(tuple(r.tolist()) for r in np.asarray(self.labels)))
        object.__setattr__(self, "matrix", tuple(tuple(r.tolist()) for r in np.asarray(self.matrix)))


def _sampled_pairs(g: Graph, i: int, seed: int, count: int):
    """``count`` pairs at distance i, drawn with replacement: x uniformly,
    then y uniformly in the sorted Gamma_i(x), in at most 50 count draws of
    x.  Yields them for ``graph._check_pairs`` in batches of at most 32
    pairs, drawn only when asked for: each batch's xs, ys and their distance
    rows, from one call of the distance engine (row t of x, then row
    len(xs) + t of y), with the indices of those rows; the kernel reads the
    first batch like any other, and bounds its cell labels from the first
    x by the rule that refuses a level here, 2 ecc(x).  A level-1 draw reads
    Gamma(x) from the arcs; a draw above level 1 reads it from a one-source
    search from x.  A row with an unreachable vertex shows the graph is
    disconnected; only when the draws run out does a one-source search tell
    that apart from a lack of pairs.  They run out at once when no pair can
    be at distance i: i < 0, or i above 2 ecc(x) for a drawn x, since every
    distance is at most that, or the graph has no vertex, which that search
    (``Graph.is_connected``) refuses."""
    disconnected = InputError("homogeneity is defined for connected graphs")
    rng, xs, ys = random.Random(seed), [], []
    for _ in range(50 * count if i >= 0 and g.n else 0):
        x = rng.randrange(g.n)
        at_i = (g._dst[g._starts[x]:g._starts[x + 1]] if i == 1
                else np.flatnonzero((row := g._distance_rows([x])[0]) == i))
        if i > 1 and i > 2 * row.max():
            break
        if len(at_i):
            xs.append(x)
            ys.append(int(rng.choice(at_i)))
            count -= 1
            if len(xs) == 32 or not count:
                rows = g._distance_rows(xs + ys)
                if rows.min() < 0:
                    raise disconnected
                yield np.array(xs), np.array(ys), rows, *np.arange(2 * len(xs)).reshape(2, -1)
                if not count:
                    return
                xs, ys = [], []
    raise disconnected if not g.is_connected() else InputError(
        f"could not sample pairs at distance {i}")


def check_i_homogeneous(g: Graph, i: int, mode: str = "exhaustive",
                        seed: Optional[int] = None,
                        count: Optional[int] = None) -> HomogeneityReport:
    """Verify the joint distance partition pi(x, y) is equitable with the
    same parameters for every ordered pair at distance i.

    Exhaustive mode reads both distance rows from the dense distance
    matrix, so above its cap it raises ResourceError.  It runs the pairs
    x <= y, in lexicographic order: the quotient of pi(y, x) is that of
    pi(x, y) with its labels (a, b) swapped, so when the first pair's
    quotient, the reference, is symmetric (equal to that of (y, x), whose
    cells and their first vertices are the same), (x, y) and (y, x) hold or
    fail together, and the first failing ordered pair is the first failing
    pair x <= y.  The report is that of the scan of every ordered pair in
    lexicographic order: the witness of that pair, and as ``pairs_checked``
    its rank among the ordered pairs, or their count when the check holds.
    The reference is counted once, before the scan, from the arcs and the
    distance rows of x and y (``graph._quotient``), and the quotient of
    (y, x) is read off it: the same matrix with its rows and columns in the
    order of the swapped labels (``np.lexsort``), so the kernel scans once;
    a reference that is not symmetric fails at (y, x), so the ordered pairs
    are scanned instead.  Sampled mode draws ``count`` pairs with
    replacement with the given seed, in batches of at most 32 whose rows
    come from one bit-parallel search at any n (a draw above level 1 runs a
    one-source search for Gamma_i(x)); it reads the next batch only while
    every pair so far holds, so when the draws run out after a refuting
    batch it reports that pair, and it counts the reference only when every
    drawn pair holds, so a refuting check counts none.  It can refute but
    only exhaustive mode confirms.  Both run their pairs through the one
    pair kernel, as many to a call as the block budget allows
    (``errors.ResourceError`` states it), on the route ``graph._dense_keys``
    chooses; both routes give the same report, witness and pair count.
    On a graph that carries its certified array (``check_distance_regular``
    has run on it, as ``drglab classify FILE`` runs it first) the kernel
    keys four digits a vertex above level 0, not nine, so its dense keys
    are float32 up to valency 63, with the same report, witness and pair
    count.  The check does not certify the graph itself: a graph that is
    not distance-regular would pay a distance-regularity scan for nothing.
    Neither mode hands the kernel more than its pairs and their distance
    rows: the kernel labels their cells itself, so neither reads the
    diameter.
    """
    if mode not in ("exhaustive", "sampled"):
        raise InputError(f"unknown mode {mode!r}")
    if mode == "sampled":
        if seed is None or count is None or count < 1:
            raise InputError("sampled mode requires a seed and a positive count")
        checked, refuted, rows = _check_pairs(g, count, _sampled_pairs(g, i, seed, count))
        if refuted is None:
            labels, matrix = _quotient(g, *rows)
    else:
        dm, n = g.distance_matrix(), g.n
        if not g.is_connected():
            raise InputError("homogeneity is defined for connected graphs")
        count = _counts(dm, i, i, False)
        ordered = int(count.sum())
        if not ordered:
            raise InputError(f"no pair of vertices at distance {i}")
        # the first ordered pair has x <= y, so both scans share its reference
        x = int(np.argmax(count > 0))
        labels, matrix = _quotient(g, dm[x], dm[np.argmax(dm[x] == i)])
        # pi(y, x) has the cells of pi(x, y) with their labels swapped, so
        # its quotient is this one in the order of the swapped labels
        swap = np.lexsort(labels.T)
        half = (np.array_equal(labels[swap, ::-1], labels)
                and np.array_equal(matrix[np.ix_(swap, swap)], matrix))
        # the pairs x <= y: every pair x < y once each way, and at level 0
        # the pairs (x, x)
        total = (ordered + n * (i == 0)) // 2 if half else ordered
        checked, refuted, _ = _check_pairs(g, total, _pairs_at(dm, i, i, half))
        # the failing pair's rank among the ordered pairs, or their count
        checked = ordered if refuted is None else 1 + int(count[:refuted[0]].sum()) + int(
            np.count_nonzero(dm[refuted[0], :refuted[1]] == i))
    if refuted is not None:
        return HomogeneityReport(i, False, witness=_witness(*refuted[:5]), mode=mode,
                                 pairs_checked=checked)
    return HomogeneityReport(i, True, labels, matrix, None, mode, checked)


# -- near polygons ----------------------------------------------------------


def near_polygon_analysis(ia: IntersectionArray) -> dict:
    """Test a_i = c_i * a1 for i < D, decide 2D- vs (2D+1)-gon by the i = D
    case, derive the order (s, t), and name the refinement when it applies."""
    a1 = ia.a_at(1)
    D = ia.D
    near = all(ia.a_at(i) == ia.c_at(i) * a1 for i in range(1, D))
    out = {"near_polygon": near}
    if not near:
        return out
    gon = 2 * D if ia.a_at(D) == ia.c_at(D) * a1 else 2 * D + 1
    out["gon"] = gon
    s = a1 + 1
    out["order"] = (s, ia.k // s - 1) if s > 0 and ia.k % s == 0 else None
    refinement = None
    if gon == 2 * D and D >= 2:
        if ia.c_at(2) >= 3:
            refinement = "dual polar"
        elif D >= 3 and ia.c_at(2) == 2 and ia.c_at(3) == 3:
            refinement = "Hamming"
    out["refinement"] = refinement
    return out


# -- named families from arrays ---------------------------------------------


def _johnson_array(n: int, d: int) -> Tuple[tuple, tuple]:
    D = min(d, n - d)
    return (tuple((d - i) * (n - d - i) for i in range(D)),
            tuple((i + 1) ** 2 for i in range(D)))


def _hamming_array(D: int, q: int) -> Tuple[tuple, tuple]:
    return tuple((D - i) * (q - 1) for i in range(D)), tuple(range(1, D + 1))


def _halved_cube_array(length: int) -> Tuple[tuple, tuple]:
    D = length // 2
    return (tuple((length - 2 * i) * (length - 2 * i - 1) // 2 for i in range(D)),
            tuple(i * (2 * i - 1) for i in range(1, D + 1)))


def _folded_array(b: tuple, c: tuple) -> Optional[Tuple[tuple, tuple]]:
    """Quotient rule for a 2-antipodal parent (b, c) of even diameter
    2e >= 4: b and c are inherited below level e, and c_e picks up b_e.  A
    2-antipodal graph of diameter 2 is a cocktail party graph, whose fold is
    no cover, so it has none."""
    if len(b) % 2 or len(b) < 4:
        return None
    e = len(b) // 2
    return b[:e], c[:e - 1] + (c[e - 1] + b[e],)


def recognize_named_family(ia: IntersectionArray) -> List[str]:
    """Tags among Johnson J(2D,D), Hamming, halved cubes, folded Johnson,
    and folded halved cubes whose generated arrays equal ia.  The generators
    give plain (b, c) tuples, so no array is built to be compared."""
    tags = []
    D, k, bc = ia.D, ia.k, (ia.b, ia.c)
    # Johnson J(n, D): k = D(n - D)
    if k % D == 0:
        n = k // D + D
        if _johnson_array(n, D) == bc:
            tags.append(f"Johnson J({n},{D})")
    # Hamming H(D, q)
    if k % D == 0 and _hamming_array(D, k // D + 1) == bc:
        tags.append(f"Hamming H({D},{k // D + 1})")
    for length in (2 * D, 2 * D + 1):
        if _halved_cube_array(length) == bc:
            tags.append(f"halved {length}-cube")
    if _folded_array(*_johnson_array(4 * D, 2 * D)) == bc:
        tags.append(f"folded Johnson J({4 * D},{2 * D})")
    if _folded_array(*_halved_cube_array(4 * D)) == bc:
        tags.append(f"folded halved {4 * D}-cube")
    return tags


#: the branch that each named family lands in under each theorem, keyed by
#: the family words of its tag ("folded Johnson J(20,10)" -> "folded
#: Johnson"): under the main theorem, which the classical classifier reads
#: too, and under the tight theorem, which names J(2D,D) and the halved
#: 2D-cube and no folded family.  Hamming graphs are regular near polygons,
#: main branch (i).
FAMILY_BRANCH = {"Johnson": {"main": "ii", "tight": "i"},
                 "halved": {"main": "iii", "tight": "ii"},
                 "folded Johnson": {"main": "iv", "tight": None},
                 "folded halved": {"main": "v", "tight": None}}
BRANCH_ORDER = ("i", "ii", "iii", "iv", "v", "vi")


def family_branches(tags: List[str], theorem: str = "main") -> List[Tuple[Optional[str], str]]:
    """(branch, tag) under ``theorem`` for each tag naming a branch family,
    in the order of the main theorem's branches; the branch is None for a
    family the theorem does not name."""
    found = ((FAMILY_BRANCH.get(t.rsplit(" ", 1)[0]), t) for t in tags)
    ranked = sorted((p for p in found if p[0]), key=lambda p: BRANCH_ORDER.index(p[0]["main"]))
    return [(row[theorem], t) for row, t in ranked]


#: diameter-2/3 arrays from the classification of graphs whose c2-graphs are
#: Cocktail Party graphs: K_{t x 2} itself, the Schlafli graph, the Gosset
#: graph (the remaining branches are covered by recognize_named_family)
def small_diameter_lookup(ia: IntersectionArray) -> List[str]:
    tags, bc = [], (ia.b, ia.c)
    if ia.D == 2 and ia.k % 2 == 0:
        t = ia.k // 2 + 1
        if bc == ((2 * t - 2, 1), (1, 2 * t - 2)):
            tags.append(f"Cocktail Party K_{{{t}x2}}")
    if bc == ((16, 5), (1, 8)):
        tags.append("Schlafli graph")
    if bc == ((27, 10, 1), (1, 10, 27)):
        tags.append("Gosset graph")
    return tags


def named_families(ia: IntersectionArray) -> List[str]:
    """Every named-family tag of ia, as ``drglab analyze`` and ``drglab
    classify`` report them: the family arrays of ``recognize_named_family``,
    then the small-diameter arrays of ``small_diameter_lookup``."""
    return recognize_named_family(ia) + small_diameter_lookup(ia)


# -- local spectral checks --------------------------------------------------


def local_spectral_checks(g: Graph) -> dict:
    """Locally-SRG diagnostics: smallest local eigenvalue against -1-b,
    c_2 >= mu'+1 with the complete-mu-graph equality case, and the
    conference-local and grid-local flags.  The local graphs are all
    SRG(k, a_1, lambda', mu') exactly when every lambda-graph is
    lambda'-regular and every mu-graph mu'-regular with mu' > 0 (BCN 1.1), so
    no local graph is built unless the graph is not locally SRG.  When
    lambda' = a_1 - 1 > -1, every local graph is a disjoint union of
    K_{a_1 + 1}, whose smallest eigenvalue is -1, so none is built then
    either.  On any other graph that is not locally SRG, ``min_local_eig``
    and ``min_local_eig_ok`` come from the local graph of vertex 0 only."""
    ia = check_distance_regular(g)
    if not isinstance(ia, IntersectionArray):
        raise InputError("graph is not distance-regular")
    if ia.D < 3:
        raise InputError("local spectral checks need diameter >= 3")
    b = b_parameter(ia)
    out: dict = {"b": b, "c2": ia.c_at(2)}
    a1, lam = _common_neighbourhoods(g, 1)
    # lambda' = a_1 - 1 makes the local graphs unions of cliques, with mu' = 0
    mu = _common_neighbourhoods(g, 2)[1] if lam is not None and lam < a1 - 1 else None
    params = SrgParams(ia.k, a1, lam, mu) if mu else None
    out["locally_srg"] = params is not None
    smallest = (srg_eigenvalues(params).s if params else
                Fraction(-1) if a1 and lam == a1 - 1 else
                graph_spectrum(local_graph(g, 0).graph).values[-1][0])
    out["min_local_eig"] = smallest
    # smallest local eigenvalue >= -1 - b
    out["min_local_eig_ok"] = exact_cmp(smallest, -1 - b) >= 0
    if params is None:
        out["reason"] = "not locally SRG"
        return out
    out["local_params"] = params.as_tuple()
    out["mu_prime"] = mu
    out["c2_ge_mu_plus_1"] = ia.c_at(2) >= mu + 1
    out["terwilliger"] = ia.c_at(2) == mu + 1
    out["conference_local"] = params.as_tuple() == (4 * mu + 1, 2 * mu, mu - 1, mu)
    tags = recognize_srg_family(params)
    grid_local = any(t.startswith("LatinSquare(m=2,") for t in tags)
    out["grid_local_with_c2_4"] = grid_local and ia.c_at(2) == 4
    out["local_family_tags"] = tags
    return out


# -- the diameter >= 5 classifier -------------------------------------------


@dataclass(frozen=True)
class Evidence:
    rule: str
    claim: str
    values: tuple


@dataclass(frozen=True)
class ClassificationOutcome:
    theorem: str
    branch: str
    name: str
    branches: Tuple[str, ...]
    evidence: Tuple[Evidence, ...]


def _outcome(theorem: str, ranked: List[Tuple[str, str]],
             evidence: List[Evidence]) -> ClassificationOutcome:
    """The first of the ranked (branch, name) pairs, with every branch and
    the evidence sorted by rule; no pair at all is a contradiction."""
    evidence = tuple(sorted(evidence, key=lambda e: e.rule))
    if not ranked:
        return ClassificationOutcome(theorem, "contradiction",
                                     "contradiction -- check inputs", (), evidence)
    return ClassificationOutcome(theorem, ranked[0][0], ranked[0][1],
                                 tuple(bid for bid, _ in ranked), evidence)


def _named_branches(ia: IntersectionArray, evidence: List[Evidence],
                    theorem: str) -> List[Tuple[Optional[str], str]]:
    """The branches under ``theorem`` of ia's named-family tags
    (``family_branches``), which join the evidence when there are any."""
    tags = recognize_named_family(ia)
    if tags:
        evidence.append(Evidence("family", "named-family array match", tuple(tags)))
    return family_branches(tags, theorem)


def classify_main(ia: IntersectionArray) -> ClassificationOutcome:
    """Decide which branch of the diameter >= 5 classification a verified
    (or asserted) 1-homogeneous array falls into, with reproducible evidence."""
    if ia.D < 5:
        raise ScopeError(f"classifier requires diameter >= 5, got {ia.D}")
    a1 = ia.a_at(1)
    if a1 <= 0:
        raise ScopeError("classifier requires a_1 > 0")
    evidence = []
    if ia.c_at(2) == 1:
        evidence.append(Evidence("c2", "c_2 = 1 branch", (1,)))
        return _outcome("main", [("c2=1", "c_2 = 1")], evidence)
    b = b_parameter(ia)
    evidence.append(Evidence("b-param", "b = b_1/(theta_1+1)", (b,)))
    require(exact_cmp(b, 1) >= 0, "b >= 1 must hold when c_2 >= 2")
    theta1 = eigenvalues(ia)[1]
    # a quadrangle forces theta_1 <= b_1 - 1, i.e. b >= 1
    evidence.append(Evidence(
        "quadrangle", "theta_1 <= b_1 - 1",
        (theta1, ia.b[1] - 1, exact_cmp(theta1, ia.b[1] - 1) <= 0)))
    branches = _named_branches(ia, evidence, "main")
    npa = near_polygon_analysis(ia)
    if npa["near_polygon"] and npa.get("gon") == 2 * ia.D:
        name = f"regular near {2 * ia.D}-gon"
        if npa.get("refinement"):
            name += f" ({npa['refinement']})"
        branches.insert(0, ("i", name))
        evidence.append(Evidence(
            "near-polygon", "a_i = c_i a_1 for all i",
            (npa.get("order"), npa.get("refinement"))))
    F, G = homogeneity_bounds(b)
    k_le_F = exact_cmp(ia.k, F) <= 0
    evidence.append(Evidence("F-bound", "k <= F(b)", (ia.k, F, k_le_F)))
    evidence.append(Evidence("G-bound", "G(b) < F(b)", (G, F)))
    # branch order: (i) first, the structural families, the bound (vi) last
    if k_le_F:
        branches.append(("vi", "k <= F(b)"))
    # primary = most specific structural branch; (vi) only as fallback
    return _outcome("main", branches, evidence)

"""The array-stream workload: a seeded stream of intersection arrays through
the user path ``drglab classify --ia``, called in-process via
``drglab.cli.main`` with stdout captured and parsed.

The stream is stratified: every round walks the same slots, each slot a
generator with a fixed range of diameter and valency, and the seed picks the
member of each slot.  Rounds therefore cost about the same on every seed,
while the arrays themselves change.  Expected classifier outcomes follow from
the generator (Johnson -> ii, halved -> iii, ...), not from drglab.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from typing import List, Optional, Tuple

from graph_work import folded_array, halved_array, hamming_array, johnson_array
from harness import Op

K_MAX = 10_000


def _prime_powers(limit: int) -> Tuple[int, ...]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, int(limit ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    out = set()
    for p in (i for i in range(2, limit + 1) if sieve[i]):
        q = p
        while q <= limit:
            out.add(q)
            q *= p
    return tuple(sorted(out))


PRIME_POWERS = _prime_powers(K_MAX // 2)
BIGGS_SMITH = ((3, 2, 2, 2, 1, 1, 1), (1, 1, 1, 1, 1, 1, 3))


def _is_square(x: int) -> bool:
    r = int(round(x ** 0.5))
    return r * r == x


def gaussian(i: int, b: int) -> Fraction:
    return Fraction(i) if b == 1 else Fraction(b ** i - 1, b - 1)


def classical(D: int, b: int, alpha, beta):
    """b_i = ([D]-[i])(beta - alpha[i]), c_i = [i](1 + alpha[i-1])."""
    g = [gaussian(i, b) for i in range(D + 1)]
    bs = [(g[D] - g[i]) * (beta - alpha * g[i]) for i in range(D)]
    cs = [g[i] * (1 + alpha * g[i - 1]) for i in range(1, D + 1)]
    if any(v <= 0 or v.denominator != 1 for v in bs + cs):
        return None
    return tuple(int(v) for v in bs), tuple(int(v) for v in cs)


# -- generators: each yields (params, array, expectation) -------------------------
#
# expectation keys: tag (named family), cp (classical parameters), tight,
# near (gon, order, refinement), branches [(theorem, branch)], name (of the
# main classifier's branch).


def _named(tag, cp, branches, tight=None, tight_branch=None, name=None, **extra):
    return dict(tag=tag, cp=cp, tight=tight, name=name or tag,
                branches=branches + ([("tight", tight_branch)] if tight else []),
                **extra)


def gen_johnson(D_range, k_band, tight=None):
    for D in D_range:
        for n in range(2 * D, K_MAX // D + D + 1):
            k = D * (n - D)
            if not k_band[0] <= k <= k_band[1] or (tight is not None and (n == 2 * D) != tight):
                continue
            tag = f"Johnson J({n},{D})"
            yield (n, D), johnson_array(n, D), _named(
                tag, (D, 1, 1, n - D), [("main", "ii"), ("classical", "ii")],
                tight=n == 2 * D, tight_branch="i")


def gen_hamming(D_range, k_band):
    for D in D_range:
        for q in range(3, K_MAX // D + 2):
            if k_band[0] <= D * (q - 1) <= k_band[1]:
                yield (D, q), hamming_array(D, q), _named(
                    f"Hamming H({D},{q})", (D, 1, 0, q - 1),
                    [("main", "i"), ("classical", "i")],
                    name=f"regular near {2 * D}-gon (Hamming)",
                    near=(2 * D, None, "Hamming"))


def gen_halved(lengths):
    for m in lengths:
        D = m // 2
        yield (m,), halved_array(m), _named(
            f"halved {m}-cube", (D, 1, 2, 2 * ((m + 1) // 2) - 1),
            [("main", "iii"), ("classical", "iii")],
            tight=m == 2 * D, tight_branch="ii")


def gen_folded_johnson(es):
    for e in es:
        yield (e,), folded_array(johnson_array(4 * e, 2 * e)), _named(
            f"folded Johnson J({4 * e},{2 * e})", None, [("main", "iv")])


def gen_folded_halved(es):
    for e in es:
        yield (e,), folded_array(halved_array(4 * e)), _named(
            f"folded halved {4 * e}-cube", None, [("main", "v")])


def gen_grassmann(D_range, k_band):
    for q in PRIME_POWERS[:6]:
        for D in D_range:
            for n in range(2 * D, 2 * D + 8):
                beta = gaussian(n - D + 1, q) - 1
                ia = classical(D, q, Fraction(q), beta)
                if ia and k_band[0] <= ia[0][0] <= k_band[1]:
                    yield (q, n, D), ia, _named(None, (D, q, q, beta),
                                                [("main", "vi"), ("classical", "vi")],
                                                name="k <= F(b)")


def gen_dual_polar(D_range, k_band, a1_positive):
    """beta = q^e with e in {0, 1/2, 1, 3/2, 2}; a_1 = 0 exactly when e = 0."""
    for q in PRIME_POWERS[:8]:
        for D in D_range:
            for e2 in range(5):
                if (e2 > 0) != a1_positive or (e2 % 2 and not _is_square(q)):
                    continue
                beta = Fraction(int(round(q ** (e2 / 2))))
                ia = classical(D, q, Fraction(0), beta)
                if ia and k_band[0] <= ia[0][0] <= k_band[1]:
                    yield (q, D, e2), ia, _named(
                        None, (D, q, 0, beta), [("main", "i"), ("classical", "i")],
                        name=f"regular near {2 * D}-gon (dual polar)",
                        near=(2 * D, None, "dual polar"))


def feasible(ia) -> bool:
    """The standard conditions: every a_i >= 0 and every k_i an integer."""
    b, c = ia
    k, D = b[0], len(b)
    k_i = Fraction(1)
    for i in range(1, D + 1):
        b_i = b[i] if i < D else 0
        if k - b_i - c[i - 1] < 0:
            return False
        k_i = k_i * b[i - 1] / c[i - 1]
        if k_i.denominator != 1:
            return False
    return True


def gen_classical(D: int, b: int, alphas, k_band):
    """Feasible arrays with classical parameters (D, b, alpha, beta), b >= 2
    and alpha > 0: bilinear forms H_q(D, e) are (D, q, q-1, q^e - 1) and
    Grassmann J_q(n, D) is (D, q, q, [n-D+1] - 1); the other integral beta
    give arrays no known graph has, which the classifiers accept all the same."""
    for alpha in alphas:
        for beta in range(1, k_band[1] + 1):
            ia = classical(D, b, Fraction(alpha), Fraction(beta))
            if ia and k_band[0] <= ia[0][0] <= k_band[1] and feasible(ia):
                yield (D, b, alpha, beta), ia, _named(
                    None, (D, b, alpha, beta), [("main", "vi"), ("classical", "vi")],
                    name="k <= F(b)")


def gen_hexagon(k_band, surd):
    """Generalized hexagons GH(s, t): surd eigenvalues s-1 +- sqrt(st) when st
    is not a square, i.e. t = 1 and s not a square."""
    for s in PRIME_POWERS:
        for t in ((1,) if surd else (s, s ** 3)):
            if surd and _is_square(s):
                continue
            k = s * (t + 1)
            if k_band[0] <= k <= k_band[1]:
                yield (s, t), ((k, s * t, s * t), (1, 1, t + 1)), _named(
                    None, None, [], near=(6, [s, t], None))


#: slot label -> candidate generator; one array per slot per round.  Every slot
#: has at least as many members as a run has rounds, so no array repeats, and
#: its valency band is narrow, so its members cost about the same.
def slots():
    return [
        ("johnson D3-4", gen_johnson(range(3, 5), (20, 30))),
        ("hamming D3-4", gen_hamming(range(3, 5), (20, 30))),
        ("halved D3-4", gen_halved(range(6, 10))),
        ("hexagon surd small", gen_hexagon((20, 60), True)),
        ("grassmann D3", gen_grassmann((3,), (200, 1000))),
        ("dual polar D3-4", gen_dual_polar(range(3, 5), (100, 200), True)),
        ("dual polar a1=0", gen_dual_polar(range(3, 10), (100, 260), False)),
        ("johnson tight", gen_johnson(range(5, 10), (1, K_MAX), tight=True)),
        ("halved tight", gen_halved(range(10, 19, 2))),
        ("halved odd", gen_halved(range(11, 20, 2))),
        ("folded johnson", gen_folded_johnson(range(5, 10))),
        ("folded halved", gen_folded_halved(range(5, 10))),
        ("hamming D5-9", gen_hamming(range(5, 10), (200, 250))),
        ("johnson D5-9", gen_johnson(range(5, 10), (500, 600), tight=False)),
        ("dual polar D5-9", gen_dual_polar(range(5, 10), (1000, 1100), True)),
        ("hexagon rational", gen_hexagon((1500, 2500), False)),
        ("hamming D3-4 large", gen_hamming(range(3, 5), (1800, 2200))),
        ("classical b=2 D5", gen_classical(5, 2, (1, 2), (3800, 4100))),
        ("classical b=2 D6", gen_classical(6, 2, (1,), (3700, 4100))),
        ("johnson large", gen_johnson(range(5, 10), (4500, 5000), tight=False)),
        ("hexagon surd large", gen_hexagon((4500, 5000), True)),
        ("hamming large", gen_hamming(range(5, 10), (7000, 7500))),
    ]


TINY_SLOTS = ("johnson tight", "halved tight", "folded johnson", "hamming D3-4",
              "hexagon surd small", "dual polar D3-4")


def array_text(ia) -> str:
    return ",".join(map(str, ia[0])) + ";" + ",".join(map(str, ia[1]))


class ArrayStream:
    """``drglab classify --ia`` over a stratified, seeded stream of arrays."""

    name = "array-stream"
    latency_per_call = True

    def __init__(self, drglab, seed: int, tiny: bool = False):
        self.dg = drglab
        rng = random.Random(seed)
        self.slots: List[Tuple[str, list]] = []
        for label, gen in slots():
            if tiny and label not in TINY_SLOTS:
                continue
            members = list(gen)
            rng.shuffle(members)
            self.slots.append((label, members))
        self.probes = [self._op("Biggs-Smith", BIGGS_SMITH, None, (TypeError,))]

    def round_ops(self, index: int) -> List[Op]:
        ops = []
        for label, members in self.slots:
            _, ia, expect = members[index % len(members)]
            ops.append(self._op(label, ia, expect))
        return ops

    def _op(self, label, ia, expect, known_error=()) -> Op:
        text = array_text(ia)
        cli = self.dg.cli

        def classify():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["classify", "--ia", text])
            return code, buf.getvalue()

        def check(res):
            code, out = res
            if code != 0:
                return ("drg_error" if code == 2 else "result",
                        f"exit code {code}", {})
            problem = expected_problem(json.loads(out), ia, expect)
            return "result", problem, props(label, ia, expect)

        return Op(label, "classify", classify, check, known_error)


def props(label: str, ia, expect: Optional[dict]) -> dict:
    """The stream properties the report gives shares of."""
    b, c = ia
    D = len(b)
    a1 = b[0] - b[1] - c[0]
    return {"text": array_text(ia), "D": D, "k": b[0], "d5_a1": D >= 5 and a1 > 0,
            "tight": bool(expect and expect["tight"]),
            "surd": label.startswith("hexagon surd")}


def expected_problem(out: dict, ia, expect: Optional[dict]) -> Optional[str]:
    """None when the classify JSON matches what the generator implies."""
    if out.get("ia") != array_text(ia):
        return f"ia {out.get('ia')}"
    if expect is None:  # the Biggs-Smith probe, once its defect is fixed
        return None if out["classifications"] == [] else "classifications"
    if expect["tag"] and expect["tag"] not in out["named_families"]:
        return f"named families {out['named_families']}"
    if expect["cp"]:
        D, b, alpha, beta = expect["cp"]
        want = {"D": D, "b": b, "alpha": str(Fraction(alpha)),
                "beta": str(Fraction(beta))}
        if want not in out["classical_parameters"]:
            return f"classical parameters {out['classical_parameters']}"
    if expect["tight"] is not None and (
            out["fundamental_bound"]["tight"] != expect["tight"]):
        return f"tight={out['fundamental_bound']['tight']}"
    if "near" in expect:
        gon, order, refinement = expect["near"]
        npa = out["near_polygon"]
        if (not npa["near_polygon"] or npa.get("gon") != gon
                or (order is not None and npa.get("order") != order)
                or npa.get("refinement") != refinement):
            return f"near polygon {npa}"
    b, c = ia
    D, a1 = len(b), b[0] - b[1] - c[0]
    want = expect["branches"] if D >= 5 and a1 > 0 else []
    got = [(x["theorem"], x["branch"]) for x in out["classifications"]]
    if got != want:
        return f"classifications {got}, expected {want}"
    if got and out["classifications"][0]["name"] != expect["name"]:
        return f"main classifier named {out['classifications'][0]['name']}"
    return None

#!/usr/bin/env python3
"""Run the full analysis pipeline over the built-in graph corpus.

For each graph: build it, certify distance-regularity, check 1-homogeneity
and the local three-cell partitions, and print from its array's
classification report (``drglab.classical.classification_report``, what
``drglab classify`` reports) the fundamental bound, the near polygon, the
classical parameters and every classification that applies.  Prints one
summary block per graph.  Every verdict is exhaustive: each pair at each
distance is read.  Exits 1 when some graph is not distance-regular, not
1-homogeneous, or fails the local partition check.

Usage:
    python scripts/verify_corpus.py
"""

import sys
import time

from drglab.arrays import IntersectionArray
from drglab.cab import cab_partition_check
from drglab.classical import classification_report
from drglab.eigen import b_parameter, eigenvalues
from drglab.families import FamilySpec, build_family
from drglab.graph import check_distance_regular
from drglab.homogeneous import check_i_homogeneous
from drglab.scalars import scalar_str

CORPUS = [
    "petersen",
    "icosahedron",
    "hamming:5,3",
    "johnson:10,5",
    "halved_cube:10",
    "halved_cube:11",
    "folded_johnson:12,6",
    "complete:5",
]


def analyze(spec_text: str, g, built_s: float) -> bool:
    """Print the summary block of g; False when a verdict fails."""
    ia = check_distance_regular(g)
    print(f"== {spec_text}  (v={g.n}, built in {built_s:.1f}s)")
    if not isinstance(ia, IntersectionArray):
        print(f"   NOT distance-regular: {ia}")
        return False
    report = classification_report(ia)
    print(f"   array {ia}   eigenvalues "
          f"{[scalar_str(v) for v in eigenvalues(ia)]}")
    # as ``drglab analyze``: b = b_1 / (theta_1 + 1) needs diameter at least 2
    b = f"b = {scalar_str(b_parameter(ia))}   " if ia.D >= 2 else ""
    print(f"   {b}named: {report['named_families'] or '-'}")
    homog = check_i_homogeneous(g, 1)
    print(f"   1-homogeneous: {homog.holds} "
          f"({homog.mode}, {homog.pairs_checked} pairs)")
    holds = homog.holds
    if ia.a_at(1) > 0:
        cab = cab_partition_check(g)
        levels = [tuple(scalar_str(v) if v is not None else "-"
                        for v in p.as_tuple()) for p in cab.levels]
        print(f"   local partitions: holds={cab.holds}  levels={levels}")
        holds = holds and cab.holds
    if "fundamental_bound" in report:
        fb = report["fundamental_bound"]
        print(f"   fundamental bound: lhs={scalar_str(fb.lhs)} "
              f"rhs={scalar_str(fb.rhs)} tight={fb.tight}")
    npa = report["near_polygon"]
    if npa["near_polygon"]:
        print(f"   near polygon: gon={npa['gon']} order={npa['order']} "
              f"refinement={npa['refinement']}")
    for cp in report["classical_parameters"]:
        print(f"   classical (D,b,alpha,beta) = ({cp.D}, {cp.b}, "
              f"{scalar_str(cp.alpha)}, {scalar_str(cp.beta)})")
    for out in report["classifications"]:
        print(f"   {out.theorem} classifier: branch {out.branch} ({out.name})")
    return holds


def main() -> int:
    failed = 0
    for spec_text in CORPUS:
        t0 = time.time()
        g = build_family(FamilySpec.parse(spec_text))
        failed += not analyze(spec_text, g, time.time() - t0)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

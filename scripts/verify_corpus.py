#!/usr/bin/env python3
"""Run the full analysis pipeline over the built-in graph corpus.

For each graph: build it, certify distance-regularity, check 1-homogeneity
and the local three-cell partitions, evaluate the fundamental bound, and run
the applicable classifiers.  Prints one summary block per graph.

Usage:
    python scripts/verify_corpus.py [--skip-large] [--sample N --seed S]
"""

import argparse
import sys
import time

from drglab.arrays import IntersectionArray
from drglab.cab import cab_partition_check
from drglab.classical import classify_tight, fundamental_bound, \
    recognize_classical
from drglab.eigen import b_parameter, eigenvalues
from drglab.families import FamilySpec, build_family
from drglab.graph import check_distance_regular
from drglab.homogeneous import (ClassifierBundle, check_i_homogeneous,
                                classify_main, near_polygon_analysis,
                                recognize_named_family)
from drglab.scalars import scalar_str

CORPUS = [
    "petersen",
    "icosahedron",
    "hamming:5,3",
    "johnson:10,5",
    "halved_cube:10",
    "halved_cube:11",
    "folded_johnson:12,6",
]
LARGE_EXHAUSTIVE_CAP = 600  # above this, homogeneity is sampled


def analyze(spec_text: str, g, built_s: float, sample: int, seed: int) -> None:
    ia = check_distance_regular(g)
    print(f"== {spec_text}  (v={g.n}, built in {built_s:.1f}s)")
    if not isinstance(ia, IntersectionArray):
        print(f"   NOT distance-regular: {ia}")
        return
    print(f"   array {ia}   eigenvalues "
          f"{[scalar_str(v) for v in eigenvalues(ia)]}")
    print(f"   b = {scalar_str(b_parameter(ia))}   "
          f"named: {recognize_named_family(ia) or '-'}")
    if g.n <= LARGE_EXHAUSTIVE_CAP:
        homog = check_i_homogeneous(g, 1)
    else:
        homog = check_i_homogeneous(g, 1, "sampled", seed=seed, count=sample)
    print(f"   1-homogeneous: {homog.holds} "
          f"({homog.mode}, {homog.pairs_checked} pairs)")
    if ia.a_at(1) > 0:
        cab = cab_partition_check(g, max_pairs=sample if g.n > LARGE_EXHAUSTIVE_CAP else None)
        levels = [tuple(scalar_str(v) if v is not None else "-"
                        for v in p.as_tuple()) for p in cab.levels]
        print(f"   local partitions: holds={cab.holds}  levels={levels}")
    if ia.D >= 3:
        fb = fundamental_bound(ia)
        print(f"   fundamental bound: lhs={scalar_str(fb.lhs)} "
              f"rhs={scalar_str(fb.rhs)} tight={fb.tight}")
        if fb.tight and ia.D >= 5:
            out = classify_tight(ia)
            print(f"   tight classifier: branch {out.branch} ({out.name})")
    npa = near_polygon_analysis(ia)
    if npa["near_polygon"]:
        print(f"   near polygon: gon={npa['gon']} order={npa['order']} "
              f"refinement={npa['refinement']}")
    cps = recognize_classical(ia) if ia.D >= 3 else []
    for cp in cps:
        print(f"   classical (D,b,alpha,beta) = ({cp.D}, {cp.b}, "
              f"{scalar_str(cp.alpha)}, {scalar_str(cp.beta)})")
    if ia.D >= 5 and ia.a_at(1) > 0:
        out = classify_main(ClassifierBundle(ia))
        print(f"   main classifier: branch {out.branch} ({out.name})")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--skip-large", action="store_true",
                    help=f"skip graphs above {LARGE_EXHAUSTIVE_CAP} vertices")
    ap.add_argument("--sample", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    for spec_text in CORPUS:
        t0 = time.time()
        g = build_family(FamilySpec.parse(spec_text))
        if args.skip_large and g.n > LARGE_EXHAUSTIVE_CAP:
            print(f"== {spec_text}  (v={g.n}, skipped)")
            continue
        analyze(spec_text, g, time.time() - t0, args.sample, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())

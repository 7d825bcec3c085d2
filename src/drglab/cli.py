"""Command-line surface: build, analyze, homog, cab, classify, srg, bounds.

JSON (schema "drg-lab-v1", sorted keys) goes to stdout; diagnostics to
stderr.  Exit codes: 0 = success / property holds, 1 = property fails
(witness in the JSON), 2 = input error (a ``DrgError`` or an ``OSError``;
each parse site turns bad text into ``InputError``), 3 = internal error (any
other exception: a defect of drglab, not of the input).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .arrays import IntersectionArray, basic_feasibility
from .bounds import F_bound, G_bound, srg_bounds
from .cab import cab_partition_check
from .classical import classification_report
from .eigen import b_parameter, eigenvalues
from .errors import DrgError, InputError
from .families import FamilySpec, build_family
from .graph import Graph, check_distance_regular
from .homogeneous import check_i_homogeneous, named_families
from .scalars import scalar_json
from .srg import SrgParams, check_bounds, recognize_srg_family, sims_classify, \
    srg_eigenvalues, srg_from_graph

SCHEMA = "drg-lab-v1"


def _emit(payload: dict, code: int) -> int:
    """Write the payload, exact scalars as strings, and return the exit code."""
    payload["schema"] = SCHEMA
    json.dump(scalar_json(payload), sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")
    return code


def _load_graph(path: str) -> Graph:
    try:
        return Graph.load(path)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot load graph from {path}: {exc}") from exc


def _dr_witness(w) -> dict:
    """The JSON of a distance-regularity witness, as analyze and classify
    print it."""
    return {f: getattr(w, f) for f in ("x", "y", "distance", "counts", "expected")}


def cmd_build(args) -> int:
    try:
        data = json.loads(args.data) if args.data else None
    except ValueError as exc:
        raise InputError(f"bad --data JSON: {exc}") from None
    spec = FamilySpec.parse(args.family, data=data)
    g = build_family(spec)
    summary = {"family": spec.name, "params": list(spec.params),
               "n": g.n, "edges": g.edge_count}
    if args.out:
        g.dump(args.out)
        summary["path"] = args.out
        return _emit(summary, 0)
    summary["graph"] = g.to_json()
    return _emit(summary, 0)


def cmd_analyze(args) -> int:
    g = _load_graph(args.file)
    ia = check_distance_regular(g)
    if not isinstance(ia, IntersectionArray):  # the witness of a failure
        return _emit({"distance_regular": False, "witness": _dr_witness(ia)}, 1)
    rep = basic_feasibility(ia)
    out = {"distance_regular": True, "ia": str(ia), "v": g.n,
           "diameter": ia.D, "k": ia.k, "a": list(ia.a),
           "k_i": list(rep.k_i), "bipartite": ia.is_bipartite,
           "eigenvalues": list(eigenvalues(ia).values)}
    if ia.D >= 2:
        out["b_parameter"] = b_parameter(ia)
    out["named_families"] = named_families(ia)
    return _emit(out, 0)


def cmd_homog(args) -> int:
    g = _load_graph(args.file)
    if (args.sample is None) != (args.seed is None):
        raise InputError("--sample and --seed must be given together")
    mode = "sampled" if args.sample is not None else "exhaustive"
    rep = check_i_homogeneous(g, args.i, mode, seed=args.seed,
                              count=args.sample)
    out = {"level": rep.level, "holds": rep.holds, "mode": rep.mode,
           "pairs_checked": rep.pairs_checked}
    if rep.holds:
        out["cells"] = [list(l) for l in rep.labels]
        out["quotient"] = [list(r) for r in rep.matrix]
        return _emit(out, 0)
    out["witness"] = rep.witness
    return _emit(out, 1)


def cmd_cab(args) -> int:
    g = _load_graph(args.file)
    rep = cab_partition_check(g, i_max=args.upto)
    out = {"holds": rep.holds, "pairs_checked": rep.pairs_checked,
           "levels": rep.levels}
    if rep.holds:
        return _emit(out, 0)
    out["witness"] = rep.deviation
    return _emit(out, 1)


def cmd_classify(args) -> int:
    if (args.file is None) == (args.ia is None):
        raise InputError("give exactly one of FILE or --ia")
    if args.ia is not None:
        ia = IntersectionArray.parse(args.ia)
        homogeneity = "asserted"
    else:
        g = _load_graph(args.file)
        ia = check_distance_regular(g)
        if not isinstance(ia, IntersectionArray):
            return _emit({"error": "graph is not distance-regular",
                          "witness": _dr_witness(ia)}, 1)
        rep = check_i_homogeneous(g, 1)
        if not rep.holds:
            return _emit({"error": "graph is not 1-homogeneous", "ia": str(ia),
                          "witness": rep.witness}, 1)
        homogeneity = "verified"
    return _emit({"ia": str(ia), "homogeneity": homogeneity,
                  **classification_report(ia)}, 0)


def cmd_srg(args) -> int:
    if (args.params is None) == (args.file is None):
        raise InputError("give exactly one of --params or FILE")
    if args.params:
        try:
            v, k, lam, mu = (int(t) for t in args.params.split(","))
        except ValueError as exc:
            raise InputError(f"bad --params: {exc}") from exc
        p = SrgParams(v, k, lam, mu)
    else:
        p, _ = srg_from_graph(_load_graph(args.file))
    eig = srg_eigenvalues(p)
    out = {"params": list(p.as_tuple()), "r": eig.r, "s": eig.s,
           "tags": recognize_srg_family(p)}
    try:
        out["sims"] = sims_classify(p)
        out["bounds"] = check_bounds(p)
    except DrgError as exc:
        out["classification_note"] = str(exc)
    return _emit(out, 0)


def cmd_bounds(args) -> int:
    try:
        b = Fraction(args.b)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad --b: {exc}") from None
    if args.mu is not None and args.m is None:
        raise InputError("--mu needs --m")
    out = {"F": F_bound(b), "G": G_bound(b)}
    if args.m is not None:
        mu = args.mu if args.mu is not None else 1
        mb, cf, ph = srg_bounds(args.m, mu)
        out["mu_bound"] = mb
        out["claw_f"] = cf
        out["phi"] = ph
    return _emit(out, 0)


@lru_cache(maxsize=1)
def make_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; ``main`` finds the handler of
    command NAME as ``cmd_NAME`` when it runs it."""
    ap = argparse.ArgumentParser(prog="drglab")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("build", help="construct a named family")
    p.add_argument("family", help="e.g. johnson:10,5 or halved_cube:10")
    p.add_argument("--data", help="JSON block/OA data for design-backed families")
    p.add_argument("--out", help="write graph JSON here instead of stdout")

    p = sub.add_parser("analyze", help="distance-regularity and spectra")
    p.add_argument("file")

    p = sub.add_parser("homog", help="joint distance partition equitability")
    p.add_argument("file")
    p.add_argument("--i", type=int, default=1)
    p.add_argument("--sample", type=int)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("cab", help="local three-cell partition check")
    p.add_argument("file")
    p.add_argument("--upto", type=int, default=None)

    p = sub.add_parser("classify", help="run the classifiers")
    p.add_argument("file", nargs="?")
    p.add_argument("--ia", help="intersection array 'b0,..;c1,..'")

    p = sub.add_parser("srg", help="strongly regular parameter analysis")
    p.add_argument("file", nargs="?")
    p.add_argument("--params", help="v,k,lambda,mu")

    p = sub.add_parser("bounds", help="evaluate the bound polynomials")
    p.add_argument("--b", required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--mu", type=int)
    return ap


def main(argv: Optional[list] = None) -> int:
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return globals()[f"cmd_{args.cmd}"](args)
    except (DrgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # any other exception is a defect of drglab
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Tables from one result file of perfbench/run.py.

    python3 perfbench/table.py perfbench/results/graph-exhaustive-seed1-trace1.json

The first table has the layout of ROADMAP's baseline: normalized seconds per
op (see speed.py; the lowest over the run's rounds on the graph workloads,
the median on array-stream) for each graph or array slot.  A traced result
adds self seconds per round, by graph (or slot) and layer, and by function.
"""

from __future__ import annotations

import json
import sys
from typing import List

OP_COLUMNS = ("build", "dm", "dr", "homog", "cab", "c2", "local", "spectrum",
              "srg", "sampled", "classify")


def _table(header: List[str], rows: List[List[str]]) -> List[str]:
    out = ["| " + " | ".join(header) + " |",
           "| --- |" + " ---: |" * (len(header) - 1)]
    out += ["| " + " | ".join(r) + " |" for r in rows]
    return out


def _fmt(x) -> str:
    return "" if x is None else f"{x:.4f}"


def render(result: dict) -> str:
    lines = []
    op_s = result["op_s"]
    groups = list(dict.fromkeys(k.rsplit("/", 1)[0] for k in op_s))
    cols = [c for c in OP_COLUMNS if any(f"{g}/{c}" in op_s for g in groups)]
    lines.append(f"normalized seconds per op over {result['rounds']} round(s), "
                 f"{result['record']['workload']}:")
    lines += _table(["group"] + cols,
                    [[g] + [_fmt(op_s.get(f"{g}/{c}")) for c in cols]
                     for g in groups])
    traced = result.get("trace")
    if traced:
        layers = traced["layers"]
        by_group = traced["self_s_per_round_by_group"]
        lines.append("")
        lines.append("traced self seconds per round, by group and layer:")
        lines += _table(["group"] + layers,
                        [[g] + [_fmt(by_group[g].get(layer, 0.0)) for layer in layers]
                         for g in by_group])
        lines.append("")
        lines.append("traced self seconds per round, by function:")
        lines += _table(["function", "self s", "calls"],
                        [[f, _fmt(s), str(traced["calls_per_round"][f])]
                         for f, s in sorted(traced["self_s_per_round"].items(),
                                            key=lambda kv: -kv[1])])
    return "\n".join(lines)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: table.py RESULT.json")
    with open(sys.argv[1]) as fh:
        print(render(json.load(fh)))

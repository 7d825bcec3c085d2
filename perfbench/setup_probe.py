"""Set-up cost of one workload: import drglab, numpy and sympy, then make the
workload's first call.  Run as a child process; prints the seconds taken,
raw and normalized to the reference CPU speed (speed.py).

    python3 perfbench/setup_probe.py graph-exhaustive
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

from speed import timed

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def warm_up(drglab, workload: str) -> None:
    """The first call of each workload, which pays for lazy initialisation."""
    fam = drglab.families
    if workload == "graph-exhaustive":
        g = fam.icosahedron()
        drglab.graph.check_distance_regular(g)
        drglab.homogeneous.check_i_homogeneous(g, 1)
        drglab.cab.cab_partition_check(g)
        drglab.graph.graph_spectrum(g)
    elif workload == "array-stream":
        with contextlib.redirect_stdout(io.StringIO()):
            drglab.cli.main(["classify", "--ia", "25,16,9,4,1;1,4,9,16,25"])
    elif workload == "large-sampled":
        g = fam.hamming(3, 3)
        drglab.homogeneous.check_i_homogeneous(g, 1, "sampled", seed=0, count=2)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def set_up(workload: str) -> None:
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import sympy  # noqa: F401
    import drglab
    import drglab.cli
    warm_up(drglab, workload)


def main() -> None:
    raw, normalized = timed(lambda: set_up(sys.argv[1]))
    print(raw, normalized)


if __name__ == "__main__":
    main()

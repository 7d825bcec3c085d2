"""Exception taxonomy shared across the package, and the one memory check."""

import os
import pathlib
import resource
from decimal import Decimal


class DrgError(Exception):
    """Base class for all library errors."""


class InputError(DrgError):
    """Malformed or infeasible input data."""


class DomainError(DrgError):
    """Argument outside the mathematical domain of an operation."""


class PreconditionError(DrgError):
    """A documented precondition of the operation does not hold."""


class ScopeError(DrgError):
    """Input outside the scope of a classifier (e.g. diameter too small)."""


class SingularityError(DrgError):
    """A denominator in a parameter recursion vanished."""


class ResourceError(DrgError):
    """A size limit refused the input.  This is the one list of them.

    Memory: an input-sized allocation predicts its bytes before it is made,
    and ``require_room`` refuses it when they exceed the room left to the
    process: the lower of physical memory and the soft ``RLIMIT_AS`` (which
    ``ulimit -v`` sets), less the address space already mapped.  Four
    sites predict:

    - the family builders (``families._vertices``): 8 bytes per arc slot of
      n rows of the family's width, the intp targets, plus the
      per-vertex arrays, one block's scratch and any label or design table,
      from the parameters, before any connection set, label table or
      exponential count exists;
    - the graph JSON (``Graph.to_json``): 48 bytes per arc and 160 per
      vertex, for its lists and ints and the one copy the CLI makes;
    - a graph file read (``Graph.load``): 17 bytes per byte of the file;
    - the distance rows of sampled pairs (``homogeneous._sampled_pairs``):
      2 count n int16 entries, before the first draw.

    Time: the dense distance matrix takes at most ``graph._DENSE_CAP`` (6000)
    vertices, which bounds exhaustive 1-homogeneity, the triple intersection
    number and the c2 report; exact spectra take at most
    ``graph.SPECTRUM_EXACT_CAP`` (256); the CAB check takes a valency of at
    most 4096.

    Exactness: distances are int16, so at most 32766; CAB's cell-count keys
    are float sums below (k + 1)^3, in float32 while that is at most 2^22
    and in float64 above; the pair kernel's keys stay below 2^53 (float64)
    or 2^63 (int64), which bounds the digits of a key word.

    Block budget, which bounds working memory without refusing anything:
    ``graph._BUDGET`` (2 MiB, the L2 cache of the 2-core machine the passes
    were timed on) bytes per block of every blocked pass.  Each pass states
    at its call the bytes it holds per entry, its width; a block takes as
    many items as fit, and at least one (``graph._per_block``), and a
    gather over the arcs reads the arcs of consecutive vertices, within the
    budget or of one vertex (``graph._ranges``).  The passes and their
    widths: the pair kernel's blocks of pairs (``graph._check_pairs``: 8
    bytes per (pair, arc) on the sparse route, 32 per (pair, vertex) on the
    dense one), its sparse arc ranges (``graph._pair_keys``, 8 per (pair,
    arc)) and its tables of every label (8 per label, taken while span^2
    labels fit); the distance engine's pull (``Graph._distance_rows``, 8
    per arc); the per-cell counts (``graph._cell_counts``, 32 per arc); the
    local-partition pass (``graph._local_blocks``: 16 per entry for the CAB
    check, 28 with float64 keys, 14 for the lambda- and mu-graphs, 18 for
    the triple intersection number) and its mu-graph patterns
    (``graph._patterns``, 25 per bit); and the rows of a family build
    (``families._label_graph``, ``families._SCRATCH`` (48) per entry, which
    ``families._graph_bytes`` predicts).  ``graph._DENSE_KEYS_CAP`` only
    chooses a route.
    """


class UndecidableComparison(DrgError):
    """Interval refinement hit its cap without separating the operands."""


class InternalError(DrgError):
    """A condition the theory forbids was observed; inputs are suspect."""


def require(condition: bool, message: str) -> None:
    """Raise InternalError unless ``condition`` holds (unlike ``assert``, the
    check survives ``python -O``)."""
    if not condition:
        raise InternalError(message)


def _room() -> int:
    """Bytes this process may still map: the lower of physical memory and
    the soft address-space limit, less the address space already mapped
    (read from /proc/self/statm where it exists)."""
    page = os.sysconf("SC_PAGE_SIZE")
    limits = [page * os.sysconf("SC_PHYS_PAGES"), resource.getrlimit(resource.RLIMIT_AS)[0]]
    statm = pathlib.Path("/proc/self/statm")
    mapped = int(statm.read_text().split()[0]) if statm.exists() else 0
    return min(x for x in limits if x != resource.RLIM_INFINITY) - page * mapped


def require_room(what: str, nbytes: int) -> None:
    """Raise ResourceError when the ``nbytes`` predicted for ``what`` (a
    plural noun phrase) exceed the room left to this process."""
    room = _room()
    if nbytes > room:
        gib = [format(Decimal(b) / 2**30, ".3g") for b in (nbytes, room)]
        raise ResourceError(f"{what} need {gib[0]} GiB; {gib[1]} GiB of memory is left")

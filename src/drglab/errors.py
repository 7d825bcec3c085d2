"""Exception taxonomy shared across the package, and the one memory check."""

import os
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
    """Input outside the scope of a classifier (e.g. diameter too small), or
    a graph whose exact spectrum has no route: one that is not
    distance-regular, or whose array has an eigenvalue of degree 3 or more
    (``graph.graph_spectrum``)."""


class SingularityError(DrgError):
    """A denominator in a parameter recursion vanished."""


class ResourceError(DrgError):
    """A size limit refused the input.  This is the one list of them.

    Memory: an input-sized allocation predicts its bytes before it is made,
    and ``require_room`` refuses it when they exceed the room left to the
    process: the lower of physical memory and the soft ``RLIMIT_AS`` (which
    ``ulimit -v`` sets), less the address space already mapped.  A
    prediction adds a block budget (below) for each blocked pass that
    follows it, for the pass's working set.  These sites predict:

    - the family builders (``families._vertices``): 8 bytes per arc slot of
      n rows of the family's width, the intp targets, plus the
      per-vertex arrays, one block's scratch and any label or design table,
      from the parameters, before any connection set, label table or
      exponential count exists;
    - the graph JSON (``Graph.to_json``): 48 bytes per arc and 160 per
      vertex, for its lists and ints and the one copy the CLI makes;
    - a graph file read (``Graph.load``): 17 bytes per byte of the file;
    - the distance matrix (``Graph.distance_matrix``), once: 2 bytes per
      int16 entry, 768 per vertex for the engine's blocks (221-563 traced)
      and two budgets, one for the engine's pull and one for the verdict
      that reads it;
    - a dense adjacency (``Graph._adjacency``): an entry of its dtype per
      vertex pair and 8 bytes per arc, for the dense pair route,
      ``adjacency_matrix`` and ``bitrows``;
    - the label tables of a pair scan (``graph._check_pairs``): two key
      entries (4 or 8 bytes each) per label per key word, for a digit
      weight and a reference key, with (2i + 1)(2 ecc(x) + 1) labels for
      the pair (x, y) that starts the scan at distance i, since every
      distance is at most 2 ecc(x) and the two distances of a vertex
      differ by at most i (about n^2 / 2 on the n-cycle at level n / 2,
      3 (n + 1) at level 1);
    - the quotient that a verdict reports (``graph._quotient``), a cells x
      cells matrix, counted from the arcs once per verdict (never by the
      pair scan, and not at all by a refuting sampled check): 24 bytes per
      entry, for its intp counts, the report's tuples and the one copy
      ``drglab homog`` makes, its JSON lists, or the copy in swapped-label
      order that exhaustive 1-homogeneity compares it with (a pair of the
      n-cycle has about n cells);
    - an equitable quotient (``graph.equitable_quotient``): first 24 bytes
      per cells x cells entry, for the quotient's intp rows and tuples,
      which bounds its weight table too, then 17 per (vertex, key word)
      entry, for its keys, the keys of each vertex's first member and
      their comparison, 48 per vertex and one budget, for the arc ranges
      of its keys; a key word holds the digits of as many cells as
      (k + 1)^cells <= 2^53 allows, k the largest degree.

    These five are the only predictions that grow with n^2, and none grows
    with a sample count: every pair scan reads its pairs as a stream, a
    budget at a time.  One rule selects the pairs of some rows of the
    distance matrix whose distance lies in a range (``graph._at``), and
    every scan of the matrix reads its pairs through it: exhaustive
    1-homogeneity and the CAB check's re-read of a failing level stream
    them in chunks of rows (``graph._pairs_at``), and the local-partition
    pass counts its pairs a budget's rows at a time (``graph._counts``) and
    selects a block's rows again, so no (n, n) selection exists; sampled
    mode draws batches of at most 32 pairs whose 64 rows come from one
    call of the distance engine (``homogeneous._sampled_pairs``).  The CAB
    check's packed adjacency rows (its triangle test,
    n^2 / 8 bytes) fit in the 768 bytes per vertex that the distance matrix
    predicts for its engine's blocks, freed by then, since n <= 6000.

    Time: the dense distance matrix takes at most ``graph._DENSE_CAP`` (6000)
    vertices, which bounds exhaustive 1-homogeneity, the triple intersection
    number, the c2 report and the distance-regularity certification, and
    with it the spectra that ``graph.graph_spectrum`` reads from the array
    of a certified distance-regular graph (H(5,3) in about 3 ms); the CAB
    check takes a valency of at most 4096.

    Exactness: distances are int16, so at most 32766; CAB's cell-count keys
    are float sums below (k + 1)^3, in float32 while that is at most 2^22
    and in float64 above; the pair kernel's keys stay below 2^24 (float32),
    2^53 (float64) or 2^63 (int64), which bounds the digits of a key word.
    A dense key is float32 when one word holds all of its digits, below
    (k + 1)^3 <= 2^24 for the three digits of distance-regularity (k at
    most 255), (k + 1)^4 <= 2^24 for the four digits of a graph that
    carries its certified array at i >= 1 (k at most 63) and
    (k + 1)^9 <= 2^24 for the nine of any other graph (k at most 5), and
    float64 otherwise, where one word holds the four digits up to
    k = 9740 and the nine up to k = 58; a sparse key is int64, one word
    for four digits up to k = 55107 and for nine up to k = 127.

    Block budget, which bounds working memory without refusing anything:
    ``graph._BUDGET`` (2 MiB, the L2 cache of the 2-core machine the passes
    were timed on) bytes per block of every blocked pass.  Each pass states
    at its call the bytes it holds per entry, its width; a block takes as
    many items as fit, and at least one (``graph._per_block``), and a
    gather over the arcs reads the arcs of consecutive vertices, within the
    budget or of one vertex (``graph._ranges``).  The passes and their
    widths: the pair kernel's blocks of pairs (``graph._check_pairs``, one
    set of buffers a scan, which every block writes into: per (pair,
    vertex) entry an int16 distance and an intp label, 10 bytes, and per
    key word a weight, a key and their comparison, 9 more for a float32
    word and 17 for a float64 or int64 one, and on the sparse route 8 per
    (pair, arc) too) and its sparse arc ranges (``graph._pair_keys``, 8 per
    (pair, arc)); an equitable quotient's arc ranges
    (``graph.equitable_quotient``, 40 per arc and 8 per (vertex, key word)
    entry); the pair selection (``graph._at``: at most 3 per
    distance-matrix entry, and 2 more for the int16 copy of indexed rows);
    the per-row pair counts (``graph._counts``, 3 per entry); the pair
    stream of exhaustive 1-homogeneity and of the CAB check's re-read
    (``graph._pairs_at``: chunks of as many rows as the budget holds at 27
    per entry, 3 for the selection and 24 per pair; the early exit of a scan
    is the pair kernel's blocks, which start at one pair and double); the
    distance engine's pull (``Graph._distance_rows``, 8 per arc); the
    local-partition pass (``graph._local_blocks``, whose blocks count each
    centre's selected row too: 16 per entry for the CAB check, 28 with
    float64 keys, 14 for the lambda- and mu-graphs, 18 for the triple
    intersection number) and its
    mu-graph patterns (``graph._patterns``, 25 per bit); the local gather
    under it (``graph._local_gather``), whose sub-gathers keep their index
    within an eighth of the budget (64 per index entry); the CAB check's
    re-read of a failing level (blocks of pairs from ``graph._pairs_at``,
    (k + 1) k entries a pair at the same 16 or 28, passed straight to the
    gather) and its triangle test (``cab._has_triangle``: 2 per
    distance-matrix entry to pack the adjacency rows selected by
    ``graph._at``, which take n^2 / 8 bytes in all, and 3 per (edge, packed
    byte)); and the rows of a family
    build (``families._label_graph``, ``families._SCRATCH`` (48) per entry,
    which ``families._graph_bytes`` predicts).  ``graph._DENSE_KEYS_CAP`` only
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
    (read from /proc/self/statm where it exists, unbuffered: about 8 us,
    against 20-30 for a ``pathlib`` read)."""
    page = os.sysconf("SC_PAGE_SIZE")
    limits = [page * os.sysconf("SC_PHYS_PAGES"), resource.getrlimit(resource.RLIMIT_AS)[0]]
    try:
        with open("/proc/self/statm", "rb", buffering=0) as fh:
            mapped = int(fh.read().split()[0])
    except FileNotFoundError:
        mapped = 0
    return min(x for x in limits if x != resource.RLIM_INFINITY) - page * mapped


def require_room(what: str, nbytes: int) -> None:
    """Raise ResourceError when the ``nbytes`` predicted for ``what`` (a
    plural noun phrase) exceed the room left to this process."""
    room = _room()
    if nbytes > room:
        gib = [format(Decimal(b) / 2**30, ".3g") for b in (nbytes, room)]
        raise ResourceError(f"{what} need {gib[0]} GiB; {gib[1]} GiB of memory is left")

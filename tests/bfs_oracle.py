"""Reference for the distance engine (``Graph._distance_rows``): the plain
queue breadth-first search it replaced, one source at a time over the neighbour
lists.  The differential test in ``test_distance_engine.py``
compares every distance row against it."""

from collections import deque
from typing import List

from drglab.graph import Graph


def bfs_distances(g: Graph, x: int) -> List[int]:
    """BFS distance vector from x; unreachable vertices get -1."""
    dist = [-1] * g.n
    dist[x] = 0
    queue = deque([x])
    while queue:
        v = queue.popleft()
        dv = dist[v]
        for u in g.neighbors(v):
            if dist[u] < 0:
                dist[u] = dv + 1
                queue.append(u)
    return dist

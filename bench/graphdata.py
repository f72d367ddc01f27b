"""Graph files and hop distances, read and computed without graphheat."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class Graph:
    """A finite weighted graph as written in a graph file."""

    n: int
    measure: tuple
    killing: tuple
    edges: tuple  # (u, v, w), each undirected edge once

    def adjacency(self):
        adj = [[] for _ in range(self.n)]
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        return adj


def read_graph(path) -> Graph:
    """Parse the ``graph`` / ``v`` / ``e`` text format."""
    n = None
    measure, killing, edges = {}, {}, []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            fields = raw.split()
            if not fields or fields[0].startswith("#"):
                continue
            if fields[0] == "graph":
                n = int(fields[1])
            elif fields[0] == "v":
                measure[int(fields[1])] = float(fields[2])
                killing[int(fields[1])] = float(fields[3])
            elif fields[0] == "e":
                edges.append((int(fields[1]), int(fields[2]), float(fields[3])))
            else:
                raise ValueError(f"{path}: unknown line {raw!r}")
    if n is None or sorted(measure) != list(range(n)):
        raise ValueError(f"{path}: missing header or vertices")
    return Graph(n, tuple(measure[v] for v in range(n)),
                 tuple(killing[v] for v in range(n)), tuple(edges))


def hop_distances(adj, source) -> dict:
    """Breadth-first hop distances from source to every reachable vertex."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for nbr, _ in adj[v]:
            if nbr not in dist:
                dist[nbr] = dist[v] + 1
                queue.append(nbr)
    return dist

"""Weighted graphs over countable vertex sets.

A graph is a triple (b, c, m): symmetric non-negative edge weights b with
zero diagonal, a non-negative killing term c, and a strictly positive vertex
measure m.  Finite graphs use dense integer vertex ids 0..n-1 so that dense
matrix routines can index directly; infinite locally finite graphs are
described procedurally by a neighbor oracle over arbitrary integer ids.
"""

from __future__ import annotations

import math
from typing import Callable

INFINITE = math.inf


def _per_vertex(value, n: int, default: float) -> tuple[float, ...]:
    """Coerce a scalar, sequence, or None into one float per vertex."""
    if value is None:
        return (default,) * n
    if isinstance(value, (int, float)):
        return (float(value),) * n
    values = tuple(float(v) for v in value)
    if len(values) != n:
        raise ValueError(f"expected {n} per-vertex values, got {len(values)}")
    return values


class WeightedGraph:
    """Finite weighted graph on vertices 0..n-1.

    Each undirected edge is stored once and mirrored into both adjacency
    rows, so weight symmetry holds by construction.  Instances are immutable
    after construction and safe to share between threads.

    ``labels`` optionally records the original vertex ids of a graph that was
    materialized from a procedural source (see :func:`ball`); it plays no
    role in any computation.
    """

    is_finite = True

    def __init__(self, n, edges=(), measure=None, killing=None, labels=None):
        n = int(n)
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        self._m = _per_vertex(measure, n, 1.0)
        self._c = _per_vertex(killing, n, 0.0)
        for x in range(n):
            if not math.isfinite(self._m[x]) or self._m[x] <= 0:
                raise ValueError(f"measure must be positive and finite at vertex {x}, got {self._m[x]}")
            if not math.isfinite(self._c[x]) or self._c[x] < 0:
                raise ValueError(f"killing term must be non-negative and finite at vertex {x}, got {self._c[x]}")
        adj: list[dict[int, float]] = [{} for _ in range(n)]
        for u, v, w in edges:
            u, v, w = int(u), int(v), float(w)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) references an unknown vertex")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not math.isfinite(w) or w <= 0:
                raise ValueError(f"edge ({u}, {v}) needs a positive finite weight, got {w}")
            if v in adj[u]:
                raise ValueError(f"duplicate edge ({u}, {v})")
            adj[u][v] = w
            adj[v][u] = w
        # sorted rows give deterministic iteration everywhere downstream
        self._adj = tuple({k: row[k] for k in sorted(row)} for row in adj)
        self._wsum = tuple(math.fsum(row.values()) for row in self._adj)
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("labels must cover every vertex")
        self.labels = labels

    @classmethod
    def from_adjacency(cls, rows, measure=None, killing=None):
        """Build from raw adjacency rows without mirroring or validity checks.

        This bypasses the constructor's symmetry-by-construction guarantee so
        that :func:`validate` can inspect arbitrary, possibly inconsistent
        data.  ``rows`` is a sequence of ``{neighbor: weight}`` dicts.
        """
        g = object.__new__(cls)
        g.n = len(rows)
        g._m = _per_vertex(measure, g.n, 1.0)
        g._c = _per_vertex(killing, g.n, 0.0)
        g._adj = tuple({int(k): float(v) for k, v in sorted(row.items())} for row in rows)
        g._wsum = tuple(math.fsum(row.values()) for row in g._adj)
        g.labels = None
        return g

    # -- queries ---------------------------------------------------------

    @property
    def vertices(self) -> range:
        return range(self.n)

    def has_vertex(self, x) -> bool:
        return isinstance(x, int) and 0 <= x < self.n

    def _check(self, x) -> None:
        if not self.has_vertex(x):
            raise ValueError(f"unknown vertex id {x!r}")

    def neighbors(self, x):
        """(neighbor, weight) pairs of x, sorted by neighbor id."""
        self._check(x)
        return self._adj[x].items()

    def weight(self, x, y) -> float:
        self._check(x)
        self._check(y)
        return self._adj[x].get(y, 0.0)

    def measure(self, x) -> float:
        self._check(x)
        return self._m[x]

    def killing(self, x) -> float:
        self._check(x)
        return self._c[x]

    def weight_sum(self, x) -> float:
        """Total edge weight at x (the row sum of b)."""
        self._check(x)
        return self._wsum[x]

    def edges(self):
        """Undirected edges as (u, v, weight) with u < v, sorted."""
        for u in range(self.n):
            for v, w in self._adj[u].items():
                if u < v:
                    yield u, v, w

    @property
    def edge_count(self) -> int:
        return sum(len(row) for row in self._adj) // 2

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, edges={self.edge_count})"


class ProceduralGraph:
    """Locally finite graph defined lazily by oracles over integer vertex ids.

    ``neighbor_fn(x)`` returns the finite list of (neighbor, weight) pairs of
    x; ``measure_fn`` and ``killing_fn`` default to the constant 1 and 0.
    Oracle answers are cached, so the functions must be deterministic.
    Symmetry is cross-checked against previously cached rows: an oracle that
    reports an edge from one side only (or with a different weight) raises.

    ``max_degree``, when given, declares a uniform bound on the number of
    neighbors; rows exceeding it are rejected.
    """

    is_finite = False

    def __init__(self, neighbor_fn: Callable, measure_fn: Callable | None = None,
                 killing_fn: Callable | None = None, max_degree: int | None = None):
        self._neighbor_fn = neighbor_fn
        self._measure_fn = measure_fn
        self._killing_fn = killing_fn
        self.max_degree = max_degree
        self._rows: dict[int, dict[int, float]] = {}
        self._m: dict[int, float] = {}
        self._c: dict[int, float] = {}

    def has_vertex(self, x) -> bool:
        return isinstance(x, int)

    def _check(self, x) -> None:
        if not self.has_vertex(x):
            raise ValueError(f"unknown vertex id {x!r}")

    def _row(self, x) -> dict[int, float]:
        row = self._rows.get(x)
        if row is not None and isinstance(x, int):  # a cached row's id was checked
            return row
        self._check(x)
        row = {}
        for y, w in self._neighbor_fn(x):
            y, w = int(y), float(w)
            if y == x:
                raise ValueError(f"oracle returned a self-loop at vertex {x}")
            if not math.isfinite(w) or w <= 0:
                raise ValueError(f"oracle returned a non-positive weight {w} on edge ({x}, {y})")
            if y in row:
                raise ValueError(f"oracle listed neighbor {y} of {x} twice")
            row[y] = w
        if self.max_degree is not None and len(row) > self.max_degree:
            raise ValueError(f"vertex {x} has {len(row)} neighbors, above the declared bound {self.max_degree}")
        for y, w in row.items():
            other = self._rows.get(y)
            if other is not None and other.get(x) != w:
                raise ValueError(
                    f"oracle is asymmetric between {x} and {y}: {w} vs {other.get(x)}")
        row = {k: row[k] for k in sorted(row)}
        self._rows.setdefault(x, row)
        return self._rows[x]

    def neighbors(self, x):
        return self._row(x).items()

    def weight(self, x, y) -> float:
        return self._row(x).get(int(y), 0.0)

    def measure(self, x) -> float:
        self._check(x)
        if x not in self._m:
            m = 1.0 if self._measure_fn is None else float(self._measure_fn(x))
            if not math.isfinite(m) or m <= 0:
                raise ValueError(f"measure must be positive and finite at vertex {x}, got {m}")
            self._m.setdefault(x, m)
        return self._m[x]

    def killing(self, x) -> float:
        self._check(x)
        if x not in self._c:
            c = 0.0 if self._killing_fn is None else float(self._killing_fn(x))
            if not math.isfinite(c) or c < 0:
                raise ValueError(f"killing term must be non-negative and finite at vertex {x}, got {c}")
            self._c.setdefault(x, c)
        return self._c[x]

    def weight_sum(self, x) -> float:
        return math.fsum(self._row(x).values())

    def __repr__(self) -> str:
        return f"ProceduralGraph(explored={len(self._rows)})"


def validate(g: WeightedGraph) -> list[str]:
    """Check the graph axioms and return one description per violation.

    Violations are data, not exceptions: graphs built through
    :meth:`WeightedGraph.from_adjacency` may carry arbitrary defects and this
    reports all of them.  Graphs built through the regular constructor always
    validate clean.
    """
    problems = []
    for x in range(g.n):
        m = g._m[x]
        if not math.isfinite(m) or m <= 0:
            problems.append(f"nonpositive measure at {x}: {m}")
        c = g._c[x]
        if not math.isfinite(c) or c < 0:
            problems.append(f"negative killing term at {x}: {c}")
    for x in range(g.n):
        for y, w in g._adj[x].items():
            if not math.isfinite(w):
                problems.append(f"non-finite weight at ({x}, {y}): {w}")
                continue
            if w < 0:
                problems.append(f"negative weight at ({x}, {y}): {w}")
            if y == x:
                if w != 0:
                    problems.append(f"nonzero diagonal weight at {x}: {w}")
                continue
            if not (0 <= y < g.n):
                problems.append(f"edge ({x}, {y}) references an unknown vertex")
                continue
            back = g._adj[y].get(x)
            if back != w and (x < y or back is None):
                problems.append(f"asymmetric weight at ({x}, {y}): {w} vs {back}")
    return problems


def _layers(source, starts, cutoff):
    """Yield the vertices at hop distance 0, 1, ... from the nearest of
    ``starts``, one list per distance, up to ``cutoff`` or the last nonempty
    layer: one breadth-first search over the edge set {b > 0} that never
    expands the last layer."""
    starts = list(starts)
    for x in starts:
        source._check(x)
    if cutoff is None:
        if not source.is_finite:
            raise ValueError("cutoff is required for distance queries on procedural sources")
        cutoff = source.n
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    seen = set(starts)
    layer = sorted(seen)
    for _ in range(cutoff):
        yield layer
        nxt = []
        for v in layer:
            for nbr, _ in source.neighbors(v):
                if nbr not in seen:
                    seen.add(nbr)
                    nxt.append(nbr)
        if not nxt:
            return
        layer = nxt
    yield layer


def combinatorial_distance(source, x, y, cutoff: int | None = None):
    """Length of a shortest edge path from x to y within ``cutoff``, or ``INFINITE``.

    ``cutoff`` bounds the search radius and is mandatory for procedural
    sources; finite graphs default to their vertex count (no shorter path can
    exist beyond it).
    """
    source._check(y)
    return next((d for d, layer in enumerate(_layers(source, [x], cutoff)) if y in layer),
                INFINITE)


def distances_from(source, x, cutoff: int | None = None, targets=None) -> dict:
    """Hop distances from x to every vertex reachable within ``cutoff`` hops;
    ``cutoff`` is as in :func:`combinatorial_distance`.  Given ``targets``, the
    search stops at the layer that reaches the last of them."""
    dist, left = {}, {None} if targets is None else set(targets)  # None is never reached
    for d, layer in enumerate(_layers(source, [x], cutoff)):
        dist.update(dict.fromkeys(layer, d))
        left.difference_update(layer)
        if not left:
            break
    return dist


def is_connected(g: WeightedGraph) -> bool:
    """True iff every pair of vertices is joined by a path."""
    if not g.is_finite:
        raise ValueError("connectivity check requires a finite graph")
    if g.n == 0:
        return True
    return len(distances_from(g, 0)) == g.n


def degree(source, x) -> float:
    """Weighted degree (sum of edge weights plus killing term) over the measure."""
    return (source.weight_sum(x) + source.killing(x)) / source.measure(x)


def ball(source, x, radius: int) -> WeightedGraph:
    """Induced subgraph on all vertices within the given hop radius of x.

    Materializes a procedural source into a finite :class:`WeightedGraph`
    whose ``labels`` record the original vertex ids (sorted ascending).
    Includes every edge with both endpoints inside the ball.
    """
    return neighborhood(source, [x], radius)


def neighborhood(source, centers, radius: int) -> WeightedGraph:
    """The :func:`ball` around several centers: the union of their balls, induced,
    materialized from :func:`graphheat.operators.induced_ball`."""
    from .operators import induced_ball  # operators builds on this module

    labels, kernel = induced_ball(source, centers, radius)
    upper = kernel.rows < kernel.cols
    edges = zip(kernel.rows[upper].tolist(), kernel.cols[upper].tolist(), kernel.w[upper].tolist())
    c = [source.killing(v) for v in labels.tolist()]
    return WeightedGraph(len(labels), edges, kernel.m.tolist(), c, labels=labels.tolist())

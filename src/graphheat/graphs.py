"""Weighted graphs over countable vertex sets, and the array kernel of their Laplacian.

A graph is a triple (b, c, m): symmetric non-negative edge weights b with
zero diagonal, a non-negative killing term c, and a strictly positive vertex
measure m.  Finite graphs use dense integer vertex ids 0..n-1 so that dense
matrix routines can index directly; they are stored as edge arrays, which are
their Laplacian's kernel too, and a vertex's dict row is made from them on demand.
Infinite locally finite graphs are given by a neighbor oracle over integer ids,
and keep the rows their hop balls explored, laid out as such arrays.  A vertex id
is an int (a bool counts; numpy integers, which only the constructor takes, do not):
every query and reader checks all the ids it is handed with one ``_check``.

A finite graph applies its Laplacian by :meth:`WeightedGraph.apply` as
(diag * f - bincount(rows, w * f[cols])) / m, with diag = sum_y b(x,y) + c(x).
The columns f_j of a block share one bincount over the rows offset by n j, a
chunk of columns at a time: bin n j + x sums the terms of column j alone, in edge
order from +0.0, as a bincount of that column does, so every column has the bits
of the kernel applied to it alone.  If f vanishes outside the k-ball around y,
every term of (L f)(x) outside the (k+1)-ball is w * 0.0 or diag * 0.0, so the
moment <1_x, L^n 1_y> is exactly 0.0 below the hop distance and the first nonzero
order is read without thresholds.  At the critical order the entry sums only
shortest-path products, all of sign (-1)^d: no cancellation, so the plain sum is
accurate to a few ulps per step.

The same zeros let a stream run on a hop ball with the whole graph's bits: a
row whose neighbors all lie in the ball sums the same terms in the same order
there, and the terms it leaves out are w * +0.0, which leave a bincount sum
(started at +0.0, so never -0.0) as it is; see :func:`graphheat.moments.stream`.
Every such ball is a :class:`WeightedGraph` made by :meth:`BallSearch.ball`, a
slice of arrays that already exist: a finite graph's own, or those of the region
of a procedural source explored so far, which the source keeps and each vertex
enters once.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
from typing import Callable

import numpy as np

INFINITE = math.inf
CHUNK = 1 << 14  # the most terms one bincount of WeightedGraph.apply sums


def _per_vertex(value, n: int, default: float) -> np.ndarray:
    """Coerce a scalar, sequence, or None into one float per vertex."""
    if value is None or isinstance(value, (int, float)):
        return np.full(n, default if value is None else float(value))
    values = np.fromiter(value, float)
    if len(values) != n:
        raise ValueError(f"expected {n} per-vertex values, got {len(values)}")
    return values


def _integers(values, what: str) -> np.ndarray:
    """``values`` as an intp array, each taken as operator.index takes it: numpy
    integers pass, 2.9 and 2.0 do not."""
    array = np.asarray(values)
    for v in () if array.dtype.kind in "biu" else values:
        if not hasattr(type(v), "__index__"):
            raise ValueError(f"{what} must be an integer, got {v!r}")
    return array.astype(np.intp)


class _DictRows:
    """The vertex queries that both kinds of graph answer from dict rows, a vertex's
    row made by ``_new_row`` on the first call for it."""

    def _check(self, *ids) -> None:
        """Raise at the first of ``ids`` that is not a vertex, in the order given."""
        if not set(map(type, ids)) <= {int, bool} or self.is_finite and not (
                0 <= min(ids, default=0) and max(ids, default=0) < self.n):
            for x in itertools.filterfalse(self.has_vertex, ids):  # the first unknown id alone
                raise ValueError(f"unknown vertex id {x!r}")

    def _row(self, x) -> dict[int, float]:
        row = self._dict_rows.get(x)
        if row is not None and isinstance(x, int):  # a cached row's id was checked
            return row
        self._check(x)
        return self._new_row(x)

    def neighbors(self, x):
        """(neighbor, weight) pairs of x, sorted by neighbor id."""
        return self._row(x).items()

    def weight(self, x, y) -> float:
        row = self._row(x)
        self._check(y)
        return row.get(y, 0.0)


class WeightedGraph(_DictRows):
    """Finite weighted graph on vertices 0..n-1, stored as arrays.

    ``rows``, ``cols`` and ``w`` hold each undirected edge in both orientations,
    sorted by row and then column, so weight symmetry holds by construction;
    ``m``, ``c``, ``wsum`` and ``diag`` hold each vertex's measure, killing term,
    row weight sum (``math.fsum`` of its row) and ``wsum + c``.  ``edges`` are
    (u, v, weight) triples; :meth:`from_arrays` takes them as three arrays, checked
    alike.  The queries return Python numbers; :meth:`neighbors` makes a vertex's
    dict row when first asked for it.  Instances are immutable after construction
    (the arrays are read-only, a pickled copy's too) and safe to share between threads.

    The graph is its Laplacian's kernel (see the module docstring): :meth:`apply`
    applies it, ``bound`` is the Gershgorin bound of M^-1/2 A M^-1/2, an upper bound
    for lambda_max (the only code that sums one: a procedural source's pairs read theirs
    from their 1-ball's graph), and ``degree`` the largest number of neighbors of a
    vertex, each computed on first read.

    ``labels`` records the original vertex ids of a hop ball (see :func:`ball`), and is
    None on other graphs; it plays no role in any computation.
    """

    is_finite = True

    def __init__(self, n, edges=(), measure=None, killing=None):
        self._checked(n, *(tuple(zip(*edges)) or ((), (), ())), measure, killing)

    @classmethod
    def from_arrays(cls, n, u, v, w, measure=None, killing=None):
        """The graph of the edges (u[i], v[i], w[i]), checked as the constructor checks them."""
        g = object.__new__(cls)
        g._checked(n, u, v, w, measure, killing)
        return g

    def _checked(self, n, u, v, w, measure, killing) -> None:
        """Store the graph, or raise for its first defect in the order of a check per
        vertex, then one per id, then one per edge: range, loop, weight, repeat."""
        n = int(_integers([n], "vertex count")[0])
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        m, c = _per_vertex(measure, n, 1.0), _per_vertex(killing, n, 0.0)
        for x in np.flatnonzero(~(np.isfinite(m) & (m > 0) & np.isfinite(c) & (c >= 0)))[:1]:
            if not (math.isfinite(m[x]) and m[x] > 0):
                raise ValueError(f"measure must be positive and finite at vertex {x}, got {m[x]}")
            raise ValueError(f"killing term must be non-negative and finite at vertex {x}, got {c[x]}")
        u, v, w = _integers(u, "vertex id"), _integers(v, "vertex id"), np.asarray(w, dtype=float)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        repeated = np.ones(len(w), bool)
        repeated[np.unique(lo * n + hi, return_index=True)[1]] = False  # all but first sightings
        flaws = ((lo < 0) | (hi >= n), u == v, ~(np.isfinite(w) & (w > 0)), repeated)
        for i in np.flatnonzero(np.logical_or.reduce(flaws, axis=0))[:1]:
            a, b = int(u[i]), int(v[i])
            raise ValueError(next(text for flaw, text in zip(flaws, (
                f"edge ({a}, {b}) references an unknown vertex", f"self-loop at vertex {a}",
                f"edge ({a}, {b}) needs a positive finite weight, got {float(w[i])}",
                f"duplicate edge ({a}, {b})")) if flaw[i]))
        rows, cols = np.concatenate((u, v)), np.concatenate((v, u))
        order = (rows * n + cols).argsort()
        self._store(n, rows[order], cols[order], np.concatenate((w, w))[order], m, c)

    def _store(self, n, rows, cols, w, m, c) -> None:
        counts = np.bincount(rows, minlength=n)
        self._indptr = [0] + counts.cumsum().tolist()  # row x: entries _indptr[x]:_indptr[x + 1]
        # bincount adds a row's entries in order from +0.0: math.fsum's bits for two or fewer
        wsum = np.bincount(rows, w, minlength=n)
        for x in (counts > 2).nonzero()[0].tolist():
            wsum[x] = math.fsum(w[self._indptr[x]:self._indptr[x + 1]].tolist())
        self.n, self.rows, self.cols, self.w, self.m, self.c, self.wsum = n, rows, cols, w, m, c, wsum
        self.diag = wsum + c
        for array in (rows, cols, w, m, c, wsum, self.diag):
            array.flags.writeable = False
        self._dict_rows: dict[int, dict[int, float]] = {}
        self._index = rows[:0]  # rows + n j for the columns j of the widest block so far
        self.labels = None

    def __getstate__(self):  # the stored arrays: no caches, nor heat_element's pair per thread
        return self.n, self.rows, self.cols, self.w, self.m, self.c, self.labels

    def __setstate__(self, state) -> None:  # read-only arrays again, as _store makes them
        self._store(*state[:-1])
        self.labels = state[-1]

    @classmethod
    def from_adjacency(cls, rows, measure=None, killing=None):
        """Build from raw adjacency rows without mirroring or validity checks.

        This bypasses the constructor's symmetry-by-construction guarantee so
        that :func:`validate` can inspect arbitrary, possibly inconsistent
        data.  ``rows`` is a sequence of ``{neighbor: weight}`` dicts, stored
        as the constructor's arrays are, each row sorted by neighbor.
        """
        g, n = object.__new__(cls), len(rows)
        entries = sorted((x, int(y), float(w)) for x, row in enumerate(rows) for y, w in row.items())
        x, y, w = (np.array(column) for column in (tuple(zip(*entries)) or ((), (), ())))
        g._store(n, x.astype(np.intp), y.astype(np.intp), w.astype(float),
                 _per_vertex(measure, n, 1.0), _per_vertex(killing, n, 0.0))
        return g

    # -- queries ---------------------------------------------------------

    @property
    def vertices(self) -> range:
        return range(self.n)

    def has_vertex(self, x) -> bool:
        return isinstance(x, int) and 0 <= x < self.n

    def _new_row(self, x) -> dict[int, float]:
        start, end = self._indptr[x], self._indptr[x + 1]
        # threads that race here make equal rows; setdefault keeps one
        return self._dict_rows.setdefault(x, dict(zip(self.cols[start:end].tolist(),
                                                      self.w[start:end].tolist())))

    def measure(self, x) -> float:
        self._check(x)
        return float(self.m[int(x)])  # int: a bool would index as a mask

    def killing(self, x) -> float:
        self._check(x)
        return float(self.c[int(x)])

    def weight_sum(self, x) -> float:
        """Total edge weight at x (the row sum of b)."""
        self._check(x)
        return float(self.wsum[int(x)])

    def edges(self):
        """Undirected edges as (u, v, weight) with u < v, sorted."""
        upper = self.rows < self.cols
        return zip(self.rows[upper].tolist(), self.cols[upper].tolist(), self.w[upper].tolist())

    @property
    def edge_count(self) -> int:
        return len(self.w) // 2

    # -- the Laplacian kernel ---------------------------------------------

    degree = functools.cached_property(lambda self: int(np.bincount(self.rows).max(initial=0)))

    @functools.cached_property
    def bound(self) -> float:
        m, rows, cols = self.m, self.rows, self.cols
        radius = np.bincount(rows, self.w / np.sqrt(m[rows] * m[cols]), minlength=len(m))
        return float((self.diag / m + radius).max()) if len(m) else 0.0

    def apply(self, f: np.ndarray) -> np.ndarray:
        """L f for each column of an (n, k) block, or for an (n,) array taken as a
        one-column block, so every column is bitwise L applied to it alone."""
        if np.iscomplexobj(f):
            return self.apply(f.real) + 1j * self.apply(f.imag)
        block = np.asarray(f[:, None] if f.ndim == 1 else f, dtype=float)
        (n, k), edges, index = block.shape, len(self.w), self._index
        width = max(1, CHUNK // max(edges, 1))  # the columns of one bincount
        if k > width:  # chunks of columns, applied into one output
            out = np.empty((n, k), order="F")
            for j in range(0, k, width):
                out[:, j:j + width] = self.apply(block[:, j:j + width])
            return out
        if len(index) < k * edges:
            index = self._index = (self.rows + n * np.arange(k)[:, None]).ravel()
        terms = block.T.take(self.cols, axis=1)
        terms *= self.w
        offdiag = np.bincount(index[:terms.size], terms.ravel(), minlength=n * k).reshape(k, n)
        return ((self.diag[:, None] * block - offdiag.T) / self.m[:, None]).reshape(f.shape)

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, edges={self.edge_count})"


class ProceduralGraph(_DictRows):
    """Locally finite graph defined lazily by oracles over integer vertex ids.

    ``neighbor_fn(x)`` returns the finite list of (neighbor, weight) pairs of
    x; ``measure_fn`` and ``killing_fn`` default to the constant 1 and 0.
    Oracle answers are cached, so the functions must be deterministic.
    Symmetry is checked edge by edge on the second of its two rows to be fetched,
    whichever of them lists it: the edges a row reports toward rows not fetched yet
    are kept until those come in, and an edge that one row lists and the other does
    not (or lists with another weight) raises, in either fetch order.

    ``max_degree``, when given, declares a uniform bound on the number of
    neighbors; rows exceeding it are rejected.

    The region explored for hop balls is kept as the arrays ``rows``, ``cols`` (neighbor
    ids), ``w``, ``m`` and ``c`` of a :class:`WeightedGraph`, grown by :meth:`positions`.
    Rows are fetched and the arrays grown under one lock.
    """

    is_finite = False

    def __init__(self, neighbor_fn: Callable, measure_fn: Callable | None = None,
                 killing_fn: Callable | None = None, max_degree: int | None = None):
        self._neighbor_fn = neighbor_fn
        self._measure, self._killing = (measure_fn, 1.0, {}), (killing_fn, 0.0, {})  # see _oracle
        self.max_degree = max_degree
        self._dict_rows: dict[int, dict[int, float]] = {}
        self._pending: dict[int, dict[int, float]] = {}  # y: {x: b(x, y)} while row y is unfetched
        self._position, self._lock = {}, threading.RLock()
        self.rows, self.cols = np.zeros((2, 0), dtype=np.intp)
        self.m = self.c = self.w = np.zeros(0)

    def has_vertex(self, x) -> bool:
        return isinstance(x, int)

    def _new_row(self, x) -> dict[int, float]:
        with self._lock:  # the rows fetched and the edges pending change together
            row = self._dict_rows.get(x)
            return self._fetch(x) if row is None else row

    def _fetch(self, x) -> dict[int, float]:
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
        reported = self._pending.get(x, {})  # by the fetched rows that list x
        for y in sorted(reported.keys() | row.keys() & self._dict_rows.keys()):
            if row.get(y) != reported.get(y):
                raise ValueError(f"oracle is asymmetric between {x} and {y}: "
                                 f"{row.get(y)} vs {reported.get(y)}")
        self._pending.pop(x, None)
        for y in [y for y in row if y not in self._dict_rows]:  # a fetch costs its degree alone
            self._pending.setdefault(y, {})[x] = row[y]
        self._dict_rows[x] = row = {k: row[k] for k in sorted(row)}
        return row

    def _oracle(self, x, oracle, valid, rule) -> float:
        """x's answer from ``oracle``, a (function or None, default, answers) triple, asked
        once: a finite value that ``valid`` accepts, else ValueError."""
        self._check(x)
        fn, default, answers = oracle
        if x not in answers:
            value = default if fn is None else float(fn(x))
            if not (math.isfinite(value) and valid(value)):
                raise ValueError(f"{rule} and finite at vertex {x}, got {value}")
            answers.setdefault(x, value)
        return answers[x]

    def measure(self, x) -> float:
        return self._oracle(x, self._measure, (0.0).__lt__, "measure must be positive")

    def killing(self, x) -> float:
        return self._oracle(x, self._killing, (0.0).__le__, "killing term must be non-negative")

    def weight_sum(self, x) -> float:
        return math.fsum(self._row(x).values())

    def positions(self, ids) -> np.ndarray:
        """The rows of ``ids`` in the explored arrays; a vertex enters once, its row,
        then its measure and killing term, through the oracles' own checks."""
        with self._lock:  # the arrays only grow, so positions taken here stay valid
            new = [v for v in ids if v not in self._position]
            if new:
                rows = [self._row(v) for v in new]
                m = [self.measure(v) for v in new]
                c = [self.killing(v) for v in new]
                at = range(len(self.m), len(self.m) + len(new))
                self._position.update(zip(new, at))
                self.m, self.c = np.append(self.m, m), np.append(self.c, c)
                self.rows = np.append(self.rows, np.repeat(at, [len(row) for row in rows]))
                chain = itertools.chain.from_iterable
                self.cols = np.append(self.cols, np.fromiter(chain(rows), np.intp))
                self.w = np.append(self.w, np.fromiter(chain(map(dict.values, rows)), float))
            return np.fromiter(map(self._position.__getitem__, ids), np.intp, len(ids))

    def __repr__(self) -> str:
        return f"ProceduralGraph(explored={len(self._dict_rows)})"


def validate(g: WeightedGraph) -> list[str]:
    """Check the graph axioms and return one description per violation.

    Violations are data, not exceptions: graphs built through
    :meth:`WeightedGraph.from_adjacency` may carry arbitrary defects and this
    reports all of them.  Graphs built through the regular constructor always
    validate clean.
    """
    problems = []
    for x, (m, c) in enumerate(zip(g.m.tolist(), g.c.tolist())):
        if not math.isfinite(m) or m <= 0:
            problems.append(f"nonpositive measure at {x}: {m}")
        if not math.isfinite(c) or c < 0:
            problems.append(f"negative killing term at {x}: {c}")
    entries = list(zip(g.rows.tolist(), g.cols.tolist(), g.w.tolist()))
    weights = {(x, y): w for x, y, w in entries}
    for x, y, w in entries:
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
        back = weights.get((y, x))
        if back != w and (x < y or back is None):
            problems.append(f"asymmetric weight at ({x}, {y}): {w} vs {back}")
    return problems


def _layers(source, starts, cutoff):
    """Yield the vertices at hop distance 0, 1, ... from the nearest of
    ``starts``, one list per distance, up to ``cutoff`` or the last nonempty
    layer: one breadth-first search over the edge set {b > 0} that never
    expands the last layer."""
    starts = list(starts)
    source._check(*starts)
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
    source._check(x, y)
    return distances_from(source, x, cutoff, targets=[y]).get(y, INFINITE)


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


def pair_distances(graph: WeightedGraph, xs, ys, cutoff: int | None = None) -> np.ndarray:
    """Hop distances of the pairs (xs[i], ys[i]) of a finite graph within ``cutoff``, else -1, from
    one frontier with a bit per (vertex, x), advanced by ``np.bitwise_or.reduceat`` over each row's
    edges (an (edges, x) gather of bits, which callers bound) to the layer of the last y."""
    xs, ys = _integers(xs, "vertex id"), _integers(ys, "vertex id")
    if (cutoff or 0) < 0 or not all(0 <= v.min() and v.max() < graph.n for v in (xs, ys) if len(v)):
        raise ValueError("pair_distances takes a non-negative cutoff and vertex ids of the graph")
    sources, column = np.unique(xs, return_inverse=True)
    starts = np.flatnonzero(np.diff(graph.rows, prepend=-1))  # of the rows that have edges
    dist = np.full((graph.n, len(sources)), -1, np.min_scalar_type(-graph.n - 1))  # small ints
    dist[sources, np.arange(len(sources))] = 0
    front = seen = np.packbits(dist == 0, axis=1)  # a bit per (vertex, x)
    for d in range(1, (graph.n if cutoff is None else cutoff) + 1):
        if not (front.any() and (dist[ys, column] < 0).any()):
            break
        reach = np.zeros_like(seen)
        reach[graph.rows[starts]] = np.bitwise_or.reduceat(front[graph.cols], starts, axis=0)
        front, seen = reach & ~seen, seen | reach
        dist[np.unpackbits(front, axis=1, count=dist.shape[1]).view(bool)] = d
    return dist[ys, column]


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


class BallSearch:
    """The hop balls around fixed centers at growing radii, from one layered search:
    each ball takes only the layers past the last one's, so no vertex is expanded twice."""

    def __init__(self, source, centers):
        self.source, self.layers = source, []
        self._search = _layers(source, centers, sys.maxsize)

    def ball(self, radius: int):
        """(labels, graph): the ids within ``radius`` hops of the centers, ascending, and the
        :class:`WeightedGraph` they induce, label i being its vertex i, at a radius at or above
        the last ball's.  The graph slices the rows of a finite source's arrays at the labels,
        or of a procedural source's explored arrays at their positions, and sums its rows as
        the constructor does: a row the ball cuts keeps the edges inside and their sum."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        self.layers += itertools.islice(self._search, radius + 1 - len(self.layers))
        source, ids = self.source, sorted(itertools.chain.from_iterable(self.layers))
        labels = np.array(ids, dtype=np.intp)
        at = labels if source.is_finite else source.positions(ids)
        # numpy's methods cost less per call than its functions
        start, counts = source.rows.searchsorted(at), source.rows.searchsorted(at + 1)
        counts -= start
        flat = (start + counts - counts.cumsum()).repeat(counts)
        flat += np.arange(len(flat))  # the entries of the ball's rows in the source
        nbrs = source.cols[flat]
        cols = labels.searchsorted(nbrs)
        inside = labels.take(cols, mode="clip") == nbrs
        graph = object.__new__(WeightedGraph)
        graph._store(len(ids), np.arange(len(ids)).repeat(counts)[inside], cols[inside],
                     source.w[flat[inside]], source.m[at], source.c[at])
        graph.labels = tuple(labels.tolist())
        return labels, graph


def ball(source, x, radius: int) -> WeightedGraph:
    """Induced subgraph on all vertices within the given hop radius of x.

    Materializes a procedural source into a finite :class:`WeightedGraph`
    whose ``labels`` record the original vertex ids (sorted ascending).
    Includes every edge with both endpoints inside the ball.
    """
    return neighborhood(source, [x], radius)


def neighborhood(source, centers, radius: int) -> WeightedGraph:
    """The :func:`ball` around several centers: the union of their balls, induced,
    as :meth:`BallSearch.ball` makes it."""
    return BallSearch(source, centers).ball(radius)[1]

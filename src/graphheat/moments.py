"""Moment matrix elements <1_x, L^n 1_y> and their first nonzero order.

Every moment is read from :func:`stream`, which advances a block of vectors
v, one column each, to (L/s)^n v with one :meth:`LaplacianOperator.apply` per
step, and yields per order one array, the moments at the (vertex, column)
targets its caller names, so no reader knows the block's layout or the
neighborhood a procedural stream runs on.  Each column is bitwise the stream
of its vector alone on a finite graph, so one stream serves many pairs:
:meth:`PairMoments.shared` reads any number of pairs from one stream over
their distinct vertices, and :func:`first_nonzero_orders` the first nonzero
orders of many sources.  The array kernel keeps exact zeros (see
:mod:`graphheat.operators`), so a moment is the float 0.0 precisely when no
walk of length n joins x and y, and the first nonzero order is found by exact
comparison.  On connected graphs it is the hop distance, and the moment there
has sign (-1)^distance: every shortest-walk product has that sign, so no
cancellation can occur at the critical order.

The moment readers stream with s = 1, since their values are the moments
themselves.  :class:`PairMoments`, which feeds the series route, divides by
the Gershgorin bound rounded up to a power of two: its vectors stay bounded
and the division is exact, so s^n (L/s)^n v has the digits of L^n v.

``path_sum_moment`` recomputes a moment by brute-force enumeration of the
contributing vertex sequences; it is an independent cross-check for the
streams, intended for small n on small graphs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graphs import distances_from, neighborhood
from .operators import LaplacianOperator, _exact_sum, compiled

INITIAL_RADIUS = 16  # of the first neighborhood a procedural stream runs on


@dataclass(frozen=True)
class UnknownAbove:
    """Order search exhausted: every moment up to and including n_max is exactly zero."""

    n_max: int


@dataclass(frozen=True)
class MomentTable:
    """Moments of one vertex pair for n = 0..N, plus the first nonzero order."""

    x: int
    y: int
    values: tuple[float, ...]
    order: "int | UnknownAbove"


class EnumerationBudgetError(RuntimeError):
    """path_sum_moment visited more sequences than its budget allows."""


def stream(source, vectors, scale: float, targets):
    """Yield, for n = 0, 1, ..., the array of moments <1_v, (L/scale)^n vectors[j]>
    at the (v, j) pairs of ``targets``, a sequence of pairs or an array of them.

    ``vectors`` are {vertex: value} mappings, advanced as the columns of one
    block by one :meth:`LaplacianOperator.apply` per step.  On a procedural
    source the block covers the :func:`neighborhood` of radius r around the
    vectors' supports, where the streams equal the source's up to order r; at
    order r the radius doubles and they go on from their current values.  No
    entry outside the neighborhood is nonzero before that, so a target there
    reads an exact 0.0 and the boundary rows, which miss the edges leaving
    the neighborhood, never act.
    """
    centers = sorted(set().union(*vectors))
    complex_values = any(isinstance(a, complex) for vec in vectors for a in vec.values())
    targets = np.asarray(targets, dtype=np.intp).reshape(-1, 2)
    measures = compiled(source).m[targets[:, 0]] if source.is_finite else np.array(
        [source.measure(v) for v in targets[:, 0].tolist()])
    order, radius = 0, None if source.is_finite else INITIAL_RADIUS
    while True:
        graph = source if radius is None else neighborhood(source, centers, radius)
        labels = range(graph.n) if radius is None else graph.labels
        positions = {v: i for i, v in enumerate(labels)}
        block = np.zeros((graph.n, len(vectors)), dtype=complex if complex_values else float,
                         order="F")
        for j, vec in enumerate(vectors):
            block[[positions[v] for v in vec], j] = list(vec.values())
        # a finite graph's vertex v is row v; a target outside a neighborhood (row -1) reads 0.0
        rows = targets[:, 0] if radius is None else np.array(
            [positions.get(v, -1) for v in targets[:, 0].tolist()], dtype=np.intp)
        flat = rows + graph.n * targets[:, 1]
        op = LaplacianOperator(graph)
        for _ in itertools.count() if radius is None else range(radius - order):
            values = measures * block.ravel(order="F").take(flat)
            values[rows < 0] = 0.0
            yield values
            block = op.apply(block) / scale
        vectors = [dict(zip(labels, u.tolist())) for u in block.T]
        order, radius = radius, 2 * radius


class _SharedRows:
    """Per order, the scaled moments of many pairs, read from one block stream
    with a column for each distinct vertex: m(x) u_y[x] for the i-th pair (x, y)
    at index i, then m(v) u_v[v] for the j-th vertex v at index P + j, where u_v
    is the column of 1_v and P the number of pairs."""

    def __init__(self, source, pairs):
        for x, y in pairs:
            source._check(x)
            source._check(y)
        vertices = sorted({v for pair in pairs for v in pair})
        self.diagonal_at = {v: len(pairs) + j for j, v in enumerate(vertices)}
        # the compiled scale of the graph, or of the vertices' 1-neighborhood
        self.scale = compiled(source if source.is_finite
                              else neighborhood(source, vertices, 1)).scale
        column = {v: j for j, v in enumerate(vertices)}
        targets = [(x, column[y]) for x, y in pairs] + [(v, column[v]) for v in vertices]
        self.steps = stream(source, [{v: 1.0} for v in vertices], self.scale, targets)
        self.orders = []


class PairMoments:
    """Moments of one vertex pair, read lazily from a stream of basis vectors.

    ``self[n]`` is (<1_x, L^n 1_y>, <1_x, L^n 1_x>, <1_y, L^n 1_y>) / s^n with
    s = ``self.scale``.  The stream runs only as far as the highest order
    asked for, so every time and both propagators of a pair read the same
    one; :meth:`shared` reads many pairs from one stream.
    """

    def __init__(self, source, x, y):
        self._bind(source, x, y, _SharedRows(source, [(x, y)]), 0)

    def _bind(self, source, x, y, shared: _SharedRows, index: int):
        self.source, self.x, self.y = source, x, y
        self.scale = shared.scale
        self._exp = round(math.log2(self.scale))
        self._shared = shared
        self._at = (index, shared.diagonal_at[x], shared.diagonal_at[y])
        self._rows = []

    @classmethod
    def shared(cls, source, pairs):
        """Yield one :class:`PairMoments` per pair, in order, all read from
        one block stream over the pairs' distinct vertices.  Each order keeps
        one number per pair and one per vertex; a pair's own rows live only
        as long as its object."""
        pairs = list(pairs)
        if not pairs:
            return
        shared = _SharedRows(source, pairs)
        for i, (x, y) in enumerate(pairs):
            pm = cls.__new__(cls)
            pm._bind(source, x, y, shared, i)
            yield pm

    def __getitem__(self, n: int):
        rows = self._rows
        if len(rows) <= n:
            shared, (i, jx, jy) = self._shared, self._at
            while len(shared.orders) <= n:
                shared.orders.append(next(shared.steps))
            for row in shared.orders[len(rows):n + 1]:
                rows.append((float(row[i]), float(row[jx]), float(row[jy])))
        return rows[n]

    def moments(self, n: int):
        """(<1_x, L^n 1_y>, <1_x, L^n 1_x>, <1_y, L^n 1_y>), unscaled."""
        if n < 0:
            raise ValueError("moment order must be non-negative")
        return tuple(math.ldexp(v, self._exp * n) for v in self[n])


def _moments_at(op: LaplacianOperator, x, y, n_max: int):
    """<1_x, L^n 1_y> for n = 0..n_max, from the unscaled stream of 1_y."""
    g = op.graph
    g._check(x)
    g._check(y)
    for _, values in zip(range(n_max + 1), stream(g, [{y: 1.0}], 1.0, [(x, 0)])):
        yield float(values[0])


def moment(op: LaplacianOperator, x, y, n: int) -> float:
    """<1_x, L^n 1_y> by n applications; exactly 0.0 below the hop distance."""
    return moment_table(op, x, y, n).values[n]


def moment_table(op: LaplacianOperator, x, y, n_max: int) -> MomentTable:
    """Moments for n = 0..n_max in one pass over the vector stream."""
    if n_max < 0:
        raise ValueError("moment order must be non-negative")
    values = tuple(_moments_at(op, x, y, n_max))
    order = next((n for n, v in enumerate(values) if v != 0.0), UnknownAbove(n_max))
    return MomentTable(x, y, values, order)


def leading_moment_order(op: LaplacianOperator, x, y, n_max: int):
    """Smallest n <= n_max with a nonzero moment, else ``UnknownAbove(n_max)``."""
    if n_max < 0:
        raise ValueError("search bound must be non-negative")
    return next((n for n, v in enumerate(_moments_at(op, x, y, n_max)) if v != 0.0),
                UnknownAbove(n_max))


def first_nonzero_moments(op: LaplacianOperator, y, n_max: int) -> dict:
    """For every vertex reached from y within n_max applications, the first
    order n with <1_v, L^n 1_y> nonzero together with that moment's value.

    One vector stream serves all target vertices at once, which is the cheap
    way to compare moment orders against BFS distances over whole graphs.
    """
    positions, orders, moments = first_nonzero_orders(op, [y], n_max)
    return {v: (int(orders[k, 0]), float(moments[k, 0]))
            for v, k in positions.items() if orders[k, 0] >= 0}


def first_nonzero_orders(op: LaplacianOperator, sources, n_max: int):
    """:func:`first_nonzero_moments` of many sources from one unscaled block
    stream with a column per source, as arrays.

    Returns (positions, orders, moments): orders[positions[v], j] is the first
    n <= n_max with <1_v, L^n 1_{sources[j]}> nonzero, or -1 if none is, and
    moments[positions[v], j] that moment.  The vertices are the graph's, or on
    a procedural source those within n_max hops of a source.  The stream stops
    at n_max, or once every vertex has been reached from every source.
    """
    g = op.graph
    for y in sources:
        g._check(y)
    labels = g.vertices if g.is_finite else sorted(
        set().union(*(distances_from(g, y, cutoff=max(n_max, 0)) for y in sources)))
    shape = (len(labels), len(sources))
    orders, moments = np.full(shape, -1), np.zeros(shape)
    # every (vertex, column), in the row-major order of ``shape``
    targets = np.stack(np.meshgrid(labels, range(len(sources)), indexing="ij"), axis=-1)
    # far behind the front the unscaled entries may overflow; the front stays exact
    with np.errstate(over="ignore", invalid="ignore"):
        for n, values in zip(range(n_max + 1),
                             stream(g, [{y: 1.0} for y in sources], 1.0, targets)):
            values = values.reshape(shape)
            fresh = (values != 0) & (orders < 0)
            orders[fresh] = n
            moments[fresh] = values[fresh]
            if (orders >= 0).all():
                break
    return {v: i for i, v in enumerate(labels)}, orders, moments


def path_sum_moment(op: LaplacianOperator, x, y, n: int, budget: int = 10_000_000) -> float:
    """Moment by explicit enumeration over contributing vertex sequences.

    Sums e(x, x1) e(x1, x2) ... e(x_{n-1}, y) / (m(x1) ... m(x_{n-1})) over
    all sequences whose consecutive vertices are equal or adjacent, where
    e(u, v) = <1_u, L 1_v>; all other sequences contribute zero.  Exponential
    in n: each examined partial sequence counts against ``budget``.
    """
    if n < 1:
        raise ValueError("path sums are defined for order >= 1")
    g = op.graph
    g._check(x)
    g._check(y)
    terms: list[float] = []
    visited = 0

    def candidates(v):
        ev = op.matrix_element(v, v)
        if ev != 0.0:
            yield v, ev
        for nbr, w in g.neighbors(v):
            yield nbr, -w

    def extend(v, prod, slots):
        nonlocal visited
        if slots == 0:
            e_last = op.matrix_element(v, y)
            if e_last != 0.0:
                terms.append(prod * e_last)
            return
        for nxt, e in candidates(v):
            visited += 1
            if visited > budget:
                raise EnumerationBudgetError(
                    f"path enumeration exceeded the budget of {budget} sequences")
            extend(nxt, prod * e / g.measure(nxt), slots - 1)

    extend(x, 1.0, n - 1)
    return _exact_sum(terms)

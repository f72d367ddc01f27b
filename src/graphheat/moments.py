"""Moment matrix elements <1_x, L^n 1_y> and their first nonzero order.

Every moment is read from :func:`stream`, which advances a block of vectors v, one column each, to
(L/s)^n v with one :meth:`LaplacianOperator.apply` per step, and yields per order one array, the
moments at the (vertex, column) targets its caller names, so no reader knows the block's layout or
the hop ball it runs on; that ball grows with the orders, so a stream costs what its support
costs.  Each column is bitwise the stream of its vector alone on the whole graph, so one stream
serves many pairs: :class:`PairRows` reads the pairs of a report or fit run, or of a sweep's block,
from one stream over their distinct vertices, :func:`pair_moments` the moments of many pairs from
one over their distinct y, and :func:`first_nonzero_orders` the first nonzero orders of many
sources, up to the last entry its caller reads.  Each reader checks all its ids with one ``_check``
call (see :mod:`graphheat.graphs`), which raises at the first that is not a vertex.  The array
kernel keeps exact zeros (see :mod:`graphheat.graphs`), so a moment is the float 0.0 precisely when
no walk of length n joins x and y, and the first nonzero order is found by exact comparison.  On
connected graphs it is the hop distance, and the moment there has sign (-1)^distance: every
shortest-walk product has that sign, so no cancellation can occur at the critical order.

The moment readers stream with s = 1, since their values are the moments themselves; far behind the
front such a stream may overflow, and the library readers return the IEEE values.
:class:`PairRows`, which feeds the series route, divides by the Gershgorin bound (on a procedural
source, that of the pairs' 1-ball as :class:`BallSearch` slices it) rounded up to a power of two:
its vectors stay bounded, and the exact division keeps L^n v's digits.

``path_sum_moment`` recomputes a moment by brute-force enumeration of the contributing vertex
sequences; it is an independent cross-check for the streams, intended for small n on small graphs.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .graphs import BallSearch, _layers
from .operators import LaplacianOperator, _exact_sum

INITIAL_RADIUS = 16  # of the first neighborhood a stream runs on


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

    ``vectors`` are {vertex: value} mappings, advanced as the columns of one block
    by one :meth:`LaplacianOperator.apply` per step on the hop ball of radius r
    around their supports, sliced from arrays that already exist; at order r the
    radius doubles, and the :class:`BallSearch` that found the r-ball walks only the
    layers past it.  A finite source moves to the whole graph once c (1 + D + D(D-1)
    + ... + D(D-1)^(r-1)), c being the number of centers and D the largest degree,
    reaches its vertex count: the ball could then cover it.  No entry outside the
    k-ball is nonzero at order k, so a target outside the ball reads an exact 0.0, a
    row inside sums what the whole graph's does (see :mod:`graphheat.graphs`),
    and the boundary rows, which miss the edges leaving the ball, never act before
    the radius doubles.
    """
    centers = sorted(set().union(*vectors))
    complex_values = any(isinstance(a, complex) for vec in vectors for a in vec.values())
    targets = np.asarray(targets, dtype=np.intp).reshape(-1, 2)
    degree = source.degree if source.is_finite else 0
    labels = np.array(centers, dtype=np.intp)  # the vertex of each row of the block
    block = np.zeros((len(labels), len(vectors)), dtype=complex if complex_values else float)
    for j, vec in enumerate(vectors):
        block[np.searchsorted(labels, list(vec)), j] = list(vec.values())
    order, radius, balls = 0, INITIAL_RADIUS, BallSearch(source, centers)
    while True:
        if source.is_finite and len(centers) * (1 + sum(
                degree * (degree - 1) ** k for k in range(radius))) >= source.n:
            kernel, radius, rows = source, None, np.arange(source.n)
        else:
            rows, kernel = balls.ball(radius)
        # the block grows onto the new rows; every row it leaves out holds 0.0
        grown = np.zeros((len(rows), len(vectors)), dtype=block.dtype, order="F")
        grown[np.searchsorted(rows, labels)] = block
        block, labels = grown, rows
        at = labels.searchsorted(targets[:, 0]).clip(max=len(labels) - 1)
        inside, measures = labels[at] == targets[:, 0], kernel.m[at]
        outside = None if inside.all() else ~inside
        at += len(labels) * targets[:, 1]  # into the block's columns laid end to end
        op = LaplacianOperator(kernel)
        for _ in itertools.count() if radius is None else range(radius - order):
            values = measures * block.T.take(at)
            if outside is not None:
                values[outside] = 0.0
            yield values
            block = op.apply(block)
            block /= scale
        order, radius = radius, 2 * radius


class PairRows:
    """Per order, the scaled moments of many pairs, read from one block stream
    with a column for each distinct vertex.

    ``self[n]`` holds m(x) u_y[x] for the i-th pair (x, y) at index i, then
    m(v) u_v[v] for the j-th vertex v at index P + j, where u_v is the column of
    1_v, P the number of pairs and s = ``self.scale``; ``at[i]`` holds the indices
    of the i-th pair's (xy, xx, yy), ``pairs[i]`` the pair and ``index[pair]`` i.  The
    stream runs only as far as the highest order asked for, and every order read is kept, so
    all pairs, times, propagators and threads share one stream, locked to advance or convert.
    ``phases`` is one slot for the eigen route's last (t, unitary) and its e^{-t lambda} vector.
    """

    def __init__(self, source, pairs):
        self.source, self.pairs = source, list(pairs)
        ids = list(itertools.chain.from_iterable(self.pairs))
        source._check(*ids)
        xy, count = np.array(ids, dtype=np.intp).reshape(-1, 2), len(self.pairs)
        self.vertices = np.array(sorted(set(ids)), dtype=np.intp)  # vertex j has column j
        self.at = np.column_stack((np.arange(count), count + self.vertices.searchsorted(xy)))
        self.index = dict(zip(map(tuple, self.pairs), range(count)))
        # the bound of the graph, or of the pairs' 1-ball, and the power of two at or above it
        self.bound = (source if source.is_finite else BallSearch(source, ids).ball(1)[1]).bound
        self.exp = math.ceil(math.log2(self.bound)) if self.bound > 0 else 0
        self.scale = 2.0 ** self.exp
        targets = np.column_stack((np.append(xy[:, 0], self.vertices),
                                   np.append(self.at[:, 2] - count, np.arange(len(self.vertices)))))
        self._steps = stream(source, [{v: 1.0} for v in self.vertices.tolist()], self.scale, targets)
        self._orders, self.converted, self._lock = [], defaultdict(list), threading.RLock()
        self.phases = None, None

    def __getitem__(self, n: int) -> np.ndarray:
        if n >= len(self._orders):  # the list only grows, so an order held is read without the lock
            with self._lock:  # threads may share the rows: one advances the stream at a time
                while len(self._orders) <= n:
                    self._orders.append(next(self._steps))
        return self._orders[n]

    def floats(self, i: int, n: int) -> tuple:
        """The i-th pair's (xy, xx, yy) of ``self[n]`` as floats, kept in ``converted[i]``."""
        values = self.converted.get(i, ())
        if n >= len(values):  # converted floats only grow, as the orders do
            with self._lock:
                values = self.converted[i]
                while len(values) <= n:
                    values.append(tuple(self[len(values)][self.at[i]].tolist()))
        return values[n]


def pair_moments(source, pairs, n_max: int):
    """Per order n = 0..n_max, the array of moments <1_x, L^n 1_y> of the pairs (x, y), read from
    one unscaled stream with a column per distinct y, ids checked in pair order.  Its readers drain
    it under np.errstate, which a yield here would leak: it may overflow far behind the front."""
    source._check(*itertools.chain.from_iterable(pairs))
    column = {}
    for _, y in pairs:
        column.setdefault(y, len(column))
    targets = [(x, column[y]) for x, y in pairs]
    return itertools.islice(stream(source, [{y: 1.0} for y in column], 1.0, targets), n_max + 1)


def moment(op: LaplacianOperator, x, y, n: int) -> float:
    """<1_x, L^n 1_y> by n applications; exactly 0.0 below the hop distance."""
    return moment_table(op, x, y, n).values[n]


def moment_table(op: LaplacianOperator, x, y, n_max: int) -> MomentTable:
    """Moments for n = 0..n_max in one pass over the vector stream."""
    if n_max < 0:
        raise ValueError("moment order must be non-negative")
    with np.errstate(over="ignore", invalid="ignore"):  # as in first_nonzero_orders
        values = tuple(float(v[0]) for v in pair_moments(op.graph, [(x, y)], n_max))
    order = next((n for n, v in enumerate(values) if v != 0.0), UnknownAbove(n_max))
    return MomentTable(x, y, values, order)


def leading_moment_order(op: LaplacianOperator, x, y, n_max: int):
    """Smallest n <= n_max with a nonzero moment, else ``UnknownAbove(n_max)``."""
    if n_max < 0:
        raise ValueError("search bound must be non-negative")
    with np.errstate(over="ignore", invalid="ignore"):  # as in first_nonzero_orders
        return next((n for n, v in enumerate(pair_moments(op.graph, [(x, y)], n_max))
                     if v[0] != 0.0), UnknownAbove(n_max))


def first_nonzero_moments(op: LaplacianOperator, y, n_max: int) -> dict:
    """For every vertex reached from y within n_max applications, the first
    order n with <1_v, L^n 1_y> nonzero together with that moment's value.

    One vector stream serves all target vertices at once, which is the cheap
    way to compare moment orders against BFS distances over whole graphs.
    """
    positions, orders, moments = first_nonzero_orders(op, [y], n_max)
    return {v: (int(orders[k, 0]), float(moments[k, 0]))
            for v, k in positions.items() if orders[k, 0] >= 0}


def first_nonzero_orders(op: LaplacianOperator, sources, n_max: int, reads=...):
    """:func:`first_nonzero_moments` of many sources from one unscaled block
    stream with a column per source, as arrays.

    Returns (positions, orders, moments): orders[positions[v], j] is the first
    n <= n_max with <1_v, L^n 1_{sources[j]}> nonzero, or -1 if none is, and
    moments[positions[v], j] that moment.  The vertices are the graph's, or on
    a procedural source those within n_max hops of a source.  The stream stops at
    n_max, once each entry of ``orders[reads]`` (those its caller reads; all by default)
    has an order, or at the first order that reaches no new (vertex, source) entry: the
    first nonzero order is the hop distance, and an empty hop layer stays empty.
    """
    g = op.graph
    g._check(*sources)
    labels = g.vertices if g.is_finite else sorted(
        v for layer in _layers(g, sources, max(n_max, 0)) for v in layer)
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
            if not fresh.any() or (orders[reads] >= 0).all():
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
    g._check(x, y)
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

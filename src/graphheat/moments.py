"""Moment matrix elements <1_x, L^n 1_y> and their first nonzero order.

Every moment is read from :func:`stream`, which yields (L/s)^n v with one
:meth:`LaplacianOperator.apply` per vector and step.  The array kernel keeps
exact zeros (see :mod:`graphheat.operators`), so a moment is the float 0.0
precisely when no walk of length n joins x and y, and the first nonzero order
is found by exact comparison.  On connected graphs it is the hop distance,
and the moment there has sign (-1)^distance: every shortest-walk product has
that sign, so no cancellation can occur at the critical order.

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

from .graphs import neighborhood
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


def stream(source, vectors, scale: float):
    """Yield (positions, [(L/scale)^n v for v in vectors]) for n = 0, 1, ...

    ``vectors`` are {vertex: value} mappings; vertex v sits at index
    positions[v] of the yielded arrays, one apply per vector and step.  On a
    procedural source the arrays cover the :func:`neighborhood` of radius r
    around the vectors' supports, where the streams equal the source's up to
    order r; at order r the radius doubles and they go on from their current
    values.  No boundary entry is nonzero before that, so the boundary rows,
    which miss the edges leaving the neighborhood, never act.
    """
    centers = sorted(set().union(*vectors))
    radius = None if source.is_finite else INITIAL_RADIUS
    while True:
        graph = source if radius is None else neighborhood(source, centers, radius)
        labels = range(graph.n) if radius is None else graph.labels
        positions = {v: i for i, v in enumerate(labels)}
        arrays = []
        for vec in vectors:
            complex_values = any(isinstance(a, complex) for a in vec.values())
            arrays.append(np.zeros(graph.n, dtype=complex if complex_values else float))
            arrays[-1][[positions[v] for v in vec]] = list(vec.values())
        op = LaplacianOperator(graph)
        for _ in itertools.count() if radius is None else range(radius):
            yield positions, arrays
            arrays = [op.apply(u) / scale for u in arrays]
        vectors = [dict(zip(labels, u.tolist())) for u in arrays]
        radius *= 2


def _read(source, positions, u, v) -> float:
    """<1_v, u> for an array u laid out by ``positions``."""
    k = positions.get(v)
    return 0.0 if k is None else source.measure(v) * float(u[k])


class PairMoments:
    """Moments of one vertex pair, read lazily from the streams of 1_y and 1_x.

    ``self[n]`` is (<1_x, L^n 1_y>, <1_x, L^n 1_x>, <1_y, L^n 1_y>) / s^n with
    s = ``self.scale``.  The streams run only as far as the highest order
    asked for, so every time and both propagators of a pair read the same ones.
    """

    def __init__(self, source, x, y):
        source._check(x)
        source._check(y)
        self.source, self.x, self.y = source, x, y
        starts = (y,) if x == y else (y, x)
        # the compiled scale of the graph, or of the pair's 1-neighborhood
        self.scale = compiled(source if source.is_finite else neighborhood(source, starts, 1)).scale
        self._exp = round(math.log2(self.scale))
        self._steps = stream(source, [{v: 1.0} for v in starts], self.scale)
        self._rows = []

    def __getitem__(self, n: int):
        rows, source, x, y = self._rows, self.source, self.x, self.y
        while len(rows) <= n:
            positions, (u_y, *rest) = next(self._steps)
            u_x = rest[0] if rest else u_y
            rows.append((_read(source, positions, u_y, x), _read(source, positions, u_x, x),
                         _read(source, positions, u_y, y)))
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
    for _, (positions, (u,)) in zip(range(n_max + 1), stream(g, [{y: 1.0}], 1.0)):
        yield _read(g, positions, u, x)


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
    g = op.graph
    g._check(y)
    out: dict = {}
    seen = None
    # far behind the front the unscaled entries may overflow; the front stays exact
    with np.errstate(over="ignore", invalid="ignore"):
        for n, (positions, (u,)) in zip(range(n_max + 1), stream(g, [{y: 1.0}], 1.0)):
            if seen is None or len(seen) != len(u):
                labels = list(positions)
                seen = np.array([v in out for v in labels], dtype=bool)
            fresh = np.flatnonzero((u != 0) & ~seen)
            seen[fresh] = True
            for k in fresh.tolist():
                out[labels[k]] = (n, _read(g, positions, u, labels[k]))
            if g.is_finite and len(out) == g.n:
                break
    return out


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

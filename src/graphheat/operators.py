"""The weighted Hilbert space and the graph Laplacian.

Vectors are finitely supported functions on the vertices with the m-weighted
inner product, fixed here as conjugate-linear in the first slot:

    <f, g> = sum_x m(x) * conj(f(x)) * g(x)

The Laplacian acts by

    (L f)(x) = (1/m(x)) * (sum_y b(x,y) (f(x) - f(y)) + c(x) f(x))

through the array kernel of a finite graph, :meth:`graphheat.graphs.WeightedGraph.apply`,
whose exact zeros and per-column bits the module docstring of :mod:`graphheat.graphs`
sets out; a vector is applied on the hop ball around its support, itself a finite graph.
"""

from __future__ import annotations

import math

import numpy as np

from .graphs import BallSearch

DENSE_SIZE_LIMIT = 2000


def _exact_sum(terms):
    """Correctly rounded sum of floats or complex numbers (empty sum is 0.0)."""
    if any(isinstance(v, complex) for v in terms):
        return complex(math.fsum(v.real for v in terms), math.fsum(v.imag for v in terms))
    return math.fsum(terms)


class WeightedVector:
    """Finitely supported function on a graph's vertices.

    Entries with value exactly zero are never stored (canonical sparse form).
    Values may be real or complex; arithmetic keeps whichever arrives.
    """

    __slots__ = ("graph", "_values")

    def __init__(self, graph, values):
        self.graph = graph
        self._values = {v: val for v, val in values.items() if val != 0}

    @classmethod
    def basis(cls, graph, x):
        """The point mass 1_x."""
        graph._check(x)
        return cls(graph, {x: 1.0})

    @classmethod
    def from_array(cls, graph, arr):
        arr = np.asarray(arr)
        if not graph.is_finite:
            raise ValueError("dense form requires a finite graph")
        if arr.shape != (graph.n,):
            raise ValueError(f"expected shape ({graph.n},), got {arr.shape}")
        cast = complex if np.iscomplexobj(arr) else float
        return cls(graph, {v: cast(arr[v]) for v in range(graph.n)})

    def to_array(self):
        if not self.graph.is_finite:
            raise ValueError("dense form requires a finite graph")
        dtype = complex if any(isinstance(v, complex) for v in self._values.values()) else float
        out = np.zeros(self.graph.n, dtype=dtype)
        for v, val in self._values.items():
            out[v] = val
        return out

    @property
    def support(self):
        return self._values.keys()

    def items(self):
        return self._values.items()

    def __getitem__(self, v):
        return self._values.get(v, 0.0)

    def __len__(self):
        return len(self._values)

    def __add__(self, other):
        if not isinstance(other, WeightedVector):
            return NotImplemented
        if self.graph is not other.graph:
            raise ValueError("vectors live on different graphs")
        out = dict(self._values)
        for v, val in other._values.items():
            out[v] = out.get(v, 0.0) + val
        return WeightedVector(self.graph, out)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float, complex)):
            return NotImplemented
        return WeightedVector(self.graph, {v: val * scalar for v, val in self._values.items()})

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def conjugate(self):
        return WeightedVector(self.graph, {v: val.conjugate() for v, val in self._values.items()})

    def norm(self) -> float:
        return math.sqrt(math.fsum(self.graph.measure(v) * abs(val) ** 2
                                   for v, val in self._values.items()))

    def __repr__(self):
        return f"WeightedVector({self._values!r})"


def inner(f: WeightedVector, g: WeightedVector):
    """m-weighted pairing, conjugate-linear in the first argument."""
    if f.graph is not g.graph:
        raise ValueError("vectors live on different graphs")
    terms = []
    for v, a in f._values.items():
        b = g._values.get(v)
        if b is not None:
            terms.append(f.graph.measure(v) * a.conjugate() * b)
    return _exact_sum(terms)


class LaplacianOperator:
    """Laplacian of a weighted graph.

    Pure and immutable; a single instance can serve concurrent callers.
    """

    def __init__(self, graph):
        self.graph = graph

    def apply(self, f):
        """L f for an array on a finite graph's vertices or for a :class:`WeightedVector`,
        returning the same kind; a vector is applied on the 1-ball around its support,
        which holds every entry of L f with the whole graph's bits (see the module
        docstring of :mod:`graphheat.graphs`)."""
        if not isinstance(f, WeightedVector):
            if not self.graph.is_finite:
                raise ValueError("array form requires a finite graph")
            return self.graph.apply(f)
        if f.graph is not self.graph:
            raise ValueError("vector lives on a different graph")
        labels, ball = BallSearch(self.graph, f.support).ball(1)
        values = list(f._values.values())
        arr = np.zeros(len(labels), dtype=complex if any(isinstance(v, complex) for v in values)
                       else float)
        arr[labels.searchsorted(list(f.support))] = values
        return WeightedVector(f.graph, dict(zip(labels.tolist(), ball.apply(arr).tolist())))

    def matrix_element(self, x, y) -> float:
        """<1_x, L 1_y>: minus the edge weight off the diagonal, row sum plus killing on it."""
        g = self.graph
        if x == y:
            return g.weight_sum(x) + g.killing(x)
        w = g.weight(x, y)
        return -w if w != 0.0 else 0.0

    def __repr__(self):
        return f"LaplacianOperator({self.graph!r})"


def quadratic_form(graph, f: WeightedVector, h: WeightedVector):
    """Energy form: half the weighted sum of difference products plus killing terms.

        Q(f, h) = 1/2 * sum_{x,y} b(x,y) (f(x)-f(y)) conj(h(x)-h(y))
                  + sum_x c(x) f(x) conj(h(x))

    Conjugation sits on the second argument, so Q(f, h) == inner(h, L f) for
    complex inputs; over real inputs this coincides with inner(f, L h).
    """
    if f.graph is not graph or h.graph is not graph:
        raise ValueError("vectors live on a different graph")
    touched = set(f._values) | set(h._values)
    pairs = set()
    for v in touched:
        for nbr, w in graph.neighbors(v):
            pairs.add((v, nbr))
            pairs.add((nbr, v))
    terms = []
    for a, b in sorted(pairs):
        df = f[a] - f[b]
        dh = h[a] - h[b]
        if df != 0 and dh != 0:
            terms.append(0.5 * graph.weight(a, b) * df * dh.conjugate())
    for v in sorted(set(f._values) & set(h._values)):
        c = graph.killing(v)
        if c != 0:
            terms.append(c * f[v] * h[v].conjugate())
    return _exact_sum(terms)


def dense_matrices(graph):
    """(A, M) with A[x, y] = <1_x, L 1_y> and M = diag(m), so L = M^-1 A."""
    return _dense_form(graph), np.diag(graph.m)


def _dense_form(graph) -> np.ndarray:
    """The A of :func:`dense_matrices` alone."""
    if not graph.is_finite:
        raise ValueError("dense form requires a finite graph")
    n = graph.n
    if n > DENSE_SIZE_LIMIT:
        raise ValueError(f"graph has {n} vertices, above the dense size limit {DENSE_SIZE_LIMIT}")
    A = np.zeros((n, n))
    A[graph.rows, graph.cols] = -graph.w
    A[np.diag_indices(n)] = graph.diag
    return A

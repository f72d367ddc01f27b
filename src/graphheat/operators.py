"""The weighted Hilbert space and the graph Laplacian.

Vectors are finitely supported functions on the vertices with the m-weighted
inner product, fixed here as conjugate-linear in the first slot:

    <f, g> = sum_x m(x) * conj(f(x)) * g(x)

The Laplacian acts by

    (L f)(x) = (1/m(x)) * (sum_y b(x,y) (f(x) - f(y)) + c(x) f(x))

through the array kernel (diag * f - bincount(rows, w * f[cols])) / m, with
diag = sum_y b(x,y) + c(x).  The columns f_j of a block share one bincount over
the rows offset by n j, a chunk of columns at a time: bin n j + x sums the terms
of column j alone, in edge order from +0.0, as a bincount of that column does,
so every column has the bits of the kernel applied to it alone.  If f vanishes
outside the k-ball around y, every term of (L f)(x) outside the (k+1)-ball is
w * 0.0 or diag * 0.0, so the moment <1_x, L^n 1_y> is exactly 0.0 below the hop
distance and the first nonzero order is read without thresholds.  At the critical
order the entry sums only shortest-path products, all of sign (-1)^d: no
cancellation, so the plain sum is accurate to a few ulps per step.

The same zeros let a stream run on a hop ball with the whole graph's bits: a
row whose neighbors all lie in the ball sums the same terms in the same order
there, and the terms it leaves out are w * +0.0, which leave a bincount sum
(started at +0.0, so never -0.0) as it is; see :func:`graphheat.moments.stream`.
Every such ball comes from :meth:`BallSearch.ball`, its kernel a slice of arrays
that already exist: a finite graph's compiled ones, or those of the region of a
procedural source explored so far, which the source keeps and each vertex enters once.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import weakref

import numpy as np

from .graphs import _layers

DENSE_SIZE_LIMIT = 2000
CHUNK = 1 << 14  # the most terms one bincount of CompiledLaplacian.apply sums


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


class CompiledLaplacian:
    """A finite graph's Laplacian as edge arrays (rows, cols, w) sorted by row and
    column, measures m and diag = sum_y b(x,y) + c(x), built once per graph by :func:`compiled`.

    ``bound`` is the Gershgorin bound of M^-1/2 A M^-1/2, an upper bound for
    lambda_max, ``scale`` the smallest power of two at or above it, and
    ``degree`` the largest number of neighbors of a vertex, each computed on first read.
    """

    def __init__(self, rows, cols, w, m, diag):
        self.rows, self.cols, self.w, self.m, self.diag = rows, cols, w, m, diag
        self._index = rows[:0]  # rows + n j for the columns j of the widest block so far

    degree = functools.cached_property(lambda self: int(np.bincount(self.rows).max(initial=0)))
    scale = functools.cached_property(
        lambda self: 2.0 ** math.ceil(math.log2(self.bound)) if self.bound > 0 else 1.0)

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


_KERNELS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def compiled(graph) -> CompiledLaplacian:
    """A finite graph's kernel, cached while the graph lives; a kernel is its own.  It shares
    the graph's rows, cols, w and m without a copy, and takes diag = wsum + c."""
    if isinstance(graph, CompiledLaplacian):
        return graph
    if not graph.is_finite:
        raise ValueError("array form requires a finite graph")
    kernel = _KERNELS.get(graph)
    if kernel is None:
        kernel = _KERNELS[graph] = CompiledLaplacian(graph.rows, graph.cols, graph.w, graph.m,
                                                     graph.wsum + graph.c)
    return kernel


class BallSearch:
    """The hop balls around fixed centers at growing radii, from one layered search:
    each ball takes only the layers past the last one's, so no vertex is expanded twice."""

    def __init__(self, source, centers):
        self.source, self.layers = source, []
        self._search = _layers(source, centers, sys.maxsize)

    def ball(self, radius: int):
        """(labels, kernel): the ids within ``radius`` hops of the centers, ascending, and the
        compiled graph they induce, label i being its vertex i, at a radius at or above the
        last ball's.  The kernel slices the rows of a finite graph's compiled arrays at the
        labels, or of a procedural source's explored arrays at their positions; a row the ball
        cuts keeps the edges inside and for diag their weights' correctly rounded sum plus c."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        self.layers += itertools.islice(self._search, radius + 1 - len(self.layers))
        source, ids = self.source, sorted(itertools.chain.from_iterable(self.layers))
        labels = np.array(ids, dtype=np.intp)
        store, at = (compiled(source), labels) if source.is_finite else (source, source.positions(ids))
        # numpy's methods cost less per call than its functions
        start, counts = store.rows.searchsorted(at), store.rows.searchsorted(at + 1)
        counts -= start
        flat = (start + counts - counts.cumsum()).repeat(counts)
        flat += np.arange(len(flat))  # the entries of the ball's rows in the store
        nbrs = store.cols[flat]
        cols = labels.searchsorted(nbrs)
        inside = labels.take(cols, mode="clip") == nbrs
        rows = np.arange(len(ids)).repeat(counts)[inside]
        cols, w, diag = cols[inside], store.w[flat[inside]], store.diag[at]
        kept = np.bincount(rows, minlength=len(ids))
        ends = kept.cumsum()
        for i in (kept < counts).nonzero()[0].tolist():
            diag[i] = math.fsum(w[ends[i] - kept[i]:ends[i]].tolist()) + source.killing(ids[i])
        return labels, CompiledLaplacian(rows, cols, w, store.m[at], diag)


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
        docstring).  ``graph`` may also be a :class:`CompiledLaplacian`, for arrays."""
        if not isinstance(f, WeightedVector):
            return compiled(self.graph).apply(f)
        if f.graph is not self.graph:
            raise ValueError("vector lives on a different graph")
        labels, kernel = BallSearch(self.graph, f.support).ball(1)
        values = list(f._values.values())
        arr = np.zeros(len(labels), dtype=complex if any(isinstance(v, complex) for v in values)
                       else float)
        arr[labels.searchsorted(list(f.support))] = values
        return WeightedVector(f.graph, dict(zip(labels.tolist(), kernel.apply(arr).tolist())))

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


def dense_matrices(graph, max_size: int = DENSE_SIZE_LIMIT):
    """(A, M) with A[x, y] = <1_x, L 1_y> and M = diag(m), so L = M^-1 A."""
    if not graph.is_finite:
        raise ValueError("dense form requires a finite graph")
    n = graph.n
    if n > max_size:
        raise ValueError(f"graph has {n} vertices, above the dense size limit {max_size}")
    kernel = compiled(graph)
    A = np.zeros((n, n))
    A[kernel.rows, kernel.cols] = -kernel.w
    A[np.diag_indices(n)] = kernel.diag
    return A, np.diag(kernel.m)

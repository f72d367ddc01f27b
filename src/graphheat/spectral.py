"""Eigendecomposition in the m-weighted space and the two propagators.

``decompose`` diagonalizes the similar symmetric matrix M^{1/2} L M^{-1/2} =
M^{-1/2} A M^{-1/2} and maps the orthonormal eigenvectors back with M^{-1/2},
which makes them orthonormal in the m-weighted inner product.  All functional
calculus runs through the resulting eigenpairs.  The element functions take a
decomposition, an operator, a graph or its PairRows and resolve it to the graph,
whose eigenpairs are built once while it lives or come from a decomposition.

Matrix elements of e^{-tL} and e^{-itL} come in two routes:

* ``eigen`` sums the phases e^{-t lambda_i} (e^{-it lambda_i}) over the eigenpairs, the
  last time's kept on the rows, so a block read a time at a time makes each time's once.
  Accurate for moderate and large t, but at small t the target value ~ const * t^d is the
  sum of O(1) eigencontributions, so cancellation destroys the relative accuracy exactly
  where the short-time behavior lives.
* ``series`` sums the Taylor terms (-t)^n <1_x, L^n 1_y> / n! with a stopping
  rule driven by the rigorous remainder bound
  t^{K+1} (<1_x, L^{K+1} 1_x> + <1_y, L^{K+1} 1_y>) / (2 (K+1)!), and raises
  once the running sum or that bound is not finite (it overflowed).  The first
  nonzero term already has the size of the result, so there is no leading
  cancellation, and the exact zeros of the moment streams make elements across
  disconnected components exactly 0.0.  The moments come from the streams
  (L/s)^n of :class:`~graphheat.moments.PairRows` and meet the bounded
  coefficients (t s)^n / n!; one stream serves every t, both propagators and
  every pair of the rows, which :func:`heat_element` / :func:`wave_element` read when
  passed (a sweep passes one per block of pairs), else per thread the last pair's on its graph.
* ``auto`` picks series when t * lambda_max <= 1/2 and eigen otherwise (the series, its only
  route, on a procedural source).  Only :func:`select_route` picks a route or rejects the series
  (t times lambda_max, or on a procedural source the pairs' 1-neighborhood bound, above 2); every
  reader passes it its rows and ``auto`` or its caller's method, so one gate covers them all.

Two evaluators run these routes with the same arithmetic, so their values agree bitwise, and only
this module picks one.  :func:`block_elements` takes the pairs and times of a block of
:class:`~graphheat.moments.PairRows` as arrays, with the series' stopping rule as a mask of the
elements still running; every report and fit reads it.  For one pair, and in :func:`heat_element` /
:func:`wave_element`, :func:`pair_element` takes each element in scalar Python from its first
nonzero term, where numpy's per-call cost makes it 25 times dearer.  Both round each series sum as
``math.fsum`` does (the array series by :func:`_rounded_sums`).  :func:`order_terms` alone forms the
certificate, a pair's n-th term and its remainder bound, for every report and overlay.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graphs import CHUNK, ProceduralGraph, WeightedGraph
from .moments import PairRows
from .operators import LaplacianOperator, WeightedVector, _dense_form, _exact_sum

# default stopping tolerance keeps series noise an order below the 1e-9
# slack of bound reports even when the element dwarfs the bound (tight
# diagonal unitary checks at small t have margin/rhs of only ~t^2)
SERIES_RTOL = 1e-15
SERIES_FLOOR = 1e-300
MAX_SERIES_TERMS = 1000
EIGENVALUE_DUST = 1e-10
# room for eigh's rounding of lambda_max (about n eps ||A||) above the Gershgorin
# bound, so that the route gate never skips a decomposition the choice needs
GATE_ROUNDING = 1e-9
MAX_TAYLOR_ORDER = 12  # the bundled ScalarFunctions tabulate derivatives 0..12


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and m-orthonormal eigenvectors of a Laplacian."""

    graph: WeightedGraph
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column i pairs with eigenvalues[i]
    measures: np.ndarray

    @property
    def largest_eigenvalue(self) -> float:
        return float(self.eigenvalues[-1]) if len(self.eigenvalues) else 0.0

    def coefficient_array(self, f) -> np.ndarray:
        """Expansion coefficients <u_i, f>, linear in f."""
        arr = f.to_array() if isinstance(f, WeightedVector) else np.asarray(f)
        return self.eigenvectors.T @ (self.measures * arr)

    def basis_vector(self, i: int) -> WeightedVector:
        return WeightedVector.from_array(self.graph, self.eigenvectors[:, i])


@dataclass(frozen=True)
class SpectralMeasure:
    """Atomic measure on the spectrum: (eigenvalue, weight) pairs."""

    atoms: tuple[tuple[float, complex], ...]

    def total_mass(self):
        return _exact_sum([w for _, w in self.atoms])

    def integrate(self, fn: Callable):
        return _exact_sum([w * fn(lam) for lam, w in self.atoms])


@dataclass(frozen=True)
class ScalarFunction:
    """Scalar function with Taylor data at zero, for calculus error bounds.

    ``derivatives_at_zero[n]`` is the n-th derivative at 0 and
    ``next_derivative_bound`` is a sup-norm bound valid for the derivative
    following the truncation order in use.  The bundled constructors tabulate orders up
    to MAX_TAYLOR_ORDER, a polynomial's up to its degree if higher; cosine and exponential
    decay have every derivative bounded by 1, so the single bound serves all orders.
    """

    evaluator: Callable
    derivatives_at_zero: tuple
    next_derivative_bound: float

    def __post_init__(self):
        if self.next_derivative_bound < 0:
            raise ValueError("derivative bound must be non-negative")

    @classmethod
    def cosine(cls):
        derivs = tuple((1, 0, -1, 0)[n % 4] for n in range(MAX_TAYLOR_ORDER + 1))
        return cls(math.cos, derivs, 1.0)

    @classmethod
    def exp_decay(cls):
        """x -> e^-x on the non-negative axis, where every derivative has modulus <= e^0."""
        derivs = tuple((-1.0) ** n for n in range(MAX_TAYLOR_ORDER + 1))
        return cls(lambda s: math.exp(-s), derivs, 1.0)

    @classmethod
    def polynomial(cls, coeffs):
        """sum_k coeffs[k] s^k; the derivative bound 0 is valid once the
        truncation order reaches the degree."""
        coeffs = tuple(float(c) for c in coeffs)

        def ev(s):
            acc = 0.0
            for c in reversed(coeffs):
                acc = acc * s + c
            return acc

        derivs = tuple(math.factorial(n) * (coeffs[n] if n < len(coeffs) else 0.0)
                       for n in range(max(MAX_TAYLOR_ORDER, len(coeffs) - 1) + 1))
        return cls(ev, derivs, 0.0)


def decompose(graph: WeightedGraph) -> SpectralDecomposition:
    """Eigendecomposition of the Laplacian in the m-weighted space.

    An eigenvalue below -EIGENVALUE_DUST * max(1, lambda_max) raises, as L >= 0; a negative
    one above it reads 0.0, and so do the k smallest, k the number of components without
    killing, whose m-weighted constants are null vectors that eigh leaves at rounding size.
    """
    A, m = _dense_form(graph), graph.m
    s = 1.0 / np.sqrt(m)
    A *= s[:, None]  # scaled and symmetrized in place: the products of 0.5 (S + S^T), bitwise
    A *= s
    A += A.T
    A *= 0.5
    w, V = np.linalg.eigh(A)
    if len(w):
        scale = max(1.0, float(w[-1]))
        if w[0] < -EIGENVALUE_DUST * scale:
            raise ArithmeticError(
                f"eigenvalue {w[0]} is negative beyond rounding dust; operator should be >= 0")
        w = np.where(w < 0, 0.0, w)
        # each component labelled by its least vertex: its neighbors' least label, then that one's
        if not graph.c.all():
            label, low = None, np.arange(graph.n)
            while not np.array_equal(label, low):
                label, low = low, low.copy()
                np.minimum.at(low, graph.rows, label[graph.cols])
                low = low[low]
            free = set(label.tolist()).difference(label[graph.c > 0].tolist())  # without killing
            w[:len(free)] = 0.0
    U = V * s[:, None]
    return SpectralDecomposition(graph, w, U, m)


def _eigen(graph: WeightedGraph) -> SpectralDecomposition:
    """The graph's decomposition, made once and kept on the graph, as its last pair is; both refer
    back to the graph, so the cyclic collector frees them with it.  A race decomposes twice."""
    dec = getattr(graph, "_decomposition", None)
    if dec is None:
        dec = graph._decomposition = decompose(graph)
    return dec


def _resolve(source):
    """The graph of a decomposition, an operator, or a graph.  A decomposition
    is kept on its graph, so the graph is not decomposed again."""
    if isinstance(source, SpectralDecomposition):
        source.graph._decomposition = source
        return source.graph
    if isinstance(source, LaplacianOperator):
        return source.graph
    if isinstance(source, (WeightedGraph, ProceduralGraph)):
        return source
    raise TypeError(f"expected a decomposition, operator, or graph, got {type(source).__name__}")


def functional_calculus(dec: SpectralDecomposition, func, f, g) -> complex:
    """<f, func(L) g> = sum_i func(lambda_i) conj(f_i) g_i."""
    ev = func.evaluator if isinstance(func, ScalarFunction) else func
    fc = dec.coefficient_array(f)
    gc = dec.coefficient_array(g)
    phi = np.array([ev(float(lam)) for lam in dec.eigenvalues], dtype=complex)
    return complex(np.sum(phi * np.conj(fc) * gc))


def spectral_measure_diag(dec: SpectralDecomposition, h) -> SpectralMeasure:
    """Measure with non-negative weights |h_i|^2; its moments are <h, L^n h>."""
    hc = dec.coefficient_array(h)
    return SpectralMeasure(tuple((float(lam), float(abs(c) ** 2))
                                 for lam, c in zip(dec.eigenvalues, hc)))


def spectral_measure(dec: SpectralDecomposition, f, g) -> SpectralMeasure:
    """Bilinear measure with weights conj(f_i) g_i; integrates func to <f, func(L) g>."""
    fc = dec.coefficient_array(f)
    gc = dec.coefficient_array(g)
    return SpectralMeasure(tuple((float(lam), complex(np.conj(a) * b))
                                 for lam, a, b in zip(dec.eigenvalues, fc, gc)))


def polarized_measure(dec: SpectralDecomposition, f, g) -> SpectralMeasure:
    """Reconstruct the bilinear measure from four diagonal measures.

    With the inner product conjugate-linear in the first slot, the combination
    that reproduces ``spectral_measure(dec, f, g)`` is

        sum_k conj(i^k)/4 * (diagonal measure of f + i^k g).
    """
    weights = None
    lams = None
    for k in range(4):
        shifted = f + (1j ** k) * g
        diag = spectral_measure_diag(dec, shifted)
        contrib = [((-1j) ** k / 4) * w for _, w in diag.atoms]
        if weights is None:
            lams = [lam for lam, _ in diag.atoms]
            weights = contrib
        else:
            weights = [a + b for a, b in zip(weights, contrib)]
    return SpectralMeasure(tuple((lam, w) for lam, w in zip(lams, weights)))


def spectral_radius_bound(graph) -> float:
    """Cheap rigorous upper bound for the largest eigenvalue (Gershgorin discs
    of the symmetrized matrix)."""
    if not graph.is_finite:
        raise ValueError("spectral bound requires a finite graph")
    return graph.bound


def select_route(source, t, method: str) -> str:
    """The route, ``"series"`` or ``"eigen"``, that evaluates an element at time t.

    ``auto`` takes series while t * lambda_max <= 1/2; an explicit series
    request is rejected once t * lambda_max > 2, where term growth costs
    accuracy.  lambda_max is read from the decomposition only when t times the
    Gershgorin bound does not settle the comparison.  On a procedural source,
    ``auto`` takes the series under that gate and ``eigen`` raises.  ``source`` may
    be the :class:`PairRows` evaluated: on a procedural source their bound gates the series.
    """
    rows = source if isinstance(source, PairRows) else None
    graph = _resolve(source if rows is None else rows.source)
    if not 0 <= t < math.inf:
        raise ValueError(f"time must be finite and non-negative, got {t}")
    if method not in ("auto", "eigen", "series"):
        raise ValueError(f"unknown method {method!r}; expected 'eigen', 'series', or 'auto'")
    if method == "eigen":
        if not graph.is_finite:
            raise ValueError("eigen evaluation needs a finite graph; request "
                             "method='series' explicitly on procedural graphs")
        return "eigen"
    gated = method == "series" or not graph.is_finite  # a procedural source has the series alone
    limit = 2.0 if gated else 0.5
    # the rows' bound; a bare procedural source has no pairs, so nothing gates its series
    top = rows.bound if rows is not None else graph.bound if graph.is_finite else 0.0
    if graph.is_finite and t * top > limit * (1 - GATE_ROUNDING):
        top = _eigen(graph).largest_eigenvalue if graph.n else 0.0
    if gated and t * top > 2:
        raise ValueError(f"series evaluation rejected at t={t}: t times the top-eigenvalue bound "
                         f"{top:.6g} exceeds 2, where term growth costs accuracy"
                         + ("; use eigen" if graph.is_finite else ""))
    return "series" if t * top <= limit else "eigen"


@np.errstate(over="ignore", invalid="ignore")  # inf and nan arise; the series rejects them
def pair_element(rows: PairRows, i: int, t, route: str, unitary: bool):
    """<1_x, e^{-tL} 1_y> (e^{-itL} if ``unitary``) of the i-th pair of rows via ``route``.

    The series route reads the rows' stream as Python floats.  Below the first nonzero
    term it tests only the remainder bound (the hop distance's zero terms leave the sums
    0.0), then accumulates terms until that bound drops below SERIES_RTOL times the
    partial-sum scale, with an absolute floor of SERIES_FLOOR; eigen reads the cached
    eigenpairs of the rows' graph.
    """
    if route == "eigen":
        return _eigen_sum(rows, *rows.pairs[i], t, unitary).item()
    signs = (1.0, -1.0, -1.0, 1.0) if unitary else (1.0, -1.0)  # (-i)^n's sign for the wave
    ts = t * rows.scale
    coef, n = 1.0, 0  # (t s)^n / n!, against moments scaled by s^-n
    xy, known = rows.floats(i, 0)[0], rows.converted[i]
    while coef * xy == 0.0:  # a zero term: the sums stay 0.0, so only the bound is tested
        n += 1
        coef *= ts / n
        xy, xx, yy = known[n] if n < len(known) else rows.floats(i, n)
        bound = 0.5 * coef * (xx + yy)
        if bound <= SERIES_FLOOR:  # what fsum of the zero terms gives
            return 0j if unitary else 0.0
        if n >= MAX_SERIES_TERMS or not math.isfinite(bound):
            raise _unmet(n)
    terms, parts = [0.0] * n, [0.0, 0.0]  # the wave's term is real at even n, imaginary at odd n
    while True:
        terms.append(signs[n % len(signs)] * (coef * xy))
        parts[n % 2 if unitary else 0] += terms[-1]
        n += 1
        coef *= ts / n
        xy, xx, yy = known[n] if n < len(known) else rows.floats(i, n)
        bound, size = 0.5 * coef * (xx + yy), abs(complex(*parts)) if unitary else abs(parts[0])
        finite = math.isfinite(bound + size)  # inf or nan in either leaves the sum so
        if finite and bound <= max(SERIES_RTOL * size, SERIES_FLOOR):
            break
        if n >= MAX_SERIES_TERMS or not finite:
            raise _unmet(n)
    return complex(math.fsum(terms[::2]), math.fsum(terms[1::2])) if unitary else math.fsum(terms)


@np.errstate(over="ignore", invalid="ignore")  # a term above the largest double reads inf
def order_terms(ts, orders, xy, diagonal):
    """Each pair's series term (t s)^n/n! xy_n and remainder bound 1/2 (t s)^(n+1)/(n+1)!
    (xx + yy)_(n+1) at the scaled times ``ts`` = t s, as (pair, t) arrays, from its order n,
    xy_n and (xx + yy)_(n+1), by :func:`pair_element`'s recursion, so bitwise its own."""
    ts, orders = np.asarray(ts, dtype=float), np.asarray(orders, dtype=np.intp)
    coef = np.ones((int(orders.max(initial=-1)) + 2, len(ts)))
    for k in range(1, len(coef)):
        coef[k] = coef[k - 1] * (ts / k)
    return (coef[orders] * np.asarray(xy, dtype=float)[:, None],
            0.5 * coef[orders + 1] * np.asarray(diagonal, dtype=float)[:, None])


def _unmet(n: int) -> ArithmeticError:
    """The series' error at order n: MAX_SERIES_TERMS reached, or a sum or bound not finite."""
    return ArithmeticError(f"series stopped at order {n} short of its remainder target: it takes "
                           f"at most {MAX_SERIES_TERMS} terms, with a finite sum and bound")


def block_elements(rows: PairRows, block, ts, routes, unitary: bool) -> np.ndarray:
    """:func:`pair_element` at the pairs ``block`` (a slice) of the rows and every t of
    ``ts``, each through its route of ``routes``, as a (pair, t) array of the same values."""
    ts, pairs = np.asarray(ts, dtype=float), rows.pairs[block]
    out = np.zeros((len(pairs), len(ts)), dtype=complex if unitary else float)
    if len(pairs) == 1:  # one pair: Python floats cost less than numpy's per-call overhead
        i = block.indices(len(rows.pairs))[0]
        out[0] = [pair_element(rows, i, t, r, unitary) for t, r in zip(ts.tolist(), routes)]
        return out
    series = np.array([route == "series" for route in routes], dtype=bool)
    if series.any():
        out[:, series] = _series_block(rows, block, ts[series] * rows.scale, unitary)
    if not series.all():  # a time at a time, in slices of at most CHUNK pair x eigenvalue entries
        x, y = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        step = max(1, CHUNK // max(rows.source.n, 1))
        for j in np.flatnonzero(~series).tolist():
            for part in (slice(lo, lo + step) for lo in range(0, len(x), step)):
                out[part, j] = _eigen_sum(rows, x[part], y[part], ts[j], unitary)
    return out


def _phases(graph, t, unitary) -> np.ndarray:
    """e^{-t lambda_i}, or e^{-it lambda_i} if ``unitary``, over the graph's eigenvalues."""
    return np.exp((-1j if unitary else -1.0) * t * _eigen(graph).eigenvalues)


def _eigen_sum(rows: PairRows, x, y, t, unitary):
    """The eigen route at the vertices x and y, or at the pairs of the arrays x and y, of the rows.
    Their one slot keeps the last (t, unitary) and its phases as one tuple, so no thread pairs a time
    with another time's phases."""
    dec, (key, phases) = _eigen(rows.source), rows.phases
    if key != (t, unitary):
        phases = _phases(rows.source, t, unitary)
        rows.phases = (t, unitary), phases
    u, m = dec.eigenvectors, dec.measures
    coeffs = u[x] * u[y] * (m[x] * m[y])[..., None]
    return np.sum(phases * coeffs, axis=-1)


@np.errstate(over="ignore", invalid="ignore")  # inf and nan arise as in Python floats
def _series_block(rows: PairRows, block, ts, unitary):
    """pair_element's series at the pairs ``block`` (a slice) of the rows, read through
    :meth:`PairRows.table`, at the scaled times ``ts`` = t s: the same terms, with the stopping
    rule as a mask of the running elements (a stopped one adds exact zeros), summed by
    :func:`_rounded_sums`; the wave's term (-i)^n c_n is real at even n and imaginary at odd n."""
    coef, terms, table = np.ones(len(ts)), [], rows.table(block, 0)
    parts = np.zeros((2, len(table), len(ts)))  # the running sum's real and imaginary parts
    active = np.ones(parts.shape[1:], dtype=bool)
    for n in range(MAX_SERIES_TERMS):
        sign = -1.0 if (n % 4 in (1, 2) if unitary else n % 2) else 1.0
        terms.append(np.where(active, sign * (coef * table[:, 0][:, None]), 0.0))
        parts[n % 2 if unitary else 0] += terms[-1]
        coef, table = coef * (ts / (n + 1)), rows.table(block, n + 1)
        bound = 0.5 * coef * (table[:, 1] + table[:, 2])[:, None]
        running = np.hypot(*parts) if unitary else np.abs(parts[0])
        if not np.isfinite(bound + running)[active].all():
            raise _unmet(n + 1)
        active &= ~(bound <= np.maximum(SERIES_RTOL * running, SERIES_FLOOR))
        if not active.any():
            break
    else:
        raise _unmet(MAX_SERIES_TERMS)
    terms = np.array(terms).reshape(len(terms), -1)  # (order, element)
    if not unitary:
        return _rounded_sums(terms).reshape(active.shape)
    sums = np.empty(active.shape, dtype=complex)  # each part set bitwise, as complex(re, im) does
    sums.real, sums.imag = (_rounded_sums(terms[n::2]).reshape(active.shape) for n in (0, 1))
    return sums


@np.errstate(over="ignore", invalid="ignore")  # inf and nan arise; their elements take fsum
def _rounded_sums(terms: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each column of the (K, N) array ``terms``, bitwise, from array passes:
    a TwoSum pass (Knuth) leaves s with s + sum(e) the exact total, r = sum(e) and m = sum|e|;
    |r - sum(e)| <= gamma_K m (Higham 4.2) <= 2 K u m + K 2^-1074 after this bound's own
    rounding, and s + r = c + f exactly.  Where |f| plus that bound is below half the smaller
    gap next to |c|, c is the correctly rounded total; sum|a| < 2^1020 keeps every partial sum,
    here and in fsum, finite.  Where m = 0, c is the exact total (+0.0 for zeros, as in fsum).
    Other elements (inexact zeros, near-ties, overflow, inf, nan) take fsum."""
    s, r, m, t, b, e = (np.zeros(terms.shape[1:]) for _ in range(6))
    for a in terms:  # t = s + a, b = t - s, e = (s - (t - b)) + (a - b), in place
        np.subtract(np.add(s, a, out=t), s, out=b)
        np.subtract(s, np.subtract(t, b, out=e), out=e)
        e += np.subtract(a, b, out=b)
        r += e
        m += np.abs(e, out=e)
        s, t = t, s
    c, k = s + r, len(terms)
    f = (s - (c - (c - s))) + (r - (c - s))
    gap = np.abs(c) - np.nextafter(np.abs(c), 0)  # 0 at c = 0, so only an exact sum certifies
    certified = (np.abs(terms).sum(axis=0) < 2.0 ** 1020) & (  # m = 0: no step rounded
        (m == 0) | (np.abs(f) + (k * 2.0 ** -52 * m + k * 2.0 ** -1074) < gap / 2))
    for j in np.flatnonzero(~certified).tolist():
        c[j] = math.fsum(terms[:, j].tolist())
    return c


def _element(source, x, y, t, method, unitary):
    if isinstance(source, PairRows):  # rows the caller keeps, which hold the pair
        if (x, y) not in source.index:
            raise ValueError(f"pair ({x}, {y}) is not among the pairs of the rows")
        return pair_element(source, source.index[x, y], t, select_route(source, t, method), unitary)
    graph = _resolve(source)
    last = getattr(graph, "_last_pair", None)  # per thread: one pair's run reads one stream
    if last is None:  # on the graph, so the pair dies with it; a race loses only a cached pair
        last = graph._last_pair = threading.local()
    key, rows = getattr(last, "pair", (None, None))
    last.pair = None, None  # kept only after a success: a stream that raised cannot go on
    if key != (x, y):
        key, rows = (x, y), PairRows(graph, [(x, y)])
    value = pair_element(rows, 0, t, select_route(rows, t, method), unitary)
    last.pair = key, rows
    return value


def heat_element(source, x, y, t, method: str = "auto") -> float:
    """<1_x, e^{-tL} 1_y>.  ``source`` is a decomposition, operator, graph or PairRows of (x, y)."""
    return _element(source, x, y, t, method, unitary=False)


def wave_element(source, x, y, t, method: str = "auto") -> complex:
    """<1_x, e^{-itL} 1_y>."""
    return _element(source, x, y, t, method, unitary=True)


def propagate_heat(dec: SpectralDecomposition, f: WeightedVector, t) -> WeightedVector:
    """e^{-tL} f through the eigenpairs."""
    if t < 0:
        raise ValueError("time must be non-negative")
    coeffs = dec.coefficient_array(f)
    out = dec.eigenvectors @ (np.exp(-t * dec.eigenvalues) * coeffs)
    return WeightedVector.from_array(dec.graph, out)


def propagate_wave(dec: SpectralDecomposition, f: WeightedVector, t) -> WeightedVector:
    """e^{-itL} f through the eigenpairs; preserves the m-norm."""
    coeffs = dec.coefficient_array(f)
    out = dec.eigenvectors @ (np.exp(-1j * t * dec.eigenvalues) * coeffs)
    return WeightedVector.from_array(dec.graph, out)

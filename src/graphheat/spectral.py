"""Eigendecomposition in the m-weighted space and the two propagators.

``decompose`` diagonalizes the similar symmetric matrix M^{1/2} L M^{-1/2} =
M^{-1/2} A M^{-1/2} and maps the orthonormal eigenvectors back with M^{-1/2},
which makes them orthonormal in the m-weighted inner product.  All functional
calculus runs through the resulting eigenpairs.  The element functions take
a decomposition, an operator, or a graph and resolve it to the graph; its
eigenpairs are built once while it lives, or come from a decomposition passed in.

Matrix elements of e^{-tL} and e^{-itL} come in two routes:

* ``eigen`` sums exponentials over the eigenpairs.  Accurate for moderate and
  large t, but at small t the target value ~ const * t^d is the sum of O(1)
  eigencontributions, so cancellation destroys the relative accuracy exactly
  where the short-time behavior lives.
* ``series`` sums the Taylor terms (-t)^n <1_x, L^n 1_y> / n! with a stopping
  rule driven by the rigorous remainder bound
  t^{K+1} (<1_x, L^{K+1} 1_x> + <1_y, L^{K+1} 1_y>) / (2 (K+1)!).  The first
  nonzero term already has the size of the result, so there is no leading
  cancellation, and the exact zeros of the moment streams make elements across
  disconnected components exactly 0.0.  The moments come from the streams
  (L/s)^n of :class:`~graphheat.moments.PairMoments` and meet the bounded
  coefficients (t s)^n / n!; one pair's streams serve every t and both
  propagators, and :func:`heat_element` / :func:`wave_element` keep the last
  pair's streams in each thread, so a sweep over t reads them once.
* ``auto`` picks series when t * lambda_max <= 1/2 and eigen otherwise; see
  :func:`select_route`.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graphs import ProceduralGraph, WeightedGraph
from .moments import PairMoments
from .operators import (DENSE_SIZE_LIMIT, LaplacianOperator, WeightedVector,
                        _exact_sum, compiled, dense_matrices)

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
    following the truncation order in use.  The bundled cosine and
    exponential-decay constructors have every derivative bounded by 1, so the
    single bound serves all orders.
    """

    evaluator: Callable
    derivatives_at_zero: tuple
    next_derivative_bound: float

    def __post_init__(self):
        if self.next_derivative_bound < 0:
            raise ValueError("derivative bound must be non-negative")

    @classmethod
    def cosine(cls, max_order: int = 12):
        derivs = tuple((1, 0, -1, 0)[n % 4] for n in range(max_order + 1))
        return cls(math.cos, derivs, 1.0)

    @classmethod
    def exp_decay(cls, max_order: int = 12):
        """x -> e^-x on the non-negative axis, where every derivative has modulus <= e^0."""
        derivs = tuple((-1.0) ** n for n in range(max_order + 1))
        return cls(lambda s: math.exp(-s), derivs, 1.0)

    @classmethod
    def polynomial(cls, coeffs, max_order: int = 12):
        """sum_k coeffs[k] s^k; the derivative bound 0 is valid once the
        truncation order reaches the degree."""
        coeffs = tuple(float(c) for c in coeffs)

        def ev(s):
            acc = 0.0
            for c in reversed(coeffs):
                acc = acc * s + c
            return acc

        derivs = tuple(math.factorial(n) * (coeffs[n] if n < len(coeffs) else 0.0)
                       for n in range(max_order + 1))
        return cls(ev, derivs, 0.0)


_DECOMPOSITIONS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def decompose(graph: WeightedGraph, max_size: int = DENSE_SIZE_LIMIT) -> SpectralDecomposition:
    """Eigendecomposition of the Laplacian in the m-weighted space.

    Rounding dust below EIGENVALUE_DUST * max(1, lambda_max) is clamped to
    zero; genuinely negative eigenvalues raise, since the operator is
    positive semidefinite by construction.
    """
    A, M = dense_matrices(graph, max_size=max_size)
    m = np.diag(M).copy()  # a view would keep the n x n M alive with the decomposition
    s = 1.0 / np.sqrt(m)
    S = A * s[:, None] * s[None, :]
    S = 0.5 * (S + S.T)
    w, V = np.linalg.eigh(S)
    if len(w):
        scale = max(1.0, float(w[-1]))
        if w[0] < -EIGENVALUE_DUST * scale:
            raise ArithmeticError(
                f"eigenvalue {w[0]} is negative beyond rounding dust; operator should be >= 0")
        w = np.where(w < 0, 0.0, w)
    U = V * s[:, None]
    return SpectralDecomposition(graph, w, U, m)


def _eigen(graph: WeightedGraph):
    """(eigenvalues, eigenvectors, measures) of the graph, decomposed once while it lives.

    The cache holds the arrays: a decomposition refers to its graph, which
    would keep the weak key, and so the entry, alive for good.
    """
    arrays = _DECOMPOSITIONS.get(graph)
    if arrays is None:
        dec = decompose(graph)
        arrays = _DECOMPOSITIONS[graph] = (dec.eigenvalues, dec.eigenvectors, dec.measures)
    return arrays


def _resolve(source):
    """The graph of a decomposition, an operator, or a graph.  A decomposition
    seeds the cache, so its graph is not decomposed again."""
    if isinstance(source, SpectralDecomposition):
        _DECOMPOSITIONS[source.graph] = (source.eigenvalues, source.eigenvectors, source.measures)
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
    return compiled(graph).bound


def select_route(source, t, method: str) -> str:
    """The route, ``"series"`` or ``"eigen"``, that evaluates an element at time t.

    ``auto`` takes series while t * lambda_max <= 1/2; an explicit series
    request is rejected once t * lambda_max > 2, where term growth costs
    accuracy.  lambda_max is read from the decomposition only when t times the
    Gershgorin bound does not settle the comparison.
    """
    graph = _resolve(source)
    if t < 0:
        raise ValueError("time must be non-negative")
    if method not in ("auto", "eigen", "series"):
        raise ValueError(f"unknown method {method!r}; expected 'eigen', 'series', or 'auto'")
    if not graph.is_finite:
        if method != "series":
            raise ValueError(f"{method} evaluation needs a finite graph; request "
                             "method='series' explicitly on procedural graphs")
        return "series"
    if method == "eigen":
        return "eigen"
    limit = 0.5 if method == "auto" else 2.0
    top = compiled(graph).bound
    if graph in _DECOMPOSITIONS or t * top > limit * (1 - GATE_ROUNDING):
        top = float(_eigen(graph)[0][-1]) if graph.n else 0.0  # eigenvalues ascend
    if t * top <= limit:
        return "series"
    if method == "auto":
        return "eigen"
    raise ValueError(f"series evaluation rejected at t={t}: t times the top-eigenvalue bound "
                     f"{top:.6g} exceeds 2, where term growth costs accuracy; use eigen")


def pair_element(pm: PairMoments, t, route: str, unitary: bool):
    """<1_x, e^{-tL} 1_y> (e^{-itL} if ``unitary``) for pm's pair through ``route``.

    The series route reads pm's streams and accumulates terms until the
    remainder bound drops below SERIES_RTOL times the current partial-sum
    scale, with an absolute floor of SERIES_FLOOR; eigen reads the cached
    eigenpairs of pm's graph.
    """
    if route == "eigen":
        graph, x, y = pm.source, pm.x, pm.y
        eigenvalues, eigenvectors, _ = _eigen(graph)
        coeffs = eigenvectors[x] * eigenvectors[y] * (graph.measure(x) * graph.measure(y))
        if unitary:
            return complex(np.sum(np.exp(-1j * t * eigenvalues) * coeffs))
        return float(np.sum(np.exp(-t * eigenvalues) * coeffs))
    phases = (1 + 0j, -1j, -1 + 0j, 1j) if unitary else (1.0, -1.0)
    ts = t * pm.scale
    coef = 1.0  # (t s)^n / n!, against moments scaled by s^-n
    terms = []
    running = 0j if unitary else 0.0
    n = 0
    xy = pm[0][0]
    while True:
        term = phases[n % len(phases)] * (coef * xy)
        terms.append(term)
        running += term
        n += 1
        coef *= ts / n
        xy, xx, yy = pm[n]
        if 0.5 * coef * (xx + yy) <= max(SERIES_RTOL * abs(running), SERIES_FLOOR):
            break
        if n >= MAX_SERIES_TERMS:
            raise ArithmeticError(
                f"series did not meet its remainder target within {MAX_SERIES_TERMS} terms")
    return _exact_sum(terms)


# the last pair's moments in each thread: successive elements of one pair
# (a sweep over t, heat then wave) read one stream
_LAST_PAIR = threading.local()


def _element(source, x, y, t, method, unitary):
    graph = _resolve(source)
    pm = getattr(_LAST_PAIR, "moments", None)
    # kept only after a success: a stream that raised cannot go on
    _LAST_PAIR.moments = None
    if pm is None or pm.source is not graph or (pm.x, pm.y) != (x, y):
        pm = PairMoments(graph, x, y)
    value = pair_element(pm, t, select_route(graph, t, method), unitary)
    _LAST_PAIR.moments = pm
    return value


def heat_element(source, x, y, t, method: str = "auto") -> float:
    """<1_x, e^{-tL} 1_y>.  ``source`` is a decomposition, operator, or graph."""
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

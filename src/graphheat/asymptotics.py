"""Certification of the short-time inequalities and limits.

Every check here verifies a mathematical theorem about the operator, so on
valid inputs every report must pass; a failing report signals an
implementation bug, which is what makes these checks a usable test oracle.

Reports compare a left-hand side (an approximation error measured with the
most accurate evaluation route available) against an explicitly computed
right-hand side.  ``passed`` allows the relative slack 1e-9 plus an absolute
floor of 1e-300.  The slack covers the series route's round-off (it stops at
a remainder of 1e-15 of the element) but not the eigen route's: an eigen
element carries an absolute rounding floor of about n * eps * sqrt(m(x) m(y))
whatever its size, so where the bound is that small, ``lhs`` can be off by
more than 1e-9 * rhs.

A pair's report at order n has the series' own n-th term as its leading
term and that term's remainder bound, the series route's stopping bound, as
its bound, both over the moments scaled by s^n, so they hold at any hop
distance; :func:`verification_reports` reads many pairs from one block stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import INFINITE, combinatorial_distance
from .moments import PairMoments, stream
from .operators import WeightedVector, _exact_sum
from .spectral import (ScalarFunction, SpectralDecomposition, _resolve, _series_coefficient,
                       functional_calculus, heat_element, pair_element, select_route)

PASS_SLACK_REL = 1e-9
PASS_SLACK_ABS = 1e-300
UNDERFLOW_FLOOR = 1e-280


@dataclass(frozen=True)
class BoundReport:
    """One inequality instance: |approximation error| against the bound value."""

    which: str
    x: "int | None"
    y: "int | None"
    t: "float | None"
    n: int
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs * (1 + PASS_SLACK_REL) + PASS_SLACK_ABS


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares slope of log |element| against log t on a geometric grid."""

    x: int
    y: int
    group: str
    t_grid: tuple[float, ...]
    log_values: tuple[float, ...]
    slope: float
    intercept: float
    max_residual: float


@dataclass(frozen=True)
class VanishingOrderReport:
    """Witness that |element| <= constant * t^(n+1) once all moments up to n vanish."""

    x: int
    y: int
    n: int
    constant: float
    samples: tuple[BoundReport, ...]  # per time, semigroup then unitary: lhs |heat|, |wave|

    @property
    def passed(self) -> bool:
        return all(rep.passed for rep in self.samples)


def taylor_bound(dec: SpectralDecomposition, func: ScalarFunction,
                 f: WeightedVector, g: WeightedVector, order: int) -> BoundReport:
    """Generic Taylor-remainder bound for the functional calculus.

    lhs: |<f, func(L) g>  -  sum_{n<=order} func^(n)(0)/n! <f, L^n g>|, the
    calculus value coming from the eigenpairs and the moments from the streams
    of g and f (two independent routes).
    rhs: bound * (<f, L^(order+1) f> + <g, L^(order+1) g>) / (2 (order+1)!).
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    if len(func.derivatives_at_zero) < order + 1:
        raise ValueError(f"need derivatives up to order {order}, got "
                         f"{len(func.derivatives_at_zero)} values")
    exact = functional_calculus(dec, func, f, g)
    fs, gs = list(f.items()), list(g.items())
    # <f, L^n g> at every n, then <f, L^n f> and <g, L^n g> at n = order + 1
    targets = [(v, 0) for v, _ in fs] + [(v, 1) for v, _ in fs] + [(v, 0) for v, _ in gs]
    weights = np.conj([a for _, a in fs + fs + gs])
    cut = (len(fs), 2 * len(fs))
    fg_moments = []
    for values in stream(dec.graph, [dict(gs), dict(fs)], 1.0, targets):
        fg, ff, gg = (_exact_sum(part.tolist()) for part in np.split(weights * values, cut))
        fg_moments.append(fg)
        if len(fg_moments) == order + 2:
            break
    partial = _exact_sum([func.derivatives_at_zero[n] / math.factorial(n) * fg_moments[n]
                          for n in range(order + 1)])
    lhs = abs(exact - partial)
    rhs = func.next_derivative_bound / math.factorial(order + 1) * 0.5 * (ff.real + gg.real)
    return BoundReport("taylor", None, None, None, order, lhs, rhs)


def _order_reports(pm: PairMoments, n: int, times, routes, which):
    """The reports of pm's pair at order n: for each t, one per tag of ``which``.

    The leading term is the series' own n-th term (t s)^n/n! pm[n][0] and the
    bound its remainder bound 1/2 (t s)^(n+1)/(n+1)! (pm[n+1][1] + pm[n+1][2]),
    both in the scaled moments with the coefficients of :func:`pair_element`,
    so neither overflows at any order.  Every moment below n must vanish.
    """
    if n < 0:
        raise ValueError("moment order must be non-negative")
    k = next((k for k in range(n) if pm[k][0] != 0.0), None)
    if k is not None:
        raise ValueError(f"bound requires every moment below n to vanish; "
                         f"moment {k} is {pm.moments(k)[0]}")
    xy = pm[n][0]
    _, xx, yy = pm[n + 1]
    reports = []
    for t, route in zip(times, routes):
        h, w = pair_element(pm, t, route, False), pair_element(pm, t, route, True)
        ts = t * pm.scale
        lead = _series_coefficient(ts, n) * xy
        rhs = 0.5 * _series_coefficient(ts, n + 1) * (xx + yy)
        lhs = {"heat_leading": abs(h - abs(lead)), "wave_leading": abs(abs(w) - abs(lead)),
               "semigroup": abs(h - (1.0, -1.0)[n % 2] * lead),
               "unitary": abs(w - (1 + 0j, -1j, -1 + 0j, 1j)[n % 4] * lead)}
        for tag in which:
            if tag not in lhs:
                raise ValueError(f"unknown report tag {tag!r}")
            reports.append(BoundReport(tag, pm.x, pm.y, t, n, lhs[tag], rhs))
    return reports


def _order_bound(source, x, y, t, n, unitary):
    graph = _resolve(source)
    return _order_reports(PairMoments(graph, x, y), n, [t], [select_route(graph, t, "auto")],
                          ("unitary" if unitary else "semigroup",))[0]


def semigroup_bound(source, x, y, t, n: int) -> BoundReport:
    """Short-time bound for the heat semigroup at order n <= first nonzero order.

    lhs: |<1_x, e^{-tL} 1_y> - (-t)^n <1_x, L^n 1_y> / n!|
    rhs: t^(n+1) (<1_x, L^(n+1) 1_x> + <1_y, L^(n+1) 1_y>) / (2 (n+1)!)
    """
    return _order_bound(source, x, y, t, n, unitary=False)


def unitary_bound(source, x, y, t, n: int) -> BoundReport:
    """Short-time bound for the unitary group; same right-hand side as the semigroup."""
    return _order_bound(source, x, y, t, n, unitary=True)


def leading_term_check(source, x, y, t, cutoff=None) -> tuple[BoundReport, BoundReport]:
    """Leading-order estimates at d = hop distance, for heat and wave.

    heat lhs: |<1_x, e^{-tL} 1_y>  - t^d |<1_x, L^d 1_y>| / d!|
    wave lhs: ||<1_x, e^{-itL} 1_y>| - t^d |<1_x, L^d 1_y>| / d!|
    shared rhs: t^(d+1) (<1_x, L^(d+1) 1_x> + <1_y, L^(d+1) 1_y>) / (2 (d+1)!)
    """
    reports = pair_verification_reports(source, x, y, [t], cutoff=cutoff,
                                        which=("heat_leading", "wave_leading"))
    return reports[0], reports[1]


def pair_verification_reports(source, x, y, ts, cutoff=None,
                              which=("heat_leading", "wave_leading", "semigroup", "unitary"),
                              method="auto"):
    """Bound reports for one vertex pair across a t grid, sharing moment work.

    The semigroup/unitary reports run at the pair's hop distance d (their
    largest admissible order).  Raises for disconnected pairs; for those use
    :func:`vanishing_order_check`.  Overriding ``method`` with ``eigen`` at
    small t measures that route's cancellation rather than the theorems.
    """
    graph = _resolve(source)
    d = combinatorial_distance(graph, x, y, cutoff=cutoff)
    if d == INFINITE:
        raise ValueError(f"vertices {x} and {y} are not connected; the leading-order "
                         "estimate needs a finite hop distance")
    return next(verification_reports(graph, [(x, y, d)], ts, which, method))


def verification_reports(source, pairs, ts,
                         which=("heat_leading", "wave_leading", "semigroup", "unitary"),
                         method="auto"):
    """The reports of :func:`pair_verification_reports` for many connected pairs.

    ``pairs`` holds (x, y, d) triples, d being the pair's hop distance; one
    list of reports is yielded per triple, in order.  Every pair reads its
    moments from one block stream over the pairs' distinct vertices (see
    :meth:`PairMoments.shared`), and its elements through the same series
    evaluator and stopping rule as a single pair, so each report is bitwise
    the one-pair report.  The route is chosen once per t.
    """
    graph = _resolve(source)
    pairs = list(pairs)
    routes = [select_route(graph, t, method) for t in ts]
    for (x, y, d), pm in zip(pairs, PairMoments.shared(graph, [(x, y) for x, y, _ in pairs])):
        if pm[d][0] == 0.0:
            raise ArithmeticError(f"moment at the hop distance {d} vanished for pair ({x}, {y}); "
                                  "this contradicts the graph structure and signals a bug")
        yield _order_reports(pm, d, ts, routes, which)


def leading_exponent_fit(source, x, y, t0: float = 1e-3, ratio: float = 0.1,
                         count: int = 4, group: str = "heat") -> ExponentFit:
    """Fit the exponent of |element| ~ const * t^slope on a geometric grid.

    Forces the series route (the grid lives where eigen evaluation cancels),
    so on finite graphs t0 * lambda_max must stay <= 1/2.  The slope estimates
    the hop distance; with the series evaluator the fit bias is O(t0).
    """
    if t0 <= 0:
        raise ValueError("t0 must be positive")
    if not 0 < ratio < 1:
        raise ValueError("ratio must lie strictly between 0 and 1")
    if count < 3:
        raise ValueError("need at least 3 grid points")
    if group not in ("heat", "wave"):
        raise ValueError(f"unknown group {group!r}; expected 'heat' or 'wave'")
    graph = _resolve(source)
    if graph.is_finite and select_route(graph, t0, "auto") == "eigen":
        raise ValueError(f"t0={t0} is too large for the series route: t0 * lambda_max > 1/2")
    pm = PairMoments(graph, x, y)
    grid = [t0 * ratio ** k for k in range(count)]
    logs = []
    for tk in grid:
        value = abs(pair_element(pm, tk, "series", unitary=(group == "wave")))
        if value <= UNDERFLOW_FLOOR:
            raise ArithmeticError(
                f"element underflowed at t={tk} after {len(logs)} of {count} grid points "
                f"(|value|={value}); collected grid {grid[:len(logs)]}")
        logs.append(math.log(value))
    xs = np.log(grid)
    ys = np.array(logs)
    slope, intercept = np.polyfit(xs, ys, 1)
    residuals = np.abs(ys - (slope * xs + intercept))
    return ExponentFit(x, y, group, tuple(grid), tuple(logs),
                       float(slope), float(intercept), float(np.max(residuals)))


def vanishing_order_check(source, x, y, n: int, t_samples,
                          method: str = "series") -> VanishingOrderReport:
    """Witness for faster-than-polynomial decay when moments vanish through n.

    Requires every moment of the pair up to n to be exactly zero (e.g. a pair
    in different components).  Verifies, at each sample time, that both
    |heat| and |wave| elements stay below constant * t^(n+1) with
    constant = (<1_x, L^(n+1) 1_x> + <1_y, L^(n+1) 1_y>) / (2 (n+1)!).

    Under the series route the elements across components are exactly 0.0;
    under eigen they only vanish to round-off, so that route is informative
    about magnitudes, not exactness.
    """
    graph = _resolve(source)
    pm = PairMoments(graph, x, y)
    order = next((k for k in range(n + 1) if pm[k][0] != 0.0), None)
    if order is not None:
        raise ValueError(f"pair ({x}, {y}) has a nonzero moment at order {order} <= {n}; "
                         "the vanishing-order witness does not apply")
    ts = list(t_samples)
    samples = _order_reports(pm, n, ts, [select_route(graph, t, method) for t in ts],
                             ("semigroup", "unitary"))
    _, xx, yy = pm[n + 1]
    # the reports' bound at t = 1
    constant = 0.5 * _series_coefficient(pm.scale, n + 1) * (xx + yy)
    return VanishingOrderReport(x, y, n, constant, tuple(samples))


def varadhan_diagnostic(source, x, y, t_grid):
    """The sequence (t, t * log <1_x, e^{-tL} 1_y>) on a positive grid.

    On manifolds this quantity tends to minus half the squared geodesic
    distance; on graphs the element behaves like const * t^d, so
    t * log(element) -> 0.  The returned magnitudes shrink accordingly.
    """
    out = []
    for t in t_grid:
        if t <= 0:
            raise ValueError("diagnostic needs strictly positive times")
        p = heat_element(source, x, y, t)
        if p <= 0:
            raise ValueError(f"heat element is {p} at t={t}; connected pairs give "
                             "positive values for positive times")
        out.append((t, t * math.log(p)))
    return tuple(out)

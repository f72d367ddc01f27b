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

A pair's report at order n takes the series' n-th term as its leading term and that term's remainder
bound, the series route's stopping bound, as its bound, over the moments scaled by s^n, so they hold
at any hop distance: :func:`~graphheat.spectral.order_terms` forms both.  Every report and fit reads
its pairs from one block stream, as arrays of :func:`~graphheat.spectral.block_elements` over
BLOCK_ELEMENTS (pair, t) elements or one pair: one builder forms the reports, which
:func:`verification_blocks` yields and every other check reads as :class:`BoundReport` lists, and
:func:`exponent_fits` fits a block in one solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import INFINITE, combinatorial_distance
from .moments import PairRows, stream
from .operators import WeightedVector, _exact_sum
from .spectral import (ScalarFunction, SpectralDecomposition, _resolve, block_elements,
                       functional_calculus, heat_element, order_terms, select_route)

PASS_SLACK_REL = 1e-9
PASS_SLACK_ABS = 1e-300
UNDERFLOW_FLOOR = 1e-280
TAGS = ("heat_leading", "wave_leading", "semigroup", "unitary")
BLOCK_ELEMENTS = 4096  # (pair, t) elements per array of verification_blocks and exponent_fits


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
        return passes(self.lhs, self.rhs)


def passes(lhs, rhs):
    """Whether lhs is within rhs up to the slack; on floats or arrays alike."""
    return lhs <= rhs * (1 + PASS_SLACK_REL) + PASS_SLACK_ABS


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


@np.errstate(over="ignore", invalid="ignore")  # inf and nan arise as in Python floats
def _order_reports(rows: PairRows, block, orders, ts, routes):
    """(lhs, rhs) of the pairs ``block`` (a slice) of the rows at their ``orders``,
    shaped (pair, t, tag) over TAGS, for the times ``ts`` taken through ``routes``.

    A pair's leading term at order n and its bound are the :func:`order_terms` of its
    scaled moments; a term or bound not finite raises ArithmeticError, as a series sum
    does.  Every moment of a pair below its order must vanish.
    """
    orders = np.asarray(orders, dtype=np.intp)
    if (orders < 0).any():
        raise ValueError("moment order must be non-negative")
    top, pair = int(orders.max()), np.arange(len(orders))
    table = np.stack([rows.table(block, k) for k in range(top + 2)])  # (order, pair, (xy, xx, yy))
    below = np.argwhere((table[:top, :, 0] != 0.0) & (np.arange(top)[:, None] < orders))
    if len(below):
        k, i = below[0].tolist()
        raise ValueError(f"bound requires every moment below n to vanish; moment {k} "
                         f"is {math.ldexp(table[k, i, 0], rows.exp * k)}")
    lead, rhs = order_terms(np.multiply(ts, rows.scale), orders, table[orders, pair, 0],
                            table[orders + 1, pair, 1] + table[orders + 1, pair, 2])
    for i, j in np.argwhere(~(np.isfinite(lead) & np.isfinite(rhs)))[:1].tolist():
        raise ArithmeticError(f"the leading term or bound of pair {rows.pairs[block][i]} "
                              f"at t={float(ts[j])!r} is not finite")
    h, w = (block_elements(rows, block, ts, routes, unitary) for unitary in (False, True))
    quarter = (orders % 4)[:, None]  # e^{-itL}'s n-th phase (-i)^n: 1, -i, -1, i
    # |h - (-1)^n lead| is heat_leading's |h - |lead||: lead has sign (-1)^n or is +-0
    heat = np.abs(h - np.abs(lead))
    lhs = np.stack([heat, np.abs(np.hypot(w.real, w.imag) - np.abs(lead)), heat,
                    np.hypot(w.real - np.choose(quarter, [lead, 0.0, -lead, 0.0]),
                             w.imag - np.choose(quarter, [0.0, -lead, 0.0, lead]))], axis=-1)
    return lhs, np.broadcast_to(rhs[..., None], lhs.shape)


def _pair_reports(x, y, n, ts, lhs, rhs, tags):
    """One pair's (t, tag) arrays of :func:`_order_reports` as BoundReports, per t one
    per tag of ``tags``, a subsequence of TAGS."""
    return [BoundReport(tag, x, y, t, n, lhs_t[TAGS.index(tag)], rhs_t[0])
            for t, lhs_t, rhs_t in zip(ts, lhs.tolist(), rhs.tolist()) for tag in tags]


def _order_bound(source, x, y, t, n, tag):
    rows = PairRows(_resolve(source), [(x, y)])
    lhs, rhs = _order_reports(rows, slice(None), [n], [t], [select_route(rows, t, "auto")])
    return _pair_reports(x, y, n, [t], lhs[0], rhs[0], (tag,))[0]


def semigroup_bound(source, x, y, t, n: int) -> BoundReport:
    """Short-time bound for the heat semigroup at order n <= first nonzero order.

    lhs: |<1_x, e^{-tL} 1_y> - (-t)^n <1_x, L^n 1_y> / n!|
    rhs: t^(n+1) (<1_x, L^(n+1) 1_x> + <1_y, L^(n+1) 1_y>) / (2 (n+1)!)
    """
    return _order_bound(source, x, y, t, n, "semigroup")


def unitary_bound(source, x, y, t, n: int) -> BoundReport:
    """Short-time bound for the unitary group; same right-hand side as the semigroup."""
    return _order_bound(source, x, y, t, n, "unitary")


def leading_term_check(source, x, y, t, cutoff=None) -> tuple[BoundReport, BoundReport]:
    """The heat_leading and wave_leading reports of :func:`pair_verification_reports` at t.

    heat lhs: |<1_x, e^{-tL} 1_y>  - t^d |<1_x, L^d 1_y>| / d!|
    wave lhs: ||<1_x, e^{-itL} 1_y>| - t^d |<1_x, L^d 1_y>| / d!|
    shared rhs: t^(d+1) (<1_x, L^(d+1) 1_x> + <1_y, L^(d+1) 1_y>) / (2 (d+1)!)
    """
    return tuple(pair_verification_reports(source, x, y, [t], cutoff=cutoff)[:2])


def pair_verification_reports(source, x, y, ts, cutoff=None, method="auto"):
    """Bound reports for one vertex pair across a t grid, per t one per tag of TAGS.

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
    return next(verification_reports(graph, [(x, y, d)], ts, method))


def verification_reports(source, pairs, ts, method="auto"):
    """The reports of :func:`pair_verification_reports` for many connected pairs,
    one list per (x, y, d) triple of ``pairs``, read from :func:`verification_blocks`."""
    for block, lhs, rhs in verification_blocks(source, pairs, ts, method):
        for (x, y, d), lhs_p, rhs_p in zip(block, lhs, rhs):
            yield _pair_reports(x, y, d, ts, lhs_p, rhs_p, TAGS)


def verification_blocks(source, pairs, ts, method="auto"):
    """Yield (triples, lhs, rhs) for each block of the (x, y, d) triples ``pairs``,
    d being the pair's hop distance: its reports' sides as (pair, t, tag) arrays.

    Every pair reads its moments from one block stream over the pairs' distinct
    vertices (see :class:`PairRows`), and each value is bitwise the one-pair
    value.  The route is chosen once per t.
    """
    pairs = list(pairs)
    rows = PairRows(_resolve(source), [(x, y) for x, y, _ in pairs])
    routes = [select_route(rows, t, method) for t in ts]
    size = max(1, BLOCK_ELEMENTS // max(len(ts), 1))  # pairs per block
    for start in range(0, len(pairs), size):
        triples = pairs[start:start + size]
        block, orders = slice(start, start + len(triples)), np.array([d for *_, d in triples])
        leads = np.stack([rows.table(block, n)[:, 0] for n in range(orders.max() + 1)])
        for i in np.flatnonzero(leads[orders, np.arange(len(orders))] == 0.0)[:1].tolist():
            raise ArithmeticError(
                "the moment of pair ({}, {}) at its hop distance {} underflowed to 0.0; in exact "
                "arithmetic it is nonzero, with sign (-1)^{}".format(*triples[i], triples[i][2]))
        yield (triples, *_order_reports(rows, block, orders, ts, routes))


def leading_exponent_fit(source, x, y, t0: float = 1e-3, ratio: float = 0.1,
                         count: int = 4, group: str = "heat") -> ExponentFit:
    """Fit the exponent of |element| ~ const * t^slope on a geometric grid.

    Forces the series route (the grid lives where eigen evaluation cancels),
    so t0 * lambda_max must stay <= 1/2, and on procedural sources t0 times the
    Gershgorin bound of the pair's 1-neighborhood <= 2, as :func:`select_route`
    gates it.  The slope estimates the hop distance; with the series evaluator
    the fit bias is O(t0).
    """
    return next(exponent_fits(source, [(x, y)], t0, ratio, count, group))


def exponent_fits(source, pairs, t0: float = 1e-3, ratio: float = 0.1,
                  count: int = 4, group: str = "heat"):
    """Yield the :func:`leading_exponent_fit` of each (x, y) of ``pairs`` in order,
    bitwise, from one :class:`PairRows` stream, a block at a time, whose pairs up to
    the first that underflows share one ``np.polyfit`` (a column each, fitted as alone);
    the grid is checked and the route chosen once, when the first fit is taken."""
    if t0 <= 0:
        raise ValueError("t0 must be positive")
    if not 0 < ratio < 1:
        raise ValueError("ratio must lie strictly between 0 and 1")
    if count < 3:
        raise ValueError("need at least 3 grid points")
    if group not in ("heat", "wave"):
        raise ValueError(f"unknown group {group!r}; expected 'heat' or 'wave'")
    rows = PairRows(_resolve(source), pairs)
    if select_route(rows, t0, "auto") == "eigen":
        raise ValueError(f"t0={t0} is too large for the series route: t0 * lambda_max > 1/2")
    grid = [t0 * ratio ** k for k in range(count)]
    xs = np.log(grid)
    size = max(1, BLOCK_ELEMENTS // count)  # pairs per block
    for start in range(0, len(pairs), size):
        values = block_elements(rows, slice(start, start + size), grid,
                                ["series"] * count, unitary=(group == "wave"))
        table = np.hypot(values.real, values.imag).tolist()  # |value| as Python's abs takes it
        end = next((j for j, row in enumerate(table) if min(row) <= UNDERFLOW_FLOOR), len(table))
        logs = [[math.log(value) for value in row] for row in table[:end]]
        ys = np.array(logs).reshape(-1, count).T  # a column per pair, each fitted as alone
        slopes, intercepts = np.polyfit(xs, ys, 1)
        residuals = np.abs(ys - (slopes * xs[:, None] + intercepts)).max(axis=0)
        fits = zip(pairs[start:start + end], logs, slopes.tolist(), intercepts.tolist(),
                   residuals.tolist())
        for (x, y), row, slope, intercept, residual in fits:
            yield ExponentFit(x, y, group, tuple(grid), tuple(row), slope, intercept, residual)
        if end < len(table):
            low = next(k for k, value in enumerate(table[end]) if value <= UNDERFLOW_FLOOR)
            raise ArithmeticError(
                f"element underflowed at t={grid[low]} after {low} of {count} grid "
                f"points (|value|={table[end][low]}); collected grid {grid[:low]}")


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
    rows = PairRows(_resolve(source), [(x, y)])
    order = next((k for k in range(n + 1) if rows.floats(0, k)[0] != 0.0), None)
    if order is not None:
        raise ValueError(f"pair ({x}, {y}) has a nonzero moment at order {order} <= {n}; "
                         "the vanishing-order witness does not apply")
    ts = list(t_samples)
    lhs, rhs = _order_reports(rows, slice(None), [n], ts, [select_route(rows, t, method) for t in ts])
    samples = _pair_reports(x, y, n, ts, lhs[0], rhs[0], ("semigroup", "unitary"))
    (xy, _, _), (_, xx, yy) = rows.floats(0, n), rows.floats(0, n + 1)
    constant = order_terms([rows.scale], [n], [xy], [xx + yy])[1].item()  # the bound at t = 1
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

"""Reference values computed without graphheat.

Everything here works on a graph as read by :mod:`graphdata` and computes
with Python integers and mpmath only:

* hop distances by breadth-first search over the edge list;
* moments <1_x, L^k 1_y> = m(x) (L^k 1_y)(x) by repeated sparse application
  of L in mpmath at ``MOMENT_DPS`` digits;
* heat and wave matrix elements by uniformization.  With
  q = max_x (sum_y b(x,y) + c(x)) / m(x) the matrix P = I - L/q is entrywise
  non-negative with row sums at most 1, and

      e^{-tL}  = e^{-qt}  sum_k (qt)^k / k! P^k,
      e^{-itL} = e^{-iqt} sum_k (iqt)^k / k! P^k.

  The vectors P^k 1_y are kept in fixed point with ``FIXED_BITS`` fractional
  bits, and the coefficients come from mpmath.  Since |P^k 1_y| <= 1
  entrywise, the truncated Poisson tail bounds the error: the series stops
  once (qt)^(K+1)/(K+1)! < 10^-TAIL_DIGITS with K+1 > 2qt, so every element
  is accurate to about m(x) * 1e-49 absolute, for heat and for wave alike
  (the fixed-point rounding, at most e^{qt} K 2^-FIXED_BITS, is far below);
* Bessel closed forms on the integer line: <1_0, e^{-tL} 1_d> = e^{-2t} I_d(2t)
  and |<1_0, e^{-itL} 1_d>| = |J_d(2t)|.
"""

from __future__ import annotations

import math

import mpmath

from graphdata import Graph, hop_distances

MOMENT_DPS = 50
COEFF_DPS = 80
FIXED_BITS = 320
TAIL_DIGITS = 50
INF = math.inf


def _fixed(value) -> int:
    return int(mpmath.nint(mpmath.ldexp(value, FIXED_BITS)))


class GraphReference:
    """Distances, moments and propagator elements of one finite graph."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.adj = graph.adjacency()
        self._dist = {}
        self._moments = {}
        self._powers = {}
        self._coeffs = {}
        with mpmath.workdps(COEFF_DPS):
            self._m = [mpmath.mpf(v) for v in graph.measure]
            # L = diag - rows: diagonal (sum_y b(x,y) + c(x)) / m(x), off-diagonal b(x,y) / m(x)
            self._diag = [(mpmath.fsum(mpmath.mpf(w) for _, w in row) + c) / m
                          for row, c, m in zip(self.adj, graph.killing, self._m)]
            self._rows = [[(nbr, mpmath.mpf(w) / m) for nbr, w in row]
                          for row, m in zip(self.adj, self._m)]
            self.q = max(self._diag, default=mpmath.mpf(0))
            q = self.q or mpmath.mpf(1)
            # P = I - L/q row by row: (column, fixed-point entry), diagonal first
            self._prows = [[(x, max(0, _fixed(1 - self._diag[x] / q)))]
                           + [(nbr, _fixed(r / q)) for nbr, r in self._rows[x]]
                           for x in range(graph.n)]

    # -- distances ---------------------------------------------------------

    def distance(self, x, y):
        if x not in self._dist:
            self._dist[x] = hop_distances(self.adj, x)
        return self._dist[x].get(y, INF)

    # -- moments -----------------------------------------------------------

    def moment(self, x, y, k):
        """<1_x, L^k 1_y> as an mpf at MOMENT_DPS digits."""
        stream = self._moments.setdefault(y, [{y: mpmath.mpf(1)}])
        with mpmath.workdps(MOMENT_DPS):
            while len(stream) <= k:
                stream.append(self._apply_laplacian(stream[-1]))
            return self._m[x] * stream[k].get(x, mpmath.mpf(0))

    def _apply_laplacian(self, f):
        targets = set(f)
        for v in f:
            targets.update(nbr for nbr, _ in self.adj[v])
        out = {}
        for x in targets:
            acc = self._diag[x] * f[x] if x in f else mpmath.mpf(0)
            for nbr, w in self._rows[x]:
                if nbr in f:
                    acc -= w * f[nbr]
            out[x] = acc
        return out

    # -- propagators -------------------------------------------------------

    def _power_column(self, y, k_max):
        """Fixed-point values (P^k 1_y) for k = 0..k_max, each a list over vertices."""
        powers = self._powers.setdefault(y, [[(1 << FIXED_BITS) if v == y else 0
                                              for v in range(self.graph.n)]])
        rows = self._prows
        while len(powers) <= k_max:
            cur = powers[-1]
            powers.append([sum(p * cur[z] for z, p in row) >> FIXED_BITS for row in rows])
        return powers

    def _coefficients(self, t, unitary):
        """Fixed-point (re, im) of e^{-qt}(qt)^k/k! or e^{-iqt}(iqt)^k/k!, k = 0..K."""
        key = (t, unitary)
        if key not in self._coeffs:
            self._coeffs[key] = self._series_coefficients(t, unitary)
        return self._coeffs[key]

    def _series_coefficients(self, t, unitary):
        with mpmath.workdps(COEFF_DPS):
            a = self.q * mpmath.mpf(t)
            phase = mpmath.expj(-a) if unitary else mpmath.exp(-a)
            term = mpmath.mpf(1)
            tail = mpmath.mpf(10) ** -TAIL_DIGITS
            out = []
            k = 0
            while True:
                c = phase * term * (1j ** (k % 4) if unitary else 1)
                out.append((_fixed(mpmath.re(c)), _fixed(mpmath.im(c))))
                k += 1
                term = term * a / k
                if k > 2 * a and term < tail:
                    return out

    def element(self, x, y, t, unitary=False):
        """<1_x, e^{-tL} 1_y> (an mpf) or <1_x, e^{-itL} 1_y> (an mpc)."""
        coeffs = self._coefficients(t, unitary)
        powers = self._power_column(y, len(coeffs) - 1)
        re = sum(c[0] * p[x] for c, p in zip(coeffs, powers))
        with mpmath.workdps(COEFF_DPS):
            scale = self._m[x] * mpmath.ldexp(1, -2 * FIXED_BITS)
            if not unitary:
                return scale * re
            im = sum(c[1] * p[x] for c, p in zip(coeffs, powers))
            return mpmath.mpc(scale * re, scale * im)


def line_heat(d, t):
    """<1_0, e^{-tL} 1_d> on the unit integer line."""
    t = mpmath.mpf(t)
    return mpmath.exp(-2 * t) * mpmath.besseli(d, 2 * t)


def line_wave_modulus(d, t):
    """|<1_0, e^{-itL} 1_d>| on the unit integer line."""
    return abs(mpmath.besselj(d, 2 * mpmath.mpf(t)))


def slope_fit(grid, logs):
    """Least-squares slope of logs against log(grid), in mpmath."""
    xs = [mpmath.log(mpmath.mpf(t)) for t in grid]
    mx = mpmath.fsum(xs) / len(xs)
    my = mpmath.fsum(logs) / len(logs)
    return (mpmath.fsum((a - mx) * (b - my) for a, b in zip(xs, logs))
            / mpmath.fsum((a - mx) ** 2 for a in xs))

"""The compiled Laplacian kernel, the moment streams read from it, and the route gate."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from graphheat import (LaplacianOperator, ProceduralGraph, WeightedGraph, ball,
                       cycle_graph, decompose, distances_from, heat_element,
                       integer_line, moment_table, pair_verification_reports,
                       path_graph, path_sum_moment, random_connected_graph,
                       spectral_radius_bound, wave_element)
from graphheat.moments import INITIAL_RADIUS, PairMoments, first_nonzero_moments
from graphheat.spectral import pair_element, select_route

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def spread():
    """Positive floats spread log-uniformly over 1e-8..1e8."""
    return st.floats(-8.0, 8.0).map(lambda e: 10.0 ** e)


@st.composite
def spread_graphs(draw):
    """Small graphs with isolated vertices, killing, and spread weights and measures."""
    n = draw(st.integers(1, 7))
    edges = [(u, v, draw(spread())) for u in range(n) for v in range(u + 1, n)
             if draw(st.booleans())]
    measure = [draw(spread()) for _ in range(n)]
    killing = [draw(st.sampled_from([0.0, 1.0])) * draw(spread()) for _ in range(n)]
    return WeightedGraph(n, edges, measure, killing)


@SETTINGS
@given(st.integers(0, 10_000), st.integers(2, 7), st.booleans())
def test_moments_match_path_sums(seed, n, killing):
    g = random_connected_graph(n, 0.4, seed, random_killing=killing)
    op = LaplacianOperator(g)
    for x in g.vertices:
        for y in range(x, n):
            values = moment_table(op, x, y, 5).values
            for order in range(1, 6):
                oracle = path_sum_moment(op, x, y, order)
                assert abs(values[order] - oracle) <= 1e-10 * abs(oracle), (x, y, order)


@SETTINGS
@given(spread_graphs())
def test_moments_vanish_below_the_hop_distance_with_sign_at_it(g):
    op = LaplacianOperator(g)
    for y in g.vertices:
        dist = distances_from(g, y)
        firsts = first_nonzero_moments(op, y, g.n)
        assert {v: n for v, (n, _) in firsts.items()} == dist
        for x in g.vertices:
            table = moment_table(op, x, y, g.n).values
            pm = PairMoments(g, x, y)
            if x not in dist:
                assert all(v == 0.0 for v in table)
                assert all(pm[k][0] == 0.0 for k in range(g.n + 1))
                continue
            d = dist[x]
            assert all(v == 0.0 for v in table[:d])
            assert all(pm[k][0] == 0.0 for k in range(d))
            assert (-1) ** d * table[d] > 0
            assert pm.moments(d)[0] == table[d] == firsts[x][1]


def _weight(u):
    return 1.0 + (u % 3) / 2.0


def _chain():
    """A procedural chain whose weights and measures vary along it."""
    return ProceduralGraph(lambda u: [(u - 1, _weight(u - 1)), (u + 1, _weight(u))],
                           measure_fn=lambda u: 1.0 + (u % 5) / 4.0, max_degree=2)


def test_ball_streams_after_two_doublings_match_the_finite_path():
    orders = 2 * INITIAL_RADIUS + 5  # past the radii INITIAL_RADIUS and 2 INITIAL_RADIUS
    n = 4 * orders
    offset = n // 2
    path = WeightedGraph(n, [(u, u + 1, _weight(u - offset)) for u in range(n - 1)],
                         measure=[1.0 + ((u - offset) % 5) / 4.0 for u in range(n)])
    for source, finite in ((integer_line(), path_graph(n)), (_chain(), path)):
        for y in (3, 30):  # 30: the stream of 1_y is read far from its center
            lazy = moment_table(LaplacianOperator(source), 0, y, orders).values
            assert lazy == moment_table(LaplacianOperator(finite), offset, offset + y,
                                        orders).values
        lazy_pm = PairMoments(source, -2, 3)
        finite_pm = PairMoments(finite, offset - 2, offset + 3)
        # the scales may differ, but powers of two rescale exactly
        assert ([lazy_pm.moments(k) for k in range(orders)]
                == [finite_pm.moments(k) for k in range(orders)])


def test_targets_outside_the_ball_read_exact_zeros():
    # on the half-line ..., -2, -1, 0 the center 0 is the last row of every ball around it
    half = ProceduralGraph(lambda u: [(u - 1, 1.0)] + ([(u + 1, 1.0)] if u < 0 else []),
                           max_degree=2)
    orders = 2 * INITIAL_RADIUS + 10
    radius = 3 * orders  # no walk from 0 of at most ``orders`` steps meets the boundary
    finite = ball(half, 0, radius)  # label v is vertex v + radius
    for x in (-(orders - 3), -5, 0):
        assert (moment_table(LaplacianOperator(half), x, 0, orders).values
                == moment_table(LaplacianOperator(finite), x + radius, radius, orders).values)


def test_streams_on_a_labelled_ball_use_vertex_ids():
    b = ball(_chain(), 0, 6)  # labels -6..6 differ from the vertex ids 0..12
    plain = WeightedGraph(b.n, list(b.edges()), [b.measure(v) for v in b.vertices])
    for x, y in [(1, 4), (0, 12), (5, 5)]:
        assert (moment_table(LaplacianOperator(b), x, y, 8).values
                == moment_table(LaplacianOperator(plain), x, y, 8).values)
        for t in (1e-3, 0.1):
            assert heat_element(b, x, y, t) == heat_element(plain, x, y, t)
            assert wave_element(b, x, y, t) == wave_element(plain, x, y, t)


def test_shared_streams_reproduce_single_elements():
    ts = [1e-4, 1e-3, 1e-2, 0.05, 0.1]
    for seed in range(6):
        g = random_connected_graph(10, 0.3, seed, random_killing=True)
        dist = {x: distances_from(g, x) for x in g.vertices}
        for x in g.vertices:
            for y in range(x, g.n):
                pm = PairMoments(g, x, y)
                for t in ts:
                    for unitary, single in ((False, heat_element), (True, wave_element)):
                        shared = pair_element(pm, t, "series", unitary)
                        alone = single(g, x, y, t, method="series")
                        assert abs(shared - alone) <= 1e-13 * abs(alone)
                reports = pair_verification_reports(g, x, y, ts, method="series")
                d = dist[x][y]
                m_d = moment_table(LaplacianOperator(g), x, y, d).values[d]
                for rep in reports:
                    h = heat_element(g, x, y, rep.t, method="series")
                    w = wave_element(g, x, y, rep.t, method="series")
                    lead = rep.t ** d * abs(m_d) / math.factorial(d)
                    expected = {"heat_leading": abs(h - lead), "wave_leading": abs(abs(w) - lead),
                                "semigroup": abs(h - (-rep.t) ** d * m_d / math.factorial(d)),
                                "unitary": abs(w - (-1j * rep.t) ** d * m_d / math.factorial(d))}
                    assert abs(rep.lhs - expected[rep.which]) <= 1e-13 * abs(h)


def test_route_gate_keeps_the_lambda_max_choice():
    # on cycle:14 eigh rounds lambda_max = 4 up past the Gershgorin bound 4
    for seed in range(12):
        graphs = [random_connected_graph(3 + seed, 0.3, seed, random_killing=(seed % 2 == 0)),
                  path_graph(2 + seed), cycle_graph(14 + 2 * seed)]
        for g in graphs:
            lam = decompose(g).largest_eigenvalue
            bound = spectral_radius_bound(g)
            for t in [1e-3, 0.05, 0.1, 0.25, 0.5 / lam, 0.5 / lam * (1 + 1e-15), 0.5 / bound, 1.0]:
                # a fresh copy has no cached decomposition, so the gate decides alone
                fresh = WeightedGraph(g.n, list(g.edges()), [g.measure(v) for v in g.vertices],
                                      [g.killing(v) for v in g.vertices])
                expected = "series" if t * lam <= 0.5 else "eigen"
                assert select_route(fresh, t, "auto") == expected, (seed, t)


def test_array_kernel_matches_dense_matrix():
    for seed in range(5):
        g = random_connected_graph(12, 0.3, seed, random_killing=True)
        op = LaplacianOperator(g)
        A = np.zeros((g.n, g.n))
        for u, v, w in g.edges():
            A[u, v] = A[v, u] = -w
        for x in g.vertices:
            A[x, x] = g.weight_sum(x) + g.killing(x)
        f = np.random.default_rng(seed).standard_normal(g.n)
        measures = np.array([g.measure(x) for x in g.vertices])
        scale = np.abs(A) @ np.abs(f) / measures
        assert np.all(np.abs(op.apply(f) - A @ f / measures) <= 1e-14 * scale)

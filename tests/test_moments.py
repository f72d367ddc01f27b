import math
import warnings

import pytest

from graphheat import (EnumerationBudgetError, LaplacianOperator, UnknownAbove,
                       WeightedGraph, ball, combinatorial_distance, cycle_graph,
                       distances_from, first_nonzero_moments, integer_line,
                       leading_moment_order, moment, moment_table,
                       path_graph, path_sum_moment, random_connected_graph,
                       star_graph)


def test_moment_order_zero():
    g = WeightedGraph(2, [(0, 1, 1.0)], measure=[2.0, 3.0])
    op = LaplacianOperator(g)
    assert moment(op, 0, 0, 0) == 2.0
    assert moment(op, 0, 1, 0) == 0.0


def test_moment_below_distance_is_exact_zero():
    g = path_graph(3)
    op = LaplacianOperator(g)
    assert moment(op, 0, 2, 1) == 0.0
    assert moment(op, 0, 2, 0) == 0.0
    assert moment(op, 0, 2, 2) == 1.0  # path-sum: e(0,1) e(1,2) / m(1) = (-1)(-1)/1


def test_path_sum_order_one_is_matrix_element():
    g = path_graph(3)
    op = LaplacianOperator(g)
    assert path_sum_moment(op, 0, 1, 1) == -1.0
    assert path_sum_moment(op, 0, 0, 1) == 1.0
    assert path_sum_moment(op, 0, 2, 1) == 0.0


def test_path_sum_hand_cases():
    g = path_graph(2)
    op = LaplacianOperator(g)
    # e(0,0)^2 + e(0,1) e(1,0) / m(1) = 1 + 1
    assert path_sum_moment(op, 0, 0, 2) == 2.0
    st = star_graph(4)
    # e(0,0)^2 + three through-leaf terms: 9 + 3
    assert path_sum_moment(LaplacianOperator(st), 0, 0, 2) == 12.0


def test_path_sum_rejects_order_zero():
    op = LaplacianOperator(path_graph(2))
    with pytest.raises(ValueError):
        path_sum_moment(op, 0, 0, 0)


def test_path_sum_budget():
    op = LaplacianOperator(star_graph(6))
    with pytest.raises(EnumerationBudgetError):
        path_sum_moment(op, 0, 0, 5, budget=10)


def test_moment_matches_path_sum():
    for seed in range(12):
        g = random_connected_graph(2 + seed % 7, 0.4, seed, random_killing=(seed % 2 == 0))
        op = LaplacianOperator(g)
        for x in g.vertices:
            for y in range(x, g.n):
                for n in range(1, 6):
                    direct = moment(op, x, y, n)
                    oracle = path_sum_moment(op, x, y, n)
                    assert abs(direct - oracle) <= 1e-10 * max(1.0, abs(direct), abs(oracle))


def test_leading_order_diagonal():
    g = path_graph(3)
    op = LaplacianOperator(g)
    assert leading_moment_order(op, 1, 1, 5) == 0


def test_leading_order_equals_distance():
    for seed in range(15):
        g = random_connected_graph(3 + seed % 10, 0.3, seed)
        op = LaplacianOperator(g)
        for x in g.vertices:
            for y in g.vertices:
                d = combinatorial_distance(g, x, y)
                assert leading_moment_order(op, x, y, g.n) == d


def test_leading_order_disconnected():
    g = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    op = LaplacianOperator(g)
    assert leading_moment_order(op, 0, 3, 10) == UnknownAbove(10)


def test_moment_table_frozen_values():
    # P2: direct application by hand gives L 1_1 = 1_1 - 1_0 and
    # L^2 1_1 = 2 (1_1 - 1_0); the path-sum oracle agrees (checked below).
    op = LaplacianOperator(path_graph(2))
    tbl = moment_table(op, 0, 1, 2)
    assert tbl.values == (0.0, -1.0, -2.0)
    assert tbl.order == 1
    assert path_sum_moment(op, 0, 1, 2) == -2.0

    # P3, pair (0, 2): order-3 enumeration has the three sequences
    # (0,0,1), (0,1,1), (0,1,2) with products 1, 2, 1.
    op3 = LaplacianOperator(path_graph(3))
    tbl3 = moment_table(op3, 0, 2, 3)
    assert tbl3.values == (0.0, 0.0, 1.0, 4.0)
    assert tbl3.order == 2
    assert path_sum_moment(op3, 0, 2, 3) == 4.0


def test_moment_table_diagonal_order_zero():
    g = WeightedGraph(2, [(0, 1, 1.0)], measure=[2.5, 1.0])
    op = LaplacianOperator(g)
    tbl = moment_table(op, 0, 0, 0)
    assert tbl.values == (2.5,)
    assert tbl.order == 0


def test_sign_at_leading_order():
    for seed in range(15):
        g = random_connected_graph(3 + seed % 8, 0.35, seed)
        op = LaplacianOperator(g)
        for x in g.vertices:
            for y in g.vertices:
                d = combinatorial_distance(g, x, y)
                value = moment(op, x, y, d)
                assert (-1) ** d * value > 0


def test_moment_symmetry():
    for seed in range(8):
        g = random_connected_graph(8, 0.35, seed, random_killing=True)
        op = LaplacianOperator(g)
        for x in g.vertices:
            for y in range(x + 1, g.n):
                for n in range(5):
                    a = moment(op, x, y, n)
                    b = moment(op, y, x, n)
                    assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_moment_locality_on_procedural_source():
    line = integer_line()
    op = LaplacianOperator(line)
    for n in range(5):
        lazy = moment(op, 0, 2, n)
        finite = ball(line, 2, n + 1)
        index = {label: i for i, label in enumerate(finite.labels)}
        if 0 not in index:
            assert lazy == 0.0
            continue
        op_fin = LaplacianOperator(finite)
        assert moment(op_fin, index[0], index[2], n) == lazy


def test_first_nonzero_moments_matches_per_pair():
    for seed in range(6):
        g = random_connected_graph(9, 0.3, seed)
        op = LaplacianOperator(g)
        for y in g.vertices:
            table = first_nonzero_moments(op, y, g.n)
            dist = distances_from(g, y)
            for x in g.vertices:
                n, value = table[x]
                assert n == dist[x]
                assert value == moment(op, x, y, n)


def _far_front(warning_filter):
    """moment_table and leading_moment_order of (0, 600) on the 2,000-cycle through order 600,
    under the warnings filter given: by then the stream of 1_600 overflows far behind its front."""
    op = LaplacianOperator(cycle_graph(2000))
    with warnings.catch_warnings():
        warnings.simplefilter(warning_filter)
        return moment_table(op, 0, 600, 600), leading_moment_order(op, 0, 600, 600)


def test_unscaled_readers_hold_the_far_front():
    # the front's entries stay exact; the scaled PairRows (s = 4) read 0.0 there, as 4^-600
    # lies below the smallest subnormal
    table, order = _far_front("ignore")  # the values alone, whatever the readers warn
    assert (table.values[599], table.values[600], table.order, order) == (0.0, 1.0, 600, 600)


def test_unscaled_readers_keep_the_overflow_to_themselves():
    assert _far_front("error") == _far_front("ignore")

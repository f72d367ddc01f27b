import math

import pytest

from conftest import random_unit_vector, random_vector
from graphheat import asymptotics
from graphheat import (LaplacianOperator, ScalarFunction, WeightedGraph,
                       WeightedVector, combinatorial_distance, decompose, heat_element,
                       leading_exponent_fit, leading_term_check, moment,
                       moment_table, pair_verification_reports, path_graph,
                       random_connected_graph, semigroup_bound, taylor_bound,
                       unitary_bound, vanishing_order_check,
                       varadhan_diagnostic, verification_reports, wave_element)
from graphheat.spectral import select_route


def closed_heat_p2(t):
    return -math.expm1(-2.0 * t) / 2.0


# -- generic Taylor-remainder bound ---------------------------------------


def test_taylor_bound_cosine_passes():
    func = ScalarFunction.cosine()
    for seed in range(10):
        g = random_connected_graph(3 + seed % 8, 0.4, seed)
        dec = decompose(g)
        f = WeightedVector.basis(g, 0)
        h = WeightedVector.basis(g, g.n - 1)
        rep = taylor_bound(dec, func, f, h, 3)
        assert rep.which == "taylor"
        assert rep.passed


def test_taylor_bound_polynomial_is_tight():
    # a polynomial of degree <= order has zero remainder bound; the dual-route
    # lhs only carries rounding noise
    func = ScalarFunction.polynomial([0.5, -1.0, 0.25])
    for seed in range(5):
        g = random_connected_graph(6, 0.5, seed)
        dec = decompose(g)
        f = random_vector(g, seed)
        h = random_vector(g, seed + 50)
        rep = taylor_bound(dec, func, f, h, 4)
        assert rep.rhs == 0.0
        scale = max(1.0, dec.largest_eigenvalue ** 4)
        assert rep.lhs <= 1e-12 * scale


def test_taylor_bound_zero_vectors():
    g = path_graph(3)
    dec = decompose(g)
    zero = WeightedVector(g, {})
    rep = taylor_bound(dec, ScalarFunction.cosine(), zero, zero, 2)
    assert rep.lhs == 0.0
    assert rep.rhs == 0.0
    assert rep.passed


def test_taylor_bound_needs_enough_derivatives():
    g = path_graph(2)
    dec = decompose(g)
    f = WeightedVector.basis(g, 0)
    short = ScalarFunction(math.cos, (1.0, 0.0), 1.0)
    with pytest.raises(ValueError, match="derivatives"):
        taylor_bound(dec, short, f, f, 2)


def test_taylor_bound_exp_decay_random_vectors():
    func = ScalarFunction.exp_decay()
    for seed in range(10):
        g = random_connected_graph(3 + seed % 6, 0.5, seed)
        dec = decompose(g)
        f = random_unit_vector(g, seed, complex_values=(seed % 2 == 0))
        h = random_unit_vector(g, seed + 99, complex_values=(seed % 2 == 0))
        for order in range(5):
            assert taylor_bound(dec, func, f, h, order).passed


# -- semigroup and unitary short-time bounds ------------------------------


def test_semigroup_bound_edge_graph_formulas():
    g = path_graph(2)
    for t in [0.0, 1e-6, 1e-3, 0.1, 1.0]:
        rep = semigroup_bound(g, 0, 1, t, 1)
        assert rep.which == "semigroup"
        assert math.isclose(rep.rhs, t * t, rel_tol=1e-12, abs_tol=1e-300)
        expected_lhs = abs(closed_heat_p2(t) - t)
        assert abs(rep.lhs - expected_lhs) <= 1e-12 * max(1e-30, expected_lhs)
        assert rep.passed


def test_unitary_bound_edge_graph():
    g = path_graph(2)
    for t in [0.0, 1e-4, 1e-2, 0.5]:
        rep = unitary_bound(g, 0, 1, t, 1)
        assert rep.which == "unitary"
        assert math.isclose(rep.rhs, t * t, rel_tol=1e-12, abs_tol=1e-300)
        assert rep.passed


def test_bounds_reject_order_above_first_nonzero():
    g = path_graph(2)
    with pytest.raises(ValueError, match="vanish"):
        semigroup_bound(g, 0, 1, 0.1, 2)  # first nonzero order is 1
    with pytest.raises(ValueError, match="vanish"):
        unitary_bound(g, 0, 1, 0.1, 3)


def test_semigroup_bound_diagonal_order_zero():
    g = random_connected_graph(6, 0.5, 2, random_killing=True)
    op = LaplacianOperator(g)
    for t in [1e-3, 1e-1]:
        rep = semigroup_bound(g, 0, 0, t, 0)
        expected_rhs = t * moment(op, 0, 0, 1)
        assert math.isclose(rep.rhs, expected_rhs, rel_tol=1e-12)
        assert rep.passed


def test_bounds_below_leading_order():
    # at n = distance - 1 the subtracted term is zero, so lhs is the element itself
    g = path_graph(4)
    for t in [1e-3, 1e-2, 1e-1]:
        rep = semigroup_bound(g, 0, 3, t, 2)
        assert math.isclose(rep.lhs, heat_element(g, 0, 3, t), rel_tol=1e-12)
        assert rep.passed
        assert unitary_bound(g, 0, 3, t, 2).passed


def test_bounds_on_random_adjacent_pairs():
    for seed in range(8):
        g = random_connected_graph(3 + seed % 10, 0.4, seed, random_killing=(seed % 3 == 0))
        for t in [1e-3, 1e-2, 1e-1]:
            for u, v, _ in g.edges():
                assert semigroup_bound(g, u, v, t, 1).passed
                assert unitary_bound(g, u, v, t, 1).passed


# -- leading-order theorem ------------------------------------------------


def test_leading_term_check_edge_graph():
    g = path_graph(2)
    for t in [1e-4, 1e-2, 0.1, 1.0, 10.0]:
        heat_rep, wave_rep = leading_term_check(g, 0, 1, t)
        assert heat_rep.which == "heat_leading"
        assert wave_rep.which == "wave_leading"
        assert heat_rep.n == 1
        assert math.isclose(heat_rep.rhs, t * t, rel_tol=1e-12)  # C(0,1) = 1
        assert heat_rep.passed
        assert wave_rep.passed


def test_leading_term_check_distance_two():
    g = path_graph(3)
    op = LaplacianOperator(g)
    t = 0.05
    heat_rep, wave_rep = leading_term_check(g, 0, 2, t)
    assert heat_rep.n == 2
    expected_c = (moment(op, 0, 0, 3) + moment(op, 2, 2, 3)) / 12.0
    assert math.isclose(heat_rep.rhs, t ** 3 * expected_c, rel_tol=1e-12)
    assert heat_rep.passed and wave_rep.passed


def test_leading_term_check_same_vertex():
    g = random_connected_graph(7, 0.4, 9, random_killing=True)
    for t in [1e-3, 0.2, 2.0]:
        heat_rep, wave_rep = leading_term_check(g, 3, 3, t)
        assert heat_rep.n == 0
        assert heat_rep.passed and wave_rep.passed


def test_leading_term_check_disconnected_raises():
    g = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(ValueError, match="not connected"):
        leading_term_check(g, 0, 3, 0.1)


def test_pair_reports_all_pass_on_random_graphs():
    ts = [1e-4, 1e-3, 1e-2, 1e-1]
    for seed in range(6):
        g = random_connected_graph(3 + seed % 8, 0.35, seed, random_killing=(seed % 2 == 0))
        for x in g.vertices:
            for y in range(x, g.n):
                for rep in pair_verification_reports(g, x, y, ts):
                    assert rep.passed, (seed, x, y, rep)


def test_reports_choose_the_route_once_per_time(monkeypatch):
    g = random_connected_graph(9, 0.4, 3, random_killing=True)
    ts = [1e-3, 0.05, 0.3]
    pairs = [(x, y, combinatorial_distance(g, x, y)) for x in range(3) for y in range(x, 9)]
    expected = list(verification_reports(g, pairs, ts))
    calls = []

    def counting(source, t, method):
        calls.append(t)
        return select_route(source, t, method)

    monkeypatch.setattr(asymptotics, "select_route", counting)
    assert list(verification_reports(g, pairs, ts)) == expected
    assert calls == ts
    calls.clear()
    vanishing_order_check(WeightedGraph(2), 0, 1, 3, ts)
    assert calls == ts


# -- leading exponent fits -------------------------------------------------


def test_exponent_fit_edge_graph():
    fit = leading_exponent_fit(path_graph(2), 0, 1)
    assert 0.999 <= fit.slope <= 1.001
    assert len(fit.t_grid) == 4
    for tk, expected in zip(fit.t_grid, (1e-3, 1e-4, 1e-5, 1e-6)):
        assert math.isclose(tk, expected, rel_tol=1e-12)
    assert fit.max_residual < 1e-3


def test_exponent_fit_distance_two():
    fit = leading_exponent_fit(path_graph(3), 0, 2)
    assert 1.99 <= fit.slope <= 2.01


def test_exponent_fit_wave_group():
    fit = leading_exponent_fit(path_graph(2), 0, 1, group="wave")
    assert 0.999 <= fit.slope <= 1.001


def test_exponent_fit_refines_toward_distance():
    g = path_graph(4)
    errors = []
    for t0 in [1e-2, 1e-3, 1e-4]:
        fit = leading_exponent_fit(g, 0, 3, t0=t0)
        errors.append(abs(fit.slope - 3))
    assert errors[1] <= errors[0] + 1e-12
    assert errors[2] <= errors[1] + 1e-12


def test_exponent_fit_validates_grid():
    g = path_graph(2)
    with pytest.raises(ValueError):
        leading_exponent_fit(g, 0, 1, t0=-1.0)
    with pytest.raises(ValueError):
        leading_exponent_fit(g, 0, 1, ratio=1.5)
    with pytest.raises(ValueError):
        leading_exponent_fit(g, 0, 1, count=2)
    with pytest.raises(ValueError, match="series route"):
        leading_exponent_fit(g, 0, 1, t0=0.3)  # t0 * lambda_max = 0.6 > 1/2


def test_exponent_fit_underflow_reports_truncation():
    g = path_graph(71)  # distance 70: values sink below the floor immediately
    with pytest.raises(ArithmeticError, match="underflow"):
        leading_exponent_fit(g, 0, 70)


# -- vanishing order and the t log p diagnostic ----------------------------


def test_vanishing_order_check_disconnected():
    g = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    rep = vanishing_order_check(g, 0, 3, 5, [1e-3, 1e-2, 1e-1, 1.0])
    assert rep.passed
    assert all(h == 0.0 and w == 0.0 for _, h, w, _ in rep.samples)
    rep0 = vanishing_order_check(g, 0, 3, 0, [0.5])
    assert rep0.passed


def test_vanishing_order_check_eigen_roundoff():
    g = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    for t in [1e-2, 0.5, 1.0]:
        assert abs(heat_element(g, 0, 3, t, method="eigen")) <= 1e-10
        assert abs(wave_element(g, 0, 3, t, method="eigen")) <= 1e-10


def test_vanishing_order_check_rejects_connected_pair():
    g = path_graph(2)
    with pytest.raises(ValueError, match="nonzero moment"):
        vanishing_order_check(g, 0, 1, 5, [0.1])


def test_varadhan_envelope_on_edge_graph():
    g = path_graph(2)
    grid = [10.0 ** (-k) for k in range(2, 7)]
    values = varadhan_diagnostic(g, 0, 1, grid)
    for t, v in values:
        assert v < 0  # log of a small positive number
        assert abs(v) <= t * (abs(math.log(t)) + 1.0)


def test_varadhan_magnitudes_decrease_on_path():
    g = path_graph(6)
    grid = [10.0 ** (-k) for k in range(2, 7)]
    values = varadhan_diagnostic(g, 0, 5, grid)
    mags = [abs(v) for _, v in values]
    assert all(a > b for a, b in zip(mags, mags[1:]))
    assert mags[-1] < 0.1 * mags[0]


def test_varadhan_needs_positive_times():
    g = path_graph(2)
    with pytest.raises(ValueError, match="positive"):
        varadhan_diagnostic(g, 0, 1, [0.0, 0.1])


# -- report bookkeeping -----------------------------------------------------


def test_bound_report_margin_and_passed():
    from graphheat import BoundReport
    rep = BoundReport("semigroup", 0, 1, 0.1, 1, lhs=1.0, rhs=2.0)
    assert rep.margin == 1.0
    assert rep.passed
    rep = BoundReport("semigroup", 0, 1, 0.1, 1, lhs=2.0 + 1e-6, rhs=2.0)
    assert not rep.passed
    rep = BoundReport("semigroup", 0, 1, 0.0, 1, lhs=0.0, rhs=0.0)
    assert rep.passed

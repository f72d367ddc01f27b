import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_unit_vector, random_vector
from graphheat import asymptotics
from graphheat import (LaplacianOperator, ScalarFunction, WeightedGraph,
                       WeightedVector, combinatorial_distance, decompose, heat_element,
                       leading_exponent_fit, leading_moment_order, leading_term_check, moment,
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


def test_a_leading_term_past_the_double_range_raises():
    # t^2 <1_0, L^2 1_2> / 2 is about 5e397 at the edge weights 1e200
    g = WeightedGraph(3, [(0, 1, 1e200), (1, 2, 1e200)])
    with pytest.raises(ArithmeticError, match=r"pair \(0, 2\) at t=0\.1 is not finite"):
        semigroup_bound(g, 0, 2, 0.1, 2)


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


def test_exponent_fits_raise_at_an_underflowing_pair_after_the_earlier_fits():
    g = path_graph(80)
    size = asymptotics.BLOCK_ELEMENTS // 4  # pairs per block at the 4 default grid points
    with pytest.raises(ArithmeticError, match="after 1 of 4 grid points") as alone:
        leading_exponent_fit(g, 0, 60)
    singles = {(0, y): leading_exponent_fit(g, 0, y) for y in range(1, 10)}
    for pairs in ([(0, 1), (0, 2), (0, 60), (0, 3)],  # one block; (0, 60) underflows at t = 1e-4
                  # mid-block, before a pair that underflows at t = 1e-3
                  [(0, y) for y in range(1, 6)] + [(0, 60), (0, 75), (0, 4)],
                  # in the second block, after its first fits
                  [(0, 1 + k % 9) for k in range(size + 7)] + [(0, 60), (0, 2)]):
        low = pairs.index((0, 60))
        fits = asymptotics.exponent_fits(g, pairs)
        assert [next(fits) for _ in range(low)] == [singles[pair] for pair in pairs[:low]]
        with pytest.raises(ArithmeticError) as blocked:
            next(fits)
        assert str(blocked.value) == str(alone.value)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 600), st.integers(3, 6), st.floats(-8, -1), st.floats(0.01, 0.9),
       st.integers(0, 2 ** 32 - 1))
def test_one_polyfit_per_block_equals_the_fit_of_each_column_bitwise(pairs, count, e, ratio,
                                                                     seed):
    # exponent_fits solves a block's (count, pairs) table of logs at once; each column
    # must keep the bits of its own np.polyfit
    xs = np.log([10.0 ** e * ratio ** k for k in range(count)])
    rng = np.random.default_rng(seed)
    slopes, intercepts = rng.integers(0, 40, pairs), rng.uniform(-700, 50, pairs)
    noise = rng.standard_normal((count, pairs)) * 10.0 ** rng.uniform(-16, 1, pairs)
    ys = slopes * xs[:, None] + intercepts + noise
    batched = np.polyfit(xs, ys, 1)
    alone = np.stack([np.polyfit(xs, ys[:, j], 1) for j in range(pairs)], axis=1)
    assert batched.shape == alone.shape and batched.tobytes() == alone.tobytes()


# -- vanishing order and the t log p diagnostic ----------------------------


def test_vanishing_order_check_disconnected():
    g = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    rep = vanishing_order_check(g, 0, 3, 5, [1e-3, 1e-2, 1e-1, 1.0])
    assert rep.passed
    # one semigroup and one unitary report per time, whose lhs are |heat| and |wave|
    assert [r.which for r in rep.samples] == ["semigroup", "unitary"] * 4
    assert all(r.lhs == 0.0 for r in rep.samples)
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


@pytest.mark.parametrize("call, message", [
    (lambda g: pair_verification_reports(g, 0, 1, [0.1], which=("heat",)),
     "unknown report tag 'heat'"),
    (lambda g: leading_exponent_fit(g, 0, 1, group="wavelet"), "unknown group 'wavelet'"),
    (lambda g: moment_table(LaplacianOperator(g), 0, 1, -1), "order must be non-negative"),
    (lambda g: leading_moment_order(LaplacianOperator(g), 0, 1, -1),
     "search bound must be non-negative"),
    (lambda g: semigroup_bound(g, 0, 1, 0.1, -1), "order must be non-negative"),
    (lambda g: taylor_bound(decompose(g), ScalarFunction.cosine(), WeightedVector.basis(g, 0),
                            WeightedVector.basis(g, 1), -1), "order must be non-negative"),
], ids=["tag", "group", "moment_table", "leading_moment_order", "semigroup", "taylor"])
def test_unknown_names_and_negative_orders_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call(path_graph(3))


# -- procedural sources ---------------------------------------------------------


def test_procedural_reports_take_the_series_gate():
    from graphheat import integer_line
    line = integer_line()  # the Gershgorin bound of every 1-ball is 4
    # at t = 12 the series cancels to -1422 where e^-24 I_0(24) = 0.0819
    with pytest.raises(ValueError, match="series evaluation rejected at t=12.0"):
        list(verification_reports(line, [(0, 0, 0)], [12.0], method="series"))
    with pytest.raises(ValueError, match="series evaluation rejected at t=12.0"):
        vanishing_order_check(line, 0, 40, 5, [12.0])
    # t times the bound at 2 still runs, and passes
    [reports] = verification_reports(line, [(0, 0, 0)], [0.5], method="series")
    assert len(reports) == 4 and all(rep.passed for rep in reports)
    assert vanishing_order_check(line, 0, 40, 5, [0.5, 1e-3]).passed


def test_every_default_on_a_procedural_source_is_the_series():
    """Each reader's defaults on the line take its only route: the bits of
    method='series' where a reader takes a method, and e^{-2t} I_d(2t) to 1e-14."""
    import mpmath
    from graphheat import integer_line
    line, ts = integer_line(), [1e-4, 4e-4, 2e-3, 8e-3, 3e-2, 0.1]
    for d in range(25):
        for t in ts:
            heat = heat_element(line, 0, d, t)
            assert repr(heat) == repr(heat_element(line, 0, d, t, method="series"))
            assert repr(wave_element(line, 0, d, t)) == repr(
                wave_element(line, 0, d, t, method="series"))
            with mpmath.workdps(40):
                exact = float(mpmath.exp(-2 * mpmath.mpf(t)) * mpmath.besseli(d, 2 * mpmath.mpf(t)))
            assert abs(heat - exact) <= 1e-14 * exact, (d, t)
    for d in (0, 1, 3, 8):
        series = pair_verification_reports(line, 0, d, ts, cutoff=10, method="series")
        assert repr(pair_verification_reports(line, 0, d, ts, cutoff=10)) == repr(series)
        for i, t in enumerate(ts):  # per t: heat_leading, wave_leading, semigroup, unitary
            assert repr(leading_term_check(line, 0, d, t, cutoff=10)) == repr(
                tuple(series[4 * i:4 * i + 2]))
            assert repr(semigroup_bound(line, 0, d, t, d)) == repr(series[4 * i + 2])
    assert repr(varadhan_diagnostic(line, 0, 5, ts)) == repr(tuple(
        (t, t * math.log(heat_element(line, 0, 5, t, method="series"))) for t in ts))


def test_bound_readers_take_the_gated_series_on_procedural_sources():
    from graphheat import integer_line
    line, path = integer_line(), path_graph(101)

    def sides(rep):
        return rep.which, rep.t, rep.n, rep.lhs, rep.rhs

    # the unit line and the interior of a long unit path share their scale and every
    # moment the series reads, and auto takes series on the path at t * 4 <= 1/2
    for t in (1e-3, 0.1):
        for n in (0, 2, 3):
            for bound in (semigroup_bound, unitary_bound):
                rep = bound(line, 0, 3, t, n)
                assert sides(rep) == sides(bound(path, 50, 53, t, n))
                assert rep.passed
        checks = leading_term_check(line, 0, 3, t, cutoff=10)
        assert [sides(rep) for rep in checks] == [
            sides(rep) for rep in leading_term_check(path, 50, 53, t)]
        assert all(rep.passed for rep in checks)
    for reader in (lambda t: semigroup_bound(line, 0, 0, t, 0),
                   lambda t: unitary_bound(line, 0, 0, t, 0),
                   lambda t: leading_term_check(line, 0, 2, t, cutoff=10)):
        with pytest.raises(ValueError, match="series evaluation rejected at t=0.75"):
            reader(0.75)

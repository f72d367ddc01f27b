import cmath
import math
import re

import numpy as np
import pytest

from conftest import doubling_line, random_vector
from graphheat import spectral
from graphheat import (LaplacianOperator, ScalarFunction, WeightedGraph,
                       WeightedVector, complete_graph, decompose, dense_matrices, from_spec,
                       functional_calculus, heat_element, inner, integer_line, moment,
                       path_graph, path_sum_moment, polarized_measure,
                       propagate_heat, propagate_wave, random_connected_graph,
                       spectral_measure, spectral_measure_diag,
                       spectral_radius_bound, wave_element)
from graphheat.graphs import distances_from
from graphheat.moments import PairRows


def closed_heat_p2(t):
    # <1_0, e^{-tL} 1_1> on the unit edge: (1 - e^{-2t}) / 2, cancellation-free form
    return -math.expm1(-2.0 * t) / 2.0


def closed_wave_p2(t):
    # (1 - e^{-2it}) / 2 = sin(t)^2 + i sin(t) cos(t)
    return complex(math.sin(t) ** 2, math.sin(t) * math.cos(t))


def test_decompose_edge_graph():
    dec = decompose(path_graph(2))
    assert np.allclose(dec.eigenvalues, [0.0, 2.0], atol=1e-14)


def test_decompose_diagonal_graph():
    g = WeightedGraph(3, measure=[1.0, 2.0, 4.0], killing=[3.0, 2.0, 0.0])
    dec = decompose(g)
    assert np.allclose(sorted(dec.eigenvalues), sorted([3.0, 1.0, 0.0]), atol=1e-14)
    # eigenvectors are rescaled point masses
    for i in range(3):
        vec = dec.basis_vector(i)
        assert len(vec) == 1
        ((v, val),) = vec.items()
        assert math.isclose(abs(val), 1.0 / math.sqrt(g.measure(v)), rel_tol=1e-12)


def test_decompose_complete_graph_spectrum():
    dec = decompose(complete_graph(3))
    assert np.allclose(dec.eigenvalues, [0.0, 3.0, 3.0], atol=1e-12)


def test_decomposition_invariants():
    for seed in range(8):
        g = random_connected_graph(3 + seed % 14, 0.35, seed, random_killing=(seed % 2 == 0))
        dec = decompose(g)
        op = LaplacianOperator(g)
        scale = max(1.0, dec.largest_eigenvalue)
        assert dec.eigenvalues[0] >= 0.0
        assert all(np.diff(dec.eigenvalues) >= 0)
        for i in range(g.n):
            u = dec.basis_vector(i)
            residual = op.apply(u) - float(dec.eigenvalues[i]) * u
            assert residual.norm() <= 1e-10 * scale
            for j in range(i, g.n):
                expected = 1.0 if i == j else 0.0
                assert abs(inner(u, dec.basis_vector(j)) - expected) <= 1e-10


def test_spectral_radius_bound_dominates():
    for seed in range(8):
        g = random_connected_graph(10, 0.4, seed, random_killing=True)
        assert spectral_radius_bound(g) >= decompose(g).largest_eigenvalue - 1e-12


def test_functional_calculus_identity_and_constant():
    for seed in range(5):
        g = random_connected_graph(8, 0.4, seed)
        dec = decompose(g)
        op = LaplacianOperator(g)
        f = random_vector(g, seed, complex_values=True)
        h = random_vector(g, seed + 100, complex_values=True)
        via_spec = functional_calculus(dec, lambda s: s, f, h)
        via_apply = inner(f, op.apply(h))
        assert abs(via_spec - via_apply) <= 1e-10 * max(1.0, abs(via_apply))
        via_one = functional_calculus(dec, lambda s: 1.0, f, h)
        assert abs(via_one - inner(f, h)) <= 1e-12 * max(1.0, abs(inner(f, h)))


def test_functional_calculus_square_matches_path_sum():
    g = path_graph(2)
    dec = decompose(g)
    e0 = WeightedVector.basis(g, 0)
    value = functional_calculus(dec, ScalarFunction.polynomial([0, 0, 1]), e0, e0)
    assert abs(value - 2.0) <= 1e-12
    assert path_sum_moment(LaplacianOperator(g), 0, 0, 2) == 2.0


def test_diag_measure_mass_is_squared_norm():
    for seed in range(6):
        g = random_connected_graph(9, 0.4, seed)
        dec = decompose(g)
        h = random_vector(g, seed, complex_values=True)
        mass = spectral_measure_diag(dec, h).total_mass()
        assert abs(mass - h.norm() ** 2) <= 1e-12 * max(1.0, h.norm() ** 2)
        assert all(w >= 0 for _, w in spectral_measure_diag(dec, h).atoms)


def test_bilinear_measure_diagonal_case():
    g = random_connected_graph(7, 0.5, 1)
    dec = decompose(g)
    f = random_vector(g, 42, complex_values=True)
    bil = spectral_measure(dec, f, f).atoms
    diag = spectral_measure_diag(dec, f).atoms
    for (lam1, w1), (lam2, w2) in zip(bil, diag):
        assert lam1 == lam2
        assert abs(w1 - w2) <= 1e-13 * max(1.0, abs(w2))


def test_bilinear_measure_integrates_calculus():
    g = random_connected_graph(8, 0.4, 7)
    dec = decompose(g)
    f = random_vector(g, 3, complex_values=True)
    h = random_vector(g, 4, complex_values=True)
    measure = spectral_measure(dec, f, h)
    for k in range(6):
        lhs = measure.integrate(lambda s, k=k: s ** k)
        rhs = functional_calculus(dec, lambda s, k=k: s ** k, f, h)
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))


def test_polarization_identity():
    for seed in range(6):
        g = random_connected_graph(8, 0.4, seed)
        dec = decompose(g)
        f = random_vector(g, 7 * seed + 1, complex_values=True)
        h = random_vector(g, 7 * seed + 2, complex_values=True)
        direct = spectral_measure(dec, f, h).atoms
        combined = polarized_measure(dec, f, h).atoms
        scale = max(1.0, max(abs(w) for _, w in direct))
        for (lam1, w1), (lam2, w2) in zip(direct, combined):
            assert lam1 == lam2
            assert abs(w1 - w2) <= 1e-12 * scale


def test_heat_element_closed_form():
    dec = decompose(path_graph(2))
    for k in range(7):
        t = 10.0 ** (-k)
        value = heat_element(dec, 0, 1, t)
        assert abs(value - closed_heat_p2(t)) <= 1e-12 * closed_heat_p2(t)


def test_wave_element_closed_form():
    dec = decompose(path_graph(2))
    for k in range(7):
        t = 10.0 ** (-k)
        value = wave_element(dec, 0, 1, t)
        closed = closed_wave_p2(t)
        assert abs(value - closed) <= 1e-12 * abs(closed)


def test_methods_agree_on_edge_graph():
    dec = decompose(path_graph(2))
    for t in [1e-4, 1e-2, 0.1, 0.25]:
        h_eig = heat_element(dec, 0, 1, t, method="eigen")
        h_ser = heat_element(dec, 0, 1, t, method="series")
        assert abs(h_eig - h_ser) <= 1e-12 * abs(h_ser)
        w_eig = wave_element(dec, 0, 1, t, method="eigen")
        w_ser = wave_element(dec, 0, 1, t, method="series")
        assert abs(w_eig - w_ser) <= 1e-12 * abs(w_ser)


def test_methods_agree_on_random_graphs():
    for seed in range(6):
        g = random_connected_graph(8, 0.4, seed, random_killing=(seed % 2 == 0))
        dec = decompose(g)
        t_ok = 0.4 / max(dec.largest_eigenvalue, 1.0)
        for x, y in [(0, 0), (0, g.n - 1), (1, g.n // 2)]:
            h_eig = heat_element(dec, x, y, t_ok, method="eigen")
            h_ser = heat_element(dec, x, y, t_ok, method="series")
            assert abs(h_eig - h_ser) <= 1e-10 * max(1e-30, abs(h_ser))
            w_eig = wave_element(dec, x, y, t_ok, method="eigen")
            w_ser = wave_element(dec, x, y, t_ok, method="series")
            assert abs(w_eig - w_ser) <= 1e-10 * max(1e-30, abs(w_ser))


def test_elements_at_time_zero():
    g = WeightedGraph(2, [(0, 1, 1.0)], measure=[2.0, 5.0])
    for method in ("eigen", "series", "auto"):
        assert heat_element(g, 0, 0, 0.0, method=method) == pytest.approx(2.0, rel=1e-14)
        assert heat_element(g, 0, 1, 0.0, method=method) == pytest.approx(0.0, abs=1e-15)
    assert heat_element(g, 0, 1, 0.0, method="series") == 0.0
    assert wave_element(g, 1, 1, 0.0, method="series") == 5.0


def test_disconnected_pair_is_exact_zero_under_series():
    g = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    for t in [0.0, 1e-3, 0.3, 1.0]:
        assert heat_element(g, 0, 3, t, method="series") == 0.0
        assert wave_element(g, 0, 3, t, method="series") == 0.0


def test_series_guard_rejects_large_t():
    g = path_graph(2)  # top eigenvalue 2
    with pytest.raises(ValueError, match="series"):
        heat_element(g, 0, 1, 1.5, method="series")


def test_auto_on_a_procedural_source_is_the_series():
    from graphheat import integer_line
    line = integer_line()
    # the series is the oracle's only route, so auto takes it, bit for bit
    value = heat_element(line, 0, 1, 0.1)
    assert value > 0 and value.hex() == heat_element(line, 0, 1, 0.1, method="series").hex()
    assert repr(wave_element(line, 0, 1, 0.1)) == repr(
        wave_element(line, 0, 1, 0.1, method="series"))
    # past the gate, only a finite graph's message offers the eigen route
    with pytest.raises(ValueError, match="rejected at t=12.0: .* costs accuracy$"):
        heat_element(line, 0, 0, 12.0, method="series")
    with pytest.raises(ValueError, match="rejected at t=12.0: .*; use eigen$"):
        heat_element(path_graph(3), 0, 0, 12.0, method="series")


def test_series_gate_on_procedural_sources():
    from graphheat import integer_line, leading_exponent_fit
    line = integer_line()  # the Gershgorin bound of every 1-ball is 4
    # at t = 12 the alternating terms cancel to -1422 against e^-24 I_0(24) = 0.0819
    for element in (heat_element, wave_element):
        with pytest.raises(ValueError, match="series evaluation rejected at t=12.0"):
            element(line, 0, 0, 12.0, method="series")
    with pytest.raises(ValueError, match="series evaluation rejected at t=0.75"):
        leading_exponent_fit(line, 0, 3, t0=0.75)
    # t times the bound at 2 still runs, to the accuracy of the series
    exact = math.exp(-1.0) * sum(0.25 ** k / math.factorial(k) ** 2 for k in range(30))
    assert abs(heat_element(line, 0, 0, 0.5, method="series") - exact) <= 1e-14 * exact


def test_series_rejects_terms_that_are_not_finite():
    # the stopping rule took SERIES_RTOL * abs(-inf) for a met target and returned -inf;
    # under the error filter for RuntimeWarning the overflow must surface as this error
    # the stream overflows at order 69, also past the zero term of order 0 at (0, 1)
    for pair, ts in (((0, 0), (0.05, 0.1, 0.2)), ((0, 1), (0.05, 0.1))):
        for t in ts:
            for element in (heat_element, wave_element):
                with pytest.raises(ArithmeticError, match="at order 69 short"):
                    element(doubling_line(), *pair, t, method="series")


def test_array_series_rejects_terms_that_are_not_finite():
    rows = PairRows(doubling_line(), [(0, 0), (0, 1)])  # two pairs take the array series
    for unitary in (False, True):
        with pytest.raises(ArithmeticError, match="at order [1-9][0-9]? short"):
            spectral.block_elements(rows, slice(None), [0.05, 0.1], ["series"] * 2, unitary)


def test_negative_time_rejected():
    g = path_graph(2)
    with pytest.raises(ValueError, match="non-negative"):
        heat_element(g, 0, 1, -0.1)


def test_semigroup_law():
    for seed in range(4):
        g = random_connected_graph(8, 0.4, seed)
        dec = decompose(g)
        s, t = 0.3, 0.7
        for x in g.vertices:
            for y in g.vertices:
                direct = heat_element(dec, x, y, s + t, method="eigen")
                composed = math.fsum(
                    heat_element(dec, x, z, s, method="eigen")
                    * heat_element(dec, z, y, t, method="eigen") / g.measure(z)
                    for z in g.vertices)
                assert abs(direct - composed) <= 1e-10 * max(1e-30, abs(direct))


def test_heat_symmetry():
    g = random_connected_graph(9, 0.4, 11)
    dec = decompose(g)
    for t in [0.01, 0.1, 1.0]:
        for x in range(g.n):
            for y in range(x + 1, g.n):
                a = heat_element(dec, x, y, t)
                b = heat_element(dec, y, x, t)
                assert abs(a - b) <= 1e-12 * max(1e-30, abs(a))


def test_positivity_improving():
    for seed in range(4):
        g = random_connected_graph(8, 0.3, seed)
        dec = decompose(g)
        for t in [0.01, 0.1, 1.0]:
            for x in g.vertices:
                for y in g.vertices:
                    assert heat_element(dec, x, y, t) > 0


def test_stochastic_completeness_without_killing():
    for seed in range(5):
        g = random_connected_graph(10, 0.35, seed)  # c == 0
        dec = decompose(g)
        ones = WeightedVector(g, {v: 1.0 for v in g.vertices})
        for t in [0.1, 1.0, 5.0]:
            evolved = propagate_heat(dec, ones, t)
            assert all(abs(evolved[v] - 1.0) <= 1e-10 for v in g.vertices)


def test_wave_propagator_unitary():
    for seed in range(5):
        g = random_connected_graph(9, 0.4, seed, random_killing=True)
        dec = decompose(g)
        f = random_vector(g, seed, complex_values=True)
        for t in [0.2, 1.0, 3.0]:
            assert abs(propagate_wave(dec, f, t).norm() - f.norm()) <= 1e-10 * f.norm()


def test_wave_element_bounded_by_measures():
    g = random_connected_graph(8, 0.5, 3)
    dec = decompose(g)
    for t in [0.1, 1.0, 10.0]:
        for x in g.vertices:
            for y in g.vertices:
                bound = math.sqrt(g.measure(x) * g.measure(y))
                assert abs(wave_element(dec, x, y, t)) <= bound * (1 + 1e-12)


def test_a_decomposition_passed_in_is_not_built_again(monkeypatch):
    g = path_graph(6)
    built = []

    def counting(graph, *args, **kwargs):
        built.append(graph)
        return decompose(graph, *args, **kwargs)

    dec = decompose(g)
    monkeypatch.setattr(spectral, "decompose", counting)
    via_dec = heat_element(dec, 0, 5, 3.0)
    assert heat_element(g, 0, 5, 3.0) == via_dec
    assert wave_element(LaplacianOperator(g), 0, 5, 3.0) == wave_element(g, 0, 5, 3.0)
    assert built == []


@pytest.mark.parametrize("call, error, message", [
    (lambda: decompose(WeightedGraph.from_adjacency([{1: -1.0}, {0: -1.0}])), ArithmeticError,
     "eigenvalue -2.0 is negative"),
    (lambda: spectral_radius_bound(integer_line()), ValueError, "requires a finite graph"),
    (lambda: heat_element(path_graph(3), 0, 1, 0.1, method="fast"), ValueError,
     "unknown method 'fast'"),
    (lambda: heat_element("path:3", 0, 1, 0.1), TypeError, "got str"),
    (lambda g=path_graph(2): propagate_heat(decompose(g), WeightedVector.basis(g, 0), -1.0),
     ValueError, "time must be non-negative"),
    (lambda: ScalarFunction(math.cos, (1.0,), -1.0), ValueError,
     "derivative bound must be non-negative"),
], ids=["negative_eigenvalue", "radius_bound", "method", "source", "propagate", "derivative"])
def test_spectral_inputs_are_checked(call, error, message):
    with pytest.raises(error, match=message):
        call()


# -- the one route selector ---------------------------------------------------


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_times_are_rejected(t):
    # no route takes the limit t -> inf: the eigen sum reads 0.0 for <1_0, e^{-tL} 1_2> on
    # path:3, whose limit is 1/3
    g = path_graph(3)
    for method in ("auto", "eigen", "series"):
        for evaluate in (heat_element, wave_element):
            with pytest.raises(ValueError, match="non-negative"):
                evaluate(g, 0, 2, t, method=method)
        with pytest.raises(ValueError, match="non-negative"):
            spectral.select_route(PairRows(g, [(0, 2)]), t, method)


def test_select_route_reads_the_bound_of_the_rows():
    from graphheat import integer_line
    for seed in range(4):
        g = random_connected_graph(9, 0.4, seed, random_killing=True)
        rows = PairRows(g, [(0, 5), (2, 2)])
        assert rows.bound == g.bound
        lam = decompose(g).largest_eigenvalue
        for t in (1e-3, 0.4 / lam, 0.5 / lam, 1.5 / lam, 2 / lam, 2.5 / lam):
            for method in ("auto", "eigen", "series"):
                try:
                    expected = spectral.select_route(g, t, method)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=re.escape(str(exc))):
                        spectral.select_route(rows, t, method)
                else:
                    assert spectral.select_route(rows, t, method) == expected, (seed, t, method)
    line = integer_line()
    # a bare procedural source, or rows without pairs, have no bound to gate the series by
    assert spectral.select_route(line, 12.0, "series") == "series"
    assert spectral.select_route(PairRows(line, []), 12.0, "series") == "series"
    rows = PairRows(line, [(0, 3)])  # a 1-neighborhood bound of 4
    assert spectral.select_route(rows, 0.5, "series") == "series"
    with pytest.raises(ValueError, match="series evaluation rejected at t=0.75"):
        spectral.select_route(rows, 0.75, "series")
    with pytest.raises(ValueError, match="request method='series' explicitly"):
        spectral.select_route(rows, 0.1, "eigen")
    # auto takes the series, the only route, under the same gate
    assert spectral.select_route(rows, 0.1, "auto") == "series"
    with pytest.raises(ValueError, match="series evaluation rejected at t=0.75"):
        spectral.select_route(rows, 0.75, "auto")


@pytest.mark.parametrize("spec", ["path:7", "star:6", "complete:5", "random:12:0.15:8:c",
                                  "random:40:0.1:1:0.01:100:0.001:10:c"])
def test_decompose_is_the_eigh_of_the_symmetrized_dense_form(spec):
    # decompose builds A alone; its eigenpairs keep the bits of eigh of 0.5 (S + S^T),
    # S = M^-1/2 A M^-1/2 taken from the A and M of dense_matrices
    g = from_spec(spec)
    A, M = dense_matrices(g)
    assert M.tobytes() == np.diag(g.m).tobytes()
    s = 1.0 / np.sqrt(g.m)
    S = A * s[:, None] * s
    w, V = np.linalg.eigh(0.5 * (S + S.T))
    w = np.where(w < 0, 0.0, w)
    # the smallest eigenvalues, one per component without killing, are exact zeros
    components = {frozenset(distances_from(g, v)) for v in g.vertices}
    w[:sum(not g.c[list(c)].any() for c in components)] = 0.0
    dec = decompose(g)
    assert dec.eigenvalues.tobytes() == w.tobytes()
    assert dec.eigenvectors.tobytes() == (V * s[:, None]).tobytes()


@pytest.mark.parametrize("g", [
    path_graph(3),
    # {0, 1, 2} and {3, 4} without killing, {5, 6} with killing at 5
    WeightedGraph(7, [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 0.5), (5, 6, 1.0)],
                  [1.0, 2.0, 0.5, 1.0, 3.0, 1.0, 0.25], [0, 0, 0, 0, 0, 0.25, 0])])
def test_the_eigen_route_keeps_the_projection_on_the_null_space_at_large_t(g):
    # at large t, e^{-tL} projects onto the constants of each component without killing:
    # eigh leaves their null eigenvalues at rounding size, so e^{-t lambda} decayed there
    import mpmath
    A, M = dense_matrices(g)
    with mpmath.workdps(40):
        L = mpmath.matrix((A / np.diag(M)[:, None]).tolist())
        for t in (1e3, 1e10, 1e100):
            exact = mpmath.expm(-mpmath.mpf(t) * L)
            for x in g.vertices:
                for y in g.vertices:
                    want = float(g.measure(x) * exact[x, y])
                    assert heat_element(g, x, y, t, method="eigen") == pytest.approx(
                        want, rel=1e-13, abs=1e-15), (x, y, t)
    assert heat_element(path_graph(3), 0, 2, 1e100, method="eigen") == pytest.approx(1 / 3)


def test_elements_read_from_pair_rows_equal_the_graph_source_calls():
    # every pair of a graph with two components and two isolated vertices (9 and 11), one
    # stream for all of them, on the sweep's default grid and through both routes
    g = from_spec("random:12:0.15:8:c")
    pairs = [(x, y) for x in range(g.n) for y in range(x, g.n)]
    rows, ts, routes = PairRows(g, pairs), sorted([0.5 ** k for k in range(16)] + [0.0]), set()
    assert {(0, 9), (9, 11), (0, 2)} <= set(pairs) and heat_element(g, 0, 9, 0.01) == 0.0
    for method in ("auto", "series", "eigen"):
        ts_m = [t for t in ts if method != "series" or t * g.bound <= 2]
        routes.update(spectral.select_route(rows, t, method) for t in ts_m)
        for x, y in pairs:
            for t in ts_m:
                for element in (heat_element, wave_element):
                    expected = element(g, x, y, t, method=method)
                    assert repr(element(rows, x, y, t, method=method)) == repr(expected)
    assert routes == {"series", "eigen"}


def test_rows_hold_only_their_own_pairs():
    rows = PairRows(path_graph(4), [(0, 2), (1, 1)])
    for element in (heat_element, wave_element):
        element(rows, 0, 2, 0.1)
        for x, y in [(2, 0), (0, 1), (3, 3)]:  # (2, 0) is the stored (0, 2) reversed
            with pytest.raises(ValueError, match=re.escape(f"pair ({x}, {y}) is not among")):
                element(rows, x, y, 0.1)

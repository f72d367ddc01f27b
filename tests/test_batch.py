"""All-pairs commands read one block stream; single elements reuse their pair's stream.

The CLI's `verify` and `distance` output must equal, byte for byte, the rows
built here pair by pair from the one-pair functions, and `verify`'s array
evaluator must equal the scalar series loop `pair_element` element by element.
"""

import gc
import math
import re
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphheat import (INFINITE, BoundReport, LaplacianOperator, ProceduralGraph,
                       WeightedGraph, asymptotics, cli, combinatorial_distance, distances_from,
                       first_nonzero_moments, first_nonzero_orders, from_spec,
                       heat_element, integer_line, random_connected_graph, save_graph, spectral,
                       wave_element)
from graphheat.cli import _select_pairs, main
from graphheat.moments import INITIAL_RADIUS, PairRows
from graphheat.spectral import (MAX_SERIES_TERMS, block_elements, order_terms, pair_element,
                                select_route)

from conftest import doubling_line, random_oracle, series_coefficient

TS = sorted(0.1 * 0.1 ** k for k in range(4))  # the verify default grid


def _spread_graph():
    """An isolated vertex (9), killing, and weights and measures over 1e-8..1e8."""
    exps = [-8, 8, -4, 4, 0, -6, 6, -2, 2]
    edges = [(0, 1, 1e-8), (1, 2, 1e8), (2, 3, 1e-4), (3, 4, 1.0), (4, 5, 1e4),
             (5, 6, 1e-6), (1, 6, 1e6), (6, 7, 2.5), (7, 8, 1e-2), (2, 5, 3.0)]
    measure = [10.0 ** e for e in exps] + [1e-8]
    killing = [0.0, 1e-8, 0.0, 1e8, 0.0, 0.0, 2.0, 0.0, 1e-3, 0.0]
    return WeightedGraph(10, edges, measure, killing)


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _csv(rows):
    return "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)


def _pair_reference(graph, x, y, d, ts, method):
    """(tag, t, lhs, rhs) per t and tag, from pair_element's scalar loop element by element."""
    rows = PairRows(graph, [(x, y)])
    xy, (_, xx, yy) = rows.floats(0, d)[0], rows.floats(0, d + 1)
    for t in ts:
        route = select_route(graph, t, method)
        h, w = pair_element(rows, 0, t, route, False), pair_element(rows, 0, t, route, True)
        lead = series_coefficient(t * rows.scale, d) * xy
        rhs = 0.5 * series_coefficient(t * rows.scale, d + 1) * (xx + yy)
        yield "heat_leading", t, abs(h - abs(lead)), rhs
        yield "wave_leading", t, abs(abs(w) - abs(lead)), rhs
        yield "semigroup", t, abs(h - (1.0, -1.0)[d % 2] * lead), rhs
        yield "unitary", t, abs(w - (1 + 0j, -1j, -1 + 0j, 1j)[d % 4] * lead), rhs


def _verify_reference(graph, pairs, cutoff=None, method="auto"):
    rows = [["which", "x", "y", "d", "t", "n", "lhs", "rhs", "margin", "passed"]]
    failed = False
    for x, y in pairs:
        d = combinatorial_distance(graph, x, y, cutoff=cutoff)
        if d == INFINITE:
            continue
        for tag, t, lhs, rhs in _pair_reference(graph, x, y, d, TS, method):
            rep = BoundReport(tag, x, y, t, d, lhs, rhs)
            failed |= not rep.passed
            rows.append([rep.which, rep.x, rep.y, d, rep.t, rep.n, rep.lhs, rep.rhs,
                         rep.margin, rep.passed])
    return _csv(rows), 1 if failed else 0


def _distance_reference(graph, pairs, cutoff):
    rows = [["x", "y", "d_E", "d_L", "status"]]
    op = LaplacianOperator(graph)
    mismatch = False
    for x, y in sorted(pairs):
        d = combinatorial_distance(graph, x, y, cutoff=cutoff)
        first = first_nonzero_moments(op, x, cutoff).get(y)
        order = f">{cutoff}" if first is None else str(first[0])
        ok = d == INFINITE if first is None else d == first[0]
        mismatch |= not ok
        rows.append([x, y, float("inf") if d == INFINITE else d, order, "ok" if ok else "mismatch"])
    return _csv(rows), 1 if mismatch else 0


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


SELECTIONS = [
    ["--pairs", "all"],
    ["--pairs", "5,2;2,5;3,3;9,9;0,8;0,9;2,7;8,0"],  # reversed, x,x, isolated, repeated sources
    ["--pairs", "all", "--cutoff", "2"],  # below some hop distances
    ["--pairs", "all", "--cutoff", "0"],
    ["--pairs", "sample:12", "--seed", "3"],
    ["--pairs", "sample:5", "--seed", "8", "--method", "eigen"],
    ["--pairs", "0,9;9,4"],  # every pair disconnected
    ["--pairs", ""],  # empty selection
]


@pytest.mark.parametrize("extra", SELECTIONS)
def test_verify_and_distance_match_the_per_pair_reference(tmp_path, capsys, extra):
    graph = _spread_graph()
    path = str(tmp_path / "g.txt")
    save_graph(graph, path)
    options = dict(zip(extra[::2], extra[1::2]))
    cutoff = int(options["--cutoff"]) if "--cutoff" in options else None
    seed = int(options["--seed"]) if "--seed" in options else None
    pairs = _select_pairs(graph, options["--pairs"], seed)
    method = options.get("--method", "auto")

    code, out, _ = _run(capsys, ["verify", "--input", path] + extra)
    assert (out, code) == _verify_reference(graph, pairs, cutoff, method)
    # distance takes no --method
    shared = [arg for key, value in options.items() if key != "--method" for arg in (key, value)]
    code, out, _ = _run(capsys, ["distance", "--input", path] + shared)
    assert (out, code) == _distance_reference(graph, pairs, graph.n if cutoff is None else cutoff)


@pytest.mark.parametrize("method", ["auto", "series"])
def test_verify_matches_the_reference_on_random_graphs(capsys, method):
    for seed in range(3):
        spec = f"random:14:0.25:{seed}"
        code, out, _ = _run(capsys, ["verify", "--gen", spec, "--method", method])
        g = from_spec(spec)
        assert (out, code) == _verify_reference(g, _select_pairs(g, "all", None), method=method)


def test_verify_summary_names_the_worst_ratio(tmp_path, capsys):
    path = str(tmp_path / "g.txt")
    save_graph(_spread_graph(), path)
    code, out, err = _run(capsys, ["verify", "--input", path, "--pairs", "1,2;3,4;6,7"])
    rows = [line.split(",") for line in out.splitlines()[1:]]
    ratios = [float(r[6]) / float(r[7]) for r in rows]
    worst = rows[ratios.index(max(ratios))]
    assert err.startswith(f"graphheat: {len(rows)}/{len(rows)} checks passed on 3 pair(s), "
                          "0 disconnected pair(s) skipped; ")
    assert err.strip().endswith(f"worst lhs/rhs {max(ratios)!r} at {worst[0]} "
                                f"{worst[1]},{worst[2]} t={worst[4]}")


def test_verify_summary_on_an_isolated_diagonal_pair(capsys):
    # lhs = rhs = 0 on every row: no killing, no edges
    code, out, err = _run(capsys, ["verify", "--gen", "path:1", "--pairs", "0,0"])
    assert code == 0
    assert all(line.split(",")[6:8] == ["0.0", "0.0"] for line in out.splitlines()[1:])
    assert err.strip().endswith(f"worst lhs/rhs 0.0 at heat_leading 0,0 t={TS[0]!r}")


def test_verify_summary_without_checks_has_no_worst_ratio(capsys):
    code, _, err = _run(capsys, ["verify", "--gen", "path:3", "--pairs", ""])
    assert code == 0
    assert err == ("graphheat: 0/0 checks passed on 0 pair(s), "
                   "0 disconnected pair(s) skipped\n")


def test_verify_summary_counts_the_vacuous_checks(capsys):
    # from hop distance 76 at t = 1e-4 the element, its leading term and its bound
    # all underflow to 0.0
    argv = ["verify", "--gen", "path:400", "--pairs", "sample:50", "--seed", "1"]
    code, out, err = _run(capsys, argv)
    graph = from_spec("path:400")
    assert (out, code) == _verify_reference(graph, _select_pairs(graph, "sample:50", 1))
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert (len(rows), sum(row[6:8] == ["0.0", "0.0"] for row in rows)) == (800, 424)
    assert err.startswith("graphheat: 800/800 checks passed on 50 pair(s), 0 disconnected "
                          "pair(s) skipped, 424 vacuous (lhs = rhs = 0.0); worst lhs/rhs ")


def test_pairs_beyond_the_cutoff_are_not_called_disconnected(capsys):
    # random:40:0.1:1:c has 39 disconnected pairs, those of its isolated vertex; within one hop
    # only its 72 edges are reached
    argv = ["--gen", "random:40:0.1:1:c", "--pairs", "all"]
    for cutoff, skipped in ((["--cutoff", "1"], "708 pair(s) beyond --cutoff 1 skipped"),
                            ([], "39 disconnected pair(s) skipped")):
        checked = 72 if cutoff else 780 - 39
        code, _, err = _run(capsys, ["verify", *argv, *cutoff])
        assert code == 0 and err.startswith(f"graphheat: {checked * 16}/{checked * 16} checks "
                                            f"passed on {checked} pair(s), {skipped}; worst ")
        code, _, err = _run(capsys, ["exponent", *argv, *cutoff])
        assert (code, err) == (0, f"graphheat: {skipped}\n")


def test_verify_series_past_its_limit_is_a_usage_error(capsys):
    code, out, err = _run(capsys, ["verify", "--gen", "random:12:0.3:1", "--method", "series",
                                   "--t0", "10"])
    assert code == 2
    assert err.startswith("graphheat: series evaluation rejected")
    assert out == "which,x,y,d,t,n,lhs,rhs,margin,passed\n"


# random:12:0.15:8:c has isolated vertices 9 and 11; auto takes series at t <= 0.01 and
# eigen at 0.1 there, and eigen at every t on the spread graph
BUDGET_CASES = [("random:12:0.15:8:c", "auto"), ("random:12:0.15:8:c", "series"),
                ("spread", "auto"), ("spread", "eigen")]


@pytest.mark.parametrize("spec, method", BUDGET_CASES)
def test_verify_bytes_do_not_depend_on_the_block_budget(tmp_path, capsys, monkeypatch,
                                                         spec, method):
    graph = _spread_graph() if spec == "spread" else from_spec(spec)
    path = str(tmp_path / "g.txt")
    save_graph(graph, path)
    argv = ["verify", "--input", path, "--method", method]
    default = code, out, _ = _run(capsys, argv)
    assert (out, code) == _verify_reference(graph, _select_pairs(graph, "all", None),
                                            method=method)
    # 1 element, then blocks of 2 and 7 pairs, then one block above the pair count;
    # each also with one pair per write and 2 pairs per eigen slice
    for budget in (1, 2 * len(TS), 7 * len(TS), 10 ** 6):
        monkeypatch.setattr(asymptotics, "BLOCK_ELEMENTS", budget)
        assert _run(capsys, argv) == default
        with monkeypatch.context() as small:
            small.setattr(cli, "WRITE_SLICE", 1)
            small.setattr(spectral, "CHUNK", 2 * graph.n)
            assert _run(capsys, argv) == default


def test_eigen_slices_of_block_elements_equal_pair_element_bitwise(monkeypatch):
    graph = from_spec("random:30:0.2:2:c")
    pairs = [(x, y) for x in graph.vertices for y in graph.vertices if x <= y][::5]
    rows, ts = PairRows(graph, pairs), [1e-3, 0.05, 0.5, 3.0]
    sizes, eigen_sum = [], spectral._eigen_sum
    monkeypatch.setattr(spectral, "_eigen_sum", lambda g, x, y, t, unitary: sizes.append(
        np.size(x)) or eigen_sum(g, x, y, t, unitary))
    monkeypatch.setattr(spectral, "CHUNK", 3 * graph.n + 1)  # 3 pairs x 30 eigenvalues
    for unitary in (False, True):
        got = block_elements(rows, slice(None), ts, ["eigen"] * len(ts), unitary)
        want = np.array([[pair_element(rows, i, t, "eigen", unitary) for t in ts]
                         for i in range(len(pairs))])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    sliced = [size for size in sizes if size > 1]
    assert max(sliced) == 3 and len(sliced) == 2 * len(ts) * -(-len(pairs) // 3)


def test_eigen_slices_form_each_times_phases_once(monkeypatch):
    graph = from_spec("random:30:0.2:2:c")
    rows, ts = PairRows(graph, [(x, y) for x in range(30) for y in range(x, 30, 7)]), [0.5, 3.0]
    formed, phases = [], spectral._phases
    monkeypatch.setattr(spectral, "_phases", lambda g, t, unitary: formed.append(
        (t, unitary)) or phases(g, t, unitary))
    monkeypatch.setattr(spectral, "CHUNK", 3 * graph.n)  # 3 pairs per slice
    for unitary in (False, True):
        block_elements(rows, slice(None), ts, ["eigen"] * len(ts), unitary)
    assert formed == [(t, unitary) for unitary in (False, True) for t in ts]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10_000), st.integers(1, 12), st.integers(1, 6), st.booleans())
def test_block_kernel_columns_equal_the_vector_kernel(seed, n, k, killing):
    g = random_connected_graph(n, 0.4, seed, random_killing=killing)
    kernel = g
    rng = np.random.default_rng(seed)
    block = np.asfortranarray(rng.standard_normal((n, k)) * 10.0 ** rng.integers(-8, 9, (n, k)))
    out = kernel.apply(block)
    assert out.shape == (n, k)
    for j in range(k):
        assert np.array_equal(out[:, j], kernel.apply(np.ascontiguousarray(block[:, j])))


def test_shared_pair_moments_equal_single_pair_moments():
    g = _spread_graph()
    pairs = [(5, 2), (2, 5), (3, 3), (0, 8), (9, 9), (0, 9), (2, 7)]
    rows = PairRows(g, pairs)
    for i, (x, y) in enumerate(pairs):
        alone = PairRows(g, [(x, y)])
        assert rows.scale == alone.scale
        assert [tuple(rows[n][rows.at[i]].tolist()) for n in range(12)] == \
            [alone.floats(0, n) for n in range(12)]


_SPREAD = st.floats(-8, 8)


@st.composite
def _spread_graphs(draw):
    """Weights, measures and killing over 1e-8..1e8; the last vertex has no edges."""
    n = draw(st.integers(2, 7))
    edges = {(min(u, v), max(u, v)): 10.0 ** e for u, v, e in draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), _SPREAD), max_size=2 * n))
        if u != v}
    measure = [10.0 ** e for e in draw(st.lists(_SPREAD, min_size=n + 1, max_size=n + 1))]
    killing = [0.0 if e is None else 10.0 ** e for e in draw(
        st.lists(st.one_of(st.none(), _SPREAD), min_size=n + 1, max_size=n + 1))]
    return WeightedGraph(n + 1, [(u, v, w) for (u, v), w in edges.items()], measure, killing)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_spread_graphs(), st.lists(st.tuples(st.floats(0, 1), st.booleans()), min_size=1,
                                  max_size=4))
def test_block_elements_equal_the_scalar_loop_bitwise(graph, grid):
    top = spectral.decompose(graph).largest_eigenvalue
    limit = 2 / top if top > 0 else 1.0  # the series limit
    # from 1e-6 up to the limit, on either route
    ts = [1e-6 * (limit / 1e-6) ** f for f, _ in grid]
    routes = ["eigen" if eigen else "series" for _, eigen in grid]
    isolated = graph.n - 1
    pairs = [(x, y) for x in graph.vertices for y in graph.vertices]
    rows, alone = PairRows(graph, pairs), [PairRows(graph, [pair]) for pair in pairs]
    for unitary in (False, True):
        try:
            want = np.array([[pair_element(one, 0, t, route, unitary)
                              for t, route in zip(ts, routes)] for one in alone])
        except ArithmeticError:  # past MAX_SERIES_TERMS
            with pytest.raises(ArithmeticError, match=str(MAX_SERIES_TERMS)):
                block_elements(rows, slice(None), ts, routes, unitary)
            continue
        got = block_elements(rows, slice(None), ts, routes, unitary)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        # across components the series is exactly 0.0, stopping on SERIES_FLOOR
        for i, (x, y) in enumerate(pairs):
            if (x == isolated) != (y == isolated):
                assert all(got[i, j] == 0.0 for j, r in enumerate(routes) if r == "series")


_SUMMANDS = st.one_of(
    st.floats(),  # signed zeros, subnormals, magnitudes up to overflow, inf and nan
    st.floats(-4.0, 4.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, 1.7976931348623157e308]))


@st.composite
def _term_columns(draw):
    """A (K, N) array of terms, K = 0..60, as strided as a wave's orders: columns of
    arbitrary floats, and near-ties x + ulp(x)/2 pushed either way by a term 2^-53 of that
    half ulp or left on the tie, e.g. (1, 2^-53, -2^-106), among zeros and a cancelling pair."""
    k, columns = draw(st.integers(0, 60)), []
    for _ in range(draw(st.integers(1, 5))):
        if k < 5 or draw(st.booleans()):
            columns.append(draw(st.lists(_SUMMANDS, min_size=k, max_size=k)))
            continue
        x = math.ldexp(draw(st.floats(1.0, 2.0, exclude_max=True)), draw(st.integers(-1060, 1020)))
        half = math.ulp(x) / 2 * draw(st.sampled_from([1.0, -1.0]))
        big = math.ldexp(draw(st.floats(1.0, 2.0)), draw(st.integers(-60, 60))) * x
        column = [x, half, half * 2.0 ** -53 * draw(st.sampled_from([1.0, -1.0, 0.0])), big, -big]
        columns.append(draw(st.permutations(column + [0.0] * (k - 5))))
    return np.array(columns, dtype=float).reshape(len(columns), k).T


@settings(deadline=None, derandomize=True)  # the example budget is the profile's (conftest.py)
@given(_term_columns())
@example(np.array([[1.0], [2.0 ** -53], [2.0 ** -106]]))  # a tie that 2^-106 breaks upward
# the errors 0.75, 2^-54 and 2^-60 sum to 0.75 in floats, hiding a total past the tie
@example(np.array([[2.0 ** 53], [0.75], [2.0 ** -54], [2.0 ** -60], [-2.0 ** 53]]))
# the TwoSum pass stays finite and its candidate would pass, but fsum overflows midway
@example(np.array([[1.7976931348623157e308], [2.0 ** 969], [2.0 ** 969], [2.0 ** 969], [-2.0 ** 1022]]))
def test_rounded_sums_equal_fsum_bitwise(terms):
    want = []
    for column in terms.T.tolist():
        try:
            want.append(math.fsum(column))
        except (OverflowError, ValueError) as exc:  # the first such column's error, as fsum's
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                spectral._rounded_sums(terms)
            return
    assert spectral._rounded_sums(terms).tobytes() == np.array(want, dtype=float).tobytes()


_MOMENTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # subnormals to the largest double
    st.floats(-4.0, 4.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, 1.7976931348623157e308]))
# scaled times: 0, anything up to 1e300, and the moderate values whose terms neither overflow
# nor underflow for dozens of orders, where each rounding of the recursion shows
_SCALED_TIMES = st.one_of(st.just(0.0), st.floats(1e-300, 1e300), st.floats(1e-2, 1e2))


@settings(deadline=None, derandomize=True)
@given(st.lists(_SCALED_TIMES, min_size=1, max_size=4),
       st.lists(st.tuples(st.integers(0, 300), _MOMENTS, _MOMENTS), max_size=4))
@example([1e300, 0.0], [(3, 0.0, 1.0), (0, 1.7976931348623157e308, 5e-324)])  # inf, nan, 0.0
@example([0.3, 1.7, 123.456], [(5, 1.0, 1.0), (17, -0.75, 3.0)])  # ts / k rounds, then the product
def test_order_terms_equal_the_series_recursion_bitwise(ts, pairs):
    """Each pair's n-th term and its remainder bound are the Python loop coef *= ts / k times
    its moments, bit for bit; terms past the largest double read inf (or nan), silently."""
    orders, xy, diagonal = zip(*pairs) if pairs else ((), (), ())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lead, bound = order_terms(ts, orders, xy, diagonal)
    assert lead.shape == bound.shape == (len(pairs), len(ts))
    for i, (n, m, diag) in enumerate(pairs):
        assert [v.hex() for v in lead[i].tolist()] == [
            (series_coefficient(t, n) * m).hex() for t in ts]
        assert [v.hex() for v in bound[i].tolist()] == [
            (0.5 * series_coefficient(t, n + 1) * diag).hex() for t in ts]


def test_ordinary_sums_take_the_certified_path(monkeypatch):
    """Series-like terms, and the series blocks of every pair of the certify
    benchmark's graph, sum without one call of math.fsum; the sums still equal fsum's."""
    rng = np.random.default_rng(5)
    terms = rng.standard_normal((40, 3000)) * np.exp2(-rng.integers(0, 60, (40, 3000)))
    terms[rng.random(terms.shape) < 0.5] = 0.0  # stopped elements add exact zeros
    terms[0] = rng.uniform(0.5, 1.0, 3000)
    want = np.array([math.fsum(column) for column in terms.T.tolist()])
    graph = from_spec("random:40:0.1:1:c")
    rows = PairRows(graph, [(x, y) for x in graph.vertices for y in graph.vertices if x <= y])
    for unitary in (False, True):  # the stream is read before fsum is counted
        block_elements(rows, slice(None), TS, ["series"] * len(TS), unitary)
    calls, fsum = [], math.fsum
    monkeypatch.setattr(math, "fsum", lambda values: calls.append(1) or fsum(values))
    assert spectral._rounded_sums(terms).tobytes() == want.tobytes()
    for unitary in (False, True):
        block_elements(rows, slice(None), TS, ["series"] * len(TS), unitary)
    assert calls == []


def test_the_wave_modulus_is_pythons_abs():
    # np.abs rounds this modulus one unit away from abs(); np.hypot, which
    # the reports use, agrees with it
    z = np.array([complex(-0.1321048632913019, -0.5022445517110371)])
    assert np.abs(z)[0] != abs(z[0].item())
    assert np.hypot(z.real, z.imag)[0] == abs(z[0].item())


def _fresh(source, x, y, t, unitary, method):
    route = select_route(source, t, method)
    return pair_element(PairRows(source, [(x, y)]), 0, t, route, unitary)


def _interleaved():
    """Element requests that leave and come back to a pair, with t rising and falling."""
    g = random_connected_graph(12, 0.3, 5, random_killing=True)
    line = integer_line()
    calls = []
    for x, y in [(0, 5), (0, 5), (3, 3), (0, 5), (5, 0), (3, 3), (1, 11)]:
        for t in (1e-3, 0.2, 1e-4, 0.05):
            calls.append((g, x, y, t, "auto"))
    for x, y in [(0, 40), (0, 40), (-3, 2), (0, 40), (7, 7)]:
        for t in (1e-2, 0.5, 1e-3):
            calls.append((line, x, y, t, "series"))
    return calls


def test_repeated_elements_reuse_the_stream_bitwise():
    for source, x, y, t, method in _interleaved():
        for unitary, element in ((False, heat_element), (True, wave_element)):
            value = element(source, x, y, t, method=method)
            assert value == _fresh(source, x, y, t, unitary, method), (x, y, t)


def test_element_streams_are_kept_per_thread():
    calls = _interleaved()
    expected = [(_fresh(s, x, y, t, False, m), _fresh(s, x, y, t, True, m))
                for s, x, y, t, m in calls]
    results = [[] for _ in range(4)]

    def work(i):
        order = calls if i % 2 == 0 else calls[::-1]
        for s, x, y, t, m in order * 2:
            results[i].append((heat_element(s, x, y, t, method=m),
                               wave_element(s, x, y, t, method=m)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(interval)
    for i, got in enumerate(results):
        want = expected if i % 2 == 0 else expected[::-1]
        assert got == want * 2


def test_a_stream_that_raised_is_not_reused():
    def neighbors(u):
        if abs(u) > 20:
            raise ValueError(f"vertex {u} is outside the chain")
        return [(u - 1, 1.0), (u + 1, 1.0)]

    chain = ProceduralGraph(neighbors, max_degree=2)
    small = _fresh(chain, 0, 1, 1e-3, False, "series")
    assert heat_element(chain, 0, 1, 1e-3, method="series") == small
    # at t = 0.5 the series passes the gate (t times the bound 4 is 2) and runs
    # past order INITIAL_RADIUS, where the stream leaves its first ball
    for _ in range(2):
        with pytest.raises(ValueError, match="outside the chain"):
            heat_element(chain, 0, 1, 0.5, method="series")
    assert heat_element(chain, 0, 1, 1e-3, method="series") == small


def test_first_orders_on_the_line_follow_the_growing_ball():
    n_max = 2 * INITIAL_RADIUS + 5  # past two doublings of the neighborhood
    op = LaplacianOperator(integer_line())
    assert first_nonzero_moments(op, 3, n_max) == {3 + k: (abs(k), (-1.0) ** k)
                                                   for k in range(-n_max, n_max + 1)}
    positions, orders, moments = first_nonzero_orders(op, [0, 3, -50], n_max)
    for j, y in enumerate([0, 3, -50]):
        assert {v: (int(orders[k, j]), float(moments[k, j])) for v, k in positions.items()
                if orders[k, j] >= 0} == first_nonzero_moments(op, y, n_max)


def test_first_orders_stop_at_the_first_order_that_reaches_nothing_new(monkeypatch):
    graph = from_spec("random:40:0.1:1:c")  # has an isolated vertex
    calls = []
    apply = LaplacianOperator.apply
    monkeypatch.setattr(LaplacianOperator, "apply",
                        lambda self, block: calls.append(1) or apply(self, block))
    sources = list(graph.vertices)
    positions, orders, _ = first_nonzero_orders(LaplacianOperator(graph), sources, graph.n)
    dists = [distances_from(graph, y) for y in sources]
    assert len(calls) <= max(max(dist.values()) for dist in dists) + 1
    for j, dist in enumerate(dists):
        assert {v: int(orders[k, j]) for v, k in positions.items() if orders[k, j] >= 0} == dist


def test_another_thread_does_not_evict_this_threads_stream(monkeypatch):
    built = []

    class Counting(PairRows):
        def __init__(self, source, pairs):
            built.extend(pairs)
            super().__init__(source, pairs)

    monkeypatch.setattr(spectral, "PairRows", Counting)
    g = random_connected_graph(8, 0.4, 2)
    heat_element(g, 0, 5, 1e-2)
    other = threading.Thread(target=heat_element, args=(g, 1, 2, 1e-2))
    other.start()
    other.join(timeout=60)
    assert not other.is_alive()
    heat_element(g, 0, 5, 1e-3)
    assert built == [(0, 5), (1, 2)]


def test_the_last_pair_dies_with_its_graph():
    g = random_connected_graph(30, 0.2, 1)
    heat_element(g, 0, 5, 2.0)  # the eigen route: the graph keeps its eigenpairs
    assert select_route(g, 2.0, "auto") == "eigen" and g._decomposition.graph is g
    graph = weakref.ref(g)
    del g
    gc.collect()
    assert graph() is None


def test_threads_sharing_rows_read_the_eigen_times_in_opposite_orders_bitwise():
    g = random_connected_graph(30, 0.2, 1)
    pairs = [(x, y) for x in range(0, 30, 3) for y in range(x, 30, 4)]
    ts = [0.3, 0.7, 1.5, 4.0, 9.0]

    def walk(rows, part, times):
        """Heat and wave of the pairs ``part``, a time at a time, as bytes per (pair, t)."""
        got = {}
        for t in times:
            for x, y in part:
                values = heat_element(rows, x, y, t, "eigen"), wave_element(rows, x, y, t, "eigen")
                got[x, y, t] = np.array(values, dtype=complex).tobytes()
        return got

    want = walk(PairRows(g, pairs), pairs, ts)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            rows, results = PairRows(g, pairs), [{}, {}]
            halves = [(pairs[::2], ts), (pairs[1::2], ts[::-1])]
            threads = [threading.Thread(target=lambda i, part, times: results[i].update(
                walk(rows, part, times)), args=(i, *half)) for i, half in enumerate(halves)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
            assert not any(th.is_alive() for th in threads)
            assert {**results[0], **results[1]} == want
    finally:
        sys.setswitchinterval(interval)


# -- the scalar series from its first nonzero term ------------------------


@np.errstate(over="ignore", invalid="ignore")  # as pair_element, whose stream may overflow
def _summed_from_order_zero(rows, i, t, unitary):
    """pair_element's series as it summed every term from order 0, the zero ones too."""
    signs = (1.0, -1.0, -1.0, 1.0) if unitary else (1.0, -1.0)
    ts = t * rows.scale
    coef = 1.0
    terms, parts, n = [], [0.0, 0.0], 0
    xy = rows.floats(i, 0)[0]
    while True:
        terms.append(signs[n % len(signs)] * (coef * xy))
        parts[n % 2 if unitary else 0] += terms[-1]
        n += 1
        coef *= ts / n
        xy, xx, yy = rows.floats(i, n)
        bound, size = 0.5 * coef * (xx + yy), abs(complex(*parts)) if unitary else abs(parts[0])
        finite = math.isfinite(bound + size)
        if finite and bound <= max(spectral.SERIES_RTOL * size, spectral.SERIES_FLOOR):
            break
        if n >= MAX_SERIES_TERMS or not finite:
            raise spectral._unmet(n)
    return complex(math.fsum(terms[::2]), math.fsum(terms[1::2])) if unitary else math.fsum(terms)


def _from_first_nonzero_term(rows, i, t, unitary):
    return pair_element(rows, i, t, "series", unitary)


def _outcome(evaluate, make_rows, t, unitary):
    """(repr of the value or the error's text, orders read) of the pair of fresh rows."""
    rows = make_rows()
    try:
        value = repr(evaluate(rows, 0, t, unitary))
    except ArithmeticError as error:
        value = str(error)
    return value, len(rows.converted[0])


def _same_as_summed_from_order_zero(make_rows, t):
    """pair_element's heat and wave of the pair equal the reference's, read as far."""
    for unitary in (False, True):
        got = _outcome(_from_first_nonzero_term, make_rows, t, unitary)
        assert got == _outcome(_summed_from_order_zero, make_rows, t, unitary), (t, unitary)


_SCALED = st.one_of(st.just(0.0), st.floats(-300, 0).map(lambda e: 10.0 ** e))  # of the limit


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(-10 ** 6, 10 ** 6), st.integers(-40, 40), _SCALED)
def test_the_series_from_its_first_nonzero_term_on_the_line(b, d, f):
    # the series limit of the line is t = 2 / 4
    _same_as_summed_from_order_zero(lambda: PairRows(integer_line(), [(b, b + d)]), 0.5 * f)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32), st.integers(-20, 20), st.integers(0, 12), _SCALED)
def test_the_series_from_its_first_nonzero_term_on_random_oracles(seed, x, d, f):
    bound = PairRows(random_oracle(seed), [(x, x + d)]).bound
    _same_as_summed_from_order_zero(lambda: PairRows(random_oracle(seed), [(x, x + d)]),
                                    2 * f / bound if bound > 0 else f)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_spread_graphs(), st.data(), _SCALED)
def test_the_series_from_its_first_nonzero_term_on_finite_graphs(graph, data, f):
    # the last vertex is isolated, and x = y may be drawn
    x, y = (data.draw(st.integers(0, graph.n - 1)) for _ in range(2))
    top = spectral.decompose(graph).largest_eigenvalue
    _same_as_summed_from_order_zero(lambda: PairRows(graph, [(x, y)]), 2 * f / top if top else f)


def test_the_series_returns_zero_where_the_coefficient_underflows_below_the_first_term():
    # at t = 1e-200 the coefficient (4t)^2 / 2 of order 2 underflows to 0.0, so the
    # remainder bound meets SERIES_FLOOR before the first nonzero term, at order 5
    for unitary, zero in ((False, "0.0"), (True, "0j")):
        got = _outcome(_from_first_nonzero_term, lambda: PairRows(integer_line(), [(0, 5)]),
                       1e-200, unitary)
        assert got == (zero, 3)
    for d in range(6):
        for t in (0.0, 1e-200, 1e-20):
            _same_as_summed_from_order_zero(lambda: PairRows(integer_line(), [(0, d)]), t)
    g = from_spec("random:40:0.1:1:c")  # its isolated vertex: every term is 0.0 across it
    isolated = next(v for v in g.vertices if not g.neighbors(v))
    for t in (0.0, 1e-3, 0.01):
        _same_as_summed_from_order_zero(lambda: PairRows(g, [(0, isolated)]), t)
        _same_as_summed_from_order_zero(lambda: PairRows(g, [(isolated, isolated)]), t)


def test_the_series_from_its_first_nonzero_term_rejects_overflow_at_the_same_order():
    for pair in ((0, 0), (0, 1), (0, 3)):  # (0, 3) past the gate, read by pair_element
        _same_as_summed_from_order_zero(lambda: PairRows(doubling_line(), [pair]), 0.05)

"""All-pairs commands read one block stream; single elements reuse their pair's stream.

The CLI's `verify` and `distance` output must equal, byte for byte, the rows
built here pair by pair from the one-pair functions.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphheat import (INFINITE, LaplacianOperator, ProceduralGraph,
                       WeightedGraph, combinatorial_distance,
                       first_nonzero_moments, first_nonzero_orders, from_spec,
                       heat_element, integer_line, pair_verification_reports,
                       random_connected_graph, save_graph, spectral,
                       wave_element)
from graphheat.cli import _select_pairs, main
from graphheat.moments import INITIAL_RADIUS, PairMoments
from graphheat.operators import compiled
from graphheat.spectral import pair_element, select_route

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


def _verify_reference(graph, pairs, cutoff=None, method="auto"):
    rows = [["which", "x", "y", "d", "t", "n", "lhs", "rhs", "margin", "passed"]]
    failed = False
    for x, y in pairs:
        d = combinatorial_distance(graph, x, y, cutoff=cutoff)
        if d == INFINITE:
            continue
        for rep in pair_verification_reports(graph, x, y, TS, cutoff=cutoff, method=method):
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
    code, out, _ = _run(capsys, ["distance", "--input", path] + extra)
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


def test_verify_series_past_its_limit_is_a_usage_error(capsys):
    code, out, err = _run(capsys, ["verify", "--gen", "random:12:0.3:1", "--method", "series",
                                   "--t0", "10"])
    assert code == 2
    assert err.startswith("graphheat: series evaluation rejected")
    assert out == "which,x,y,d,t,n,lhs,rhs,margin,passed\n"


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10_000), st.integers(1, 12), st.integers(1, 6), st.booleans())
def test_block_kernel_columns_equal_the_vector_kernel(seed, n, k, killing):
    g = random_connected_graph(n, 0.4, seed, random_killing=killing)
    kernel = compiled(g)
    rng = np.random.default_rng(seed)
    block = np.asfortranarray(rng.standard_normal((n, k)) * 10.0 ** rng.integers(-8, 9, (n, k)))
    out = kernel.apply(block)
    assert out.shape == (n, k)
    for j in range(k):
        assert np.array_equal(out[:, j], kernel.apply(np.ascontiguousarray(block[:, j])))


def test_shared_pair_moments_equal_single_pair_moments():
    g = _spread_graph()
    pairs = [(5, 2), (2, 5), (3, 3), (0, 8), (9, 9), (0, 9), (2, 7)]
    for pm in PairMoments.shared(g, pairs):
        alone = PairMoments(g, pm.x, pm.y)
        assert pm.scale == alone.scale
        assert [pm[n] for n in range(12)] == [alone[n] for n in range(12)]


def _fresh(source, x, y, t, unitary, method):
    route = select_route(source, t, method)
    return pair_element(PairMoments(source, x, y), t, route, unitary)


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
    for _ in range(2):  # the stream leaves its first ball at order INITIAL_RADIUS
        with pytest.raises(ValueError, match="outside the chain"):
            heat_element(chain, 0, 1, 3.0, method="series")
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


def test_another_thread_does_not_evict_this_threads_stream(monkeypatch):
    built = []

    class Counting(PairMoments):
        def __init__(self, source, x, y):
            built.append((x, y))
            super().__init__(source, x, y)

    monkeypatch.setattr(spectral, "PairMoments", Counting)
    g = random_connected_graph(8, 0.4, 2)
    heat_element(g, 0, 5, 1e-2)
    other = threading.Thread(target=heat_element, args=(g, 1, 2, 1e-2))
    other.start()
    other.join(timeout=60)
    assert not other.is_alive()
    heat_element(g, 0, 5, 1e-3)
    assert built == [(0, 5), (1, 2)]

"""The Laplacian kernel of a finite graph, the moment streams read from it, and the route gate."""

import itertools
import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphheat import (LaplacianOperator, ProceduralGraph, WeightedGraph, ball,
                       combinatorial_distance, cycle_graph, decompose, distances_from,
                       from_spec, heat_element, integer_line, moment_table, pair_verification_reports,
                       path_graph, path_sum_moment, random_connected_graph,
                       spectral_radius_bound, wave_element)
from graphheat.moments import (INITIAL_RADIUS, PairRows, first_nonzero_moments,
                               first_nonzero_orders, pair_moments, stream)
from graphheat.cli import _select_pairs
from graphheat.graphs import CHUNK, BallSearch
from graphheat.spectral import pair_element, select_route

from conftest import doubling_line, random_oracle

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
            rows = PairRows(g, [(x, y)])
            if x not in dist:
                assert all(v == 0.0 for v in table)
                assert all(rows.floats(0, k)[0] == 0.0 for k in range(g.n + 1))
                continue
            d = dist[x]
            assert all(v == 0.0 for v in table[:d])
            assert all(rows.floats(0, k)[0] == 0.0 for k in range(d))
            assert (-1) ** d * table[d] > 0
            assert _unscaled(rows, d)[0] == table[d] == firsts[x][1]


@SETTINGS
@given(st.sampled_from(["spread", "line", "path"]), st.data())
def test_a_block_of_pairs_reads_each_pairs_own_stream(kind, data):
    # killing and isolated vertices (spread graphs), balls that double (a 300-vertex path, the
    # procedural line), and among the pairs (x, x), a repeated y and y < x
    g = {"spread": lambda: data.draw(spread_graphs()), "line": integer_line,
         "path": lambda: path_graph(300)}[kind]()
    vertex = st.integers(-30, 30) if kind == "line" else st.integers(0, g.n - 1)
    pairs = data.draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=8))
    (x, y), z = pairs[0], data.draw(vertex)
    pairs += [(x, x), (z, y), (y, x)]
    n_max = data.draw(st.integers(0, 40))
    with np.errstate(over="ignore", invalid="ignore"):  # spread weights may overflow, alike
        block = [[v.hex() for v in values.tolist()] for values in pair_moments(g, pairs, n_max)]
        alone = [[float(values[0]).hex() for values in itertools.islice(
            stream(g, [{y: 1.0}], 1.0, [(x, 0)]), n_max + 1)] for x, y in pairs]
    assert block == [list(orders) for orders in zip(*alone)]


def _unscaled(rows, n):
    """The n-th moments (xy, xx, yy) of the one pair of ``rows``, unscaled."""
    return tuple(math.ldexp(v, rows.exp * n) for v in rows[n][rows.at[0]].tolist())


def _weight(u):
    return 1.0 + (u % 3) / 2.0


def _chain():
    """A procedural chain whose weights and measures vary along it."""
    return ProceduralGraph(lambda u: [(u - 1, _weight(u - 1)), (u + 1, _weight(u))],
                           measure_fn=lambda u: 1.0 + (u % 5) / 4.0, max_degree=2)


def _whole_graph(g, sources, scale):
    """Yield, per order n, m(v) ((L/scale)^n 1_s)(v) for every vertex v (rows) and
    source s (columns), by applying the whole graph's kernel again and again."""
    kernel = g
    block = np.zeros((g.n, len(sources)))
    block[sources, range(len(sources))] = 1.0
    while True:
        yield kernel.m[:, None] * block
        block = kernel.apply(block) / scale


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


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
            # both sides run on balls; the whole finite path is the reference
            whole = _whole_graph(finite, [offset + y], 1.0)
            assert _bits(lazy) == _bits([next(whole)[offset, 0] for _ in range(orders + 1)])
        lazy_rows = PairRows(source, [(-2, 3)])
        finite_rows = PairRows(finite, [(offset - 2, offset + 3)])
        # the scales may differ, but powers of two rescale exactly
        assert ([_unscaled(lazy_rows, k) for k in range(orders)]
                == [_unscaled(finite_rows, k) for k in range(orders)])


def test_a_stream_expands_each_vertex_once_as_its_ball_doubles():
    line = integer_line()
    with mock.patch.object(line, "neighbors", wraps=line.neighbors) as asked:
        # orders 0..2r run on the balls of radius r, 2r and 4r, r = INITIAL_RADIUS
        moment_table(LaplacianOperator(line), 0, 0, 2 * INITIAL_RADIUS)
    # the 4r-ball expands the layers 0..4r-1, each vertex once
    expanded = sorted(call.args[0] for call in asked.call_args_list)
    assert expanded == list(range(1 - 4 * INITIAL_RADIUS, 4 * INITIAL_RADIUS))


def _per_column_kernel(kernel, block):
    """L applied to each column of the block by a bincount of that column alone."""
    if np.iscomplexobj(block):
        return _per_column_kernel(kernel, block.real) + 1j * _per_column_kernel(kernel, block.imag)
    n = len(kernel.m)
    offdiag = np.array([np.bincount(kernel.rows, kernel.w * column[kernel.cols], minlength=n)
                        for column in block.T]).T
    return (kernel.diag[:, None] * block - offdiag) / kernel.m[:, None]


def _spread_block(rng, shape):
    """Normal entries spread over 1e-8..1e8, about a third of them +0.0 or -0.0."""
    block = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
    block[rng.random(shape) < 0.2] = 0.0
    block[rng.random(shape) < 0.15] = -0.0
    return block


def _uint_bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


@pytest.mark.parametrize("complex_block", [False, True])
def test_block_kernel_is_bitwise_the_per_column_bincount(complex_block):
    g = random_connected_graph(60, 0.3, 5, random_killing=True)
    kernel = g
    width = CHUNK // len(kernel.w)  # the columns of one bincount
    assert 3 < width < 20
    rng = np.random.default_rng(7)
    for k in (1, 2, 3, 2 * width + 3):  # the last spans three chunks
        block = _spread_block(rng, (g.n, k))
        if complex_block:
            block = block + 1j * _spread_block(rng, (g.n, k))
        block = np.asfortranarray(block)
        with mock.patch.object(np, "bincount", wraps=np.bincount) as counted:
            out = kernel.apply(block)
        sizes = [len(call.args[1]) for call in counted.call_args_list]
        assert max(sizes) <= CHUNK
        assert len(sizes) == -(-k // width) * (1 + complex_block)
        expected = _per_column_kernel(kernel, block)
        assert out.shape == expected.shape and out.dtype == expected.dtype
        assert np.array_equal(_uint_bits(out), _uint_bits(expected)), k
        if k == 1:
            assert np.array_equal(_uint_bits(kernel.apply(block[:, 0])),
                                  _uint_bits(expected[:, 0]))


def test_threads_applying_shared_kernels_at_many_widths_keep_their_bits():
    # on each fresh kernel the threads race to widen its cached bin offsets
    base = random_connected_graph(60, 0.3, 5, random_killing=True)
    upper = base.rows < base.cols
    kernels = [WeightedGraph.from_arrays(base.n, base.rows[upper], base.cols[upper],
                                         base.w[upper], base.m, base.c) for _ in range(150)]
    rng = np.random.default_rng(3)
    blocks = [np.asfortranarray(_spread_block(rng, (60, k))) for k in (15, 2, 9, 1, 40)]
    expected = [_per_column_kernel(base, block).tobytes() for block in blocks]
    results = [None] * 8

    def work(k):
        order = blocks[k % len(blocks):] + blocks[:k % len(blocks)]
        results[k] = [kernel.apply(block).tobytes() for kernel in kernels for block in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(interval)
    for k, got in enumerate(results):
        order = expected[k % len(blocks):] + expected[:k % len(blocks)]
        assert got == order * len(kernels)


def _banded_graph(draw, kind, length, n):
    """A path, cycle or ladder (``length`` rungs) on the first vertices, largest
    degree 2, 2 or 3, then an isolated vertex, all with spread weights, measures and
    killing, then plain isolated vertices up to n."""
    if kind == "ladder":
        core = 2 * length
        pairs = ([(u, u + 2) for u in range(core - 2)]
                 + [(2 * i, 2 * i + 1) for i in range(length)])
    else:
        core = length
        pairs = [(u, u + 1) for u in range(length - 1)] + [(length - 1, 0)] * (kind == "cycle")

    def values(strategy, k):
        return draw(st.lists(strategy, min_size=k, max_size=k))

    edges = [(u, v, w) for (u, v), w in zip(pairs, values(spread(), len(pairs)))]
    measure = values(spread(), core + 1) + [1.0] * (n - core - 1)
    killing = values(st.one_of(st.just(0.0), spread()), core + 1) + [0.0] * (n - core - 1)
    return WeightedGraph(n, edges, measure, killing)


def _ball_streams_match_the_whole_graph(g, x, y, orders):
    """Check moment_table, PairRows and first_nonzero_orders on g bitwise against
    :func:`_whole_graph`; return the radii of the balls the first two built."""
    op, sources = LaplacianOperator(g), sorted({x, y})
    column = {v: j for j, v in enumerate(sources)}
    # unscaled moments over spread weights overflow, and do so alike on both sides
    with np.errstate(over="ignore", invalid="ignore"), \
            mock.patch.object(BallSearch, "ball", autospec=True,
                              side_effect=BallSearch.ball) as built:
        table = moment_table(op, x, y, orders).values
        whole = _whole_graph(g, [y], 1.0)
        assert _bits(table) == _bits([next(whole)[x, 0] for _ in range(orders + 1)])
        radii = [[call.args[1] for call in built.call_args_list]]
        built.reset_mock()
        rows = PairRows(g, [(x, y)])
        whole = _whole_graph(g, sources, rows.scale)
        for n in range(orders + 1):
            block = next(whole)
            assert _bits(rows[n]) == _bits([block[x, column[y]]]
                                           + [block[v, column[v]] for v in sources]), n
        radii.append([call.args[1] for call in built.call_args_list])
        positions, found, first = first_nonzero_orders(op, sources, orders)
        expected_orders = np.full((g.n, len(sources)), -1)
        expected = np.zeros((g.n, len(sources)))
        for n, block in zip(range(orders + 1), _whole_graph(g, sources, 1.0)):
            fresh = (block != 0) & (expected_orders < 0)
            expected_orders[fresh] = n
            expected[fresh] = block[fresh]
            if not fresh.any() or (expected_orders >= 0).all():
                break
    assert positions == {v: v for v in g.vertices}
    assert np.array_equal(found, expected_orders) and _bits(first) == _bits(expected)
    return radii


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from(["path", "cycle"]), st.integers(131, 257))
def test_ball_streams_of_paths_and_cycles_match_the_whole_graph(data, kind, n):
    # 131 <= n <= 257 vertices, largest degree 2: a c-center r-ball holds at most
    # c (1 + 2r), so one center takes the balls of radius 16, 32 and 64 and then the
    # whole graph, two centers the balls of radius 16 and 32 and then the whole graph
    length = data.draw(st.integers(3, n - 1))
    g = _banded_graph(data.draw, kind, length, n)
    x, y = data.draw(st.integers(0, length)), data.draw(st.integers(0, length))
    orders = 8 * INITIAL_RADIUS + 6  # past the switch at 128
    radii = [INITIAL_RADIUS, 2 * INITIAL_RADIUS, 4 * INITIAL_RADIUS]
    assert _ball_streams_match_the_whole_graph(g, x, y, orders) == [radii, radii[:4 - len({x, y})]]


@settings(max_examples=3, deadline=None, derandomize=True)
@given(st.data(), st.integers(3, 40))
def test_ball_streams_of_ladders_match_the_whole_graph(data, rungs):
    # largest degree 3: a 16-ball around one center (x = y) holds at most
    # 1 + 3 (2^16 - 1) vertices, and a 32-ball could cover the graph
    n = 1 + 3 * (2 ** INITIAL_RADIUS - 1) + 1
    g = _banded_graph(data.draw, "ladder", rungs, n)
    y = data.draw(st.integers(0, 2 * rungs))
    radii = _ball_streams_match_the_whole_graph(g, y, y, 2 * INITIAL_RADIUS + 6)
    assert radii == [[INITIAL_RADIUS], [INITIAL_RADIUS]]


def _reference_ball(source, centers, radius):
    """The induced ball as a WeightedGraph built from neighbors, measure and killing:
    what BallSearch.ball must reproduce bit for bit."""
    members = sorted(set().union(*(distances_from(source, x, cutoff=radius) for x in centers)))
    index = {v: i for i, v in enumerate(members)}
    edges = [(index[v], index[nbr], w) for v in members for nbr, w in source.neighbors(v)
             if v < nbr and nbr in index]
    ball_graph = WeightedGraph(len(members), edges, [source.measure(v) for v in members],
                               [source.killing(v) for v in members])
    return np.array(members, dtype=np.intp), ball_graph


def _ball_bits(labels, kernel):
    arrays = [labels] + [getattr(kernel, name) for name in ("rows", "cols", "w", "m", "diag")]
    return ([(a.dtype, a.tobytes()) for a in arrays]
            + [(kernel.bound, kernel.degree)])


def _killing_chain():
    """:func:`_chain` with a killing term on every third vertex."""
    return ProceduralGraph(lambda u: [(u - 1, _weight(u - 1)), (u + 1, _weight(u))],
                           measure_fn=lambda u: 1.0 + (u % 5) / 4.0,
                           killing_fn=lambda u: 0.5 * (u % 3 == 0), max_degree=2)


@SETTINGS
@given(spread_graphs(), st.integers(0, 3), st.data())
def test_balls_are_slices_of_the_compiled_graph(g, radius, data):
    centers = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=3))
    assert (_ball_bits(*BallSearch(g, centers).ball(radius))
            == _ball_bits(*_reference_ball(g, centers, radius)))


EXPLORED = _killing_chain()  # its store grows over the examples


@SETTINGS
@given(st.integers(0, 3), st.lists(st.integers(-40, 40), min_size=1, max_size=3))
def test_balls_are_slices_of_the_explored_rows(radius, centers):
    # on the shared line the ball is sliced from rows that earlier examples explored
    expected = _ball_bits(*_reference_ball(_killing_chain(), centers, radius))
    assert _ball_bits(*BallSearch(EXPLORED, centers).ball(radius)) == expected
    assert _ball_bits(*BallSearch(_killing_chain(), centers).ball(radius)) == expected


def test_a_ball_after_the_store_grew_equals_a_fresh_one():
    line = _killing_chain()
    BallSearch(line, [0]).ball(3)
    BallSearch(line, [100]).ball(5)  # explored apart from the first region
    for centers, radius in (([2], 3), ([-1, 98], 4), ([50], 2), ([0, 100], 0)):
        assert (_ball_bits(*BallSearch(line, centers).ball(radius))
                == _ball_bits(*BallSearch(_killing_chain(), centers).ball(radius)))


def test_threads_growing_one_store_slice_the_balls_of_a_fresh_source():
    requests = [([c, c + 7], r) for c in range(-90, 90, 9) for r in (1, 5, 16)]
    expected = [_ball_bits(*BallSearch(_killing_chain(), cs).ball(r)) for cs, r in requests]
    line, results = _killing_chain(), [None] * 8

    def work(k):
        order = requests if k % 2 == 0 else requests[::-1]
        results[k] = [_ball_bits(*BallSearch(line, cs).ball(r)) for cs, r in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(interval)
    for k, got in enumerate(results):
        assert got == (expected if k % 2 == 0 else expected[::-1])


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
                rows = PairRows(g, [(x, y)])
                for t in ts:
                    for unitary, single in ((False, heat_element), (True, wave_element)):
                        shared = pair_element(rows, 0, t, "series", unitary)
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


@SETTINGS
@given(st.sampled_from(["line", "doubling", "random"]), st.integers(0, 2 ** 32),
       st.lists(st.integers(-30, 30), max_size=4))
def test_the_bound_of_a_procedural_1_ball_is_that_of_its_slice(kind, seed, centers):
    # the scale of PairRows on a procedural source: the bound of its pairs' 1-ball, rounded up
    make = {"line": integer_line, "doubling": doubling_line,
            "random": lambda: random_oracle(seed)}[kind]
    rows = PairRows(make(), [(x, x + 1) for x in centers])
    vertices = sorted({v for x in centers for v in (x, x + 1)})
    sliced = BallSearch(make(), vertices).ball(1)[1]
    scale = 2.0 ** math.ceil(math.log2(sliced.bound)) if sliced.bound > 0 else 1.0
    assert (rows.bound.hex(), rows.scale, 2.0 ** rows.exp) == (sliced.bound.hex(), scale, scale)


@pytest.mark.parametrize("source, pairs, bad", [
    (path_graph(10), [(0, 1), (np.int64(2), 3), (0, 12)], np.int64(2)),
    (path_graph(10), [(0, 1), (2, np.intp(3))], np.intp(3)),
    (path_graph(10), [(0, 1), (2, "3")], "3"),
    (path_graph(10), [(0, 1.0)], 1.0),
    (path_graph(10), [(0, 1), (5, 9), (12, 0), (-1, 2)], 12),
    (path_graph(10), [(0, 1), (-1, 2), (12, 0)], -1),
    (path_graph(10), [(3, 2), (4, 10)], 10),
    (integer_line(), [(-4, 7), (0, np.int64(3))], np.int64(3)),
])
def test_pair_rows_raise_at_the_first_id_the_source_lacks(source, pairs, bad):
    with pytest.raises(ValueError) as error:
        PairRows(source, pairs)
    assert str(error.value) == f"unknown vertex id {bad!r}"


ID_READERS = {
    "pair_moments": lambda g, pairs: pair_moments(g, pairs, 2),
    "first_nonzero_orders": lambda g, pairs: first_nonzero_orders(
        LaplacianOperator(g), list(itertools.chain(*pairs)), 2),
    "path_sum_moment": lambda g, pairs: [path_sum_moment(LaplacianOperator(g), x, y, 1)
                                         for x, y in pairs],
    "distances_from": lambda g, pairs: [distances_from(g, v, 2) for v in itertools.chain(*pairs)],
    "combinatorial_distance": lambda g, pairs: [combinatorial_distance(g, x, y, 2) for x, y in pairs],
    "BallSearch": lambda g, pairs: BallSearch(g, list(itertools.chain(*pairs))).ball(0),
}


@pytest.mark.parametrize("reader", ID_READERS)
@pytest.mark.parametrize(  # the cases of the test above
    *test_pair_rows_raise_at_the_first_id_the_source_lacks.pytestmark[0].args)
def test_every_reader_raises_at_the_first_id_the_source_lacks(reader, source, pairs, bad):
    # one reader a pair or an id at a time reads its ids in pair order too
    with pytest.raises(ValueError) as error:
        ID_READERS[reader](source, pairs)
    assert str(error.value) == f"unknown vertex id {bad!r}"
    with pytest.raises(ValueError, match="unknown vertex id 'x'"):  # x before y in a pair
        ID_READERS[reader](source, [("x", "y")])


def test_pair_rows_take_bools_as_the_ints_they_are():
    g, pairs = path_graph(4), [(True, 3), (0, False), (2, 2)]
    rows, ints = PairRows(g, pairs), PairRows(g, [(1, 3), (0, 0), (2, 2)])
    assert rows.index == {(1, 3): 0, (0, 0): 1, (2, 2): 2}
    assert rows.vertices.tolist() == [0, 1, 2, 3]
    assert (rows.at == ints.at).all()
    assert [rows.floats(i, 3) for i in range(3)] == [ints.floats(i, 3) for i in range(3)]
    assert PairRows(integer_line(), [(-4, True)]).vertices.tolist() == [-4, 1]


def test_threads_sharing_pair_rows_read_the_single_thread_values():
    # one stream, one list of converted orders per pair: without the lock a thread's
    # next() met the other's ('generator already executing') or a half-built list
    g = from_spec("random:200:0.03:1")
    pairs = _select_pairs(g, "sample:50", 1)
    alone = PairRows(g, pairs)
    want = [(heat_element(alone, x, y, 1e-3), wave_element(alone, x, y, 1e-3)) for x, y in pairs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            rows, got, errors = PairRows(g, pairs), {}, []

            def work(share):
                try:
                    for x, y in share:
                        got[x, y] = heat_element(rows, x, y, 1e-3), wave_element(rows, x, y, 1e-3)
                except Exception as error:  # noqa: BLE001 - reported below
                    errors.append(error)

            threads = [threading.Thread(target=work, args=(pairs[k::2],)) for k in (0, 1)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
            assert not any(th.is_alive() for th in threads)
            assert errors == []
            assert [got[pair] for pair in pairs] == want
    finally:
        sys.setswitchinterval(interval)

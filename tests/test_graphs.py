import itertools
import math
import operator
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphheat import (INFINITE, ProceduralGraph, WeightedGraph, ball,
                       combinatorial_distance, degree, distances_from, from_spec,
                       heat_element, integer_line, is_connected, path_graph,
                       random_connected_graph, random_graph, validate, wave_element)
from graphheat.asymptotics import exponent_fits
from graphheat.graphs import neighborhood, pair_distances
from graphheat.spectral import select_route


def test_constructor_mirrors_edges():
    g = WeightedGraph(3, [(0, 1, 2.0), (1, 2, 0.5)])
    assert g.weight(0, 1) == 2.0
    assert g.weight(1, 0) == 2.0
    assert g.weight(0, 2) == 0.0
    assert g.edge_count == 2
    assert list(g.edges()) == [(0, 1, 2.0), (1, 2, 0.5)]


@pytest.mark.parametrize("bad", [
    lambda: WeightedGraph(2, [(0, 0, 1.0)]),            # self-loop
    lambda: WeightedGraph(2, [(0, 2, 1.0)]),            # unknown vertex
    lambda: WeightedGraph(2, [(0, 1, -1.0)]),           # negative weight
    lambda: WeightedGraph(2, [(0, 1, 1.0), (1, 0, 1.0)]),  # duplicate edge
    lambda: WeightedGraph(2, [(0, 1, 1.0)], measure=0.0),  # nonpositive measure
    lambda: WeightedGraph(2, [(0, 1, 1.0)], killing=-1.0),  # negative killing
    lambda: WeightedGraph(2, [(0, 1, math.inf)]),       # non-finite weight
    lambda: WeightedGraph(3, [(0, 1.7, 1.0)]),          # non-integral vertex id
    lambda: WeightedGraph(3, [(2.0, 1, 1.0)]),          # float vertex id
    lambda: WeightedGraph(2.9, [(0, 1, 1.0)]),          # non-integral vertex count
    lambda: WeightedGraph(-1),                          # negative vertex count
    lambda: WeightedGraph(3, measure=[1.0, 2.0]),       # two measures for three vertices
])
def test_constructor_rejects_invalid(bad):
    with pytest.raises(ValueError):
        bad()


def test_ids_and_counts_are_taken_as_operator_index_takes_them():
    with pytest.raises(ValueError, match="vertex id must be an integer, got 1.7"):
        WeightedGraph(3, [(0, 1.7, 1.0)])
    with pytest.raises(ValueError, match="vertex count must be an integer, got 2.9"):
        WeightedGraph(2.9)
    g = WeightedGraph(np.int64(3), [(np.int32(0), np.int64(2), 1.5), (True, 2, 1.0)])
    assert g.n == 3 and list(g.edges()) == [(0, 2, 1.5), (1, 2, 1.0)]
    assert (g.weight_sum(True), g.measure(True), g.killing(True)) == (1.0, 1.0, 0.0)  # as vertex 1


def test_validate_clean_graph():
    g = WeightedGraph(2, [(0, 1, 1.0)])
    assert validate(g) == []


def test_validate_reports_asymmetry():
    g = WeightedGraph.from_adjacency([{1: 1.0}, {0: 2.0}])
    problems = validate(g)
    assert len(problems) == 1
    assert "asymmetric" in problems[0] and "(0, 1)" in problems[0]


def test_validate_reports_nonpositive_measure():
    g = WeightedGraph.from_adjacency([{1: 1.0}, {0: 1.0}], measure=[0.0, 1.0])
    problems = validate(g)
    assert any("nonpositive measure at 0" in p for p in problems)


def test_validate_reports_diagonal_and_negative():
    g = WeightedGraph.from_adjacency([{0: 3.0, 1: -1.0}, {0: -1.0}])
    problems = validate(g)
    assert any("diagonal" in p for p in problems)
    assert any("negative weight" in p for p in problems)


def test_validate_clean_on_generators():
    for seed in range(25):
        g = random_graph(2 + seed % 12, 0.4, seed)
        assert validate(g) == []
        g = random_connected_graph(2 + seed % 12, 0.3, seed, random_killing=True)
        assert validate(g) == []


def test_distance_on_path():
    g = path_graph(3)
    assert combinatorial_distance(g, 0, 2, cutoff=10) == 2
    assert combinatorial_distance(g, 0, 0) == 0
    assert combinatorial_distance(g, 2, 1) == 1


def test_distance_disconnected_is_infinite():
    g = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    assert combinatorial_distance(g, 0, 3, cutoff=10) == INFINITE


def test_distance_cutoff_truncates():
    g = path_graph(6)
    assert combinatorial_distance(g, 0, 5, cutoff=3) == INFINITE
    assert combinatorial_distance(g, 0, 5, cutoff=5) == 5


def test_negative_cutoff_is_rejected_by_every_distance_query():
    g = path_graph(5)
    for query in (lambda: combinatorial_distance(g, 0, 4, cutoff=-1),
                  lambda: distances_from(g, 0, cutoff=-1)):
        with pytest.raises(ValueError, match="cutoff must be non-negative"):
            query()
    assert distances_from(g, 0, cutoff=0) == {0: 0}


def test_distance_unknown_vertex():
    g = path_graph(3)
    with pytest.raises(ValueError):
        combinatorial_distance(g, 0, 7)


def test_distance_triangle_inequality():
    for seed in range(10):
        g = random_connected_graph(10, 0.3, seed)
        dist = {x: distances_from(g, x) for x in g.vertices}
        for x in g.vertices:
            for y in g.vertices:
                for z in g.vertices:
                    assert dist[x][z] <= dist[x][y] + dist[y][z]


def test_distance_one_iff_adjacent():
    for seed in range(10):
        g = random_graph(8, 0.4, seed)
        for x in g.vertices:
            for y in g.vertices:
                if x != y:
                    d = combinatorial_distance(g, x, y)
                    assert (d == 1) == (g.weight(x, y) > 0)


def test_is_connected():
    assert is_connected(path_graph(3))
    assert not is_connected(WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)]))
    assert is_connected(WeightedGraph(1))
    assert is_connected(WeightedGraph(0))


def test_degree():
    g = WeightedGraph(2, [(0, 1, 1.0)])
    assert degree(g, 0) == 1.0
    g = WeightedGraph(3, [(0, 1, 2.0), (0, 2, 3.0)], measure=[2.0, 1.0, 1.0],
                      killing=[1.0, 0.0, 0.0])
    assert degree(g, 0) == (2.0 + 3.0 + 1.0) / 2.0  # hand evaluation: 3
    assert degree(g, 0) == 3.0
    g = WeightedGraph(1)
    assert degree(g, 0) == 0.0


def test_ball_on_path():
    g = path_graph(4)
    b = ball(g, 0, 1)
    assert b.n == 2
    assert b.labels == (0, 1)
    assert list(b.edges()) == [(0, 1, 1.0)]


def test_ball_radius_zero():
    g = path_graph(4)
    b = ball(g, 2, 0)
    assert b.n == 1
    assert b.labels == (2,)
    assert b.edge_count == 0


def test_ball_on_integer_line():
    line = integer_line()
    b = ball(line, 0, 2)
    assert b.labels == (-2, -1, 0, 1, 2)
    assert b.edge_count == 4


def test_neighborhood_is_the_union_of_the_center_balls():
    line = integer_line()
    for r in range(6):
        union = set().union(*(ball(line, x, r).labels for x in (0, 3, 40)))
        assert neighborhood(line, [0, 3, 40], r).labels == tuple(sorted(union))


def test_a_negative_radius_is_rejected_on_both_kinds_of_source():
    for source in (path_graph(4), integer_line()):
        with pytest.raises(ValueError, match="radius must be non-negative"):
            ball(source, 0, -1)


def test_ball_matches_distance_sets():
    for seed in range(5):
        g = random_connected_graph(12, 0.25, seed)
        dist = distances_from(g, 0)
        previous = set()
        for r in range(5):
            b = ball(g, 0, r)
            members = set(b.labels)
            assert members == {v for v, d in dist.items() if d <= r}
            assert previous <= members
            previous = members


def test_a_search_for_targets_stops_at_the_layer_of_the_last():
    cycle = WeightedGraph(2000, [(v, (v + 1) % 2000, 1.0) for v in range(2000)])
    assert distances_from(cycle, 0, targets=[3, 1998]) == {
        v: min(v, 2000 - v) for v in (0, 1, 2, 3, 1997, 1998, 1999)}
    # a target out of reach leaves the whole component searched
    g = WeightedGraph(5, [(0, 1, 1.0), (1, 2, 1.0)])
    assert distances_from(g, 0, targets=[1, 4]) == distances_from(g, 0) == {0: 0, 1: 1, 2: 2}
    assert distances_from(integer_line(), 0, cutoff=9, targets=[-2]) == {
        v: abs(v) for v in range(-2, 3)}


@settings(deadline=None)
@given(n=st.integers(0, 30), p=st.floats(0.0, 0.3), seed=st.integers(0, 10 ** 6),
       cutoff=st.sampled_from([0, 1, 2, None]), data=st.data())
def test_the_array_search_equals_a_search_per_source(n, p, seed, cutoff, data):
    # sparse random graphs have isolated vertices and several components
    g = random_graph(n, p, seed)
    vertex = st.integers(0, max(n - 1, 0))
    pairs = data.draw(st.lists(st.tuples(vertex, vertex), max_size=40 if n else 0))
    pairs += [(x, x) for x, _ in pairs[:3]]  # x == y
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    got = pair_distances(g, xs, ys, cutoff)
    assert got.dtype.kind == "i" and got.dtype.itemsize <= 2
    assert got.tolist() == [distances_from(g, x, cutoff=cutoff).get(y, -1) for x, y in pairs]


@settings(deadline=None)
@given(n=st.integers(1, 30), p=st.floats(0.0, 0.3), seed=st.integers(0, 10 ** 6),
       cutoff=st.sampled_from([0, 1, 2, None]), data=st.data())
def test_a_distance_query_reads_the_layered_search(n, p, seed, cutoff, data):
    # isolated vertices, several components, x == y and targets beyond the cutoff
    g = random_graph(n, p, seed)
    x, y = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    assert combinatorial_distance(g, x, y, cutoff) == distances_from(g, x, cutoff).get(
        y, INFINITE)
    # the procedural line takes a cutoff, within or short of |u - v|
    u, v, radius = (data.draw(st.integers(-12, 12)) for _ in range(3))
    expected = abs(u - v) if abs(u - v) <= abs(radius) else INFINITE
    assert combinatorial_distance(integer_line(), u, v, abs(radius)) == expected == (
        distances_from(integer_line(), u, abs(radius)).get(v, INFINITE))


def test_the_array_search_rejects_what_the_layered_search_rejects():
    g = path_graph(4)
    for xs, ys, cutoff in (([0], [4], None), ([-1], [2], None), ([0], [2], -1)):
        with pytest.raises(ValueError, match="non-negative cutoff and vertex ids"):
            pair_distances(g, xs, ys, cutoff)
    with pytest.raises(ValueError, match="vertex id must be an integer, got 1.5"):
        pair_distances(g, [0], [1.5])


def test_procedural_requires_cutoff():
    line = integer_line()
    with pytest.raises(ValueError):
        combinatorial_distance(line, 0, 5)
    assert combinatorial_distance(line, 0, 5, cutoff=10) == 5
    assert combinatorial_distance(line, 3, -2, cutoff=10) == 5


def test_procedural_caches_oracle():
    calls = []

    def neighbor_fn(x):
        calls.append(x)
        return [(x - 1, 1.0), (x + 1, 1.0)]

    g = ProceduralGraph(neighbor_fn)
    first = list(g.neighbors(0))
    second = list(g.neighbors(0))
    assert first == second
    assert calls == [0]


def test_procedural_asymmetric_oracle_rejected():
    # the row of 1 disagrees with the weight seen from 0, or misses the edge, and is
    # fetched second or first
    for back, first in (([(0, 2.0)], 0), ([], 0), ([], 1)):
        g = ProceduralGraph(lambda x: [(1, 1.0)] if x == 0 else back)
        g.neighbors(first)
        with pytest.raises(ValueError, match="asymmetric"):
            g.neighbors(1 - first)


@pytest.mark.parametrize("source", [integer_line(), path_graph(4)], ids=["line", "path"])
def test_weight_rejects_a_non_integer_vertex(source):
    with pytest.raises(ValueError, match="unknown vertex id 1.7"):
        source.weight(0, 1.7)


@pytest.mark.parametrize("oracles, ask, message", [
    ((lambda x: [(x, 1.0)],), "neighbors", "self-loop at vertex 0"),
    ((lambda x: [(x + 1, 0.0)],), "neighbors", "non-positive weight 0.0 on edge"),
    ((lambda x: [(x + 1, math.nan)],), "neighbors", "non-positive weight nan on edge"),
    ((lambda x: [(x + 1, 1.0), (x + 1, 1.0)],), "neighbors", "neighbor 1 of 0 twice"),
    ((lambda x: [], lambda x: 0.0), "measure", "positive and finite at vertex 0, got 0.0"),
    ((lambda x: [], None, lambda x: -1.0), "killing", "non-negative and finite at vertex 0"),
], ids=["loop", "zero", "nan", "twice", "measure", "killing"])
def test_procedural_oracle_answers_are_checked(oracles, ask, message):
    with pytest.raises(ValueError, match=message):
        getattr(ProceduralGraph(*oracles), ask)(0)


def test_a_procedural_graph_asks_each_oracle_once_per_vertex():
    asked = []
    line = ProceduralGraph(lambda x: [(x - 1, 1.0), (x + 1, 1.0)],
                           lambda x: asked.append(("measure", x)) or 1.0 + x * x,
                           lambda x: asked.append(("killing", x)) or 0.5)
    heat_element(line, 0, 3, 0.1)  # the stream's balls enter each vertex's answers once
    for x in range(-40, 41):
        m = 1.0 + x * x
        assert (line.measure(x), line.killing(x), degree(line, x)) == (m, 0.5, 2.5 / m)
    assert set(asked) >= {(kind, x) for kind in ("measure", "killing") for x in range(-40, 41)}
    assert len(asked) == len(set(asked))


VERTEX_IDS = st.one_of(st.integers(-3, 8), st.booleans(), st.integers(0, 4).map(np.int64),
                       st.floats(-1.0, 8.0), st.text(max_size=1))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(st.integers(0, 6).map(WeightedGraph), st.builds(integer_line)),
       st.lists(VERTEX_IDS, max_size=6))
def test_one_check_raises_where_the_per_id_loop_does(source, ids):
    unknown = [x for x in ids if not source.has_vertex(x)]
    if not unknown:
        source._check(*ids)
        return
    with pytest.raises(ValueError) as error:
        source._check(*ids)
    assert str(error.value) == f"unknown vertex id {unknown[0]!r}"


def test_procedural_degree_and_connectivity():
    line = integer_line()
    assert degree(line, 0) == 2.0  # the row's weight sum over the measure
    with pytest.raises(ValueError, match="connectivity check requires a finite graph"):
        is_connected(line)


def test_procedural_max_degree_enforced():
    g = ProceduralGraph(lambda x: [(x + k, 1.0) for k in range(1, 5)], max_degree=2)
    with pytest.raises(ValueError, match="neighbors"):
        g.neighbors(0)


# -- the arrays against the per-edge dict construction they replaced --------

GRAPH_SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)


def dict_graph(n, edges, measure, killing):
    """(rows, m, c): each edge checked in input order into sorted adjacency dicts,
    after the measures, killing terms and ids (by operator.index); raises the
    ValueError of the first defect."""
    m, c = [float(v) for v in measure], [float(v) for v in killing]
    for x in range(n):
        if not math.isfinite(m[x]) or m[x] <= 0:
            raise ValueError(f"measure must be positive and finite at vertex {x}, got {m[x]}")
        if not math.isfinite(c[x]) or c[x] < 0:
            raise ValueError(f"killing term must be non-negative and finite at vertex {x}, got {c[x]}")
    for x in (x for edge in edges for x in edge[:2]):
        if not hasattr(type(x), "__index__"):
            raise ValueError(f"vertex id must be an integer, got {x!r}")
    adj = [{} for _ in range(n)]
    for u, v, w in edges:
        u, v, w = operator.index(u), operator.index(v), float(w)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) references an unknown vertex")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not math.isfinite(w) or w <= 0:
            raise ValueError(f"edge ({u}, {v}) needs a positive finite weight, got {w}")
        if v in adj[u]:
            raise ValueError(f"duplicate edge ({u}, {v})")
        adj[u][v] = adj[v][u] = w
    return [{k: row[k] for k in sorted(row)} for row in adj], m, c


def dict_compiled(adj, m, c):
    """(rows, cols, w, m, diag) by one pass over the dict rows, diag = fsum(row) + c."""
    rows = np.repeat(np.arange(len(adj)), [len(row) for row in adj])
    cols = np.fromiter(itertools.chain.from_iterable(adj), np.intp, len(rows))
    w = np.fromiter(itertools.chain.from_iterable(map(dict.values, adj)), float, len(rows))
    wsum = np.array([math.fsum(row.values()) for row in adj])
    return rows, cols, w, np.array(m), wsum + np.array(c)


def dict_validate(adj, m, c):
    """validate's problems, read from dict rows."""
    problems = []
    for x in range(len(adj)):
        if not math.isfinite(m[x]) or m[x] <= 0:
            problems.append(f"nonpositive measure at {x}: {m[x]}")
        if not math.isfinite(c[x]) or c[x] < 0:
            problems.append(f"negative killing term at {x}: {c[x]}")
    for x, row in enumerate(adj):
        for y, w in row.items():
            if not math.isfinite(w):
                problems.append(f"non-finite weight at ({x}, {y}): {w}")
                continue
            if w < 0:
                problems.append(f"negative weight at ({x}, {y}): {w}")
            if y == x:
                if w != 0:
                    problems.append(f"nonzero diagonal weight at {x}: {w}")
                continue
            if not (0 <= y < len(adj)):
                problems.append(f"edge ({x}, {y}) references an unknown vertex")
                continue
            back = adj[y].get(x)
            if back != w and (x < y or back is None):
                problems.append(f"asymmetric weight at ({x}, {y}): {w} vs {back}")
    return problems


def spread():
    """Positive floats spread log-uniformly over 1e-8..1e8."""
    return st.floats(-8.0, 8.0).map(lambda e: 10.0 ** e)


@st.composite
def edge_lists(draw):
    """(n, edges, measure, killing): each pair at most once, in either orientation
    and any order, on up to 8 vertices, so rows of 3 or more edges are common."""
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(v, u, w) if draw(st.booleans()) else (u, v, w)
             for (u, v), w in zip(chosen, [draw(spread()) for _ in chosen])]
    killing = [draw(st.sampled_from([0.0, 1.0])) * draw(spread()) for _ in range(n)]
    return n, draw(st.permutations(edges)), [draw(spread()) for _ in range(n)], killing


BAD_WEIGHTS = [0.0, -1.0, math.inf, math.nan]


@st.composite
def defective_edge_lists(draw):
    """edge_lists with defects of every kind put in at drawn places."""
    n, edges, measure, killing = draw(edge_lists())
    edges = list(edges)
    vertex = st.integers(0, n - 1)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["loop", "unknown", "weight", "repeat", "id", "m", "c"]))
        if kind == "m":
            measure[draw(vertex)] = draw(st.sampled_from(BAD_WEIGHTS))
            continue
        if kind == "c":
            killing[draw(vertex)] = draw(st.sampled_from([-1.0, math.inf, math.nan]))
            continue
        if kind == "repeat" and edges:
            u, v, _ = draw(st.sampled_from(edges))
            edge = (v, u, 1.0) if draw(st.booleans()) else (u, v, 2.0)
        elif kind == "loop":
            x = draw(vertex)
            edge = (x, x, 1.0)
        elif kind == "unknown":
            edge = (draw(vertex), draw(st.sampled_from([-1, n, n + 3])), 1.0)
        elif kind == "weight":
            edge = (draw(vertex), draw(vertex), draw(st.sampled_from(BAD_WEIGHTS)))
        else:  # an id operator.index rejects
            edge = (draw(vertex), draw(st.sampled_from([0.5, 1.0, np.float64(2.0), "1"])), 1.0)
        edges.insert(draw(st.integers(0, len(edges))), edge)
    return n, edges, measure, killing


def bits(array):
    return np.ascontiguousarray(array).view(np.uint64)


@GRAPH_SETTINGS
@given(edge_lists())
def test_arrays_equal_the_dict_construction(case):
    n, edges, measure, killing = case
    adj, m, c = dict_graph(n, edges, measure, killing)
    g = WeightedGraph(n, edges, measure, killing)
    u, v, w = (np.array(column) for column in zip(*edges)) if edges else ([], [], [])
    for built in (g, WeightedGraph.from_arrays(n, u, v, w, measure, killing)):
        kernel = built
        for got, want in zip((kernel.rows, kernel.cols, kernel.w, kernel.m, kernel.diag),
                             dict_compiled(adj, m, c)):
            assert got.dtype.itemsize == 8 and np.array_equal(bits(got), bits(want))
    upper = [(x, y, b) for x, row in enumerate(adj) for y, b in row.items() if x < y]
    assert list(g.edges()) == upper and g.edge_count == len(upper)
    assert all(type(x) is int and type(y) is int and type(b) is float for x, y, b in g.edges())
    for x in range(n):
        assert list(g.neighbors(x)) == list(adj[x].items())
        assert all(type(y) is int and type(b) is float for y, b in g.neighbors(x))
        for value, want in ((g.weight_sum(x), math.fsum(adj[x].values())),
                            (g.measure(x), m[x]), (g.killing(x), c[x])):
            assert type(value) is float and value.hex() == want.hex()
        for y in range(n):
            assert type(g.weight(x, y)) is float and g.weight(x, y) == adj[x].get(y, 0.0)


@GRAPH_SETTINGS
@given(defective_edge_lists())
def test_the_first_defect_is_named_as_the_per_edge_checks_name_it(case):
    n, edges, measure, killing = case
    with pytest.raises(ValueError) as want:
        dict_graph(n, edges, measure, killing)
    with pytest.raises(ValueError) as got:
        WeightedGraph(n, edges, measure, killing)
    assert str(got.value) == str(want.value)


@GRAPH_SETTINGS
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.dictionaries(st.integers(-1, n), st.one_of(spread(), st.sampled_from(
        [1.0, 2.0] + BAD_WEIGHTS))), min_size=n, max_size=n),
    st.lists(st.sampled_from([1.0, 0.0, -2.0, math.nan]), min_size=n, max_size=n),
    st.lists(st.sampled_from([0.0, 1.0, -1.0, math.inf]), min_size=n, max_size=n))))
def test_validate_reads_defective_raw_rows_as_the_dict_rows(case):
    rows, measure, killing = case
    g = WeightedGraph.from_adjacency(rows, measure, killing)
    adj = [{k: row[k] for k in sorted(row)} for row in rows]
    assert validate(g) == dict_validate(adj, measure, killing)
    # repr, as nan != nan
    assert repr([list(g.neighbors(x)) for x in g.vertices]) == repr([list(r.items()) for r in adj])


def test_local_exponent_fits_make_rows_only_where_their_searches_went():
    """The local benchmark's cycle and pairs: the CLI's search and the fits' ball
    streams make a dict row only for the vertices they expand, those within 31 hops of
    the pairs (the stream's 32-ball is its last before the whole cycle), not for the
    other 1,900-odd."""
    g = from_spec("cycle:2000")
    pairs = [(1464, 1464 + d) for d in range(21)]
    assert distances_from(g, 1464, targets=[y for _, y in pairs]) == {
        v: abs(v - 1464) for v in range(1464 - 20, 1464 + 21)}
    for group in ("heat", "wave"):
        assert [fit.y for fit in exponent_fits(g, pairs, group=group)] == [y for _, y in pairs]
    assert set(g._dict_rows) == set(range(1464 - 31, 1464 + 20 + 32))


def test_threads_that_share_a_graph_read_one_dict_row_per_vertex():
    g = random_connected_graph(60, 0.1, 3)
    rows = [None] * 8

    def work(k):
        order = list(g.vertices) if k % 2 == 0 else list(g.vertices)[::-1]
        rows[k] = {x: (g._row(x), list(g.neighbors(x))) for x in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(interval)
    for x in g.vertices:  # a lost race would leave threads holding different rows
        assert all(got[x][0] is g._dict_rows[x] for got in rows)
        assert all(got[x][1] == list(zip(*(a[g._indptr[x]:g._indptr[x + 1]].tolist()
                                           for a in (g.cols, g.w)))) for got in rows)


def test_a_pickled_graph_has_read_only_arrays_and_gives_the_elements_bits():
    g = random_connected_graph(30, 0.2, 1)
    heat_element(g, 0, 5, 0.01)  # leaves the pair's stream on the graph, per thread
    ts = [0.0, 0.01, 0.3, 2.0]
    assert {select_route(g, t, "auto") for t in ts} == {"series", "eigen"}
    for original in (g, ball(g, 3, 2)):  # a ball keeps its labels
        copy = pickle.loads(pickle.dumps(original))
        assert (copy.n, copy.labels) == (original.n, original.labels)
        for name in ("rows", "cols", "w", "m", "c", "wsum", "diag"):
            array = getattr(copy, name)
            assert not array.flags.writeable, name
            assert array.tobytes() == getattr(original, name).tobytes(), name
        for x, y in [(0, 5), (1, 2), (4, 4)]:
            for t in ts:
                assert heat_element(copy, x, y, t) == heat_element(original, x, y, t)
                assert wave_element(copy, x, y, t) == wave_element(original, x, y, t)

import math

import pytest

from graphheat import (INFINITE, ProceduralGraph, WeightedGraph, ball,
                       combinatorial_distance, degree, distances_from,
                       integer_line, is_connected, path_graph,
                       random_connected_graph, random_graph, validate)


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
])
def test_constructor_rejects_invalid(bad):
    with pytest.raises(ValueError):
        bad()


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
    def neighbor_fn(x):
        if x == 0:
            return [(1, 1.0)]
        return [(0, 2.0)]  # disagrees with the weight seen from 0

    g = ProceduralGraph(neighbor_fn)
    g.neighbors(0)
    with pytest.raises(ValueError, match="asymmetric"):
        g.neighbors(1)


def test_procedural_max_degree_enforced():
    g = ProceduralGraph(lambda x: [(x + k, 1.0) for k in range(1, 5)], max_degree=2)
    with pytest.raises(ValueError, match="neighbors"):
        g.neighbors(0)

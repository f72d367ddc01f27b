import pytest

from graphheat import (GraphFormatError, dump_graph, load_graph, parse_graph,
                       random_connected_graph, save_graph)

P3_TEXT = """\
# three vertices in a row
graph 3
v 0 1.0 0.0
v 1 1.0 0.0
v 2 1.0 0.0
e 0 1 1.0
e 1 2 1.0
"""


def test_parse_path_file():
    g = parse_graph(P3_TEXT)
    assert g.n == 3
    assert g.weight(0, 1) == 1.0
    assert g.weight(1, 2) == 1.0
    assert g.weight(0, 2) == 0.0
    assert g.measure(1) == 1.0
    assert g.killing(2) == 0.0


def test_round_trip():
    for seed in range(8):
        g = random_connected_graph(7, 0.4, seed, random_killing=True)
        h = parse_graph(dump_graph(g))
        assert h.n == g.n
        assert list(h.edges()) == list(g.edges())
        assert [h.measure(v) for v in h.vertices] == [g.measure(v) for v in g.vertices]
        assert [h.killing(v) for v in h.vertices] == [g.killing(v) for v in g.vertices]


def test_save_and_load(tmp_path):
    g = random_connected_graph(5, 0.5, 3)
    path = tmp_path / "g.txt"
    save_graph(g, path)
    h = load_graph(path)
    assert list(h.edges()) == list(g.edges())


def test_blank_lines_and_comments_ignored():
    g = parse_graph("\n# heading\n\ngraph 1\n  # indented comment\nv 0 2.0 1.0\n")
    assert g.n == 1
    assert g.measure(0) == 2.0
    assert g.killing(0) == 1.0


@pytest.mark.parametrize("text,line,fragment", [
    ("graph 2\nv 0 1 0\nv 0 1 0\ne 0 1 1\n", 3, "duplicate vertex"),
    ("graph 2\nv 0 1 0\nv 1 1 0\ne 0 1 1\ne 1 0 2\n", 5, "duplicate edge"),
    ("graph 3\nv 0 1 0\nv 1 1 0\nv 2 1 0\ne 0 3 1\n", 5, "out of range"),
    ("graph 2\nv 0 1 0\nv 1 1 0\ne 0 1 nan\n", 4, "finite"),
    ("graph 2\nv 0 0.0 0\nv 1 1 0\n", 2, "positive"),
    ("graph 2\nv 0 1 0\nv 1 1 0\ne 0 0 1\n", 4, "self-loop"),
    ("graph 2\nv 0 1 0\nv 1 1 0\ne 0 1 0\n", 4, "positive"),
    ("graph 2\nv 0 1 0\nv 1 1 -2\n", 3, "non-negative"),
    ("v 0 1 0\n", 1, "header"),
    ("graph 2\nv 0 1 0\nv 1 1 0\nq 0 1\n", 4, "unknown line type"),
    ("graph 2\nv 0 1 0\nv 1 1 0\ne 0 1\n", 4, "edge line"),
    ("graph 2\nv 0 1 0\n", 1, "never declared"),
    ("graph 2\nv 0 x 0\nv 1 1 0\n", 2, "measure is not a number"),
    ("graph 2\ngraph 2\nv 0 1 0\nv 1 1 0\n", 2, "duplicate 'graph' header"),
    ("graph\nv 0 1 0\n", 1, "header must be 'graph <n>'"),
    ("graph -1\n", 1, "vertex count must be non-negative"),
    ("graph 2\nv 0 1\nv 1 1 0\n", 2, "vertex line"),
    ("graph 2\nv 0 1 0\nv 5 1 0\n", 3, "vertex id 5 out of range"),
    ("graph 2\nv 0 1 0\ne 0 1 1\n", 3, "references undeclared vertex 1"),
])
def test_rejects_malformed(text, line, fragment):
    with pytest.raises(GraphFormatError) as err:
        parse_graph(text)
    assert err.value.line_no == line
    assert fragment in str(err.value)


def test_missing_header_entirely():
    with pytest.raises(GraphFormatError):
        parse_graph("# nothing here\n")

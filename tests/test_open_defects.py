"""The open defects ROADMAP.md lists, one strict xfail each.

Each test asserts what a correct run gives; it fails today, and ``strict=True``
turns its first pass into a failure, so the change that mends a defect must
also drop its mark here.  The reason names the ROADMAP items that carry it.
"""

import pytest

from graphheat import from_spec, heat_element, path_graph
from graphheat.cli import main

from conftest import doubling_line

PATH_WEIGHTS_TEXT = """\
graph 4
v 0 1.0 0.0
v 1 1.0 0.0
v 2 1.0 0.0
v 3 1.0 0.0
e 0 1 1e-200
e 1 2 1e-200
e 2 3 1.0
"""


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.xfail(strict=True, reason="item 2: eigen cancellation leaves a far heat element "
                   "below zero")
def test_a_far_heat_element_on_the_path_is_positive():
    assert heat_element(path_graph(12), 0, 11, 0.13) > 0.0


@pytest.mark.xfail(strict=True, reason="item 2: eigen rounding gives heat from an isolated "
                   "vertex negative values")
def test_heat_from_an_isolated_vertex_is_never_negative():
    graph = from_spec("random:200:0.03:1")
    assert not list(graph.neighbors(55))  # vertex 55 has no edge
    values = [heat_element(graph, 55, y, t) for y in range(0, 200, 7) for t in (0.5, 1, 2, 4)]
    assert min(values) >= 0.0


@pytest.mark.xfail(strict=True, reason="items 4 and 17: moments of weights near 1e-200 "
                   "underflow, so distance reports false mismatches")
def test_distance_on_tiny_weights_matches_every_hop_distance(capsys, tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text(PATH_WEIGHTS_TEXT)
    code, out, _ = run(capsys, "distance", "--input", str(path))
    assert code == 0 and "mismatch" not in out


@pytest.mark.xfail(strict=True, reason="items 4 and 11: a far pair's diagonal overflows and "
                   "its bound reads nan")
def test_a_far_pair_on_the_cycle_has_finite_bounds(capsys):
    code, out, _ = run(capsys, "heat", "--gen", "cycle:1100", "--pairs", "0,540", "--count", "3")
    assert code == 0 and "nan" not in out


@pytest.mark.xfail(strict=True, reason="items 2 and 6: auto leaves the series for eigen, "
                   "above the dense size limit")
def test_a_wave_sweep_on_a_large_cycle_runs(capsys):
    code, _, err = run(capsys, "wave", "--gen", "cycle:3000", "--pairs", "0,5", "--t0", "1",
                       "--count", "3")
    assert (code, err) == (0, "")


@pytest.mark.xfail(strict=True, reason="items 2, 3 and 6: eigen rows below the eigen floor "
                   "fail their checks")
def test_verify_on_the_path_passes_at_t0_1(capsys):
    code, _, err = run(capsys, "verify", "--gen", "path:400", "--pairs", "sample:50", "--seed",
                       "1", "--t0", "1")
    assert code == 0, err


@pytest.mark.xfail(strict=True, raises=ArithmeticError, reason="item 5: the series on the "
                   "doubling line stops short of its remainder target at t = 0.05")
def test_the_doubling_line_series_converges_at_t_0_05():
    assert heat_element(doubling_line(), 0, 0, 0.05) > 0.0


@pytest.mark.xfail(strict=True, reason="items 4 and 17: the far pair's moment at its hop "
                   "distance underflows to 0.0, so verify exits 2")
def test_verify_certifies_a_far_pair_on_the_cycle(capsys):
    code, _, err = run(capsys, "verify", "--gen", "cycle:1100", "--pairs", "0,540")
    assert code == 0, err


@pytest.mark.xfail(strict=True, reason="item 4: far pairs on the path underflow, so their "
                   "checks pass vacuously at lhs = rhs = 0.0")
def test_verify_on_the_path_has_no_vacuous_checks(capsys):
    code, _, err = run(capsys, "verify", "--gen", "path:400", "--pairs", "sample:50", "--seed",
                       "1")
    assert code == 0 and "vacuous" not in err

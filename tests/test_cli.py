import argparse
import csv
import io
import math
import random
import re
import sys
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphheat import (INFINITE, LaplacianOperator, cli, combinatorial_distance, from_spec,
                       distances_from, heat_element, leading_exponent_fit, moment_table,
                       moments, path_graph, random_graph, spectral, wave_element)
from graphheat.moments import PairRows, UnknownAbove
from graphheat.spectral import select_route
from graphheat.cli import PAIR_CAP, _hop_distances, _pairs_at, _select_pairs, main
from graphheat.graphs import BallSearch

from conftest import series_coefficient

P3_TEXT = """\
graph 3
v 0 1.0 0.0
v 1 1.0 0.0
v 2 1.0 0.0
e 0 1 1.0
e 1 2 1.0
"""

TWO_EDGES_TEXT = """\
graph 4
v 0 1.0 0.0
v 1 1.0 0.0
v 2 1.0 0.0
v 3 1.0 0.0
e 0 1 1.0
e 2 3 1.0
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows(out):
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_distance_on_path_file(tmp_path, capsys):
    path = tmp_path / "p3.txt"
    path.write_text(P3_TEXT)
    code, out, _ = run(capsys, "distance", "--input", str(path))
    assert code == 0
    header, body = rows(out)
    assert header == ["x", "y", "d_E", "d_L", "status"]
    assert body == [
        ["0", "1", "1", "1", "ok"],
        ["0", "2", "2", "2", "ok"],
        ["1", "2", "1", "1", "ok"],
    ]


def test_distance_disconnected_consistent(tmp_path, capsys):
    path = tmp_path / "two.txt"
    path.write_text(TWO_EDGES_TEXT)
    code, out, _ = run(capsys, "distance", "--input", str(path), "--cutoff", "10")
    assert code == 0
    _, body = rows(out)
    row = next(r for r in body if r[0] == "0" and r[1] == "3")
    assert row[2] == "inf"
    assert row[3] == ">10"
    assert row[4] == "ok"


def test_distance_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("graph 2\nv 0 1 0\nv 1 1 0\ne 0 oops 1\n")
    code, _, err = run(capsys, "distance", "--input", str(path))
    assert code == 2
    assert "line 4" in err


def test_verify_edge_graph_all_pass(capsys):
    code, out, err = run(capsys, "verify", "--gen", "path:2")
    assert code == 0
    header, body = rows(out)
    assert header == ["which", "x", "y", "d", "t", "n", "lhs", "rhs", "margin", "passed"]
    assert body  # one pair, four checks per grid time
    assert all(r[-1] == "true" for r in body)
    assert "checks passed" in err


def test_verify_random_graph(capsys):
    code, out, _ = run(capsys, "verify", "--gen", "random:15:0.3:42")
    assert code == 0
    _, body = rows(out)
    assert body
    assert all(r[-1] == "true" for r in body)


def test_verify_empty_pair_selection(capsys):
    code, out, _ = run(capsys, "verify", "--gen", "path:1")
    assert code == 0
    header, body = rows(out)
    assert body == []


@pytest.mark.parametrize("command", ["distance", "verify", "exponent", "heat", "wave", "moments"])
def test_a_graph_without_vertices_writes_the_header_alone(tmp_path, capsys, command):
    # as on path:1, which has a vertex but no pair: verify's stderr names 0 checks on 0 pairs
    path = tmp_path / "empty.txt"
    path.write_text("graph 0\n")
    code, out, err = one_vertex = run(capsys, command, "--gen", "path:1")
    assert code == 0 and out.count("\n") == 1 and (err != "") == (command == "verify")
    assert run(capsys, command, "--gen", "path:0") == one_vertex
    assert run(capsys, command, "--input", str(path)) == one_vertex


def test_exponent_fits(capsys):
    code, out, _ = run(capsys, "exponent", "--gen", "path:3")
    assert code == 0
    header, body = rows(out)
    assert header == ["x", "y", "group", "slope", "d_E", "abs_error", "max_residual"]
    fits = {(r[0], r[1]): float(r[3]) for r in body}
    assert abs(fits[("0", "1")] - 1) < 0.01
    assert abs(fits[("0", "2")] - 2) < 0.01
    assert abs(fits[("1", "2")] - 1) < 0.01


def test_exponent_long_path_pair(capsys):
    code, out, _ = run(capsys, "exponent", "--gen", "path:6", "--pairs", "0,5")
    assert code == 0
    _, body = rows(out)
    assert len(body) == 1
    assert abs(float(body[0][3]) - 5) < 0.02


def test_exponent_wave_matches_heat(capsys):
    code_h, out_h, _ = run(capsys, "exponent", "--gen", "path:3", "--group", "heat")
    code_w, out_w, _ = run(capsys, "exponent", "--gen", "path:3", "--group", "wave")
    assert code_h == 0 and code_w == 0
    _, body_h = rows(out_h)
    _, body_w = rows(out_w)
    for rh, rw in zip(body_h, body_w):
        assert abs(float(rh[3]) - float(rw[3])) < 0.05


def test_heat_sweep_matches_closed_form(capsys):
    code, out, _ = run(capsys, "heat", "--gen", "path:2", "--pairs", "0,1")
    assert code == 0
    header, body = rows(out)
    assert header == ["x", "y", "t", "value", "leading", "bound", "method"]
    saw_zero_row = False
    for row in body:
        t = float(row[2])
        value = float(row[3])
        if t == 0.0:
            saw_zero_row = True
            assert value == 0.0  # off-diagonal point masses at t = 0
        else:
            closed = -math.expm1(-2.0 * t) / 2.0
            assert abs(value - closed) <= 1e-12 * closed
        # leading column is t^d |moment| / d! = t for this pair
        assert math.isclose(float(row[4]), t, rel_tol=1e-12, abs_tol=0.0) or t == 0.0
    assert saw_zero_row


def test_heat_sweep_diagonal_t0_row(capsys):
    code, out, _ = run(capsys, "heat", "--gen", "path:2", "--pairs", "0,0")
    assert code == 0
    _, body = rows(out)
    zero_row = next(r for r in body if float(r[2]) == 0.0)
    assert float(zero_row[3]) == 1.0  # m(0) = 1


def test_wave_sweep_reports_modulus(capsys):
    code, out, _ = run(capsys, "wave", "--gen", "path:2", "--pairs", "0,1")
    assert code == 0
    _, body = rows(out)
    for row in body:
        t = float(row[2])
        assert abs(float(row[3]) - abs(math.sin(t))) <= 1e-12


def test_moments_subcommand(capsys):
    code, out, _ = run(capsys, "moments", "--gen", "path:2", "--pairs", "0,1", "--nmax", "2")
    assert code == 0
    header, body = rows(out)
    assert header == ["x", "y", "n", "moment", "d_L"]
    assert [r[3] for r in body] == ["0.0", "-1.0", "-2.0"]
    assert all(r[4] == "1" for r in body)


def test_moments_disconnected_label(capsys):
    code, out, _ = run(capsys, "moments", "--gen", "random:4:0.0:1", "--pairs", "0,3",
                       "--nmax", "3")
    assert code == 0
    _, body = rows(out)
    assert all(r[4] == ">3" for r in body)


def test_moments_far_past_overflow_warn_nothing(capsys):
    # far behind the front the unscaled stream of 1_520 overflows: the rows stay exact, and
    # stderr stays empty under warnings raised as errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "moments", "--gen", "cycle:2000", "--pairs", "0,520",
                             "--nmax", "520")
    assert (code, err) == (0, "")
    assert rows(out)[1][-2:] == [["0", "520", "519", "0.0", "520"],
                                 ["0", "520", "520", "1.0", "520"]]


def _moments_reference(spec, pairs, nmax):
    """The moments subcommand's bytes from one moment_table per pair, written by csv.writer."""
    graph, fh = from_spec(spec), io.StringIO()
    op, out = LaplacianOperator(graph), csv.writer(fh, lineterminator="\n")
    out.writerow(["x", "y", "n", "moment", "d_L"])
    for x, y in _select_pairs(graph, pairs, None):
        table = moment_table(op, x, y, nmax)
        label = f">{nmax}" if isinstance(table.order, UnknownAbove) else table.order
        out.writerows([x, y, n, value, label] for n, value in enumerate(table.values))
    return fh.getvalue()


# isolated vertices 9 and 11 (d_L above nmax), and (x, x), a repeated y and y < x
@pytest.mark.parametrize("spec, pairs, nmax", [
    ("random:12:0.15:8:c", "all", 30), ("random:12:0.15:8:c", "all", 2),
    ("random:10:0.4:7:c", "0,0;3,1;0,9;5,9;9,9;2,1", 0), ("cycle:50", "0,25;3,1;7,7", 40),
])
def test_moments_bytes_do_not_depend_on_the_block_budget(capsys, monkeypatch, spec, pairs, nmax):
    argv = ["moments", "--gen", spec, "--pairs", pairs, "--nmax", str(nmax)]
    default = run(capsys, *argv)
    assert default == (0, _moments_reference(spec, pairs, nmax), "")
    for budget in (1, 7):  # one pair per block, then 7 // (nmax + 1) pairs
        monkeypatch.setattr(cli, "BLOCK_ELEMENTS", budget)
        assert run(capsys, *argv) == default


def test_a_moments_stream_holds_no_more_y_columns_than_the_frontier_budget(capsys, monkeypatch):
    # cycle:2000 has 4,000 directed edges, so FRONTIER_BYTES holds the (edge, y) terms of 32
    # columns, so y spread round the cycle do not make each column run on all of their balls
    columns, read = [], cli.pair_moments
    monkeypatch.setattr(cli, "pair_moments", lambda source, pairs, n_max: columns.append(
        len({y for _, y in pairs})) or read(source, pairs, n_max))
    argv = ["moments", "--gen", "cycle:2000", "--pairs", "sample:200", "--seed", "1", "--nmax", "8"]
    code, out, err = run(capsys, *argv)
    assert (code, err, len(columns), max(columns)) == (0, "", 7, 32)
    monkeypatch.setattr(cli, "FRONTIER_BYTES", 1 << 30)  # one block of 200 pairs
    assert run(capsys, *argv) == (code, out, err) and len(columns) == 8 and columns[7] > 32


@pytest.mark.parametrize("budget", [None, 82])
def test_moments_past_overflow_end_the_run_before_the_block(capsys, monkeypatch, budget):
    # the unscaled moments of (2, 3) overflow at order 81, those of (0, 10) at 82: no nan row is
    # written, and at 82 elements per block the block of (0, 10) alone is, before the one of (2, 3)
    if budget is not None:
        monkeypatch.setattr(cli, "BLOCK_ELEMENTS", budget)
    argv = ["moments", "--gen", "random:30:0.2:4:0.1:50:0.01:1", "--pairs", "0,10;2,3",
            "--nmax", "81"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert (code, err) == (2, "graphheat: the moment of pair (2, 3) at order 81 is not finite\n")
    assert out == _moments_reference("random:30:0.2:4:0.1:50:0.01:1", "0,10", 81)[
        :None if budget else len("x,y,n,moment,d_L\n")]
    assert "nan" not in out and "inf" not in out


def test_distance_reads_far_fronts_from_the_unscaled_stream(capsys):
    # the scaled PairRows (s = 4) would read 0.0 at these orders, 4^-600 lying below the smallest
    # subnormal, and so report false mismatches
    code, out, err = run(capsys, "distance", "--gen", "cycle:2000", "--pairs", "0,600;0,1000")
    assert (code, err) == (0, "")
    assert out == "x,y,d_E,d_L,status\n0,600,600,600,ok\n0,1000,1000,1000,ok\n"


@pytest.mark.parametrize("cutoff", [[], ["--cutoff", "2"]])
def test_distance_bytes_do_not_depend_on_the_block_budget(capsys, monkeypatch, cutoff):
    # random:14:0.15:3 has disconnected pairs; a stream per block of sources, down to one source
    streams, read = [], cli.first_nonzero_orders
    monkeypatch.setattr(cli, "first_nonzero_orders", lambda op, sources, n_max, reads: (
        streams.append(len(sources)) or read(op, sources, n_max, reads)))
    argv = ["distance", "--gen", "random:14:0.15:3", "--pairs", "all", *cutoff]
    default = run(capsys, *argv)
    assert default[0] == 0 and ",inf," in default[1] and (">2," in default[1]) == bool(cutoff)
    for frontier, blocks in ((1, [1] * 13), (1 << 30, [13])):
        monkeypatch.setattr(cli, "FRONTIER_BYTES", frontier)
        streams.clear()
        assert run(capsys, *argv) == default and streams == blocks


def test_distance_stops_at_its_pairs(capsys, monkeypatch):
    # (0, 1) has its order at n = 1, where the stream used to run on until it had reached every
    # vertex of the path; a pair with the isolated vertex 9 ends the stream by the old rules
    applies, real = [], LaplacianOperator.apply
    monkeypatch.setattr(LaplacianOperator, "apply",
                        lambda self, f: applies.append(1) or real(self, f))
    argv = ["distance", "--gen", "path:2000", "--pairs", "0,1"]
    stopped = run(capsys, *argv)
    assert len(applies) <= 2 and stopped == run(capsys, *argv, "--cutoff", "1")
    assert stopped == (0, "x,y,d_E,d_L,status\n0,1,1,1,ok\n", "")
    for cutoff, unknown in (([], ">12"), (["--cutoff", "2"], ">2")):
        out = run(capsys, "distance", "--gen", "random:12:0.15:8:c", "--pairs", "0,1;0,9", *cutoff)
        assert out == (0, f"x,y,d_E,d_L,status\n0,1,2,2,ok\n0,9,inf,{unknown},ok\n", "")


def test_output_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for dest in (a, b):
        code = main(["verify", "--gen", "random:8:0.4:7", "--out", str(dest)])
        capsys.readouterr()
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_generator_reproducible(capsys):
    _, out1, _ = run(capsys, "moments", "--gen", "random:10:0.4:7", "--pairs", "0,9")
    _, out2, _ = run(capsys, "moments", "--gen", "random:10:0.4:7", "--pairs", "0,9")
    assert out1 == out2


def test_pair_list_parsing(capsys):
    code, out, _ = run(capsys, "distance", "--gen", "path:4", "--pairs", "0,3;1,2")
    assert code == 0
    _, body = rows(out)
    assert [(r[0], r[1]) for r in body] == [("0", "3"), ("1", "2")]


def test_sample_requires_seed(capsys):
    code, _, err = run(capsys, "distance", "--gen", "path:4", "--pairs", "sample:2")
    assert code == 2
    assert "seed" in err


def test_sample_with_seed(capsys):
    code, out, _ = run(capsys, "distance", "--gen", "path:5", "--pairs", "sample:3",
                       "--seed", "1")
    assert code == 0
    _, body = rows(out)
    assert len(body) == 3


def test_bad_generator_spec(capsys):
    for spec in ("pentagon:5", "cycle:2", "random:5:1.5:1", "path:3:4", "random:5:0.5"):
        code, _, err = run(capsys, "verify", "--gen", spec)
        assert code == 2, spec
        assert "generator spec" in err, spec


# every usage message the CLI raises as a ValueError, each a whole stderr line, and the errors
# of loading a graph, which main reports alike
@pytest.mark.parametrize("argv,message", [
    (["--gen", "path:3", "--input", "g.txt"], "give either --input or --gen, not both"),
    ([], "one of --input FILE or --gen SPEC is required"),
    (["--input", "missing.txt"], "[Errno 2] No such file or directory: 'missing.txt'"),
    (["--input", "bad.txt"], "bad.txt: line 3: measure is not a number: 'x'"),
    (["--gen", "pentagon:5"], "bad generator spec 'pentagon:5': unknown family 'pentagon'"),
    (["--gen", "path:150"],
     "all-pairs selection has 11175 pairs, above the cap 10000; provide --seed to sample"),
    (["--gen", "path:3", "--pairs", "sample:x"], "bad sample size in --pairs 'sample:x'"),
    (["--gen", "path:3", "--pairs", "sample:-1"], "sample size must be non-negative"),
    (["--gen", "path:3", "--pairs", "sample:2"],
     "--pairs sample:k requires --seed for reproducibility"),
    (["--gen", "path:3", "--pairs", "0,1,2"], "bad pair '0,1,2'; expected 'x,y'"),
    (["--gen", "path:3", "--pairs", "a,b"], "bad pair 'a,b'; vertex ids must be integers"),
    (["--gen", "path:3", "--pairs", "0,9"], "pair '0,9' references an unknown vertex"),
    (["--gen", "path:3", "--t0", "0"], "--t0 must be positive and finite"),
    (["--gen", "pentagon:5", "--t0", "0"], "--t0 must be positive and finite"),  # before the graph
    (["--gen", "path:3", "--ratio", "1.5"], "--ratio must lie strictly between 0 and 1"),
    (["--gen", "path:3", "--count", "2"], "--count must be at least 3"),
    (["--gen", "path:3", "--cutoff", "-1"], "--cutoff must be non-negative"),
], ids=" ".join)
def test_usage_errors_name_their_fault(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.txt").write_text("graph 2\nv 0 1.0 0.0\nv 1 x 0.0\n")
    assert run(capsys, "verify", *argv) == (2, "", f"graphheat: {message}\n")


@pytest.mark.parametrize("argv,message", [
    (["moments", "--nmax", "-1"], "--nmax must be non-negative"),
    (["exponent", "--tol", "nan"], "--tol must be non-negative"),
    (["distance", "--out", "missing/x.csv"],
     "[Errno 2] No such file or directory: 'missing/x.csv'"),
], ids=" ".join)
def test_the_other_subcommands_name_their_fault_in_one_line(tmp_path, monkeypatch, capsys,
                                                            argv, message):
    monkeypatch.chdir(tmp_path)  # no directory "missing" there: the output cannot be opened
    assert run(capsys, argv[0], "--gen", "path:3", *argv[1:]) == (2, "", f"graphheat: {message}\n")


@pytest.mark.parametrize("command, name, out", [
    ("distance", "first_nonzero_orders", ""),
    ("moments", "pair_moments", "x,y,n,moment,d_L\n"),
])
@pytest.mark.parametrize("error", [ValueError, ArithmeticError])
def test_a_library_error_inside_a_subcommand_ends_the_run_with_one_line(capsys, monkeypatch,
                                                                        command, name, out, error):
    def failing(*args):
        raise error("the stream failed")

    monkeypatch.setattr(cli, name, failing)
    assert run(capsys, command, "--gen", "path:3") == (2, out, "graphheat: the stream failed\n")


def test_a_closed_stdout_ends_the_run_quietly(monkeypatch, capsys):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["distance", "--gen", "path:3"]) == 0


def test_missing_source(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2
    assert "--input" in err


def test_bad_pair_vertex(capsys):
    code, _, err = run(capsys, "distance", "--gen", "path:3", "--pairs", "0,9")
    assert code == 2
    assert "unknown vertex" in err


def test_grid_validation(capsys):
    code, _, err = run(capsys, "verify", "--gen", "path:2", "--count", "2")
    assert code == 2
    assert "--count" in err


# every option slot a subcommand used to take without reading
@pytest.mark.parametrize("argv", [
    ["distance", "--count", "2"],
    ["distance", "--method", "eigen"],
    ["distance", "--tol", "0.1"],
    ["moments", "--cutoff", "-1"],
    ["moments", "--t0", "0.1"],
    ["exponent", "--method", "eigen"],
    ["verify", "--tol", "0.1"],
    ["heat", "--tol", "0.1"],
    ["wave", "--tol", "0.1"],
], ids=" ".join)
def test_an_option_the_subcommand_does_not_read_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--gen", "path:3"] + argv[1:])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


SHARED_OPTIONS = {"--input", "--gen", "--pairs", "--seed", "--out"}
GRID_OPTIONS = {"--t0", "--ratio", "--count"}
SWEEP_OPTIONS = SHARED_OPTIONS | GRID_OPTIONS | {"--cutoff", "--method"}
OPTIONS = {
    "distance": SHARED_OPTIONS | {"--cutoff"},
    "verify": SWEEP_OPTIONS,
    "heat": SWEEP_OPTIONS,
    "wave": SWEEP_OPTIONS,
    "exponent": SHARED_OPTIONS | GRID_OPTIONS | {"--cutoff", "--group", "--tol"},
    "moments": SHARED_OPTIONS | {"--nmax"},
}


@pytest.mark.parametrize("command", OPTIONS)
def test_help_lists_the_options_the_subcommand_reads(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert set(re.findall(r"--[a-z0-9]+", capsys.readouterr().out)) == OPTIONS[command] | {"--help"}


@pytest.mark.parametrize("command", [None, *OPTIONS])
def test_help_prints_the_default_formatters_bytes_at_a_fixed_width(capsys, monkeypatch, command):
    # the parser reads the terminal width once; argparse's own formatter reads it per use
    monkeypatch.setenv("COLUMNS", "67")
    cli._build_parser.cache_clear()
    try:
        with pytest.raises(SystemExit):
            main([command, "--help"] if command else ["--help"])
        parser = cli._build_parser()
        if command:
            parser = parser._subparsers._group_actions[0].choices[command]
        parser.formatter_class = argparse.HelpFormatter
        assert capsys.readouterr().out == parser.format_help()
    finally:
        cli._build_parser.cache_clear()


def test_exponent_underflow_is_a_usage_error(capsys):
    # at hop distance 70 the element sinks below the fit's floor at every grid time
    code, _, err = run(capsys, "exponent", "--gen", "path:71", "--pairs", "0,70")
    assert code == 2
    assert err.startswith("graphheat: ") and "underflowed" in err
    assert err.count("\n") == 1


def test_verify_moment_underflow_is_a_usage_error(tmp_path, capsys):
    # <1_0, L^2 1_2> = 1e-400 is below the smallest double
    path = tmp_path / "g.txt"
    path.write_text("graph 4\n" + "".join(f"v {i} 1 0\n" for i in range(4))
                    + "e 0 1 1e-200\ne 1 2 1e-200\ne 2 3 1.0\n")
    code, _, err = run(capsys, "verify", "--input", str(path))
    assert code == 2
    assert err.startswith("graphheat: ") and "(0, 2)" in err and "underflowed" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, pair", [
    (["--input", "{path}"], "(0, 1)"),
    (["--gen", "path:3", "--pairs", "0,2", "--t0", "1e300"], "(0, 2)"),
])
def test_verify_bound_overflow_is_a_usage_error(tmp_path, capsys, argv, pair):
    # at the edge weights 1e200 the bound of (0, 1) holds <1_0, L^2 1_0> ~ 1e400; on the unit
    # path at t = 1e300 the leading term of (0, 2) is about t^2 / 2
    path = tmp_path / "g.txt"
    path.write_text("graph 3\n" + "".join(f"v {i} 1 0\n" for i in range(3))
                    + "e 0 1 1e200\ne 1 2 1e200\n")
    code, _, err = run(capsys, "verify", *(arg.format(path=path) for arg in argv))
    assert code == 2
    assert err.startswith("graphheat: ") and pair in err and "not finite" in err
    assert err.count("\n") == 1


def test_distance_reports_each_pair_whose_order_differs_from_its_distance(
        tmp_path, capsys, monkeypatch):
    path = tmp_path / "p3.txt"
    path.write_text(P3_TEXT)
    real = cli.first_nonzero_orders

    def planted(op, sources, cutoff, reads):
        positions, orders, first = real(op, sources, cutoff, reads)
        orders = orders.copy()
        orders[positions[2], sources.index(0)] = 3  # (0, 2) is at hop distance 2
        orders[positions[2], sources.index(1)] = -1  # (1, 2) not reached within the cutoff
        return positions, orders, first

    monkeypatch.setattr(cli, "first_nonzero_orders", planted)
    code, out, err = run(capsys, "distance", "--input", str(path))
    assert code == 1
    assert rows(out)[1] == [["0", "1", "1", "1", "ok"], ["0", "2", "2", "3", "mismatch"],
                            ["1", "2", "1", ">3", "mismatch"]]
    assert err == "graphheat: 2 pair(s) where the moment order differs from the hop distance\n"


@pytest.mark.parametrize("command", ["heat", "wave"])
def test_sweep_of_a_disconnected_pair_has_no_overlay(capsys, command):
    spec = "random:12:0.15:8:c"
    assert combinatorial_distance(from_spec(spec), 0, 9) == INFINITE  # 9 is isolated
    code, out, _ = run(capsys, command, "--gen", spec, "--pairs", "0,9")
    assert code == 0
    _, body = rows(out)
    assert len(body) == 17 and all(row[4:6] == ["", ""] for row in body)
    assert [row[3] for row in body if float(row[2]) == 0.0] == ["0.0"]


def test_all_pairs_cap_samples_with_seed():
    g = path_graph(150)  # 11175 pairs, above the 10000 cap
    with pytest.raises(ValueError):
        _select_pairs(g, "all", None)
    pairs = _select_pairs(g, "all", 3)
    assert len(pairs) == 10000
    assert pairs == sorted(pairs)
    assert pairs == _select_pairs(g, "all", 3)  # seeded, reproducible


@pytest.mark.parametrize("n", [0, 1, 2, 5, 40, 150])
def test_sampled_pairs_are_those_the_full_pair_list_gives(n):
    g = path_graph(n)
    everything = [(x, y) for x in range(n) for y in range(x + 1, n)]
    for seed in (0, 1, 7):
        for k in (0, 1, 3, len(everything) // 2, len(everything), len(everything) + 5):
            expected = sorted(random.Random(seed).sample(everything, min(k, len(everything))))
            assert _select_pairs(g, f"sample:{k}", seed) == expected, (seed, k)
        if len(everything) > 10_000:
            expected = sorted(random.Random(seed).sample(everything, 10_000))
            assert _select_pairs(g, "all", seed) == expected
        else:
            assert _select_pairs(g, "all", seed) == everything


def _walk(n, indices):
    """The pairs at ``indices`` found by walking the rows of the sorted pair list."""
    pairs, x, start = [], 0, 0
    for k in sorted(indices):
        while k >= start + n - 1 - x:
            start, x = start + n - 1 - x, x + 1
        pairs.append((x, x + 1 + k - start))
    return pairs


@pytest.mark.parametrize("n", [0, 1, 2, 40, 150])
def test_pairs_at_equals_the_row_walk(n):
    total = n * (n - 1) // 2
    draws = [range(total)] + [random.Random(seed).sample(range(total), min(k, total))
                              for seed in (1, 7) for k in (0, 1, 3, total // 2, PAIR_CAP)]
    for indices in draws:
        got = _pairs_at(n, indices)
        assert got == _walk(n, indices)
        assert all(type(v) is int for pair in got for v in pair)


def _count_balls(monkeypatch):
    built = []
    real = BallSearch.ball
    monkeypatch.setattr(BallSearch, "ball", lambda *args: built.append(args) or real(*args))
    return built


def test_streams_that_a_ball_could_not_shrink_build_none(monkeypatch, capsys):
    # a 16-ball around the 40 vertices (largest degree 8), or around one of the 200
    # (largest degree 14), could hold the whole graph
    built = _count_balls(monkeypatch)
    code, _, _ = run(capsys, "verify", "--gen", "random:40:0.1:1:c")
    assert code == 0
    code, _, _ = run(capsys, "heat", "--gen", "random:200:0.03:1", "--pairs", "sample:3",
                     "--seed", "1")
    assert code == 0
    assert built == []


def test_exponent_on_a_long_cycle_runs_on_balls(monkeypatch, capsys):
    # the parent's per-pair streams over the whole cycle took 1,364,000 block entries
    entries = []
    real = LaplacianOperator.apply
    monkeypatch.setattr(LaplacianOperator, "apply",
                        lambda self, f: entries.append(real(self, f).size) or real(self, f))
    pairs = ";".join(f"1464,{1464 + d}" for d in range(21))
    code, _, _ = run(capsys, "exponent", "--gen", "cycle:2000", "--pairs", pairs)
    assert code == 0
    assert 0 < sum(entries) <= 1_364_000 // 10


def _exponent_pair_by_pair(spec, pairs, seed, group="heat", cutoff=None, tol=0.05):
    """(exit code, CSV) of ``exponent``, one leading_exponent_fit and one
    combinatorial_distance per pair."""
    graph = from_spec(spec)
    fh = io.StringIO()
    out = csv.writer(fh, lineterminator="\n")
    out.writerow(["x", "y", "group", "slope", "d_E", "abs_error", "max_residual"])
    worst = 0.0
    for x, y in _select_pairs(graph, pairs, seed):
        d = combinatorial_distance(graph, x, y, cutoff=cutoff)
        if d == INFINITE:
            continue
        try:
            fit = leading_exponent_fit(graph, x, y, group=group)
        except (ValueError, ArithmeticError):
            return 2, fh.getvalue()
        worst = max(worst, abs(fit.slope - d))
        out.writerow([x, y, group, fit.slope, d, abs(fit.slope - d), fit.max_residual])
    return int(worst > tol), fh.getvalue()


CYCLE_PAIRS = ";".join(f"1464,{1464 + d}" for d in range(21))


@pytest.mark.parametrize("spec, pairs, options", [
    ("cycle:2000", CYCLE_PAIRS, {}),
    ("cycle:2000", CYCLE_PAIRS, {"group": "wave"}),
    ("random:40:0.1:1:c", "sample:60", {}),
    ("random:40:0.1:1:c", "0,30;1,2;30,39;3,17;5,6", {"group": "wave"}),  # 30 is isolated
    ("random:40:0.1:1:c", "all", {"cutoff": 2}),
    ("random:40:0.1:1:c", "1,2;3,17", {"tol": 0.0}),
    ("path:71", "0,70", {}),
    ("path:71", "0,5;0,70;1,3", {}),  # the row before the underflow is written
], ids=["cycle", "cycle-wave", "sample", "isolated-wave", "cutoff", "tol", "underflow",
        "row-then-underflow"])
def test_exponent_rows_equal_the_pair_by_pair_fits(capsys, spec, pairs, options):
    argv = ["exponent", "--gen", spec, "--pairs", pairs, "--seed", "4"]
    for name, value in options.items():
        argv += [f"--{name}", str(value)]
    code, out, _ = run(capsys, *argv)
    assert (code, out) == _exponent_pair_by_pair(spec, pairs, 4, **options)


def test_exponent_searches_once_from_each_source_up_to_its_last_target(capsys, monkeypatch):
    # 21 pairs from 1464 out to hop distance 20 on the cycle: one search of 41 vertices,
    # where a search per pair would visit 441 and a full one 2000
    searched = []
    real = cli.distances_from
    monkeypatch.setattr(cli, "distances_from",
                        lambda *args, **kwargs: searched.append(real(*args, **kwargs))
                        or searched[-1])
    code, _, _ = run(capsys, "exponent", "--gen", "cycle:2000", "--pairs", CYCLE_PAIRS)
    assert code == 0
    assert [len(dist) for dist in searched] == [41]


def _count_searches(monkeypatch):
    counts = {"alone": 0, "array": 0}

    def counted(kind, real):
        def wrapped(*args, **kwargs):
            counts[kind] += 1
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(cli, "distances_from", counted("alone", cli.distances_from))
    monkeypatch.setattr(cli, "pair_distances", counted("array", cli.pair_distances))
    return counts


@pytest.mark.parametrize("spec, pairs, alone, array", [
    ("cycle:2000", [(1464, 1464 + d) for d in range(21)], 1, 0),  # one source
    ("path:400", [(x, x + d) for x in range(0, 380, 20) for d in range(21)], 19, 0),  # thin
    ("path:400", [(x, y) for x in range(0, 380, 20) for y in (0, 399)], 19, 0),  # deep
    ("random:40:0.1:1:c", "all", 1, 1),  # the certify workload's graph, one isolated vertex
    ("random:500:0.02:1", "sample:2000", 3, 3),  # blocks of 209 sources
])
def test_a_block_takes_the_array_search_once_a_search_shows_wide_layers(
        monkeypatch, spec, pairs, alone, array):
    g = from_spec(spec)
    pairs = _select_pairs(g, pairs, 1) if isinstance(pairs, str) else sorted(pairs)
    want = [distances_from(g, x).get(y, -1) for x, y in pairs]
    counts = _count_searches(monkeypatch)
    assert _hop_distances(g, pairs, None).tolist() == want
    assert counts == {"alone": alone, "array": array}


@settings(deadline=None, max_examples=50)
@given(n=st.integers(1, 30), p=st.floats(0.0, 0.3), seed=st.integers(0, 10 ** 6),
       size=st.integers(1, 4), cutoff=st.sampled_from([0, 1, 2, None]), data=st.data())
def test_blocks_below_the_sources_give_the_search_per_source(n, p, seed, size, cutoff, data):
    # blocks of `size` sources, each past its first search taken as an array search
    g = random_graph(n, p, seed)
    pairs = sorted(data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                      min_size=1, max_size=40)))
    frontier = size * max(len(g.cols), g.n)
    with mock.patch.multiple(cli, FRONTIER_BYTES=frontier, WIDE_LAYERS=10 ** 9, MIN_ARRAY_SOURCES=0):
        got = _hop_distances(g, pairs, cutoff).tolist()
    assert got == [distances_from(g, x, cutoff=cutoff).get(y, -1) for x, y in pairs]


def test_distance_keeps_the_tiny_weight_mismatches(tmp_path, capsys):
    # <1_0, L^2 1_2> = 1e-400 underflows, so the moment orders of (0, 2) and (0, 3) read
    # as unknown within the cutoff while the hop distances are 2 and 3
    path = tmp_path / "g.txt"
    path.write_text("graph 4\n" + "".join(f"v {i} 1 0\n" for i in range(4))
                    + "e 0 1 1e-200\ne 1 2 1e-200\ne 2 3 1.0\n")
    code, out, err = run(capsys, "distance", "--input", str(path))
    assert (code, out, err) == (1, "x,y,d_E,d_L,status\n0,1,1,1,ok\n0,2,2,>4,mismatch\n"
                                   "0,3,3,>4,mismatch\n1,2,1,1,ok\n1,3,2,2,ok\n2,3,1,1,ok\n",
                                "graphheat: 2 pair(s) where the moment order differs from the "
                                "hop distance\n")


# above the dense size limit the series route needs no decomposition


def test_exponent_above_dense_limit(capsys):
    code, out, _ = run(capsys, "exponent", "--gen", "path:2001", "--pairs", "0,3")
    assert code == 0
    _, body = rows(out)
    assert abs(float(body[0][3]) - 3.0) < 0.02


def test_verify_above_dense_limit(capsys):
    code, _, err = run(capsys, "verify", "--gen", "path:2001", "--pairs", "0,1", "--count", "3")
    assert code == 0
    assert "12/12 checks passed" in err


def test_heat_row_needing_eigen_above_dense_limit_is_a_usage_error(capsys):
    code, _, err = run(capsys, "heat", "--gen", "path:2001", "--pairs", "0,1", "--count", "3")
    assert code == 2
    assert err.startswith("graphheat: ") and "dense size limit" in err
    assert "Traceback" not in err


def test_repeated_main_calls_share_one_parser_and_match_fresh_calls(capsys):
    runs = [["verify", "--gen", "path:5", "--pairs", "0,3"],
            ["verify", "--gen", "path:5", "--nmax", "3"],  # verify takes no --nmax
            ["distance", "--gen", "path:5"],
            ["heat", "--gen", "path:3", "--pairs", "0,2", "--count", "2"],  # a usage ValueError
            ["moments", "--gen", "path:3", "--nmax", "2"],
            ["verify", "--gen", "path:5", "--pairs", "0,3"]]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in runs:
        cli._build_parser.cache_clear()
        fresh.append(call(argv))
    cli._build_parser.cache_clear()
    assert [call(argv) for argv in runs] == fresh
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, *_ in fresh] == [0, 2, 0, 2, 0, 0]


def test_sweep_chooses_each_route_once_per_time(capsys, monkeypatch):
    argv = ["heat", "--gen", "random:12:0.3:1", "--pairs", "0,5;1,2", "--t0", "0.5"]
    expected = run(capsys, *argv)
    calls, real = [], cli.select_route

    def counting(source, t, method):
        calls.append(t)
        return real(source, t, method)

    monkeypatch.setattr(cli, "select_route", counting)
    assert run(capsys, *argv) == expected
    _, table = rows(expected[1])
    ts = [float(row[2]) for row in table if row[0] == "0"]
    assert calls == ts and len(ts) == 17
    assert {row[6] for row in table} == {"series", "eigen"}  # both routes run


def test_sweep_reads_each_block_of_pairs_from_one_stream(capsys, monkeypatch):
    # 1,770 pairs at 17 times: blocks of 4096 // 17 = 240 pairs, one stream each, and the
    # values and routes of a heat_element call per pair on the graph
    sizes, real = [], PairRows.__init__

    def counting(self, source, pairs):
        sizes.append(len(pairs))
        real(self, source, pairs)

    monkeypatch.setattr(PairRows, "__init__", counting)
    code, out, _ = run(capsys, "heat", "--gen", "random:60:0.1:4:c", "--pairs", "all")
    assert code == 0 and sizes == [240] * 7 + [90]
    monkeypatch.undo()
    g = from_spec("random:60:0.1:4:c")
    ts = sorted([0.5 ** k for k in range(16)] + [0.0])
    routes = [select_route(g, t, "auto") for t in ts]
    expected = "".join(f"{x},{y},{t!r},{heat_element(g, x, y, t, method=route)!r},{route}\n"
                       for x in range(g.n) for y in range(x + 1, g.n)
                       for t, route in zip(ts, routes))
    _, table = rows(out)
    assert "".join(",".join(row[:4] + row[6:]) + "\n" for row in table) == expected
    assert {route for route in routes} == {"series", "eigen"}


SWEEP_SPEC = "random:12:0.15:8:c"  # 66 pairs, 11 at the isolated 9; auto runs both routes


def _sweep_pair_major(unitary, method, t0, pairs="all", cutoff=None):
    """A sweep's CSV from one element call per (pair, t) on the graph, pair by pair, its
    overlays the series' order-d term and remainder bound over the pair's own three
    moment_table reads scaled by the sweep's power of two s = 2^exp, by the series' own
    recursion, and empty beyond ``cutoff``."""
    g, fh = from_spec(SWEEP_SPEC), io.StringIO()
    ts = sorted([t0 * 0.5 ** k for k in range(16)] + [0.0])
    routes, op = [select_route(g, t, method) for t in ts], LaplacianOperator(g)
    out = csv.writer(fh, lineterminator="\n")
    out.writerow(["x", "y", "t", "value", "leading", "bound", "method"])
    for x, y in _select_pairs(g, pairs, None):
        d, rows = distances_from(g, x, cutoff=cutoff).get(y, -1), PairRows(g, [(x, y)])
        if d >= 0:
            lead = abs(moment_table(op, x, y, d).values[d])
            diagonal = (moment_table(op, x, x, d + 1).values[d + 1]
                        + moment_table(op, y, y, d + 1).values[d + 1])
            lead, diagonal = (math.ldexp(lead, -rows.exp * d),
                              math.ldexp(diagonal, -rows.exp * (d + 1)))
        for t, route in zip(ts, routes):
            value = (wave_element if unitary else heat_element)(g, x, y, t, method=route)
            leading = bound = ""
            if d >= 0:
                leading = series_coefficient(t * rows.scale, d) * lead
                bound = 0.5 * series_coefficient(t * rows.scale, d + 1) * diagonal
            out.writerow([x, y, t, abs(value) if unitary else value, leading, bound, route])
    return fh.getvalue(), routes


@pytest.mark.parametrize("command", ["heat", "wave"])
@pytest.mark.parametrize("method, t0", [("auto", 1.0), ("eigen", 1.0), ("series", None)])
def test_sweep_blocks_read_a_time_at_a_time_give_the_pair_major_bytes(capsys, monkeypatch,
                                                                       command, method, t0):
    t0 = t0 or 1.0 / from_spec(SWEEP_SPEC).bound  # at or below half of what the series admits
    sizes = []
    monkeypatch.setattr(cli, "BLOCK_ELEMENTS", 3 * 17)  # 3 pairs per block at 17 times
    monkeypatch.setattr(cli, "PairRows", lambda g, pairs: sizes.append(len(pairs)) or PairRows(
        g, pairs))
    code, out, err = run(capsys, command, "--gen", SWEEP_SPEC, "--method", method,
                         "--t0", repr(t0))
    expected, routes = _sweep_pair_major(command == "wave", method, t0)
    assert (code, err, sizes) == (0, "", [3] * 22)
    assert out == expected
    assert set(routes) == ({"series", "eigen"} if method == "auto" else {method})
    _, table = rows(out)
    assert any(row[4] == "" for row in table) and any(row[4] != "" for row in table)


@pytest.mark.parametrize("command", ["heat", "wave"])
@pytest.mark.parametrize("spec, block", [(SWEEP_SPEC, 3), ("random:40:0.1:1:c", None)])
@pytest.mark.parametrize("cutoff", [None, 1])
def test_a_sweeps_overlays_read_one_search_per_source_of_each_block(capsys, monkeypatch, command,
                                                                    spec, block, cutoff):
    # blocks of 3 pairs at 17 times on a graph whose vertex 9 is isolated, and 240-pair blocks
    # of the certify workload's graph, whose wide layers send most sources to the array search
    g, starts = from_spec(spec), []
    if block is not None:
        monkeypatch.setattr(cli, "BLOCK_ELEMENTS", block * 17)
    counts = _count_searches(monkeypatch)
    monkeypatch.setattr(cli, "PairRows", lambda source, pairs: starts.append(
        (pairs, counts["alone"] + counts["array"])) or PairRows(source, pairs))
    code, out, _ = run(capsys, command, "--gen", spec,
                       *([] if cutoff is None else ["--cutoff", str(cutoff)]))
    _, table = rows(out)
    assert code == 0 and len(table) == g.n * (g.n - 1) // 2 * 17
    for x, y, _, _, leading, bound, _ in table:
        reached = int(y) in distances_from(g, int(x), cutoff=cutoff)
        assert (leading != "", bound != "") == (reached, reached), (x, y)
    assert any(row[4] == "" for row in table) and any(row[4] != "" for row in table)
    ends = [searches for _, searches in starts[1:]] + [counts["alone"] + counts["array"]]
    for (pairs, before), after in zip(starts, ends):
        assert 1 <= after - before <= len({x for x, _ in pairs})
    assert counts["array"] > 0 if block is None else counts["array"] == 0


@pytest.mark.parametrize("command", ["heat", "wave"])
@pytest.mark.parametrize("method", ["auto", "eigen"])
def test_a_sweep_forms_each_eigen_times_phases_once_per_block(capsys, monkeypatch, command,
                                                              method):
    formed, phases = [], spectral._phases
    monkeypatch.setattr(cli, "BLOCK_ELEMENTS", 3 * 17)  # 22 blocks of 3 pairs
    monkeypatch.setattr(spectral, "_phases", lambda g, t, unitary: formed.append(
        (t, unitary)) or phases(g, t, unitary))
    code, out, _ = run(capsys, command, "--gen", SWEEP_SPEC, "--method", method)
    _, table = rows(out)
    eigen = [float(row[2]) for row in table[:17] if row[6] == "eigen"]
    assert code == 0 and 0 < len(eigen) <= 17 and len(table) == 66 * 17
    assert formed == [(t, command == "wave") for t in eigen] * 22


@pytest.mark.parametrize("command", ["heat", "wave"])
def test_sweep_overlays_do_not_depend_on_the_block_budget(capsys, monkeypatch, command):
    # within --cutoff 1 the pairs at hop distance 0 (x, x) and 1 share vertices, and vertex 0
    # reads its diagonal at orders 1 and 2; (0, 1), (3, 4) and (2, 5) lie at 2, (0, 9) at none
    pairs = "0,0;0,3;0,4;0,1;1,3;1,4;3,4;4,4;4,6;6,10;2,10;2,5;9,9;0,9;1,10"
    argv = [command, "--gen", SWEEP_SPEC, "--pairs", pairs, "--cutoff", "1"]
    expected, _ = _sweep_pair_major(command == "wave", "auto", 1.0, pairs, 1)
    _, table = rows(expected)
    assert {row[4] == "" for row in table} == {True, False}
    assert run(capsys, *argv) == (0, expected, "")
    for budget in (17, 3 * 17):  # one pair per block, then three
        monkeypatch.setattr(cli, "BLOCK_ELEMENTS", budget)
        assert run(capsys, *argv) == (0, expected, "")


@pytest.mark.parametrize("command", ["heat", "wave"])
@pytest.mark.parametrize("method", ["auto", "eigen"])  # eigen: only the overlay advances the rows
@pytest.mark.parametrize("budget, blocks", [(cli.BLOCK_ELEMENTS, 1), (2 * 17, 5)])
def test_a_sweep_runs_one_stream_per_block(capsys, monkeypatch, command, method, budget, blocks):
    calls, stream, pair_moments = [], moments.stream, moments.pair_moments
    monkeypatch.setattr(cli, "BLOCK_ELEMENTS", budget)
    monkeypatch.setattr(moments, "stream", lambda *args: calls.append("stream") or stream(*args))
    monkeypatch.setattr(moments, "pair_moments", lambda *args: calls.append(
        "pair_moments") or pair_moments(*args))
    code, out, _ = run(capsys, command, "--gen", "path:5", "--pairs", "all", "--method", method)
    assert code == 0 and len(rows(out)[1]) == 10 * 17
    assert calls == ["stream"] * blocks


@pytest.mark.parametrize("error", [ValueError, ArithmeticError])
def test_an_element_that_raises_ends_the_sweep_with_exit_2(capsys, monkeypatch, error):
    argv = ["heat", "--gen", "path:5", "--pairs", "all"]  # 10 pairs
    _, complete, _ = run(capsys, *argv)
    calls, stream = [], moments.stream

    def failing(*args):  # the stream of the third block of two pairs raises
        calls.append(args)
        if len(calls) == 3:
            raise error("the stream failed")
        return stream(*args)

    monkeypatch.setattr(cli, "BLOCK_ELEMENTS", 2 * 17)
    monkeypatch.setattr(moments, "stream", failing)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (2, "graphheat: the stream failed\n")
    assert out.splitlines(keepends=True) == complete.splitlines(keepends=True)[:1 + 4 * 17]


@pytest.mark.parametrize("command", ["heat", "wave"])
def test_sweep_series_past_its_limit_is_a_usage_error(capsys, command):
    code, out, err = run(capsys, command, "--gen", "random:12:0.3:1", "--pairs", "0,5;1,2",
                         "--method", "series", "--t0", "10")
    assert code == 2
    assert err.startswith("graphheat: series evaluation rejected")
    assert out == "x,y,t,value,leading,bound,method\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--gen", "path:3", "--t0", "nan"],
    ["verify", "--gen", "path:3", "--t0", "inf"],
    ["heat", "--gen", "path:3", "--pairs", "0,2", "--count", "3", "--t0", "nan"],
    ["wave", "--gen", "path:3", "--pairs", "0,2", "--t0", "inf"],
    ["exponent", "--gen", "path:3", "--pairs", "0,2", "--t0", "nan"],
    ["exponent", "--gen", "path:3", "--pairs", "0,2", "--tol", "nan"],
    ["exponent", "--gen", "path:3", "--pairs", "0,2", "--tol", "-0.1"],
    ["distance", "--gen", "path:3", "--cutoff", "-1"],
    ["moments", "--gen", "path:3", "--nmax", "-1"],
], ids=" ".join)
def test_non_finite_times_and_tolerances_are_usage_errors(capsys, argv):
    # nan slips past any comparison: unchecked, verify fails on nan rows, heat prints nan
    # rows labelled eigen, and exponent passes whatever the slope (worst > nan is False)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"graphheat: {argv[-2]} must be")

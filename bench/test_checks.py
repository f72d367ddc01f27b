"""Tests of the benchmark's references, checkers and tracer.

    python3 -m pytest bench
"""

import csv
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import mpmath

import checks
import graphheat as gh
import graphheat.cli
import reference
from graphdata import Graph, read_graph

BENCH = Path(__file__).resolve().parent


def _cli(tmp_path, argv, name):
    out = tmp_path / name
    assert graphheat.cli.main(argv + ["--out", str(out)]) == 0
    return out


def _graph(tmp_path, spec):
    path = tmp_path / "graph.txt"
    gh.save_graph(gh.from_spec(spec), path)
    return str(path), reference.GraphReference(read_graph(path))


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _write_rows(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _check(fn, *args, **kwargs):
    outcome = checks.Outcome()
    fn(*args, outcome, **kwargs)
    return outcome


def test_reference_matches_dense_mpmath_exponentials(tmp_path):
    _, ref = _graph(tmp_path, "random:6:0.5:3:c")
    g = ref.graph
    with mpmath.workdps(60):
        lap = mpmath.matrix(g.n, g.n)
        for x in range(g.n):
            lap[x, x] = mpmath.mpf(g.killing[x]) / g.measure[x]
        for u, v, w in g.edges:
            lap[u, u] += mpmath.mpf(w) / g.measure[u]
            lap[v, v] += mpmath.mpf(w) / g.measure[v]
            lap[u, v] -= mpmath.mpf(w) / g.measure[u]
            lap[v, u] -= mpmath.mpf(w) / g.measure[v]
        cube = lap ** 3
        for t in (1e-3, 0.3, 2.0):
            heat = mpmath.expm(-t * lap)
            wave = mpmath.expm(-1j * t * lap)
            for x in range(g.n):
                for y in range(g.n):
                    m = g.measure[x]
                    assert abs(ref.element(x, y, t) - m * heat[x, y]) < 1e-40
                    assert abs(ref.element(x, y, t, unitary=True) - m * wave[x, y]) < 1e-40
                    assert abs(ref.moment(x, y, 3) - m * cube[x, y]) < 1e-40


def test_certify_checkers_accept_output_and_reject_scaled_lhs(tmp_path):
    path, ref = _graph(tmp_path, "random:10:0.2:3:c")
    assert any(ref.distance(0, y) == math.inf for y in range(10))
    distance = _cli(tmp_path, ["distance", "--input", path], "distance.csv")
    verify = _cli(tmp_path, ["verify", "--input", path], "verify.csv")
    assert _check(checks.check_distance, distance, ref).problem_count == 0
    clean = _check(checks.check_verify, verify, ref)
    assert clean.problem_count == 0 and clean.failed == 0 and clean.attempted > 0

    rows = _rows(verify)
    worst = max(range(1, len(rows)), key=lambda i: float(rows[i][6]))
    rows[worst][6] = repr(float(rows[worst][6]) * 1.01)
    _write_rows(verify, rows)
    outcome = _check(checks.check_verify, verify, ref)
    assert any("lhs differs" in p for p in outcome.problems)


def test_sweep_checker_rejects_flipped_heat_value(tmp_path):
    path, ref = _graph(tmp_path, "random:30:0.15:2")
    pairs = sorted({(0, y) for y in range(1, 30) if ref.distance(0, y) <= 3})[:4]
    spec = ";".join(f"{x},{y}" for x, y in pairs)
    heat = _cli(tmp_path, ["heat", "--input", path, "--pairs", spec], "heat.csv")
    assert _check(checks.check_sweep, heat, ref, pairs, False).problem_count == 0

    rows = _rows(heat)
    row = next(i for i in range(1, len(rows)) if float(rows[i][3]) > 1e-3)
    rows[row][3] = repr(-float(rows[row][3]))
    _write_rows(heat, rows)
    outcome = _check(checks.check_sweep, heat, ref, pairs, False)
    assert any("negative heat value" in p for p in outcome.problems)
    assert any("value differs" in p for p in outcome.problems)


def test_positivity_check_rejects_the_path12_sweep(tmp_path):
    argv = ["heat", "--gen", "path:12", "--pairs", "0,11", "--t0", "0.2", "--ratio", "0.8",
            "--count", "4"]
    heat = _cli(tmp_path, argv, "heat.csv")
    path12 = Graph(12, (1.0,) * 12, (0.0,) * 12, tuple((i, i + 1, 1.0) for i in range(11)))
    grid = sorted([0.2 * 0.8 ** k for k in range(4)] + [0.0])
    outcome = _check(checks.check_sweep, heat, reference.GraphReference(path12), [(0, 11)],
                     False, grid=grid)
    negative = [p for p in outcome.problems if "negative heat value" in p]
    for t in (0.2 * 0.8 ** 2, 0.2 * 0.8):
        assert any(repr(t) in p for p in negative)


def test_exponent_checker_rejects_shifted_slope(tmp_path):
    pairs = [(3, 3 + d) for d in range(4)]
    spec = ";".join(f"{x},{y}" for x, y in pairs)
    out = _cli(tmp_path, ["exponent", "--gen", "cycle:40", "--pairs", spec], "exponent.csv")
    assert _check(checks.check_exponent, out, pairs, "heat", cycle_n=40).problem_count == 0

    rows = _rows(out)
    rows[3][3] = repr(float(rows[3][3]) + 0.1)
    _write_rows(out, rows)
    outcome = _check(checks.check_exponent, out, pairs, "heat", cycle_n=40)
    assert any("Bessel fit" in p for p in outcome.problems)
    assert any("more than 0.02" in p for p in outcome.problems)


def test_line_checker_accepts_elements_and_rejects_a_perturbed_one(tmp_path):
    line = gh.integer_line()
    elements = [(kind, 5, 5 - d, t) for d in (0, 3, 24) for t in (0.1, 1e-4)
                for kind in ("heat", "wave")]
    evaluate = {"heat": gh.heat_element, "wave": gh.wave_element}
    values = []
    for kind, x, y, t in elements:
        value = complex(evaluate[kind](line, x, y, t, method="series"))
        values.append([kind, x, y, t, value.real, value.imag])
    out = tmp_path / "line.json"
    out.write_text(json.dumps(values))
    assert _check(checks.check_line, out, elements).problem_count == 0

    values[4][4] *= 1 + 1e-9
    out.write_text(json.dumps(values))
    assert _check(checks.check_line, out, elements).problem_count == 1


def test_tracer_wraps_every_binding(tmp_path):
    out = str(tmp_path / "h.csv")
    script = f"""
import json, sys
sys.path[:0] = [{str(BENCH.parent / "src")!r}, {str(BENCH)!r}]
import graphheat, graphheat.cli
from spans import Tracer
tracer = Tracer()
tracer.install()
graphheat.cli.main(["heat", "--gen", "path:4", "--pairs", "0,3", "--out", {out!r}])
print(json.dumps(tracer.metrics()))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, check=True)
    layers = json.loads(proc.stdout)
    assert layers["spectral.element.calls"] == 17
    assert layers["spectral.decompose.calls"] == 1
    assert layers["graphs.bfs.calls"] == 1
    assert layers["moments.calls"] == 3
    assert layers["spectral.element.applies_per_call"] > 0
    for name in ("generators.build.s", "cli.self_s", "spectral.element.eigen_s",
                 "spectral.element.series_s", "operators.apply.s", "moments.self_s"):
        assert layers[name] > 0, name


def test_calibration_loop_reports_whole_units():
    cal = subprocess.Popen([sys.executable, str(BENCH / "calibrate.py"), "--kind", "python",
                            "--cpu", str(max(os.sched_getaffinity(0)))],
                           stdout=subprocess.PIPE, text=True)
    try:
        assert cal.stdout.readline().strip() == "ready"
        time.sleep(0.5)
        cal.send_signal(signal.SIGTERM)
        out, _ = cal.communicate(timeout=30)
    finally:
        if cal.poll() is None:
            cal.kill()
            cal.wait()
    loop = json.loads(out)
    assert cal.returncode == 0
    assert loop["units"] > 0
    assert 0 < loop["cpu_s"] < 1.0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "local", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

"""Certificates at hop distances where d! overflows a float (d >= 170).

The references are exact: on the unit path every moment <1_x, L^n 1_y> is an
integer, streamed here in Python integers, and the factorials and powers of
t are taken in 50-digit mpmath.
"""

import csv
import functools
import io

import mpmath
import pytest

from graphheat import (WeightedGraph, leading_term_check, path_graph, semigroup_bound,
                       unitary_bound, vanishing_order_check)
from graphheat.cli import main

N = 400
FLOOR = 1e-300


def path_moments(y, n_max):
    """[L^n 1_y for n = 0..n_max] on the unit path of N vertices, in integers."""
    deg = [1] + [2] * (N - 2) + [1]
    v = [0] * N
    v[y] = 1
    out = [v]
    for k in range(n_max):
        w = [0] * N
        for i in range(max(0, y - k - 1), min(N, y + k + 2)):
            w[i] = deg[i] * v[i] - (v[i - 1] if i else 0) - (v[i + 1] if i + 1 < N else 0)
        v = w
        out.append(v)
    return out


@functools.lru_cache(maxsize=None)
def pair_moments(x, y, d):
    """(|m_xy(d)|, m_xx(d+1) + m_yy(d+1)), m_uv(n) being <1_u, L^n 1_v>."""
    from_x, from_y = path_moments(x, d + 1), path_moments(y, d + 1)
    return abs(from_y[d][x]), from_x[d + 1][x] + from_y[d + 1][y]


def references(x, y, d, t):
    """(t^d |m_xy(d)| / d!, t^(d+1) (m_xx(d+1) + m_yy(d+1)) / (2 (d+1)!)) to 50 digits."""
    lead, diagonal = pair_moments(x, y, d)
    with mpmath.workdps(50):
        t = mpmath.mpf(t)
        return (float(t ** d * lead / mpmath.factorial(d)),
                float(t ** (d + 1) * diagonal / (2 * mpmath.factorial(d + 1))))


def assert_close(got, ref):
    if ref >= FLOOR:
        assert abs(got - ref) <= 1e-12 * ref, (got, ref)
    else:
        assert got < 10 * FLOOR, (got, ref)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, list(csv.DictReader(io.StringIO(out)))


def test_verify_certifies_pairs_beyond_factorial_overflow(capsys):
    code, rows = run_cli(capsys, "verify", "--gen", f"path:{N}", "--pairs", "sample:50",
                         "--seed", "1")
    assert code == 0
    assert len(rows) == 50 * 4 * 4
    assert max(int(r["d"]) for r in rows) >= 171
    assert all(r["passed"] == "true" for r in rows)
    checked = 0
    for r in rows:
        x, y, d, t = int(r["x"]), int(r["y"]), int(r["d"]), float(r["t"])
        assert d == y - x == int(r["n"])
        _, bound = references(x, y, d, t)
        assert_close(float(r["rhs"]), bound)
        checked += bound >= FLOOR
    assert checked > 0


@pytest.mark.parametrize("command", ["heat", "wave"])
def test_sweep_overlays_at_distance_180(capsys, command):
    code, rows = run_cli(capsys, command, "--gen", f"path:{N}", "--pairs", "0,180")
    assert code == 0
    assert len(rows) == 17
    bounds = 0
    for r in rows:
        lead, bound = references(0, 180, 180, float(r["t"]))
        assert_close(float(r["leading"]), lead)
        assert_close(float(r["bound"]), bound)
        bounds += bound >= FLOOR
    # t = 1 and t = 1/2; the bound at t = 1 is 5.443e-225
    assert bounds == 2


def test_library_certificates_at_order_180():
    g = path_graph(N)
    rep = semigroup_bound(g, 0, 180, 0.1, 180)
    assert rep.passed and rep.n == 180
    assert_close(rep.rhs, references(0, 180, 180, 0.1)[1])
    assert unitary_bound(g, 0, 180, 0.1, 180).passed
    heat, wave = leading_term_check(g, 0, 180, 0.1)
    assert heat.passed and wave.passed and heat.n == 180
    rep = vanishing_order_check(WeightedGraph(2), 0, 1, 180, [0.1])
    assert rep.passed and rep.constant == 0.0
    assert [r.which for r in rep.samples] == ["semigroup", "unitary"]

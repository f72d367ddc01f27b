"""Checks of a round's outputs against references computed outside graphheat.

One operation is one CSV row or one library element.  An operation whose
output is missing (its command crashed, or the row was never written)
counts as failed; an operation whose output fails a check makes the round
incorrect, and so does an unexpected, repeated or malformed row, a non-zero
exit code, or set-up inputs that differ between rounds.

Tolerances, with where each comes from:

* ``REL_SLACK`` 1e-9: the relative slack that ``BoundReport.passed`` allows
  for round-off, applied to certified bounds.
* ``floor(x, y)`` = n * eps * sqrt(m(x) m(y)): the rounding floor of the
  eigen route, which sums n eigencontributions each bounded by
  |u_i(x) u_i(y)| m(x) m(y), whose total is at most sqrt(m(x) m(y)).
* ``REL_MOMENT`` 1e-12: moments and the bound constants built from them are
  sums of same-sign walk products at the critical order, computed with exact
  summation, so they carry a few ulps.
* ``REL_LINE`` 1e-12: series elements stop once the remainder bound drops
  below 1e-15 of the partial sum (``spectral.SERIES_RTOL``).
* ``SLOPE_REF_TOL`` 1e-9 and ``SLOPE_D_TOL`` 0.02: the fitted slope against
  the same fit of the closed-form values, and against the hop distance
  (the fit bias is O(t0) = 1e-3 on the default grid).
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import mpmath

import reference
from graphdata import read_graph
from workloads import CYCLE_N, GRAPH_FILE, MANIFEST

EPS = sys.float_info.epsilon
REL_SLACK = 1e-9
REL_MOMENT = 1e-12
REL_LINE = 1e-12
SLOPE_REF_TOL = 1e-9
SLOPE_D_TOL = 0.02
MAX_PROBLEMS_KEPT = 20

VERIFY_TAGS = ("heat_leading", "wave_leading", "semigroup", "unitary")
VERIFY_GRID = sorted(1e-1 * 0.1 ** k for k in range(4))
SWEEP_GRID = sorted([1.0 * 0.5 ** k for k in range(16)] + [0.0])
EXPONENT_GRID = [1e-3 * 0.1 ** k for k in range(4)]


@dataclass
class Outcome:
    """Operations attempted and failed, and the checks that did not hold."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    problem_count: int = 0

    def wrong(self, where, what):
        self.problem_count += 1
        if len(self.problems) < MAX_PROBLEMS_KEPT:
            self.problems.append(f"{where}: {what}")

    def add(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.problem_count += other.problem_count
        self.problems.extend(other.problems[:MAX_PROBLEMS_KEPT - len(self.problems)])


def _within(value, ref, tol):
    with mpmath.workdps(reference.MOMENT_DPS):
        return abs(mpmath.mpf(value) - ref) <= tol


def _rel(value, ref, rel):
    with mpmath.workdps(reference.MOMENT_DPS):
        return abs(mpmath.mpf(value) - ref) <= rel * abs(ref)


def _keyed_rows(path, header, key_of, expected, outcome, where):
    """Rows of a CSV by key; missing keys fail, unexpected or repeated keys are wrong."""
    outcome.attempted += len(expected)
    rows = {}
    if not Path(path).exists():
        outcome.failed += len(expected)
        return rows
    with open(path, newline="", encoding="utf-8") as fh:
        lines = list(csv.reader(fh))
    if not lines or lines[0] != header:
        outcome.wrong(where, f"header {lines[:1]} is not {header}")
        outcome.failed += len(expected)
        return rows
    for row in lines[1:]:
        try:
            if len(row) != len(header):
                raise ValueError
            key = key_of(row)
        except ValueError:
            outcome.wrong(where, f"malformed row {row}")
            continue
        if key not in expected:
            outcome.wrong(where, f"unexpected row {row}")
        elif key in rows:
            outcome.wrong(where, f"repeated row {row}")
        else:
            rows[key] = row
    outcome.failed += len(expected) - len(rows)
    return rows


def _floor(ref, x, y):
    m = ref.graph.measure
    return ref.graph.n * EPS * math.sqrt(m[x] * m[y])


def _exit_codes(result, outcome):
    for name, code in result["exit_codes"].items():
        if code not in (0, None):
            outcome.wrong(name, f"exit code {code}")


# -- certify ----------------------------------------------------------------


def check_distance(path, ref, outcome):
    n = ref.graph.n
    expected = {(x, y) for x in range(n) for y in range(x + 1, n)}
    rows = _keyed_rows(path, ["x", "y", "d_E", "d_L", "status"],
                       lambda r: (int(r[0]), int(r[1])), expected, outcome, "distance")
    for (x, y), row in rows.items():
        d = ref.distance(x, y)
        d_e, d_l, status = row[2:5]
        if d_e != (str(d) if d != math.inf else "inf"):
            outcome.wrong("distance", f"{row}: d_E is not the hop distance {d}")
        want_l = str(d) if d != math.inf else f">{n}"
        if d_l != want_l:
            outcome.wrong("distance", f"{row}: d_L is not {want_l}")
        if status != "ok":
            outcome.wrong("distance", f"{row}: status {status}")


def verify_lhs_reference(ref, which, x, y, t, d):
    """|element - leading term| for one report, from mpmath references."""
    with mpmath.workdps(reference.MOMENT_DPS):
        m_d = ref.moment(x, y, d)
        tt = mpmath.mpf(t)
        scale = tt ** d / mpmath.factorial(d)
        if which == "heat_leading":
            return abs(ref.element(x, y, t) - scale * abs(m_d))
        if which == "wave_leading":
            return abs(abs(ref.element(x, y, t, unitary=True)) - scale * abs(m_d))
        if which == "semigroup":
            return abs(ref.element(x, y, t) - (-1) ** d * scale * m_d)
        return abs(ref.element(x, y, t, unitary=True) - mpmath.mpc(0, -1) ** d * scale * m_d)


def bound_reference(ref, x, y, t, d):
    """t^(d+1) (<1_x, L^(d+1) 1_x> + <1_y, L^(d+1) 1_y>) / (2 (d+1)!)."""
    with mpmath.workdps(reference.MOMENT_DPS):
        return (mpmath.mpf(t) ** (d + 1) * (ref.moment(x, x, d + 1) + ref.moment(y, y, d + 1))
                / (2 * mpmath.factorial(d + 1)))


def check_verify(path, ref, outcome):
    n = ref.graph.n
    connected = [(x, y) for x in range(n) for y in range(x + 1, n)
                 if ref.distance(x, y) != math.inf]
    expected = {(w, x, y, t) for x, y in connected for t in VERIFY_GRID for w in VERIFY_TAGS}
    header = ["which", "x", "y", "d", "t", "n", "lhs", "rhs", "margin", "passed"]
    rows = _keyed_rows(path, header, lambda r: (r[0], int(r[1]), int(r[2]), float(r[4])),
                       expected, outcome, "verify")
    for (which, x, y, t), row in rows.items():
        d = ref.distance(x, y)
        try:
            lhs, rhs, margin = (float(v) for v in row[6:9])
        except ValueError:
            outcome.wrong("verify", f"{row}: lhs, rhs or margin is not a number")
            continue
        if row[3] != str(d) or row[5] != str(d):
            outcome.wrong("verify", f"{row}: d or n is not the hop distance {d}")
            continue
        if row[9] != "true":
            outcome.wrong("verify", f"{row}: report did not pass")
        if margin != rhs - lhs:
            outcome.wrong("verify", f"{row}: margin is not rhs - lhs")
        rhs_ref = bound_reference(ref, x, y, t, d)
        if not _rel(rhs, rhs_ref, REL_MOMENT):
            outcome.wrong("verify", f"{row}: rhs differs from {mpmath.nstr(rhs_ref, 17)}")
        lhs_ref = verify_lhs_reference(ref, which, x, y, t, d)
        if not _within(lhs, lhs_ref, REL_SLACK * rhs_ref + _floor(ref, x, y)):
            outcome.wrong("verify", f"{row}: lhs differs from {mpmath.nstr(lhs_ref, 17)}")


# -- sweep -------------------------------------------------------------------


def check_sweep(path, ref, pairs, unitary, outcome, grid=SWEEP_GRID):
    where = "wave" if unitary else "heat"
    expected = {(x, y, t) for x, y in pairs for t in grid}
    rows = _keyed_rows(path, ["x", "y", "t", "value", "leading", "bound", "method"],
                       lambda r: (int(r[0]), int(r[1]), float(r[2])), expected, outcome, where)
    for (x, y, t), row in rows.items():
        try:
            value, leading, bound = (float(v) for v in row[3:6])
        except ValueError:
            outcome.wrong(where, f"{row}: value, leading or bound is not a number")
            continue
        if row[6] not in ("series", "eigen"):
            outcome.wrong(where, f"{row}: unknown method")
        if not unitary and value < 0:
            outcome.wrong(where, f"{row}: negative heat value")
        elem = ref.element(x, y, t, unitary=unitary)
        elem_ref = abs(elem) if unitary else elem
        if not _within(value, elem_ref, REL_SLACK * abs(elem_ref) + _floor(ref, x, y)):
            outcome.wrong(where, f"{row}: value differs from {mpmath.nstr(elem_ref, 17)}")
        d = ref.distance(x, y)
        with mpmath.workdps(reference.MOMENT_DPS):
            lead_ref = mpmath.mpf(t) ** d * abs(ref.moment(x, y, d)) / mpmath.factorial(d)
        if not _rel(leading, lead_ref, REL_MOMENT):
            outcome.wrong(where, f"{row}: leading differs from {mpmath.nstr(lead_ref, 17)}")
        if not _rel(bound, bound_reference(ref, x, y, t, d), REL_MOMENT):
            outcome.wrong(where, f"{row}: bound differs from the moment reference")
        if abs(value - leading) > bound * (1 + REL_SLACK):
            outcome.wrong(where, f"{row}: |value - leading| exceeds the bound")


# -- local -------------------------------------------------------------------


def _cycle_distance(x, y, n):
    k = abs(x - y) % n
    return min(k, n - k)


def line_reference(kind, x, y, t):
    d = abs(y - x)
    return reference.line_heat(d, t) if kind == "heat" else reference.line_wave_modulus(d, t)


def check_exponent(path, pairs, group, outcome, cycle_n=CYCLE_N):
    """Fits on a cycle of cycle_n vertices, whose elements at hop distance d agree with
    the integer line's up to terms of order t^(cycle_n - d)."""
    where = f"exponent {group}"
    expected = {tuple(p) for p in pairs}
    header = ["x", "y", "group", "slope", "d_E", "abs_error", "max_residual"]
    rows = _keyed_rows(path, header, lambda r: (int(r[0]), int(r[1])), expected, outcome, where)
    for (x, y), row in rows.items():
        d = _cycle_distance(x, y, cycle_n)
        try:
            slope, abs_error = float(row[3]), float(row[5])
        except ValueError:
            outcome.wrong(where, f"{row}: slope or abs_error is not a number")
            continue
        if row[2] != group or row[4] != str(d):
            outcome.wrong(where, f"{row}: group or d_E is not {group}, {d}")
            continue
        with mpmath.workdps(reference.MOMENT_DPS):
            logs = [mpmath.log(line_reference(group, 0, d, t)) for t in EXPONENT_GRID]
            want = reference.slope_fit(EXPONENT_GRID, logs)
        if not _within(slope, want, SLOPE_REF_TOL):
            outcome.wrong(where, f"{row}: slope differs from the Bessel fit "
                                 f"{mpmath.nstr(want, 17)}")
        if abs(slope - d) > SLOPE_D_TOL:
            outcome.wrong(where, f"{row}: slope is more than {SLOPE_D_TOL} from {d}")
        if abs_error != abs(slope - d):
            outcome.wrong(where, f"{row}: abs_error is not |slope - d_E|")


def check_line(path, elements, outcome):
    expected = {(kind, x, y, t) for kind, x, y, t in elements}
    outcome.attempted += len(expected)
    values = {}
    if Path(path).exists():
        with open(path, encoding="utf-8") as fh:
            for kind, x, y, t, re, im in json.load(fh):
                key = (kind, x, y, t)
                if key not in expected or key in values:
                    outcome.wrong("line", f"unexpected or repeated element {key}")
                else:
                    values[key] = complex(re, im)
    outcome.failed += len(expected) - len(values)
    for (kind, x, y, t), value in values.items():
        want = line_reference(kind, x, y, t)
        got = value.real if kind == "heat" else abs(value)
        if kind == "heat" and value.imag != 0:
            outcome.wrong("line", f"{kind} {x} {y} {t}: complex heat value {value}")
        if not _rel(got, want, REL_LINE):
            outcome.wrong("line", f"{kind} {x} {y} {t}: {got!r} differs from "
                                  f"{mpmath.nstr(want, 17)}")


# -- rounds ------------------------------------------------------------------


def load_reference(round_dir):
    """The manifest of a round and the graph reference of its graph file, if any."""
    round_dir = Path(round_dir)
    manifest = json.loads((round_dir / MANIFEST).read_text(encoding="utf-8"))
    ref = None
    if manifest["graph"]:
        ref = reference.GraphReference(read_graph(round_dir / manifest["graph"]))
    return manifest, ref


def work_size(manifest, ref):
    """(vertex pairs, heat and wave elements) one round asks for, counted from its inputs."""
    name = manifest["workload"]
    if name == "certify":
        n = ref.graph.n
        connected = sum(1 for x in range(n) for y in range(x + 1, n)
                        if ref.distance(x, y) != math.inf)
        return n * (n - 1) // 2, 2 * len(VERIFY_GRID) * connected
    if name == "sweep":
        return len(manifest["pairs"]), 2 * len(SWEEP_GRID) * len(manifest["pairs"])
    line = next(s for s in manifest["steps"] if s["kind"] == "line")["elements"]
    line_pairs = {(x, y) for _, x, y, _ in line}
    return (len(manifest["pairs"]) + len(line_pairs),
            2 * len(EXPONENT_GRID) * len(manifest["pairs"]) + len(line))


def check_round(round_dir, manifest, ref, first_dir):
    """Check one round against the references of the first round's inputs."""
    round_dir = Path(round_dir)
    outcome = Outcome()
    for name in (MANIFEST, GRAPH_FILE):
        a, b = Path(first_dir) / name, round_dir / name
        if a.exists() and a.read_bytes() != b.read_bytes():
            outcome.wrong(name, "set-up wrote different inputs in two rounds")
    result = json.loads((round_dir / "result.json").read_text(encoding="utf-8"))
    _exit_codes(result, outcome)
    steps = {s["name"]: s for s in manifest["steps"]}
    name = manifest["workload"]
    if name == "certify":
        check_distance(round_dir / "distance.csv", ref, outcome)
        check_verify(round_dir / "verify.csv", ref, outcome)
    elif name == "sweep":
        for group in ("heat", "wave"):
            check_sweep(round_dir / steps[group]["out"], ref, manifest["pairs"],
                        group == "wave", outcome)
    else:
        for group in ("heat", "wave"):
            check_exponent(round_dir / steps[f"exponent_{group}"]["out"], manifest["pairs"],
                           group, outcome)
        check_line(round_dir / steps["line"]["out"], steps["line"]["elements"], outcome)
    return outcome


def _same_round(a, b, manifest):
    files = [MANIFEST] + ([manifest["graph"]] if manifest["graph"] else [])
    files += [step["out"] for step in manifest["steps"]]
    for name in files:
        fa, fb = Path(a) / name, Path(b) / name
        if fa.exists() != fb.exists() or (fa.exists() and fa.read_bytes() != fb.read_bytes()):
            return False
    codes = [json.loads((Path(d) / "result.json").read_text(encoding="utf-8"))["exit_codes"]
             for d in (a, b)]
    return codes[0] == codes[1]


def check_rounds(round_dirs):
    """Check every round; one whose inputs, outputs and exit codes equal the first
    round's byte for byte gets the first round's verdict.

    Returns the manifest, the graph reference and the combined outcome.
    """
    first_dir = round_dirs[0]
    manifest, ref = load_reference(first_dir)
    first = check_round(first_dir, manifest, ref, first_dir)
    total = Outcome()
    total.add(first)
    for round_dir in round_dirs[1:]:
        same = _same_round(round_dir, first_dir, manifest)
        total.add(first if same else check_round(round_dir, manifest, ref, first_dir))
    return manifest, ref, total

"""The graphheat benchmark.

    python3 bench/run.py --workload certify|sweep|local --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each round of the workload runs in a fresh
interpreter (``child.py``) that imports graphheat from ``src``, builds the
inputs from the seed, and makes the workload's calls.  Rounds repeat until
``--seconds`` have passed and at least ``MIN_ROUNDS`` have run; every round
runs the same calls, so the share of failed operations does not depend on
the run length.  Before the rounds, ``SETUP_RUNS`` interpreters only set up,
so that ``setup_s`` is a median of several set-ups.  After the rounds every
output of every round is checked against references computed without
graphheat (``checks.py``); that work counts toward no metric.

Every interpreter runs pinned to one CPU with single-threaded BLAS, beside
the calibration loop of ``calibrate.py`` on the same CPU.  Its CPU times
are scaled by the loop's reference time per unit over the time per unit it
measured there, so a round that shares the host with a busy neighbour and
runs slow is read at the speed of the machine the reference figures come
from.  On a shared 2-vCPU guest this cut the round-to-round spread of
``sweep`` from 6-12% of the mean in raw CPU time to 1-3%.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, medians over the rounds.  With ``--trace 1`` the
rounds alternate untraced and traced, the metrics are the per-layer medians
over the traced rounds, and ``trace.overhead_s`` is the traced median time
minus the untraced one.  The outputs, traces and per-round results of the
latest run of each workload are kept in ``bench/out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from calibrate import REF_UNIT_S  # noqa: E402
from spans import median_metrics  # noqa: E402
from workloads import NAMES  # noqa: E402

SETUP_RUNS = 4
# the calibration loop's kind of work for each workload: dense decompositions
# take most of `local`, pure-Python sparse applies the others
CALIBRATION = {"certify": "python", "sweep": "python", "local": "mixed"}
# a run must end within 180 s: past this, start no round beyond the first
# one (two when tracing), and give up on a round still running at CHILD_DEADLINE_S
ROUND_DEADLINE_S = 110.0
CHILD_DEADLINE_S = 150.0
CALIBRATION_STOP_S = 10.0
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def _calibrated(cmd, kind, cpu, timeout):
    """Run ``cmd`` beside the calibration loop; its exit code and the loop's speed factor."""
    cal = subprocess.Popen([sys.executable, str(BENCH / "calibrate.py"), "--kind", kind,
                            "--cpu", str(cpu)], stdout=subprocess.PIPE, text=True)
    try:
        if cal.stdout.readline().strip() != "ready":
            raise BenchError("the calibration loop did not start")
        env = dict(os.environ, **SINGLE_THREADED)
        proc = subprocess.run(cmd, stdout=sys.stderr, env=env, timeout=timeout)
        cal.send_signal(signal.SIGTERM)
        out, _ = cal.communicate(timeout=CALIBRATION_STOP_S)
    finally:
        if cal.poll() is None:
            cal.kill()
            cal.wait()
    if not out.strip():
        raise BenchError(f"the calibration loop exited with code {cal.returncode}")
    loop = json.loads(out.splitlines()[-1])
    if loop["units"] == 0:
        raise BenchError("the calibration loop completed no unit")
    return proc.returncode, REF_UNIT_S[kind] * loop["units"] / loop["cpu_s"]


def _child(workload, seed, round_dir, mode, traced, deadline):
    cpu = max(os.sched_getaffinity(0))
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload, "--seed", str(seed),
           "--dir", str(round_dir), "--mode", mode, "--cpu", str(cpu)]
    cmd += ["--trace"] if traced else []
    try:
        code, factor = _calibrated(cmd, CALIBRATION[workload], cpu,
                                   max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{round_dir.name} did not finish in time") from None
    result_path = round_dir / "result.json"
    if code != 0 or not result_path.exists():
        raise BenchError(f"{round_dir.name} exited with code {code}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result.update(dir=round_dir, traced=traced, factor=factor,
                  setup_s=factor * result["setup_cpu_s"])
    if mode == "run":
        result["run_s"] = factor * result["run_cpu_s"]
    if traced:
        result["layers"] = {name: value * factor if _layer_unit(name) in ("s", "us") else value
                            for name, value in result["layers"].items()}
    return result


def run(workload, seed, seconds, trace):
    out = BENCH / "out" / workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    begin = time.monotonic()
    deadline = begin + CHILD_DEADLINE_S
    setups = [_child(workload, seed, out / f"setup{k}", "setup", False, deadline)
              for k in range(SETUP_RUNS)]

    rounds = []
    min_rounds = 2 if trace else 1
    start = time.monotonic()
    longest = 0.0
    while True:
        t0 = time.monotonic()
        traced = trace and len(rounds) % 2 == 1
        rounds.append(_child(workload, seed, out / f"round{len(rounds)}", "run", traced, deadline))
        now = time.monotonic()
        longest = max(longest, now - t0)
        enough = len(rounds) >= min_rounds and now - start >= seconds
        late = now + longest - begin > ROUND_DEADLINE_S
        if enough or (late and len(rounds) >= min_rounds):
            break

    manifest, ref, outcome = checks.check_rounds([r["dir"] for r in rounds])
    for problem in outcome.problems:
        print(f"bench: {problem}", file=sys.stderr)
    if outcome.problem_count > len(outcome.problems):
        print(f"bench: ... {outcome.problem_count} problems in all", file=sys.stderr)

    plain = [r for r in rounds if not r["traced"]]
    run_s = statistics.median(r["run_s"] for r in plain)
    if trace:
        traced = [r for r in rounds if r["traced"]]
        values = median_metrics([r["layers"] for r in traced])
        values["trace.overhead_s"] = statistics.median(r["run_s"] for r in traced) - run_s
        units = {name: _layer_unit(name) for name in values}
    else:
        pairs, elements = checks.work_size(manifest, ref)
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in setups + rounds),
            "scaled_cpu_s": run_s,
            "pairs_per_s": pairs / run_s,
            "elements_per_s": elements / run_s,
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in plain) / 1024,
        }
        units = {"setup_s": "s", "scaled_cpu_s": "s", "pairs_per_s": "pairs/s",
                 "elements_per_s": "elements/s", "peak_rss_mb": "MB"}
    keep = ("traced", "factor", "setup_s", "setup_cpu_s", "setup_wall_s", "run_s", "run_cpu_s",
            "run_wall_s")
    summary = {
        "workload": workload, "seed": seed,
        "setups": [{k: r[k] for k in keep if k in r} for r in setups],
        "rounds": [{k: r[k] for k in keep if k in r} for r in rounds],
        "attempted": outcome.attempted, "failed": outcome.failed,
        "problems": outcome.problem_count, "metrics": values,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    return {
        "correct": outcome.problem_count == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def _layer_unit(name):
    if name.endswith(".calls") or name.endswith(".entries"):
        return "count"
    if name.endswith(".us_per_call"):
        return "us"
    if name.endswith(".applies_per_call"):
        return "applies/element"
    return "s"


def main(argv=None):
    parser = argparse.ArgumentParser(description="graphheat benchmark")
    parser.add_argument("--workload", choices=NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

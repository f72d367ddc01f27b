"""One round of a workload in a fresh interpreter.

    python3 bench/child.py --workload NAME --seed N --dir DIR --mode setup|run --cpu K [--trace]

The process pins itself to CPU K, where ``run.py`` runs the calibration loop
beside it.  Set-up (timed as ``setup_cpu_s``) imports graphheat from the
checkout's ``src`` and builds the workload's inputs in DIR.  In ``run`` mode
the timed part (``run_cpu_s``) then makes the workload's calls, CLI
subcommands through ``graphheat.cli.main`` and library elements through the
package, with outputs written to DIR.  Both are CPU times of this process;
the wall times go along for reference.  The result goes to DIR/result.json.
With ``--trace`` the layer spans are recorded from the input build on, in
CPU time, written to DIR/trace.tsv, and summarised in the result.  A call
that raises is recorded and the round goes on; a missing or foreign
graphheat ends the process with exit code 3.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def _run_cli(gh, step):
    with open(f"{step['name']}.stderr", "w", encoding="utf-8") as err, \
            contextlib.redirect_stderr(err):
        try:
            return gh.cli.main(step["argv"])
        except SystemExit as exc:
            return exc.code
        except Exception:  # a crash is the outcome being measured
            traceback.print_exc()
            return None


def _run_line(gh, step, objects):
    line = objects["line"]
    evaluate = {"heat": gh.heat_element, "wave": gh.wave_element}
    values = []
    errors = []
    for kind, x, y, t in step["elements"]:
        try:
            values.append((kind, x, y, t, evaluate[kind](line, x, y, t, method="series")))
        except Exception:  # counted as a failed element
            errors.append(traceback.format_exc())
    return values, errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})

    sys.path.insert(0, str(BENCH))
    sys.path.insert(0, str(SRC))
    start, start_wall = time.process_time(), time.perf_counter()
    try:
        import graphheat as gh
        import graphheat.cli
    except ImportError as exc:
        print(f"bench: cannot import graphheat from {SRC}: {exc}", file=sys.stderr)
        return 3
    if Path(gh.__file__).resolve().parent.parent != SRC:
        print(f"bench: graphheat came from {gh.__file__}, not {SRC}", file=sys.stderr)
        return 3
    import workloads
    from spans import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer(clock=time.process_time)
        tracer.install()
    out = Path(args.dir)
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    manifest, objects = workloads.build(args.workload, args.seed, gh)
    result = {"setup_cpu_s": time.process_time() - start,
              "setup_wall_s": time.perf_counter() - start_wall}
    if args.mode == "run":
        exit_codes = {}
        line_values, line_errors = [], []
        begin, begin_wall = time.process_time(), time.perf_counter()
        for step in manifest["steps"]:
            if step["kind"] == "cli":
                exit_codes[step["name"]] = _run_cli(gh, step)
            else:
                line_values, line_errors = _run_line(gh, step, objects)
        result.update(run_cpu_s=time.process_time() - begin,
                      run_wall_s=time.perf_counter() - begin_wall, exit_codes=exit_codes,
                      line_errors=line_errors,
                      peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        for step in manifest["steps"]:
            if step["kind"] == "line":
                with open(step["out"], "w", encoding="utf-8") as fh:
                    json.dump([[kind, x, y, t, complex(v).real, complex(v).imag]
                               for kind, x, y, t, v in line_values], fh)
        if tracer is not None:
            result["layers"] = tracer.metrics()
            tracer.dump("trace.tsv")
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

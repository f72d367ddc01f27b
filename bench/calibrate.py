"""A calibration loop that shares a CPU with a round and measures how fast that CPU runs.

    python3 bench/calibrate.py --kind python|mixed --cpu K

The benchmark starts this loop on the same CPU as each round's interpreter,
at a lower priority, so that the two take turns on the CPU every few
milliseconds and see the same host: the loop's CPU time per unit of fixed
work rises and falls with the speed the round gets.  ``run.py`` scales the
round's CPU time by ``REF_UNIT_S[kind]`` over the loop's time per unit.

A ``python`` unit is 20 applies of a Laplacian, written the way
``LaplacianOperator.apply`` is (dicts, sets, ``math.fsum``), to a vector
supported on every vertex of a fixed 200-vertex circulant graph of degree
12, the size of the ``sweep`` graph and its near-dense supports.  A
``mixed`` unit adds one ``numpy.linalg.eigh`` of a fixed 300 x 300 symmetric
matrix, for workloads where dense decompositions take much of the time.

After a short warm-up the loop prints ``ready``; on SIGTERM it prints one
JSON object with the units completed and their CPU seconds, and exits.
Only whole units count.
"""

import argparse
import json
import math
import os
import signal
import sys
import time

# the CPU time of one unit on the machine the reference figures come from:
# the median of 60 units, run alone on one pinned CPU
REF_UNIT_S = {"python": 0.0097, "mixed": 0.0217}
# a niceness of 5 gives the loop about a quarter of the CPU
NICE = 5
WARMUP_UNITS = 3
N = 200
OFFSETS = (1, 2, 5, 11, 23, 47)
APPLIES_PER_UNIT = 20
EIGH_N = 300


def _python_unit():
    nbrs = {v: [((v + s * k) % N, 1.0 + 0.01 * k) for k in OFFSETS for s in (1, -1)]
            for v in range(N)}
    f = {v: 1.0 / (1 + v) for v in range(N)}

    def apply():
        targets = set(f)
        for v in f:
            targets.update(u for u, _ in nbrs[v])
        out = {}
        for v in sorted(targets):
            terms = []
            fv = f.get(v)
            if fv is not None:
                terms.append(12.5 * fv)
            for u, w in nbrs[v]:
                fu = f.get(u)
                if fu is not None:
                    terms.append(-w * fu)
            out[v] = math.fsum(terms)
        return out

    def unit():
        for _ in range(APPLIES_PER_UNIT):
            apply()

    return unit


def _mixed_unit():
    import numpy as np

    python = _python_unit()
    a = np.random.default_rng(0).standard_normal((EIGH_N, EIGH_N))
    a = a + a.T

    def unit():
        python()
        np.linalg.eigh(a)

    return unit


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=tuple(REF_UNIT_S), required=True)
    parser.add_argument("--cpu", type=int, required=True)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})
    os.nice(NICE)
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    unit = _python_unit() if args.kind == "python" else _mixed_unit()
    for _ in range(WARMUP_UNITS):
        unit()
    print("ready", flush=True)
    units, cpu_s = 0, 0.0
    clock = time.process_time
    while not stop:
        start = clock()
        unit()
        end = clock()
        if not stop:
            units += 1
            cpu_s += end - start
    print(json.dumps({"units": units, "cpu_s": cpu_s}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

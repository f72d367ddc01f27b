"""The three workloads: the inputs each builds from a seed, and its timed calls.

Each workload keeps its graph fixed and draws from the seed only what does
not change the amount of work: a relabelling of the vertices, which pairs
are asked for at each hop distance, and where on the line and the cycle the
pairs sit.  The cost depends on the graph's values (the top eigenvalue sets
which rows take the series route and how long each series runs) and on how
many pairs sit at each hop distance, so a seed that redrew either would
measure a different amount of work: with freshly drawn weights, measures
and pairs, the 200-vertex sweep took 6.7-9.9 s over five seeds.

``build`` runs in the fresh interpreter that will make the timed calls, with
the working directory set to the round's directory.  It writes the graph
file and ``manifest.json``, which the parent process reads to check the
outputs.
"""

from __future__ import annotations

import json
import random

from graphdata import Graph, hop_distances

NAMES = ("certify", "sweep", "local")

# certify: a 39-vertex component and one isolated vertex, so 39 of the 780
# pairs are disconnected; hop distances 1..7
CERTIFY_SPEC = "random:40:0.1:1:c"
# sweep: one isolated vertex, hop distances 1..6 elsewhere
SWEEP_SPEC = "random:200:0.03:1"
SWEEP_DISTANCES = (1, 2, 3, 4, 5)
SWEEP_PAIRS_PER_DISTANCE = 4
# local: the largest cycle the dense size limit admits, and the integer line
CYCLE_N = 2000
CYCLE_MAX_D = 20
LINE_MAX_D = 24
LINE_TIMES = 6

GRAPH_FILE = "graph.txt"
MANIFEST = "manifest.json"


def _cli(name, argv):
    return {"kind": "cli", "name": name, "argv": argv, "out": argv[argv.index("--out") + 1]}


def _relabelled(gh, spec, rng):
    """The graph of ``spec`` with its vertices renamed by a seeded permutation."""
    base = gh.from_spec(spec)
    n = base.n
    perm = list(range(n))
    rng.shuffle(perm)
    edges = tuple((perm[u], perm[v], w) for u, v, w in base.edges())
    measure, killing = [0.0] * n, [0.0] * n
    for v in range(n):
        measure[perm[v]] = base.measure(v)
        killing[perm[v]] = base.killing(v)
    return gh.WeightedGraph(n, edges, measure, killing), Graph(n, tuple(measure),
                                                               tuple(killing), edges)


def _certify(gh, rng):
    graph, _ = _relabelled(gh, CERTIFY_SPEC, rng)
    gh.save_graph(graph, GRAPH_FILE)
    steps = [_cli("distance", ["distance", "--input", GRAPH_FILE, "--out", "distance.csv"]),
             _cli("verify", ["verify", "--input", GRAPH_FILE, "--out", "verify.csv"])]
    return {"graph": GRAPH_FILE, "steps": steps}, {}


def _stratified_pairs(data, rng):
    """SWEEP_PAIRS_PER_DISTANCE distinct pairs at each hop distance in SWEEP_DISTANCES."""
    adj = data.adjacency()
    dist = {}
    pairs = set()
    for d in SWEEP_DISTANCES:
        found = 0
        while found < SWEEP_PAIRS_PER_DISTANCE:
            x = rng.randrange(data.n)
            if x not in dist:
                dist[x] = hop_distances(adj, x)
            at_d = sorted(y for y, dy in dist[x].items() if dy == d)
            if not at_d:
                continue
            pair = tuple(sorted((x, rng.choice(at_d))))
            if pair not in pairs:
                pairs.add(pair)
                found += 1
    return sorted(pairs)


def _sweep(gh, rng):
    graph, data = _relabelled(gh, SWEEP_SPEC, rng)
    gh.save_graph(graph, GRAPH_FILE)
    pairs = _stratified_pairs(data, rng)
    spec = ";".join(f"{x},{y}" for x, y in pairs)
    steps = [_cli(group, [group, "--input", GRAPH_FILE, "--pairs", spec, "--out", f"{group}.csv"])
             for group in ("heat", "wave")]
    return {"graph": GRAPH_FILE, "pairs": pairs, "steps": steps}, {}


def _local(gh, rng):
    x0 = rng.randrange(CYCLE_N)
    pairs = [(x0, (x0 + d) % CYCLE_N) for d in range(CYCLE_MAX_D + 1)]
    spec = ";".join(f"{x},{y}" for x, y in pairs)
    steps = [_cli(f"exponent_{group}", ["exponent", "--gen", f"cycle:{CYCLE_N}", "--pairs", spec,
                                        "--group", group, "--out", f"exponent_{group}.csv"])
             for group in ("heat", "wave")]
    base = rng.randrange(-10 ** 6, 10 ** 6)
    sign = rng.choice((1, -1))
    # one time in each half decade from 0.1 down to 1e-4
    times = [0.1 * 10 ** (-(j + rng.random()) / 2) for j in range(LINE_TIMES)]
    elements = [(kind, base, base + sign * d, t)
                for d in range(LINE_MAX_D + 1) for t in times for kind in ("heat", "wave")]
    steps.append({"kind": "line", "name": "line", "elements": elements, "out": "line.json"})
    return {"graph": None, "pairs": pairs, "steps": steps}, {"line": gh.integer_line()}


def build(name, seed, gh):
    """Write the inputs of one workload into the working directory.

    Returns the manifest (also written to MANIFEST) and the in-memory objects
    the timed calls need.
    """
    make = {"certify": _certify, "sweep": _sweep, "local": _local}[name]
    manifest, objects = make(gh, random.Random(f"{name}:{seed}"))
    manifest.update(workload=name, seed=seed)
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return manifest, objects

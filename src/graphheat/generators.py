"""Built-in graph families and seeded random graphs.

Deterministic families carry unit data (b = 1, m = 1, c = 0).  Random
generators draw from ``random.Random(seed)`` in a fixed order (edges, then
measures, then killing terms), so a given spec reproduces the same graph on
every run and platform.
"""

from __future__ import annotations

import random

import numpy as np

from .graphs import ProceduralGraph, WeightedGraph

DEFAULT_WEIGHT_RANGE = (0.1, 2.0)
DEFAULT_MEASURE_RANGE = (0.5, 2.0)


def path_graph(n: int, weight: float = 1.0) -> WeightedGraph:
    u = np.arange(max(n - 1, 0))
    return WeightedGraph.from_arrays(n, u, u + 1, np.full(len(u), weight, dtype=float))


def cycle_graph(n: int, weight: float = 1.0) -> WeightedGraph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    u = np.arange(n)
    return WeightedGraph.from_arrays(n, u, (u + 1) % n, np.full(n, weight, dtype=float))


def complete_graph(n: int, weight: float = 1.0) -> WeightedGraph:
    u, v = np.triu_indices(n, 1)
    return WeightedGraph.from_arrays(n, u, v, np.full(len(u), weight, dtype=float))


def star_graph(n: int, weight: float = 1.0) -> WeightedGraph:
    """Center 0 joined to leaves 1..n-1."""
    v = np.arange(1, max(n, 1))
    return WeightedGraph.from_arrays(n, np.zeros_like(v), v, np.full(len(v), weight, dtype=float))


def random_graph(n: int, p: float, seed: int,
                 wmin: float = DEFAULT_WEIGHT_RANGE[0], wmax: float = DEFAULT_WEIGHT_RANGE[1],
                 mmin: float = DEFAULT_MEASURE_RANGE[0], mmax: float = DEFAULT_MEASURE_RANGE[1],
                 random_killing: bool = False) -> WeightedGraph:
    """Each pair becomes an edge with probability p, with uniform weights."""
    return _draw_rest(random.Random(seed), n, p, [], (wmin, wmax), (mmin, mmax), random_killing)


def random_connected_graph(n: int, p: float, seed: int,
                           wmin: float = DEFAULT_WEIGHT_RANGE[0], wmax: float = DEFAULT_WEIGHT_RANGE[1],
                           mmin: float = DEFAULT_MEASURE_RANGE[0], mmax: float = DEFAULT_MEASURE_RANGE[1],
                           random_killing: bool = False) -> WeightedGraph:
    """Random spanning tree plus independent extra edges with probability p."""
    rng = random.Random(seed)
    tree = [(rng.randrange(v), v, rng.uniform(wmin, wmax)) for v in range(1, n)]
    return _draw_rest(rng, n, p, tree, (wmin, wmax), (mmin, mmax), random_killing)


def _draw_rest(rng, n, p, edges, weights, measures, random_killing) -> WeightedGraph:
    """Add to ``edges`` each other pair with probability p, then draw measures and killing."""
    if not 0 <= p <= 1:
        raise ValueError("edge probability must lie in [0, 1]")
    present = {(u, v) for u, v, _ in edges}
    for u in range(n):
        for v in range(u + 1, n):
            # with no edge present, a lookup per pair would nearly double random_graph's time
            if (not present or (u, v) not in present) and rng.random() < p:
                edges.append((u, v, rng.uniform(*weights)))
    measure = [rng.uniform(*measures) for _ in range(n)]
    killing = [rng.uniform(0.0, 1.0) for _ in range(n)] if random_killing else 0.0
    return WeightedGraph(n, edges, measure, killing)


def integer_line(weight: float = 1.0) -> ProceduralGraph:
    """The two-sided infinite path on the integers, unit measure."""
    return ProceduralGraph(lambda x: [(x - 1, weight), (x + 1, weight)], max_degree=2)


def from_spec(spec: str) -> WeightedGraph:
    """Build a graph from a compact text spec.

    Accepted forms: ``path:n``, ``cycle:n``, ``complete:n``, ``star:n``, and
    ``random:n:p:seed[:wmin:wmax:mmin:mmax][:c]`` where the trailing ``:c``
    switches on uniform killing terms in [0, 1].
    """
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind in ("path", "cycle", "complete", "star"):
            if len(parts) != 2:
                raise ValueError(f"{kind} spec takes exactly one argument")
            n = int(parts[1])
            builder = {"path": path_graph, "cycle": cycle_graph,
                       "complete": complete_graph, "star": star_graph}[kind]
            return builder(n)
        if kind == "random":
            args = parts[1:]
            random_killing = False
            if args and args[-1] == "c":
                random_killing = True
                args = args[:-1]
            if len(args) in (3, 7):  # n:p:seed, then optionally wmin:wmax:mmin:mmax
                n, p, seed = int(args[0]), float(args[1]), int(args[2])
                return random_graph(n, p, seed, *(float(a) for a in args[3:]),
                                    random_killing=random_killing)
            raise ValueError("random spec is random:n:p:seed[:wmin:wmax:mmin:mmax][:c]")
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad generator spec {spec!r}: {exc}") from None
    raise ValueError(f"bad generator spec {spec!r}: unknown family {kind!r}")

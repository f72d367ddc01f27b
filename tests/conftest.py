"""Shared helpers for the test suite, and its hypothesis profiles.

``GRAPHHEAT_HYPOTHESIS_PROFILE=long`` raises the example budget of every property
test whose ``@settings`` leaves ``max_examples`` to the profile, as CI's long
rounded-sum step does.
"""

import os
import random

from hypothesis import settings

from graphheat import ProceduralGraph, WeightedVector

settings.register_profile("long", max_examples=10_000)
settings.load_profile(os.environ.get("GRAPHHEAT_HYPOTHESIS_PROFILE", "default"))


def series_coefficient(ts, n):
    """(t s)^n / n! at ts = t s, by the series' own recursion coef *= ts / k in Python
    floats: the reference for every certificate coefficient."""
    coef = 1.0
    for k in range(1, n + 1):
        coef *= ts / k
    return coef


def doubling_line():
    """The integer line with the weight 2^max(|a|, |b|) on the edge (a, b): its
    1-balls pass the series gate while its moments overflow."""
    return ProceduralGraph(lambda u: [(u - 1, 2.0 ** max(abs(u - 1), abs(u))),
                                      (u + 1, 2.0 ** max(abs(u), abs(u + 1)))])


def random_oracle(seed):
    """A procedural graph drawn from ``seed``: the edge (u, u + k), k = 1..3, is present with
    probability 0.6 and weighs 10^U(-4, 4); the measures are 10^U(-3, 3) and a killing term
    is 0, 0.5 or 3, each drawn from the seed and the vertices it concerns."""
    def drawn(*key):
        return random.Random(":".join(map(str, (seed,) + key)))

    def neighbors(u):
        draws = [(v, drawn(min(u, v), max(u, v))) for k in (1, 2, 3) for v in (u - k, u + k)]
        return sorted((v, 10.0 ** rng.uniform(-4, 4)) for v, rng in draws if rng.random() < 0.6)

    return ProceduralGraph(neighbors, measure_fn=lambda u: 10.0 ** drawn("m", u).uniform(-3, 3),
                           killing_fn=lambda u: drawn("c", u).choice((0.0, 0.5, 3.0)))


def random_vector(graph, seed, complex_values=False, density=0.7):
    """Seeded random finitely supported vector on a finite graph."""
    rng = random.Random(seed)
    values = {}
    for v in graph.vertices:
        if rng.random() < density:
            if complex_values:
                values[v] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            else:
                values[v] = rng.uniform(-1, 1)
    if not values:
        values[rng.randrange(graph.n)] = 1.0
    return WeightedVector(graph, values)


def random_unit_vector(graph, seed, complex_values=False):
    f = random_vector(graph, seed, complex_values=complex_values, density=1.0)
    return f * (1.0 / f.norm())

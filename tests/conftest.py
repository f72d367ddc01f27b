"""Shared helpers for the test suite, and its hypothesis profiles.

``GRAPHHEAT_HYPOTHESIS_PROFILE=long`` raises the example budget of every property
test whose ``@settings`` leaves ``max_examples`` to the profile, as CI's long
rounded-sum step does.
"""

import os
import random

from hypothesis import settings

from graphheat import WeightedVector

settings.register_profile("long", max_examples=10_000)
settings.load_profile(os.environ.get("GRAPHHEAT_HYPOTHESIS_PROFILE", "default"))


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

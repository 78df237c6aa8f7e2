"""Shared corpus fixtures.

The corpora are deterministic: a fixed scan over generator parameters,
filtered by edge and bad-vertex counts.  Oracle optima are memoized per
session because several suites compare against the same instances.
"""

from fractions import Fraction

import pytest

from mwbs.generate import GenParams, gen_instance
from mwbs.oracle import brute_force_mwbs

_BIASES = (Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), Fraction(1, 10))


def instance_stream(count, m_lo=4, m_hi=14, b_max=None, seed0=0):
    """Deterministically scan generator parameters and keep the first
    ``count`` connected instances matching the filters."""
    out = []
    seed = seed0
    while len(out) < count:
        if seed - seed0 > 60_000:
            raise RuntimeError("instance stream exhausted; filters too strict")
        n = 4 + (seed % 5)
        bias = _BIASES[seed % 4]
        if seed % 3 == 0:
            params = GenParams(n=min(n, 6), seed=seed, orientation_bias=bias)
        else:
            params = GenParams(n=n, seed=seed, orientation_bias=bias,
                               density="sparse", sparse_p=Fraction(1, 2))
        seed += 1
        inst = gen_instance(params)
        g = inst.graph
        if not g.is_connected():
            continue
        if not (m_lo <= g.edge_count <= m_hi):
            continue
        if b_max is not None and len(g.bad_vertices()) > b_max:
            continue
        out.append(inst)
    return out


@pytest.fixture(scope="session")
def corpus_small():
    """At least 500 connected instances with 4 <= m <= 14."""
    return instance_stream(520)


@pytest.fixture(scope="session")
def corpus_b4():
    """At least 200 instances with m <= 14 and at most 4 bad vertices."""
    return instance_stream(210, b_max=4, seed0=100_000)


@pytest.fixture(scope="session")
def oracle_of():
    """Memoized exhaustive optimum, shared across suites.  The cache keeps
    each instance alive next to its optimum, so its id is never reused."""
    cache = {}

    def solve(instance):
        key = id(instance)
        if key not in cache:
            cache[key] = (instance, brute_force_mwbs(instance))
        return cache[key][1]

    return solve

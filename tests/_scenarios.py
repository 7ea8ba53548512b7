"""Seeded random scenarios for the differential tests at N = 4-6.

Every generator draws from the numpy Generator it is given, so a test fixes
its cases by seed. Together they cover static and per-step schedules,
zero-weight edges, any p and lambda (0 and 1 included), and point, spread
and full-support beliefs.
"""

import numpy as np

from epitest.beliefs import Belief
from epitest.model import ContactGraph, ContactSchedule, SystemState
from epitest.scenario import ScenarioConfig


def random_graph(n, rng, zero_edge=False):
    """Seeded weights on a random edge set; optionally one zero-weight edge."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = [(i, j, float(rng.choice([0.5, 1.0, 2.0]))) for i, j in pairs if rng.random() < 0.5]
    if zero_edge:
        edges = [e for e in edges if e[:2] != (1, n)] + [(1, n, 0.0)]
    return ContactGraph.from_edges(n, edges)


def random_beliefs(n, rng):
    """A point state, a full-support Dirichlet draw and a sparse spread."""
    point = Belief.point(SystemState(int(rng.integers(1 << n)), n))
    full = Belief.from_dense(rng.dirichlet(np.ones(1 << n)), n)
    sparse = np.zeros(1 << n)
    sparse[rng.choice(1 << n, size=3, replace=False)] = rng.dirichlet(np.ones(3))
    return [point, full, Belief.from_dense(sparse, n)]


def random_scenario(n, horizon, p, lam, rng, per_step=False):
    """A uniform prior on a seeded schedule whose first graph carries the
    zero-weight edge (1, n): one static graph, or with ``per_step`` a fresh
    graph at every step."""
    if per_step:
        graphs = tuple(random_graph(n, rng, zero_edge=t == 0) for t in range(horizon))
        schedule = ContactSchedule(horizon, graphs)
    else:
        schedule = ContactSchedule.static(horizon, random_graph(n, rng, zero_edge=True))
    return ScenarioConfig(n, horizon, p, lam, schedule, Belief.uniform(n), 0)


def ring_scenario(n, lam, chord_seed=3, horizon=None):
    """The ring 1-2-...-n-1 at weight 1 plus up to n seeded chords of weight
    0.5, horizon n unless given, p = 0.5, from 0.5 on all-healthy and 0.5/n
    on each single index case."""
    horizon = horizon or n
    edges = {(i, i + 1) if i < n else (1, n): 1.0 for i in range(1, n + 1)}
    rng = np.random.default_rng(chord_seed)
    for _ in range(n):
        a, b = sorted(int(v) for v in rng.choice(np.arange(1, n + 1), size=2, replace=False))
        edges.setdefault((a, b), 0.5)
    g = ContactGraph.from_edges(n, [(a, b, w) for (a, b), w in edges.items()])
    prior = {0: 0.5, **{1 << k: 0.5 / n for k in range(n)}}
    return ScenarioConfig(n, horizon, 0.5, lam, ContactSchedule.static(horizon, g),
                          Belief(n, prior), 0)

"""Bundled desk-scale scenarios used by the tests, demos and docs.

All are small enough for the exact solver and the brute-force tree oracle.
Scenario A is the reference benchmark: a three-node path with one unknown
index case. The builders are the source of truth; the YAML files under
scenarios/ are generated from them.
"""

from __future__ import annotations

import numpy as np

from .beliefs import Belief
from .model import ContactGraph, ContactSchedule
from .scenario import ScenarioConfig


def scenario_a() -> ScenarioConfig:
    """N=3 path 1-2-3, T=4, p=0.5, lambda=0.5; at most one unknown carrier."""
    graph = ContactGraph.from_edges(3, [(1, 2, 1.0), (2, 3, 1.0)])
    belief = Belief(3, {0b000: 0.25, 0b001: 0.25, 0b010: 0.25, 0b100: 0.25})
    return ScenarioConfig(
        n=3,
        horizon=4,
        p=0.5,
        lam=0.5,
        schedule=ContactSchedule.static(4, graph),
        initial_belief=belief,
        seed=20260810,
    )


def scenario_b() -> ScenarioConfig:
    """N=3 star centered on 1 with unequal weights, T=3, cheap tests."""
    graph = ContactGraph.from_edges(3, [(1, 2, 1.0), (1, 3, 3.0)])
    belief = Belief(3, {0b000: 0.5, 0b001: 0.25, 0b011: 0.125, 0b111: 0.125})
    return ScenarioConfig(
        n=3,
        horizon=3,
        p=0.7,
        lam=0.25,
        schedule=ContactSchedule.static(3, graph),
        initial_belief=belief,
        seed=31,
    )


def scenario_c() -> ScenarioConfig:
    """N=2 single persistent contact, T=3; the smallest interesting case."""
    graph = ContactGraph.from_edges(2, [(1, 2, 1.0)])
    return ScenarioConfig(
        n=2,
        horizon=3,
        p=0.5,
        lam=0.25,
        schedule=ContactSchedule.static(3, graph),
        initial_belief=Belief.uniform(2),
        seed=77,
    )


def scenario_d() -> ScenarioConfig:
    """N=3 with a time-varying schedule: the triangle loses an edge each step."""
    g1 = ContactGraph.from_edges(3, [(1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0)])
    g2 = ContactGraph.from_edges(3, [(1, 2, 1.0), (2, 3, 2.0)])
    g3 = ContactGraph.from_edges(3, [(2, 3, 1.0)])
    belief = Belief(3, {0b000: 0.5, 0b100: 0.5})
    return ScenarioConfig(
        n=3,
        horizon=3,
        p=0.6,
        lam=0.1,
        schedule=ContactSchedule(3, (g1, g2, g3)),
        initial_belief=belief,
        seed=404,
    )


TINY_SCENARIOS = {
    "scenario_a": scenario_a,
    "scenario_b": scenario_b,
    "scenario_c": scenario_c,
    "scenario_d": scenario_d,
}


def tiny_scenarios() -> dict:
    """Name -> config for all bundled tiny scenarios."""
    return {name: build() for name, build in TINY_SCENARIOS.items()}


def probe_beliefs(n: int, count: int, seed=9001) -> list:
    """Fixed random interior probe beliefs on the 2**n simplex; ``seed`` is
    an int or a ``numpy.random.SeedSequence``."""
    rng = np.random.default_rng(seed)
    return [
        Belief.from_dense(rng.dirichlet(np.ones(1 << n)), n) for _ in range(count)
    ]

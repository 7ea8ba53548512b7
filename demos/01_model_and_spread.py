"""How the epidemic model works: states, contact graphs, and one-step spread.

Run:  python demos/01_model_and_spread.py
"""

import numpy as np

from epitest import (
    ContactGraph,
    SystemState,
    active_subgraph,
    sample_active_edge,
    transmit_with_uniform,
)
from epitest.model import dynamics

# Three people; 1 and 2 meet often, 1 and 3 rarely.
graph = ContactGraph.from_edges(3, [(1, 2, 3.0), (1, 3, 1.0)])
print("contact graph:", graph.edges)

# Individual 1 is infected, the others are healthy.
x = SystemState.from_bits((1, 0, 0))
print("hidden state:", x, f"({x.count()} infected)")


def show_step(q):
    """The one-step distribution out of x under quarantine q, marginalized
    over which contact activates: Dynamics pushes the point mass on x."""
    for mask, prob in dynamics(graph, q, q, 0.5).predict({x.mask: 1.0}).items():
        print(f"  -> {SystemState(mask, x.n)}: {prob:.4f}")


# With transmission probability 0.5, individual 2 is at three times the risk
# of individual 3 because of the contact weights.
print("\none-step distribution (p = 0.5):")
show_step(frozenset())

# Quarantining individual 1 removes every contact that could transmit.
q = frozenset({1})
print("\nwith 1 quarantined, active contacts:", active_subgraph(graph, q).edges)
show_step(q)

# The generative view: draw the active contact, then resolve transmission
# with one uniform variate (it crosses when the variate falls below p).
rng = np.random.default_rng(7)
print("\nfive sampled steps from", x, "(no quarantine):")
for _ in range(5):
    edge = sample_active_edge(graph, frozenset(), rng)
    nxt = transmit_with_uniform(x, edge, 0.5, frozenset(), rng.random())
    print(f"  active contact {edge[:2]}, next state {nxt}")

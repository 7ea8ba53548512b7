"""Tracking the posterior over who is infected while testing and spreading.

Run:  python demos/02_belief_tracking.py
"""

from epitest import (
    SystemState,
    belief_update,
    expected_infections,
    filter_observation,
    marginal_infection,
)
from epitest.presets import scenario_a

cfg = scenario_a()
g = cfg.graph_at(1)
belief = cfg.initial_belief
q = frozenset()  # nobody quarantined yet

print("prior over hidden states (individuals 1..3 left to right):")
for mask, pr in belief.probs.items():
    print(f"  {SystemState(mask, 3)}: {pr:.3f}")
print("expected infections:", expected_infections(belief))
print("per-person marginals:",
      [round(marginal_infection(belief, u), 3) for u in (1, 2, 3)])

# Step 1: test individual 2, suppose the result is negative.
belief, q = belief_update(belief, g, q, 2, 0, cfg.p)
print("\nafter testing 2 (negative) and one step of spread:")
for mask, pr in belief.probs.items():
    print(f"  {SystemState(mask, 3)}: {pr:.4f}")

# Step 2: no test; the prediction step keeps diffusing mass.
belief, q = belief_update(belief, g, q, 0, None, cfg.p)
print("\nafter an untested step:")
print("expected infections:", round(expected_infections(belief), 4))

# Step 3: test individual 1, suppose it comes back positive. Conditioning
# alone pins the marginal to 1 before any spread is predicted; the positive
# result also quarantines 1, blocking this step's possible crossing.
filtered = filter_observation(belief, 1, 1)
print("\nmarginal of 1 right after a positive test:",
      marginal_infection(filtered, 1))
belief, q = belief_update(belief, g, q, 1, 1, cfg.p)
print(f"posterior after the positive test and blocked spread (quarantine {sorted(q)}):")
for mask, pr in belief.probs.items():
    print(f"  {SystemState(mask, 3)}: {pr:.4f}")

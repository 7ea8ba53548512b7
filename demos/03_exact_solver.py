"""Exact finite-horizon solving: alpha vectors, policy extraction, and the
independent tree oracle that certifies both.

Run:  python demos/03_exact_solver.py
"""

from epitest import OneStepPolicy, evaluate, oracle_value, policy_tree_value, solve
from epitest.presets import probe_beliefs, scenario_a, scenario_c

# The two-node chain is small enough to read the solution directly.
cfg = scenario_c()
vf = solve(cfg)
print(f"scenario C (N={cfg.n}, T={cfg.horizon}, p={cfg.p}, lambda={cfg.lam})")
for t in range(1, cfg.horizon + 1):
    aset = vf.alpha_set(t)
    print(f"  stage {t}: {len(aset)} vector(s)")
    for action, vec in zip(aset.actions, aset.values):
        vals = ", ".join(f"{v:.3f}" for v in vec)
        print(f"    action {action}: [{vals}]")

b0 = cfg.initial_belief
val, idx = evaluate(vf.alpha_set(1), b0)
print(f"\nvalue at the uniform prior: {val:.6f} "
      f"(minimizing vector #{idx}, action {vf.alpha_set(1).actions[idx]})")

# The brute-force tree oracle shares no code with the alpha machinery and
# lands on the same number.
print("tree oracle at the same belief:", round(oracle_value(cfg, b0), 6))

# Benchmark scenario A: the optimal policy is the one-step minimizer against
# the solved value function; evaluate it exactly.
cfg = scenario_a()
vf = solve(cfg)
policy = OneStepPolicy(vf)
b0 = cfg.initial_belief
print(f"\nscenario A optimal expected cost: {vf.value(1, b0):.6f}")
print("exact evaluation of the extracted policy:",
      round(policy_tree_value(cfg, policy, b0), 6))

print("\nagreement at five random probe beliefs:")
for b in probe_beliefs(cfg.n, 5):
    print(f"  solver {vf.value(1, b):.9f}   oracle {oracle_value(cfg, b):.9f}")

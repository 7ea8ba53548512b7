"""Acceptance suite: every exit criterion, one test each, at its stated
tolerance. Each test prints a PASS line so a full run reads as a checklist.

Golden regression values were frozen after their first computation and are
reproduced exactly by the paired-seed machinery.
"""

import time

import numpy as np
import pytest

from epitest.approx import nested_grid_ladder, sandwich
from epitest.beliefs import belief_update, expected_infections
from epitest.errors import InconsistentObservationError
from epitest.exact import solve
from epitest.model import (
    SystemState,
    dynamics,
    sample_active_edge,
    transmit_with_uniform,
)
from epitest.oracle import oracle_value
from epitest.policies import (
    OpenLoopPlan,
    OpenLoopValue,
    check_lookahead_assumption,
    extract_policy,
    make_policy,
    policy_improved,
    policy_tree_value,
)
from epitest.presets import probe_beliefs, scenario_a
from epitest.scenario import ScenarioConfig
from epitest.simulate import monte_carlo_eval, paired_difference, run_episode

from _reference import joint_posterior

EMPTY = frozenset()
TOL = 1e-9

# criterion 7 golden values: scenario A, 10^4 paired-seed runs, frozen after
# the first computation
GOLDEN_MEAN_COST = {
    "exact": 4.2654,
    "improved": 4.4216,
    "open_loop": 5.2026,
    "lookahead": 4.4216,
}


def _passline(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_oracle_equivalence(scenarios):
    started = time.perf_counter()
    checked = 0
    for name, cfg in scenarios.items():
        vf = solve(cfg)
        probes = probe_beliefs(cfg.n, 100, seed=1000 + cfg.n)
        for b in probes:
            assert vf.value(1, b) == pytest.approx(oracle_value(cfg, b), abs=TOL), name
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 1 runtime {elapsed:.1f}s exceeds 1 minute"
    _passline(1, f"exact solve equals tree oracle at {checked} probe beliefs "
                 f"across {len(scenarios)} scenarios ({elapsed:.1f}s)")


def test_criterion_2_sandwich_soundness(scenarios):
    started = time.perf_counter()
    ladder = (2, 4, 8)
    rows_checked = 0
    for name, cfg in scenarios.items():
        probes = probe_beliefs(cfg.n, 6, seed=2000 + cfg.n)
        oracle_cache = {}
        prev_gaps = None
        for R, grid in zip(ladder, nested_grid_ladder(cfg.n, ladder, seed=cfg.seed)):
            sw = sandwich(cfg, grid, probes)
            assert not sw.violations, name
            gaps = {}
            for row in sw.rows:
                key = (row.t, row.probe)
                if key not in oracle_cache:
                    oracle_cache[key] = oracle_value(cfg, probes[row.probe], t=row.t)
                ov = oracle_cache[key]
                assert row.lower - TOL <= ov <= row.upper + TOL, (name, R, key)
                gaps[key] = row.gap
                rows_checked += 1
            if prev_gaps is not None:
                for key, gap in gaps.items():
                    assert gap <= prev_gaps[key] + TOL, (name, R, key)
            prev_gaps = gaps
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"criterion 2 runtime {elapsed:.1f}s exceeds 2 minutes"
    _passline(2, f"lower <= oracle <= upper with gaps non-increasing over "
                 f"R={ladder} on {rows_checked} (stage, probe) rows ({elapsed:.1f}s)")


def _plans_for(cfg):
    n, T = cfg.n, cfg.horizon
    forward = tuple(t if t <= n else 0 for t in range(1, T + 1))
    backward = tuple(n - t + 1 if t <= n else 0 for t in range(1, T + 1))
    zeros = tuple(0 for _ in range(T))
    return [OpenLoopPlan(p) for p in dict.fromkeys([zeros, forward, backward])]


def test_criterion_3_policy_improvement(scenarios):
    checked = 0
    for name, cfg in scenarios.items():
        probes = probe_beliefs(cfg.n, 10, seed=3000 + cfg.n)
        plans = _plans_for(cfg)
        assert len(plans) >= 3
        for plan in plans:
            olv = OpenLoopValue(plan, cfg)
            improved = policy_improved(plan, cfg)
            for b in probes:
                for t in range(1, cfg.horizon + 1):
                    v_im = policy_tree_value(cfg, improved, b, EMPTY, t)
                    v_ol = olv.value(t, b, EMPTY)
                    assert v_im <= v_ol + TOL, (name, plan.actions, t)
                    checked += 1
    _passline(3, f"one-step improvement never worse than its open-loop plan "
                 f"on {checked} (plan, probe, stage) checks")


def test_criterion_4_lookahead_guarantee(scenarios):
    from epitest.approx import BeliefGrid, approx_solve_upper

    exact_checked = upper_checked = 0
    for name, cfg in scenarios.items():
        probes = probe_beliefs(cfg.n, 6, seed=4000 + cfg.n)

        # exact value function: the condition holds with equality
        report = check_lookahead_assumption(solve(cfg), cfg, probes)
        assert report.assumption_passed(), name
        for rec in report.assumption:
            assert rec.surrogate_value == pytest.approx(rec.bellman_rhs, abs=TOL), name
        assert report.conclusion, name
        assert report.conclusion_passed(), name
        exact_checked += len(report.conclusion)

        # pruned upper bound: the bound is asserted exactly where the
        # assumption passes
        grid = BeliefGrid.corners_plus_random(cfg.n, 4, seed=cfg.seed)
        ub = approx_solve_upper(cfg, grid)

        class UpperSurrogate:
            def __init__(self, ub):
                self.ub = ub

            def value(self, t, b, q):
                return self.ub.value(t, b, q)

        report = check_lookahead_assumption(UpperSurrogate(ub), cfg, probes)
        qualifying = {
            pi for pi in range(len(probes)) if report.assumption_passed(probe=pi)
        }
        concluded = {rec.probe for rec in report.conclusion}
        assert concluded == qualifying, name
        assert report.conclusion_passed(), name
        upper_checked += len(report.conclusion)
    _passline(4, f"look-ahead bound holds: {exact_checked} exact-surrogate rows "
                 f"(equality) and {upper_checked} upper-bound rows")


def test_criterion_5_belief_filter_exhaustive(scenarios):
    total = 0
    for name, cfg in scenarios.items():
        assert cfg.n <= 3

        def explore(t, belief, q, history):
            nonlocal total
            if history:
                want = joint_posterior(
                    cfg.n, cfg.initial_belief.probs,
                    [(cfg.graph_at(s + 1).edges, a, y) for s, (a, y) in enumerate(history)],
                    cfg.p,
                )
                assert want is not None, (name, history)
                assert belief.probs == pytest.approx(want, abs=TOL), (name, history)
                total += 1
            if t > min(3, cfg.horizon):
                return
            g = cfg.graph_at(t)
            for a in range(0, cfg.n + 1):
                outcomes = (None,) if a == 0 else (0, 1)
                for y in outcomes:
                    try:
                        child, q_next = belief_update(belief, g, q, a, y, cfg.p)
                    except InconsistentObservationError:
                        continue  # zero-probability branch
                    explore(t + 1, child, q_next, history + ((a, y),))

        explore(1, cfg.initial_belief, EMPTY, ())
    _passline(5, f"filter equals joint path enumeration on {total} "
                 "positive-probability histories of length <= 3")


def test_criterion_6_simulator_kernel_agreement(scenarios):
    cases = [
        (scenarios["scenario_a"], SystemState.from_bits((1, 0, 0)), EMPTY),
        (scenarios["scenario_b"], SystemState.from_bits((0, 1, 1)), frozenset({2})),
        (scenarios["scenario_c"], SystemState.from_bits((1, 0)), EMPTY),
    ]
    n_draws = 100_000
    for cfg, x, q in cases:
        g = cfg.graph_at(1)
        kernel = dynamics(g, q, q, cfg.p).predict({x.mask: 1.0})
        rng = np.random.default_rng(6000 + x.mask)
        counts = {}
        for _ in range(n_draws):
            edge = sample_active_edge(g, q, rng)
            # one transmission variate per step, as run_episode draws it
            nxt = transmit_with_uniform(x, edge, cfg.p, q, rng.random())
            counts[nxt.mask] = counts.get(nxt.mask, 0) + 1
        assert set(counts) <= {m for m, pr in kernel.items() if pr > 0}
        for mask, pr in kernel.items():
            if pr == 0.0:
                continue
            emp = counts.get(mask, 0) / n_draws
            sigma = (pr * (1 - pr) / n_draws) ** 0.5
            assert abs(emp - pr) <= 3 * sigma, (x.mask, mask)
    _passline(6, f"empirical step frequencies match the kernel within 3 sigma "
                 f"({n_draws} draws x {len(cases)} instances)")


def test_criterion_7_policy_ordering_regression():
    cfg = scenario_a()
    plan = OpenLoopPlan((1, 2, 3, 0))
    n_runs = 10_000
    results = {}
    for name in ("exact", "improved", "open_loop", "lookahead"):
        policy = make_policy(name, cfg, plan=plan)
        results[name] = monte_carlo_eval(cfg, policy, n_runs, workers=4)
        assert results[name].mean_cost == pytest.approx(
            GOLDEN_MEAN_COST[name], abs=TOL
        ), f"golden regression value moved for {name}"
    for lo, hi in (("exact", "improved"), ("improved", "open_loop"), ("exact", "lookahead")):
        diff, se = paired_difference(results[lo].costs, results[hi].costs)
        assert diff <= 3 * se, (lo, hi, diff, se)
    _passline(7, "mean cost ordering exact <= improved <= open-loop and "
                 f"exact <= lookahead holds over {n_runs} paired runs; "
                 "golden values reproduced")


def test_criterion_8_bench_determinism(scenario_dir, tmp_path):
    from epitest.cli import main

    base = ["bench", "--scenario", str(scenario_dir / "scenario_a.yaml"),
            "--policies", "never,open_loop,greedy,improved", "--n-runs", "400"]
    outs = {}
    for tag, extra in {
        "first": ["--workers", "1"],
        "second": ["--workers", "1"],
        "parallel": ["--workers", "4"],
    }.items():
        out = tmp_path / tag
        assert main(base + extra + ["--out-dir", str(out)]) == 0
        outs[tag] = (
            (out / "results.csv").read_bytes(),
            (out / "per_run.csv").read_bytes(),
        )
    assert outs["first"] == outs["second"]
    assert outs["first"] == outs["parallel"]
    _passline(8, "bench outputs byte-identical across invocations and "
                 "workers in {1, 4}")


def test_criterion_9_degenerate_sweeps():
    base = scenario_a()

    # p = 0: nobody new ever gets infected
    frozen = ScenarioConfig(base.n, base.horizon, 0.0, base.lam, base.schedule,
                            base.initial_belief, base.seed)
    for name in ("never", "greedy", "random", "open_loop"):
        policy = make_policy(name, frozen)
        for seed in range(10):
            trace = run_episode(frozen, policy, seed)
            counts = [r.true_state.count() for r in trace.records]
            assert counts == [counts[0]] * len(counts)

    # lambda > N * T: the exact policy never tests
    pricey = ScenarioConfig(base.n, base.horizon, base.p, 13.0, base.schedule,
                            base.initial_belief, base.seed)
    exact = extract_policy(solve(pricey))
    for seed in range(30):
        assert run_episode(pricey, exact, seed).tests_used == 0

    # lambda = 0, T = 1: every policy costs exactly the initial infections
    instant = ScenarioConfig(base.n, 1, base.p, 0.0,
                             base.schedule.__class__(1, base.schedule.graphs[:1]),
                             base.initial_belief, base.seed)
    expected = expected_infections(instant.initial_belief)
    cost_arrays = []
    for name in ("never", "random", "open_loop", "improved", "greedy", "lookahead", "exact"):
        policy = make_policy(name, instant, plan=OpenLoopPlan((1,)))
        if name != "random":
            assert policy_tree_value(instant, policy, instant.initial_belief) == pytest.approx(
                expected, abs=TOL
            )
        res = monte_carlo_eval(instant, policy, 400)
        cost_arrays.append(res.costs)
        assert abs(res.mean_cost - expected) <= 3 * (res.std_error or 0.0) + 1e-12
    for arr in cost_arrays[1:]:
        assert np.array_equal(arr, cost_arrays[0])  # paired seeds, identical costs
    _passline(9, "degenerate sweeps: p=0 freezes infections, prohibitive lambda "
                 "stops testing, and T=1 with free tests costs the prior mass")

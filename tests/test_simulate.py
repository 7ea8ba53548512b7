import pickle

import numpy as np
import pytest

from epitest import simulate
from epitest.beliefs import Belief
from epitest.errors import ContractViolation, ValidationError
from epitest.model import ContactGraph, ContactSchedule, SystemState
from epitest.policies import (
    GreedyPolicy,
    NeverTestPolicy,
    OpenLoopPlan,
    OpenLoopPolicy,
    RandomTestPolicy,
    policy_tree_value,
)
from epitest.presets import scenario_a, scenario_b
from epitest.scenario import ScenarioConfig
from epitest.simulate import monte_carlo_eval, paired_difference, run_episode


def chain_config(n=2, horizon=3, p=1.0, lam=0.0, start=(1, 0), seed=1):
    edges = [(i, i + 1, 1.0) for i in range(1, n)]
    g = ContactGraph.from_edges(n, edges)
    return ScenarioConfig(
        n, horizon, p, lam, ContactSchedule.static(horizon, g),
        Belief.point(SystemState.from_bits(start)), seed,
    )


class AlwaysTest:
    needs_belief = False

    def __init__(self, u=1):
        self.u = u

    def __call__(self, ctx):
        return self.u


class TestRunEpisode:
    def test_certain_spread_cost(self):
        # (1,0) with p=1 and one edge: cost 1 + 2 + 2 = 5 on every seed
        cfg = chain_config()
        for seed in range(5):
            trace = run_episode(cfg, NeverTestPolicy(), seed)
            assert trace.total_cost == 5.0
            assert trace.tests_used == 0

    def test_frozen_dynamics_zero_cost(self):
        cfg = chain_config(p=0.0, lam=0.0, start=(0, 0))
        trace = run_episode(cfg, AlwaysTest(1), 3)
        assert trace.total_cost == 0.0
        assert trace.tests_used == cfg.horizon

    def test_infections_never_decrease(self):
        cfg = scenario_b()
        for seed in range(20):
            counts = [r.true_state.count() for r in run_episode(cfg, GreedyPolicy(), seed).records]
            assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_sampled_edges_avoid_quarantine(self):
        cfg = scenario_b()
        for seed in range(40):
            trace = run_episode(cfg, GreedyPolicy(), seed)
            q_at_sampling = frozenset()
            for rec in trace.records:
                if rec.active_edge is not None:
                    i, j, _ = rec.active_edge
                    assert i not in q_at_sampling and j not in q_at_sampling
                q_at_sampling = rec.quarantine_after

    def test_replay_is_bit_identical(self):
        cfg = scenario_a()
        a = run_episode(cfg, GreedyPolicy(), 123)
        b = run_episode(cfg, GreedyPolicy(), 123)
        assert a == b

    def test_stage_cost_accounting(self):
        cfg = chain_config(lam=0.25)
        trace = run_episode(cfg, AlwaysTest(2), 9)
        for rec in trace.records:
            assert rec.stage_cost == rec.true_state.count() + 0.25
        assert trace.total_cost == pytest.approx(sum(r.stage_cost for r in trace.records))

    def test_out_of_range_action(self):
        cfg = chain_config()
        with pytest.raises(ContractViolation):
            run_episode(cfg, AlwaysTest(7), 0)

    def test_trace_jsonl_shape(self):
        cfg = scenario_a()
        trace = run_episode(cfg, OpenLoopPolicy(OpenLoopPlan((1, 2, 3, 0))), 2)
        lines = trace.to_jsonl().strip().split("\n")
        assert len(lines) == cfg.horizon + 1  # header + one per step


class TestMonteCarlo:
    def test_paired_determinism(self):
        cfg = scenario_a()
        a = monte_carlo_eval(cfg, NeverTestPolicy(), 50)
        b = monte_carlo_eval(cfg, NeverTestPolicy(), 50)
        assert np.array_equal(a.costs, b.costs)
        mean, se = paired_difference(a.costs, b.costs)
        assert mean == 0.0 and se == 0.0
        with pytest.raises(ValidationError, match="equal run counts, got 50 and 49"):
            paired_difference(a.costs, b.costs[:-1])

    def test_digest_is_computed_once(self, monkeypatch):
        calls = []
        original = ScenarioConfig.canonical_dict
        monkeypatch.setattr(ScenarioConfig, "canonical_dict",
                            lambda cfg: calls.append(1) or original(cfg))
        cfg = scenario_a()
        monte_carlo_eval(cfg, NeverTestPolicy(), 50)
        assert len(calls) == 1
        fresh = scenario_a()
        assert cfg == fresh
        assert pickle.loads(pickle.dumps(cfg)) == fresh
        assert cfg.digest() == fresh.digest() and len(calls) == 2
        assert cfg.with_seed(1).digest() != cfg.digest()

    def test_single_run_flags_std_error(self):
        cfg = scenario_a()
        res = monte_carlo_eval(cfg, NeverTestPolicy(), 1)
        assert res.std_error is None
        assert res.mean_cost == res.costs[0]

    def test_workers_do_not_change_results(self):
        cfg = scenario_b()
        seq = monte_carlo_eval(cfg, GreedyPolicy(), 40, workers=1)
        par = monte_carlo_eval(cfg, GreedyPolicy(), 40, workers=4)
        assert np.array_equal(seq.costs, par.costs)
        assert np.array_equal(seq.tests, par.tests)

    def test_pool_is_sized_by_its_chunks(self, monkeypatch):
        # a fork-started pool starts all max_workers processes at the first
        # submit, so 4 runs must not ask for 64; this fake starts none
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", InProcessPool)
        cfg = scenario_b()
        par = monte_carlo_eval(cfg, GreedyPolicy(), 4, workers=64)
        seq = monte_carlo_eval(cfg, GreedyPolicy(), 4, workers=1)
        assert sizes == [4]
        assert np.array_equal(seq.costs, par.costs)
        assert np.array_equal(seq.tests, par.tests)
        assert np.array_equal(seq.final_infections, par.final_infections)

    @pytest.mark.parametrize("n_runs, workers, named", [
        (0, 1, "n_runs must be >= 1, got 0"),
        (5, 0, "workers must be >= 1, got 0"),
        (5, -3, "workers must be >= 1, got -3"),
    ])
    def test_rejects_counts_below_one(self, n_runs, workers, named):
        with pytest.raises(ValidationError, match=named):
            monte_carlo_eval(scenario_a(), NeverTestPolicy(), n_runs, workers=workers)

    def test_random_policy_uses_policy_stream(self):
        cfg = scenario_a()
        res = monte_carlo_eval(cfg, RandomTestPolicy(), 200)
        assert 0 < res.mean_tests < cfg.horizon  # tests sometimes, not always

    def test_mean_matches_tree_value_within_3_sigma(self):
        # greedy tests on scenario B, so this exercises mid-step quarantines
        cfg = scenario_b()
        policy = GreedyPolicy()
        tree = policy_tree_value(cfg, policy, cfg.initial_belief)
        res = monte_carlo_eval(cfg, policy, 6000)
        assert abs(res.mean_cost - tree) <= 3 * res.std_error

    def test_rejects_zero_runs(self):
        with pytest.raises(ValidationError):
            monte_carlo_eval(scenario_a(), NeverTestPolicy(), 0)

import numpy as np
import pytest

from epitest.approx import BeliefGrid, approx_solve_upper
from epitest.beliefs import Belief, expected_infections, marginal_infection
from epitest.errors import ValidationError
from epitest.exact import solve
from epitest.model import ContactGraph, ContactSchedule, SystemState, kernel_matrix
from epitest.oracle import oracle_value
from epitest.policies import (
    GreedyPolicy,
    NeverTestPolicy,
    OpenLoopPlan,
    OpenLoopPolicy,
    OpenLoopValue,
    PolicyContext,
    RandomTestPolicy,
    check_lookahead_assumption,
    default_plan,
    extract_policy,
    greedy_value,
    make_policy,
    one_step_argmin,
    policy_improved,
    policy_one_step_lookahead,
    policy_tree_value,
)
from epitest.presets import probe_beliefs, scenario_a, scenario_b
from epitest.scenario import ScenarioConfig
from epitest.simulate import monte_carlo_eval, run_episode

from _reference import (
    greedy_action_reference,
    two_stage_greedy_reference,
)
from _scenarios import random_beliefs, random_scenario

EMPTY = frozenset()


def config(n, horizon, p, lam, edges, belief=None, seed=0):
    g = ContactGraph.from_edges(n, edges)
    return ScenarioConfig(
        n, horizon, p, lam, ContactSchedule.static(horizon, g),
        belief or Belief.uniform(n), seed,
    )


def ctx_at(cfg, t, belief, q=EMPTY, rng=None):
    return PolicyContext(cfg, t, belief, q, rng)


class ZeroStageValue:
    """The all-zero surrogate; useful as a deliberately failing example."""

    def value(self, t, b, q):
        return 0.0


class TestBaselines:
    def test_never(self):
        cfg = scenario_a()
        assert NeverTestPolicy()(ctx_at(cfg, 1, cfg.initial_belief)) == 0
        assert NeverTestPolicy()(ctx_at(cfg, 3, cfg.initial_belief)) == 0

    def test_random_range_single_individual(self):
        cfg = config(1, 2, 0.5, 0.0, [])
        ctx = ctx_at(cfg, 1, Belief.uniform(1), rng=np.random.default_rng(0))
        seen = {RandomTestPolicy()(ctx) for _ in range(100)}
        assert seen == {0, 1}

    def test_random_frequencies(self):
        cfg = scenario_a()
        n_draws = 100_000
        counts = np.zeros(cfg.n + 1)
        ctx = ctx_at(cfg, 1, cfg.initial_belief, rng=np.random.default_rng(8))
        for _ in range(n_draws):
            counts[RandomTestPolicy()(ctx)] += 1
        expected = 1.0 / (cfg.n + 1)
        sigma = (expected * (1 - expected) / n_draws) ** 0.5
        assert np.all(np.abs(counts / n_draws - expected) < 3 * sigma)

    def test_random_avoids_quarantined(self):
        cfg = scenario_a()
        rng = np.random.default_rng(3)
        ctx = ctx_at(cfg, 1, cfg.initial_belief, q=frozenset({2}), rng=rng)
        assert all(RandomTestPolicy()(ctx) != 2 for _ in range(200))


class TestOpenLoop:
    def test_plan_length_checked(self):
        cfg = scenario_a()
        with pytest.raises(ValidationError):
            OpenLoopValue(OpenLoopPlan((1, 2)), cfg)
        with pytest.raises(ValidationError):
            OpenLoopValue(OpenLoopPlan((1, 2, 9, 0)), cfg)

    def test_never_test_plan_is_chain_moments(self):
        # all-zero plan: value is the sum of expected infections along the
        # uncontrolled chain, a linear functional of the belief
        cfg = scenario_a()
        olv = OpenLoopValue(OpenLoopPlan((0, 0, 0, 0)), cfg)
        P = kernel_matrix(cfg.graph_at(1), EMPTY, EMPTY, cfg.p)
        c = np.array([bin(m).count("1") for m in range(8)], dtype=float)
        expect = c + P @ c + P @ P @ c + P @ P @ P @ c
        assert np.allclose(olv.alpha(1, EMPTY), expect, atol=1e-12)

    def test_horizon_one_plan_is_terminal(self):
        cfg = config(2, 1, 0.5, 0.5, [(1, 2, 1.0)])
        olv = OpenLoopValue(OpenLoopPlan((1,)), cfg)
        for b in probe_beliefs(2, 5):
            assert olv.value(1, b) == pytest.approx(expected_infections(b), abs=1e-12)

    def test_value_matches_paired_simulation(self):
        cfg = scenario_a().with_initial_belief(Belief.uniform(3))
        plan = OpenLoopPlan((1, 2, 3, 0))
        olv = OpenLoopValue(plan, cfg)
        predicted = olv.value(1, cfg.initial_belief)
        res = monte_carlo_eval(cfg, OpenLoopPolicy(plan), 5000)
        assert abs(res.mean_cost - predicted) <= 3 * res.std_error

    def test_default_plan_round_robin(self):
        cfg = scenario_a()
        assert default_plan(cfg).actions == (1, 2, 3, 0)


class TestImproved:
    def test_huge_cost_improvement_never_tests(self):
        cfg = config(2, 3, 0.5, 100.0, [(1, 2, 1.0)])
        policy = policy_improved(OpenLoopPlan((0, 0, 0)), cfg)
        for b in probe_beliefs(2, 5):
            assert policy(ctx_at(cfg, 1, b)) == 0

    def test_improvement_never_worse_than_plan(self):
        cfg = scenario_b()
        plan = OpenLoopPlan((1, 2, 3))
        olv = OpenLoopValue(plan, cfg)
        improved = policy_improved(plan, cfg)
        for b in probe_beliefs(3, 8):
            for t in (1, 2, 3):
                v_im = policy_tree_value(cfg, improved, b, EMPTY, t)
                v_ol = olv.value(t, b, EMPTY)
                assert v_im <= v_ol + 1e-9

    def test_single_individual_improvement(self):
        cfg = config(1, 3, 0.0, 0.1, [])
        plan = OpenLoopPlan((1, 1, 1))
        olv = OpenLoopValue(plan, cfg)
        improved = policy_improved(plan, cfg)
        for b in probe_beliefs(1, 6):
            assert policy_tree_value(cfg, improved, b) <= olv.value(1, b) + 1e-9


class TestGreedy:
    def test_tests_the_only_infected_spreader(self):
        cfg = config(3, 3, 0.5, 0.0, [(1, 2, 1.0), (2, 3, 1.0)])
        b = Belief.point(SystemState.from_bits((0, 1, 0)))
        assert GreedyPolicy()(ctx_at(cfg, 1, b)) == 2

    def test_cost_dominates(self):
        cfg = config(3, 3, 0.5, 10.0, [(1, 2, 1.0), (2, 3, 1.0)])
        assert GreedyPolicy()(ctx_at(cfg, 1, Belief.uniform(3))) == 0

    def test_matches_reference_enumeration(self):
        cfg = config(3, 3, 0.6, 0.05, [(1, 2, 0.5), (2, 3, 2.0)])
        for b in probe_beliefs(3, 12):
            for q in (EMPTY, frozenset({3})):
                got = GreedyPolicy()(ctx_at(cfg, 1, b, q=q))
                want = greedy_action_reference(
                    3, b.probs, cfg.graph_at(1).edges, q, cfg.p, cfg.lam
                )
                assert got == want

    def test_weight_scaling_invariance(self):
        base_edges = [(1, 2, 0.7), (2, 3, 1.9)]
        scaled_edges = [(i, j, 13.0 * w) for i, j, w in base_edges]
        cfg1 = config(3, 3, 0.6, 0.05, base_edges)
        cfg2 = config(3, 3, 0.6, 0.05, scaled_edges)
        for b in probe_beliefs(3, 10):
            assert GreedyPolicy()(ctx_at(cfg1, 1, b)) == GreedyPolicy()(ctx_at(cfg2, 1, b))

    def test_value_zero_when_nobody_infected(self):
        cfg = config(2, 3, 0.5, 0.0, [(1, 2, 1.0)])
        b = Belief.point(SystemState.from_bits((0, 0)))
        assert greedy_value(ctx_at(cfg, 1, b)) == pytest.approx(0.0, abs=1e-12)

    def test_value_frozen_dynamics(self):
        cfg = config(3, 3, 0.0, 0.2, [(1, 2, 1.0), (2, 3, 1.0)])
        for b in probe_beliefs(3, 6):
            ctx = ctx_at(cfg, 1, b)
            tests = GreedyPolicy()(ctx) != 0
            want = 2 * expected_infections(b) + (0.2 if tests else 0.0)
            assert greedy_value(ctx) == pytest.approx(want, abs=1e-12)

    def test_value_matches_two_stage_enumeration(self):
        cfg = scenario_b()
        for b in probe_beliefs(3, 10):
            for t in (1, 2, 3):
                got = greedy_value(ctx_at(cfg, t, b))
                want = two_stage_greedy_reference(
                    3, b.probs, cfg.graph_at(t).edges, EMPTY, cfg.p, cfg.lam,
                    terminal=(t == cfg.horizon),
                )
                assert got == pytest.approx(want, abs=1e-9)

    def test_value_at_uniform_prior_scenario_a(self):
        cfg = scenario_a()
        b = Belief.uniform(3)
        want = two_stage_greedy_reference(
            3, b.probs, cfg.graph_at(1).edges, EMPTY, cfg.p, cfg.lam, terminal=False
        )
        assert greedy_value(ctx_at(cfg, 1, b)) == pytest.approx(want, abs=1e-9)


class TestLookahead:
    def test_single_individual_matches_greedy(self):
        cfg = config(1, 3, 0.5, 0.1, [])
        policy = policy_one_step_lookahead(cfg)
        for b in probe_beliefs(1, 10):
            for t in (1, 2, 3):
                assert policy(ctx_at(cfg, t, b)) == GreedyPolicy()(ctx_at(cfg, t, b))

    def test_huge_cost_never_tests(self):
        cfg = config(3, 3, 0.5, 100.0, [(1, 2, 1.0), (2, 3, 1.0)])
        policy = policy_one_step_lookahead(cfg)
        for b in probe_beliefs(3, 5):
            assert policy(ctx_at(cfg, 1, b)) == 0

    def test_simulated_no_worse_than_greedy(self):
        cfg = scenario_b()
        la = monte_carlo_eval(cfg, policy_one_step_lookahead(cfg), 4000)
        gr = monte_carlo_eval(cfg, GreedyPolicy(), 4000)
        diff = la.costs - gr.costs
        se = diff.std(ddof=1) / np.sqrt(len(diff))
        assert diff.mean() <= 3 * se


class TestNoTestingOfQuarantined:
    @pytest.mark.parametrize("name", ["random", "improved", "greedy", "lookahead", "exact"])
    def test_adaptive_policies_respect_quarantine(self, name):
        cfg = scenario_b()
        policy = make_policy(name, cfg)
        for seed in range(15):
            trace = run_episode(cfg, policy, seed)
            q = EMPTY
            for rec in trace.records:
                if rec.action != 0:
                    assert rec.action not in q
                q = rec.quarantine_after


class TestAssumptionCheck:
    def test_exact_value_passes_with_equality(self):
        cfg = scenario_b()
        vf = solve(cfg)
        probes = probe_beliefs(3, 4)
        report = check_lookahead_assumption(vf, cfg, probes)
        assert report.assumption_passed()
        for rec in report.assumption:
            assert rec.surrogate_value == pytest.approx(rec.bellman_rhs, abs=1e-9)
        assert report.conclusion_passed()

    def test_zero_surrogate_fails(self):
        cfg = scenario_b()  # lam > 0 and infectious probes
        report = check_lookahead_assumption(ZeroStageValue(), cfg, probe_beliefs(3, 3))
        assert not report.assumption_passed()
        assert not report.conclusion  # no probe qualified for the bound check

    def test_upper_bound_satisfies_assumption(self):
        cfg = scenario_b()
        grid = BeliefGrid.corners_plus_random(3, 4, seed=6)
        ub = approx_solve_upper(cfg, grid)

        class UpperSurrogate:
            def value(self, t, b, q):
                return ub.value(t, b, q)

        probes = probe_beliefs(3, 4)
        report = check_lookahead_assumption(UpperSurrogate(), cfg, probes)
        assert report.assumption_passed()
        assert report.conclusion_passed()


class TestUniversalOptimality:
    def test_exact_value_lower_bounds_every_policy(self):
        # the solved value function is a floor for every implemented policy
        for cfg in (scenario_b(),):
            vf = solve(cfg)
            plan = default_plan(cfg)
            policies = {
                name: make_policy(name, cfg, plan=plan)
                for name in ("never", "open_loop", "improved", "greedy", "lookahead")
            }
            policies["exact"] = extract_policy(vf)
            for b in probe_beliefs(cfg.n, 5):
                for t in range(1, cfg.horizon + 1):
                    floor = vf.value(t, b)
                    for name, policy in policies.items():
                        cost = policy_tree_value(cfg, policy, b, EMPTY, t)
                        assert cost >= floor - 1e-9, (name, t)


class TestAgainstOracleAtLargerN:
    """Exact tree values of the adaptive policies against the brute-force
    oracle beyond the N <= 3 presets."""

    @pytest.mark.parametrize("n, horizon, p, lam, seed, per_step", [
        (4, 4, 0.6, 0.3, 21, True),  # a different graph at every step
        (5, 4, 1.0, 0.0, 22, False),  # certain crossing, free tests
        (6, 4, 0.5, 0.2, 23, False),
    ], ids=["n4-schedule", "n5-p1-free-tests", "n6"])
    def test_policy_values_bracket_the_optimum(self, n, horizon, p, lam, seed, per_step):
        rng = np.random.default_rng(seed)
        cfg = random_scenario(n, horizon, p, lam, rng, per_step)
        vf = solve(cfg)
        names = ("exact", "never", "open_loop", "improved", "greedy", "lookahead")
        policies = {name: make_policy(name, cfg) for name in names[1:]}
        policies["exact"] = extract_policy(vf)
        for b in random_beliefs(n, rng):
            best = oracle_value(cfg, b)
            cost = {name: policy_tree_value(cfg, pol, b) for name, pol in policies.items()}
            assert cost["exact"] == pytest.approx(best, abs=1e-9)
            for name in names[1:]:
                assert cost[name] >= best - 1e-9, name
            assert cost["improved"] <= cost["open_loop"] + 1e-9


class TestRegistry:
    def test_all_names_construct(self):
        cfg = scenario_b()
        for name in ("never", "random", "open_loop", "improved", "greedy", "lookahead", "exact"):
            assert make_policy(name, cfg) is not None
        with pytest.raises(ValidationError):
            make_policy("optimal", cfg)

    def test_exact_policy_is_optimal_on_probes(self):
        cfg = scenario_b()
        policy = make_policy("exact", cfg)
        for b in probe_beliefs(3, 4):
            assert policy_tree_value(cfg, policy, b) == pytest.approx(
                oracle_value(cfg, b), abs=1e-9
            )


class TestCertainOutcome:
    """A test whose outcome is certain must not branch on the other outcome,
    even when the summed probability of the certain one rounds below 1."""

    @staticmethod
    def certain_carrier():
        # individual 1 is infected in every support state, yet the mass of
        # those states sums to 0.9999999999999999
        weights = np.random.default_rng(0).dirichlet(np.ones(8), size=6)[5]
        b = Belief(4, {m: float(w) for m, w in zip(range(1, 16, 2), weights)})
        cfg = config(4, 3, 0.5, 0.01, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)], belief=b)
        return cfg, b

    def test_belief_policies_decide(self):
        cfg, b = self.certain_carrier()
        assert marginal_infection(b, 1) < 1.0
        for name in ("lookahead", "improved", "exact"):
            assert make_policy(name, cfg)(ctx_at(cfg, 1, b)) == 1, name

    def test_exact_one_step_value_is_bellman_consistent(self):
        cfg, b = self.certain_carrier()
        vf = solve(cfg)
        ctx = ctx_at(cfg, 1, b)
        _, qval = one_step_argmin(vf, ctx)
        assert expected_infections(b) + qval == pytest.approx(vf.value(1, b), abs=1e-9)

import hashlib

import numpy as np
import pytest

from epitest.approx import BeliefGrid, approx_solve_lower, approx_solve_upper
from epitest.beliefs import Belief, belief_update, expected_infections, marginal_infection
from epitest.errors import ContractViolation, DimensionError, ValidationError
from epitest.exact import solve
from epitest.model import (
    ContactGraph,
    ContactSchedule,
    SystemState,
    branches,
    candidate_actions,
    dynamics,
    infection_counts,
    outcome_indicator,
    tied,
)
from epitest.oracle import oracle_value
from epitest.policies import (
    GreedyPolicy,
    GreedyStageValue,
    NeverTestPolicy,
    OpenLoopPlan,
    OpenLoopPolicy,
    OpenLoopValue,
    OneStepPolicy,
    PolicyContext,
    RandomTestPolicy,
    _greedy_scores,
    _outcomes,
    check_lookahead_assumption,
    default_plan,
    make_policy,
    one_step_argmin,
    policy_tree_value,
)
from epitest.presets import probe_beliefs, scenario_a, scenario_b, tiny_scenarios
from epitest.scenario import ScenarioConfig
from epitest.simulate import monte_carlo_eval, run_episode, run_seed

from _reference import (
    greedy_action_reference,
    two_stage_greedy_reference,
)
from _scenarios import random_beliefs, random_scenario, ring_scenario

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
        P = dynamics(cfg.graph_at(1), EMPTY, EMPTY, cfg.p).back(np.eye(8))
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

    @pytest.mark.parametrize("t, action", [(1, 1), (4, 0)])
    def test_action_at_reads_stage_t(self, t, action):
        assert OpenLoopPlan((1, 2, 3, 0)).action_at(t) == action

    @pytest.mark.parametrize("t", [0, 5])
    def test_action_at_refuses_a_stage_off_the_plan(self, t):
        with pytest.raises(ValidationError, match=rf"stage {t} outside the plan's \[1, 4\]"):
            OpenLoopPlan((1, 2, 3, 0)).action_at(t)

    def test_default_plan_round_robin(self):
        cfg = scenario_a()
        assert default_plan(cfg).actions == (1, 2, 3, 0)

    def test_value_rejects_mass_off_the_quarantine_face(self):
        cfg = scenario_a()
        olv = OpenLoopValue(default_plan(cfg), cfg)
        b = Belief(3, {0b010: 0.25, 0b011: 0.5, 0b110: 0.25})
        with pytest.raises(ContractViolation, match="state 010.*individual 1 is healthy"):
            olv.value(2, b, frozenset({1}))
        assert olv.value(2, Belief(3, {0b011: 0.5, 0b111: 0.5}), frozenset({1})) > 0.0



class TestSurrogateDimensions:
    """Every stage-value surrogate refuses a belief over another population
    with the same error, naming both sizes."""

    SURROGATES = {
        "value_function": solve,
        "open_loop": lambda cfg: OpenLoopValue(default_plan(cfg), cfg),
        "lower_bound": lambda cfg: approx_solve_lower(cfg, BeliefGrid.corners(cfg.n)),
    }

    @pytest.mark.parametrize("name", SURROGATES)
    def test_rejects_a_belief_of_another_size(self, name):
        surrogate = self.SURROGATES[name](scenario_a())
        with pytest.raises(DimensionError, match=r"belief dimension 4 != value dimension 8"):
            surrogate.value(1, Belief.uniform(2), EMPTY)


class TestSurrogateStages:
    """Every stage-value surrogate refuses a stage outside [1, T], and the
    tabled ones a quarantine set they hold no slice for, naming t and q."""

    SURROGATES = {
        **TestSurrogateDimensions.SURROGATES,
        "greedy_stage": GreedyStageValue,
    }

    @pytest.mark.parametrize("name", SURROGATES)
    def test_rejects_a_stage_outside_the_horizon(self, name):
        cfg = scenario_a()  # T = 4
        surrogate = self.SURROGATES[name](cfg)
        for t in (0, cfg.horizon + 1, 9):
            with pytest.raises(ValidationError,
                               match=rf"^stage t = {t} \(quarantine \[2\]\) is outside \[1, 4\]$"):
                surrogate.value(t, cfg.initial_belief, frozenset({2}))

    @pytest.mark.parametrize("name", ["value_function", "lower_bound"])
    def test_rejects_a_quarantine_with_no_slice(self, name):
        # stage 2 holds the quarantine sets of at most one individual
        surrogate = self.SURROGATES[name](scenario_a())
        for q in ({1, 2}, {7}):
            with pytest.raises(ValidationError, match=(
                    rf"^no slice for quarantine \[{', '.join(map(str, sorted(q)))}\] at stage "
                    r"t = 2: it holds the 4 sets of at most 1 of individuals 1..3$")):
                surrogate.value(2, Belief(3, {0b111: 1.0}), frozenset(q))

def full_open_loop_alphas(plan, cfg):
    """(alpha, memo): the open-loop recursion over the whole state space, as
    it stood before the vectors moved to quarantine faces. ``alpha(t, q)``
    is the 2**N vector; ``memo`` maps each (t, q) computed so far to it."""
    memo = {}

    def alpha(t, q):
        if (t, q) not in memo:
            c = infection_counts(cfg.n)
            if t == cfg.horizon:
                vec = c.astype(np.float64)
            else:
                u = plan.action_at(t)
                vec = c + cfg.lam if u else c
                for y, q_next, step in branches(cfg.graph_at(t), q, u, cfg.p):
                    back = step.back(alpha(t + 1, q_next))
                    vec = vec + (back if y is None else outcome_indicator(cfg.n, u, y) * back)
            memo[t, q] = vec
        return memo[t, q]

    return alpha, memo


def face_states(n, q):
    held = sum(1 << (u - 1) for u in q)
    return [x for x in range(1 << n) if x & held == held]


FACE_CASES = [("ring-8", ring_scenario(8, 0.3), None), ("ring-9", ring_scenario(9, 0.01), None),
              ("ring-10", ring_scenario(10, 0.3), None)] + [
    (name, cfg, OpenLoopPlan(tuple(min(u, cfg.n) for u in (1, 1, 2, 0, 2, 1)[:cfg.horizon])))
    for name, cfg in tiny_scenarios().items()
] + [(name + "-default", cfg, None) for name, cfg in tiny_scenarios().items()]


class TestOpenLoopFaces:
    """The (t, q) vectors live on q's face and equal, bit for bit, the
    whole-space recursion restricted to that face."""

    @pytest.mark.parametrize("name, cfg, plan", FACE_CASES, ids=[c[0] for c in FACE_CASES])
    def test_face_vectors_are_full_vectors_restricted(self, name, cfg, plan):
        plan = plan or default_plan(cfg)
        olv = OpenLoopValue(plan, cfg)
        alpha, full = full_open_loop_alphas(plan, cfg)
        alpha(1, EMPTY)
        for (t, q), vec in full.items():
            face = olv.alpha(t, q)
            assert len(face) == 1 << (cfg.n - len(q))
            assert np.array_equal(face.view(np.uint64),
                                  vec[face_states(cfg.n, q)].view(np.uint64)), (t, sorted(q))
        assert set(olv._alphas) == set(full)

    @pytest.mark.parametrize("n, lam", [(8, 0.3), (9, 0.01)])
    def test_values_the_policy_weighs_are_full_dots(self, n, lam):
        # every child value one_step_argmin asks for along three episodes
        cfg = ring_scenario(n, lam)
        plan = default_plan(cfg)
        olv = OpenLoopValue(plan, cfg)
        alpha, _ = full_open_loop_alphas(plan, cfg)
        policy = OneStepPolicy(OpenLoopValue(plan, cfg))
        for i in range(3):
            trace = run_episode(cfg, policy, run_seed(cfg.seed, i))
            b, q = cfg.initial_belief, EMPTY
            for rec in trace.records[:-1]:
                g = cfg.graph_at(rec.t)
                for u in candidate_actions(cfg.n, q):
                    for _, nb, q_next in _outcomes(b, g, q, u, cfg.p):
                        got = olv.value(rec.t + 1, nb, q_next)
                        assert got == float(alpha(rec.t + 1, q_next) @ nb.dense())
                b, q = belief_update(b, g, q, rec.action, rec.observation, cfg.p)

    def test_ring9_traces_pinned(self):
        # recorded with whole-space open-loop vectors; a flipped tie would show
        cfg = ring_scenario(9, 0.01)
        pinned = {
            "improved": "abb44e21b2bab736442a0685ef20db28c9d69ebb1504082a44205d452af4aade",
            "lookahead": "ea7b531f25cdcd597a476ed9a8f415fccd5799a4a1aaa01442962b25c6deffea",
        }
        for name, digest in pinned.items():
            policy = make_policy(name, cfg)
            h = hashlib.sha256()
            for i in range(6):
                h.update(run_episode(cfg, policy, run_seed(cfg.seed, i)).to_jsonl().encode())
            assert h.hexdigest() == digest, name


class TestImproved:
    def test_huge_cost_improvement_never_tests(self):
        cfg = config(2, 3, 0.5, 100.0, [(1, 2, 1.0)])
        policy = OneStepPolicy(OpenLoopValue(OpenLoopPlan((0, 0, 0)), cfg))
        for b in probe_beliefs(2, 5):
            assert policy(ctx_at(cfg, 1, b)) == 0

    def test_improvement_never_worse_than_plan(self):
        cfg = scenario_b()
        plan = OpenLoopPlan((1, 2, 3))
        olv = OpenLoopValue(plan, cfg)
        improved = OneStepPolicy(OpenLoopValue(plan, cfg))
        for b in probe_beliefs(3, 8):
            for t in (1, 2, 3):
                v_im = policy_tree_value(cfg, improved, b, EMPTY, t)
                v_ol = olv.value(t, b, EMPTY)
                assert v_im <= v_ol + 1e-9

    def test_single_individual_improvement(self):
        cfg = config(1, 3, 0.0, 0.1, [])
        plan = OpenLoopPlan((1, 1, 1))
        olv = OpenLoopValue(plan, cfg)
        improved = OneStepPolicy(OpenLoopValue(plan, cfg))
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

    @staticmethod
    def symmetric_pair(first, second):
        # individuals 1 and 2 each touch only 3, at the same weight, so their
        # scores are their marginals times the same power of two
        b = Belief(3, {0: 1.0 - first - second, 1: first, 2: second})
        return config(3, 3, 0.5, 0.0, [(1, 3, 1.0), (2, 3, 1.0)], belief=b), b

    @pytest.mark.parametrize("first, second", [
        (0.25, 0.25 + 2.0 ** -54), (0.25 + 2.0 ** -54, 0.25),
    ], ids=["second-one-ulp-higher", "first-one-ulp-higher"])
    def test_ulp_tie_between_symmetric_individuals_goes_to_the_lower_index(self, first, second):
        cfg, b = self.symmetric_pair(first, second)
        scores = _greedy_scores(ctx_at(cfg, 1, b))
        assert scores[1] != scores[2] and tied(scores[1], scores[2])
        assert GreedyPolicy()(ctx_at(cfg, 1, b)) == 1

    @pytest.mark.parametrize("higher", [1, 2])
    def test_a_margin_of_1e_9_is_decided_by_value(self, higher):
        marginal = {higher: 0.25 * (1.0 + 1e-9), 3 - higher: 0.25}
        cfg, b = self.symmetric_pair(marginal[1], marginal[2])
        assert GreedyPolicy()(ctx_at(cfg, 1, b)) == higher

    @pytest.mark.parametrize("lam_over_score, tests", [
        (1.0, False), (1.0 - 0.5e-12, False), (1.0 - 1e-9, True),
    ], ids=["equal", "within-a-tie", "beyond-a-tie"])
    def test_tests_only_when_the_score_exceeds_lam_beyond_a_tie(self, lam_over_score, tests):
        b = Belief.point(SystemState.from_bits((1, 0)))
        score = _greedy_scores(ctx_at(config(2, 3, 0.5, 0.0, [(1, 2, 1.0)]), 1, b))[1]
        cfg = config(2, 3, 0.5, score * lam_over_score, [(1, 2, 1.0)])
        assert GreedyPolicy()(ctx_at(cfg, 1, b)) == (1 if tests else 0)

    def test_value_zero_when_nobody_infected(self):
        cfg = config(2, 3, 0.5, 0.0, [(1, 2, 1.0)])
        b = Belief.point(SystemState.from_bits((0, 0)))
        assert GreedyStageValue(cfg).value(1, b, EMPTY) == pytest.approx(0.0, abs=1e-12)

    def test_value_frozen_dynamics(self):
        cfg = config(3, 3, 0.0, 0.2, [(1, 2, 1.0), (2, 3, 1.0)])
        for b in probe_beliefs(3, 6):
            ctx = ctx_at(cfg, 1, b)
            tests = GreedyPolicy()(ctx) != 0
            want = 2 * expected_infections(b) + (0.2 if tests else 0.0)
            assert GreedyStageValue(cfg).value(1, b, EMPTY) == pytest.approx(want, abs=1e-12)

    def test_value_matches_two_stage_enumeration(self):
        cfg = scenario_b()
        for b in probe_beliefs(3, 10):
            for t in (1, 2, 3):
                got = GreedyStageValue(cfg).value(t, b, EMPTY)
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
        assert GreedyStageValue(cfg).value(1, b, EMPTY) == pytest.approx(want, abs=1e-9)


class TestLookahead:
    def test_single_individual_matches_greedy(self):
        cfg = config(1, 3, 0.5, 0.1, [])
        policy = OneStepPolicy(GreedyStageValue(cfg))
        for b in probe_beliefs(1, 10):
            for t in (1, 2, 3):
                assert policy(ctx_at(cfg, t, b)) == GreedyPolicy()(ctx_at(cfg, t, b))

    def test_huge_cost_never_tests(self):
        cfg = config(3, 3, 0.5, 100.0, [(1, 2, 1.0), (2, 3, 1.0)])
        policy = OneStepPolicy(GreedyStageValue(cfg))
        for b in probe_beliefs(3, 5):
            assert policy(ctx_at(cfg, 1, b)) == 0

    def test_simulated_no_worse_than_greedy(self):
        cfg = scenario_b()
        la = monte_carlo_eval(cfg, OneStepPolicy(GreedyStageValue(cfg)), 4000)
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
            policies["exact"] = OneStepPolicy(vf)
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
        policies["exact"] = OneStepPolicy(vf)
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

    def test_terminal_stage_error_names_the_stage(self):
        cfg, b = self.certain_carrier()
        with pytest.raises(ValidationError, match=f"t = {cfg.horizon}, horizon {cfg.horizon}"):
            one_step_argmin(solve(cfg), ctx_at(cfg, cfg.horizon, b))

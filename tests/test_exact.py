import numpy as np
import pytest

from epitest.beliefs import Belief
from epitest.errors import ContractViolation, SizeCapError
from epitest.exact import (
    AlphaSet,
    AlphaVector,
    _canonical_prune,
    evaluate,
    exact_backup,
    load_value_function,
    save_value_function,
    solve,
)
from epitest.model import ContactGraph, ContactSchedule, SystemState, infection_counts
from epitest.oracle import oracle_value, predict_dense
from epitest.policies import extract_policy, policy_tree_value
from epitest.presets import probe_beliefs, scenario_a, scenario_c
from epitest.scenario import ScenarioConfig

EMPTY = frozenset()

# frozen after first computation; exact optimum of scenario A at its bundled prior
SCENARIO_A_OPTIMAL_VALUE = 4.2421875


def tiny_config(n, horizon, p, lam, edges, seed=0):
    g = ContactGraph.from_edges(n, edges)
    return ScenarioConfig(
        n, horizon, p, lam, ContactSchedule.static(horizon, g), Belief.uniform(n), seed
    )


class TestEvaluate:
    def test_terminal_point_mass(self):
        aset = AlphaSet([AlphaVector(infection_counts(2), 0)], t=1)
        b = Belief.point(SystemState.from_bits((1, 1)))
        assert evaluate(aset, b) == (2.0, 0)

    def test_dominated_vector_never_wins(self):
        aset = AlphaSet([AlphaVector(np.zeros(4), 0), AlphaVector(np.ones(4), 1)], t=1)
        for b in probe_beliefs(2, 10):
            assert evaluate(aset, b).value == 0.0

    def test_tie_breaks_to_lowest_index(self):
        aset = AlphaSet([AlphaVector(np.ones(2), 3), AlphaVector(np.ones(2), 1)], t=1)
        assert evaluate(aset, Belief.uniform(1)).argmin_vector == 0

    def test_empty_set_rejected(self):
        with pytest.raises(ContractViolation):
            AlphaSet([], t=1)


class TestBackup:
    def test_expensive_tests_never_chosen(self):
        cfg = tiny_config(2, 2, 0.5, 100.0, [(1, 2, 1.0)])
        terminal = AlphaSet([AlphaVector(infection_counts(2), 0)], t=2)
        backed = exact_backup(terminal, cfg.graph_at(1), EMPTY, cfg.p, cfg.lam)
        size = 1 << 2
        for corner in np.eye(size):
            _, idx = evaluate(backed, corner)
            assert backed.vectors[idx].action == 0

    def test_static_single_individual(self):
        # p=0, lam=0, N=1, T=2: value is twice the infection probability
        cfg = tiny_config(1, 2, 0.0, 0.0, [])
        vf = solve(cfg)
        for b in probe_beliefs(1, 10):
            assert vf.value(1, b) == pytest.approx(2 * b.dense()[1], abs=1e-12)

    def test_matches_oracle_on_two_node_chain(self):
        cfg = scenario_c()
        vf = solve(cfg)
        for b in probe_beliefs(cfg.n, 5):
            assert vf.value(1, b) == pytest.approx(oracle_value(cfg, b), abs=1e-9)


class TestSolve:
    def test_horizon_one_is_terminal_only(self):
        cfg = tiny_config(2, 1, 0.5, 0.5, [(1, 2, 1.0)])
        vf = solve(cfg)
        assert len(vf.stage_sets) == 1
        aset = vf.alpha_set(1)
        assert len(aset) == 1
        assert np.array_equal(aset.vectors[0].values, infection_counts(2))

    def test_single_individual_testing_cannot_help(self):
        cfg = tiny_config(1, 2, 0.7, 0.0, [])
        vf = solve(cfg)
        for b in probe_beliefs(1, 10):
            assert vf.value(1, b) == pytest.approx(2 * b.dense()[1], abs=1e-12)

    def test_caps(self):
        cfg = tiny_config(3, 3, 0.5, 0.5, [(1, 2, 1.0)])
        with pytest.raises(SizeCapError):
            solve(cfg, max_n=2)
        with pytest.raises(SizeCapError):
            solve(cfg, max_t=2)

    def test_concavity(self):
        cfg = scenario_a()
        vf = solve(cfg)
        rng = np.random.default_rng(17)
        for t in (1, 2, 3):
            for _ in range(50):
                b1 = rng.dirichlet(np.ones(8))
                b2 = rng.dirichlet(np.ones(8))
                w = rng.random()
                mixed = w * b1 + (1 - w) * b2
                lhs = evaluate(vf.alpha_set(t), mixed).value
                rhs = w * evaluate(vf.alpha_set(t), b1).value + (1 - w) * evaluate(
                    vf.alpha_set(t), b2
                ).value
                assert lhs >= rhs - 1e-9

    def test_monotone_in_test_cost(self):
        base = scenario_c()
        b = Belief.uniform(2)
        values = []
        for lam in (0.0, 0.1, 0.25, 0.5, 1.0, 5.0):
            cfg = ScenarioConfig(
                base.n, base.horizon, base.p, lam, base.schedule, base.initial_belief, 0
            )
            values.append(solve(cfg).value(1, b))
        assert all(a <= b_ + 1e-12 for a, b_ in zip(values, values[1:]))

    def test_golden_scenario_a_value(self):
        vf = solve(scenario_a())
        assert vf.value(1, scenario_a().initial_belief) == pytest.approx(
            SCENARIO_A_OPTIMAL_VALUE, abs=1e-9
        )


class TestPruning:
    def test_prune_preserves_min_at_probes(self):
        rng = np.random.default_rng(23)
        raw = rng.normal(size=(60, 8))
        # add explicit duplicates and dominated rows
        raw = np.vstack([raw, raw[:5], raw[:5] + 0.5])
        actions = rng.integers(0, 3, size=len(raw))
        kept_rows, kept_actions = _canonical_prune(raw, actions)
        kept = np.asarray(kept_rows)
        assert len(kept) < len(raw)
        for _ in range(1000):
            b = rng.dirichlet(np.ones(8))
            assert np.min(kept @ b) == pytest.approx(np.min(raw @ b), abs=1e-12)

    def test_prune_is_deterministic(self):
        rng = np.random.default_rng(29)
        raw = rng.normal(size=(40, 4))
        actions = rng.integers(0, 2, size=40)
        first = _canonical_prune(raw.copy(), actions.copy())
        shuffled = rng.permutation(40)
        second = _canonical_prune(raw[shuffled], actions[shuffled])
        assert np.array_equal(np.asarray(first[0]), np.asarray(second[0]))
        assert first[1] == second[1]


class TestOracle:
    def test_no_spread_no_infection_is_free(self):
        cfg = tiny_config(2, 3, 0.0, 0.5, [(1, 2, 1.0)])
        b0 = Belief.point(SystemState.from_bits((0, 0)))
        assert oracle_value(cfg, b0) == pytest.approx(0.0, abs=1e-12)

    def test_horizon_one_is_expected_infections(self):
        cfg = tiny_config(2, 1, 0.5, 0.5, [(1, 2, 1.0)])
        for b in probe_beliefs(2, 5):
            expected = float(infection_counts(2) @ b.dense())
            assert oracle_value(cfg, b) == pytest.approx(expected, abs=1e-12)

    def test_node_cap(self):
        cfg = tiny_config(4, 10, 0.5, 0.5, [(1, 2, 1.0)])
        with pytest.raises(SizeCapError):
            oracle_value(cfg, Belief.uniform(4), node_cap=100)

    def test_predict_dense_keeps_mass(self):
        g = ContactGraph.from_edges(3, [(1, 2, 1.0), (2, 3, 2.0)])
        rng = np.random.default_rng(2)
        b = rng.dirichlet(np.ones(8))
        out = predict_dense(b, g, EMPTY, frozenset({2}), 0.5)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(out >= -1e-15)


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


class TestOracleAtLargerN:
    """solve() against the brute-force oracle beyond the N <= 3 presets."""

    @pytest.mark.parametrize("n, horizon, p, lam, seed, per_step", [
        (4, 5, 0.5, 0.4, 11, False),  # static graph with a zero-weight edge
        (5, 4, 0.6, 0.3, 12, True),  # a different graph at every step
    ], ids=["n4-static-zero-edge", "n5-schedule"])
    def test_matches_oracle(self, n, horizon, p, lam, seed, per_step):
        rng = np.random.default_rng(seed)
        if per_step:
            schedule = ContactSchedule(
                horizon, tuple(random_graph(n, rng, zero_edge=t == 0) for t in range(horizon))
            )
        else:
            schedule = ContactSchedule.static(horizon, random_graph(n, rng, zero_edge=True))
        cfg = ScenarioConfig(n, horizon, p, lam, schedule, Belief.uniform(n), 0)
        vf = solve(cfg)
        for b in random_beliefs(n, rng):
            assert vf.value(1, b) == pytest.approx(oracle_value(cfg, b), abs=1e-9)


class TestExtractPolicy:
    def test_huge_test_cost_never_tests(self):
        cfg = tiny_config(2, 3, 0.5, 100.0, [(1, 2, 1.0)])
        policy = extract_policy(solve(cfg))
        from epitest.simulate import run_episode

        for seed in range(10):
            assert run_episode(cfg, policy, seed).tests_used == 0

    def test_all_infected_tie_breaks_to_no_test(self):
        cfg = tiny_config(2, 3, 0.5, 0.0, [(1, 2, 1.0)])
        vf = solve(cfg)
        policy = extract_policy(vf)
        from epitest.policies import PolicyContext

        ctx = PolicyContext(cfg, 1, Belief.point(SystemState.from_bits((1, 1))), EMPTY)
        assert policy(ctx) == 0

    def test_extracted_policy_achieves_solved_value(self):
        cfg = scenario_a()
        vf = solve(cfg)
        policy = extract_policy(vf)
        b0 = cfg.initial_belief
        assert policy_tree_value(cfg, policy, b0) == pytest.approx(
            vf.value(1, b0), abs=1e-9
        )

    def test_extracted_policy_simulates_to_oracle_value(self):
        from epitest.simulate import monte_carlo_eval

        cfg = scenario_a()
        policy = extract_policy(solve(cfg))
        res = monte_carlo_eval(cfg, policy, 3000, workers=4)
        assert abs(res.mean_cost - SCENARIO_A_OPTIMAL_VALUE) <= 3 * res.std_error


class TestSerialization:
    def test_round_trip(self, tmp_path):
        cfg = scenario_a()
        vf = solve(cfg)
        path = tmp_path / "vf.npz"
        save_value_function(vf, path)
        back = load_value_function(path)
        assert back.n == vf.n and back.horizon == vf.horizon
        assert set(back.table) == set(vf.table)
        for key, aset in vf.table.items():
            other = back.table[key]
            assert np.array_equal(aset.matrix(), other.matrix())
            assert [v.action for v in aset.vectors] == [v.action for v in other.vectors]
        for b in probe_beliefs(3, 5):
            assert back.value(1, b) == vf.value(1, b)

import json
import re

import numpy as np
import pytest

from epitest.beliefs import Belief
from epitest.errors import ContractViolation, SizeCapError, ValidationError
from epitest.exact import (
    AlphaSet,
    _canonical_prune,
    evaluate,
    exact_backup,
    load_value_function,
    save_value_function,
    solve,
)
from epitest import exact, oracle
from epitest.model import (
    ContactGraph,
    ContactSchedule,
    SystemState,
    active_subgraph,
    infection_counts,
)
from epitest.oracle import oracle_value, predict_dense
from epitest.policies import extract_policy, make_policy, policy_tree_value
from epitest.presets import probe_beliefs, scenario_a, scenario_c
from epitest.scenario import ScenarioConfig

from _scenarios import random_beliefs, random_graph, random_scenario

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
        aset = AlphaSet(infection_counts(2)[None, :], [0], t=1)
        b = Belief.point(SystemState.from_bits((1, 1)))
        assert evaluate(aset, b) == (2.0, 0)

    def test_dominated_vector_never_wins(self):
        aset = AlphaSet(np.stack([np.zeros(4), np.ones(4)]), [0, 1], t=1)
        for b in probe_beliefs(2, 10):
            assert evaluate(aset, b).value == 0.0

    def test_tie_breaks_to_lowest_index(self):
        aset = AlphaSet(np.ones((2, 2)), [3, 1], t=1)
        assert evaluate(aset, Belief.uniform(1)).argmin_vector == 0

    def test_empty_set_rejected(self):
        with pytest.raises(ContractViolation):
            AlphaSet(np.empty((0, 4)), [], t=1)


class TestBackup:
    def test_expensive_tests_never_chosen(self):
        cfg = tiny_config(2, 2, 0.5, 100.0, [(1, 2, 1.0)])
        terminal = {
            q: AlphaSet(infection_counts(2)[None, :], [0], t=2, quarantine=q)
            for q in (EMPTY, frozenset({1}), frozenset({2}))
        }
        backed = exact_backup(terminal, cfg.graph_at(1), EMPTY, cfg.p, cfg.lam)
        size = 1 << 2
        for corner in np.eye(size):
            _, idx = evaluate(backed, corner)
            assert backed.actions[idx] == 0

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
        assert np.array_equal(aset.values[0], infection_counts(2))

    def test_single_individual_testing_cannot_help(self):
        cfg = tiny_config(1, 2, 0.7, 0.0, [])
        vf = solve(cfg)
        for b in probe_beliefs(1, 10):
            assert vf.value(1, b) == pytest.approx(2 * b.dense()[1], abs=1e-12)

    def test_caps(self, monkeypatch):
        # one past either cap, read at call time, is refused before any backup
        def no_backups(*args):
            raise AssertionError("a capped solve started its backups")

        monkeypatch.setattr(exact, "_backward_induction", no_backups)
        for max_n, max_t in ((exact.DEFAULT_MAX_N, exact.DEFAULT_MAX_T), (2, 2)):
            monkeypatch.setattr(exact, "DEFAULT_MAX_N", max_n)
            monkeypatch.setattr(exact, "DEFAULT_MAX_T", max_t)
            for n, horizon in ((max_n + 1, 2), (2, max_t + 1)):
                with pytest.raises(SizeCapError, match=f"got N={n}, T={horizon}"):
                    solve(tiny_config(n, horizon, 0.5, 0.5, [(1, 2, 1.0)]))

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
        assert np.array_equal(first[1], second[1])


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
        with pytest.raises(SizeCapError, match=r"1\.00e\+09 nodes exceeds 400 .*node cap of 100"):
            oracle_value(cfg, Belief.uniform(4), node_cap=100)
        # admitted by the estimate (36 <= 40), stopped by the node count
        cfg = tiny_config(2, 3, 0.5, 0.5, [(1, 2, 1.0)])
        with pytest.raises(SizeCapError, match="node cap of 10;"):
            oracle_value(cfg, Belief.uniform(2), node_cap=10)

    def test_predict_dense_keeps_mass(self):
        g = ContactGraph.from_edges(3, [(1, 2, 1.0), (2, 3, 2.0)])
        rng = np.random.default_rng(2)
        b = rng.dirichlet(np.ones(8))
        out = predict_dense(b, g, EMPTY, frozenset({2}), 0.5)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(out >= -1e-15)


class TestOracleAtLargerN:
    """solve() against the brute-force oracle beyond the N <= 3 presets."""

    @pytest.mark.parametrize("n, horizon, p, lam, seed, per_step", [
        (4, 5, 0.5, 0.4, 11, False),  # static graph with a zero-weight edge
        (5, 4, 0.6, 0.3, 12, True),  # a different graph at every step
    ], ids=["n4-static-zero-edge", "n5-schedule"])
    def test_matches_oracle(self, n, horizon, p, lam, seed, per_step):
        rng = np.random.default_rng(seed)
        cfg = random_scenario(n, horizon, p, lam, rng, per_step)
        vf = solve(cfg)
        for b in random_beliefs(n, rng):
            assert vf.value(1, b) == pytest.approx(oracle_value(cfg, b), abs=1e-9)


class TestOraclePinned:
    """Oracle and fixed-policy tree values, bit for bit, held fixed across
    code changes (recorded before the push-forward became a memoized plan)."""

    @pytest.mark.parametrize("n, horizon, p, lam, seed, per_step, optimal, greedy", [
        (4, 5, 0.37, 0.3, 21, False, "0x1.3229a5ca7c403p+3", "0x1.3e617d3b6e2a3p+3"),
        (5, 4, 0.6, 0.25, 22, True, "0x1.54eaffdfa5045p+3", "0x1.5d6538d8d8d04p+3"),
        (6, 4, 0.45, 0.2, 23, False, "0x1.94067fc126c83p+3", "0x1.9748078f8ace6p+3"),
    ], ids=["n4-static", "n5-schedule", "n6-static"])
    def test_values_pinned(self, n, horizon, p, lam, seed, per_step, optimal, greedy):
        rng = np.random.default_rng(seed)
        cfg = random_scenario(n, horizon, p, lam, rng, per_step)
        b = random_beliefs(n, rng)[1]  # full support
        assert oracle_value(cfg, b).hex() == optimal
        assert policy_tree_value(cfg, make_policy("greedy", cfg), b).hex() == greedy


def predict_dense_edge_by_edge(b, g, q_edges, q_active, p):
    """The push-forward as first written: two scatters per edge direction."""
    sub = active_subgraph(g, q_edges)
    total = sub.total_weight()
    out = b.copy()
    if total <= 0.0:
        return out
    masks = np.arange(len(b))
    for i, j, w in sub.edges:
        if w == 0.0 or i in q_active or j in q_active:
            continue
        edge_p = p * w / total
        bi, bj = 1 << (i - 1), 1 << (j - 1)
        has_i = (masks & bi) != 0
        has_j = (masks & bj) != 0
        src_ij = np.nonzero(has_i & ~has_j)[0]
        src_ji = np.nonzero(~has_i & has_j)[0]
        for src, bit in ((src_ij, bj), (src_ji, bi)):
            moved = b[src] * edge_p
            np.subtract.at(out, src, moved)
            np.add.at(out, src | bit, moved)
    return out


def bits_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestPredictDensePlan:
    """predict_dense against the edge-by-edge push-forward, bit for bit."""

    @staticmethod
    def quarantine_pairs(n, rng):
        """(q_edges, q_active) with q_edges inside q_active, equal or strictly."""
        q_edges = frozenset(int(u) for u in rng.choice(np.arange(1, n + 1), 1))
        extra = int(rng.choice([u for u in range(1, n + 1) if u not in q_edges]))
        return [(EMPTY, EMPTY), (EMPTY, frozenset({extra})), (q_edges, q_edges),
                (q_edges, q_edges | {extra})]

    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("zero_edge", [False, True])
    def test_bit_identical(self, n, zero_edge):
        rng = np.random.default_rng(100 * n + zero_edge)
        for _ in range(3):
            g = random_graph(n, rng, zero_edge=zero_edge)
            for q_edges, q_active in self.quarantine_pairs(n, rng):
                for p in (0.0, 1.0, 0.37):
                    for b in random_beliefs(n, rng):
                        dense = b.dense()
                        want = predict_dense_edge_by_edge(dense, g, q_edges, q_active, p)
                        assert bits_equal(predict_dense(dense, g, q_edges, q_active, p), want)

    def test_all_quarantined_graph_moves_nothing(self):
        g = ContactGraph.from_edges(4, [(1, 2, 1.0), (2, 3, 0.5), (3, 4, 2.0)])
        everyone = frozenset({1, 2, 3, 4})
        dense = random_beliefs(4, np.random.default_rng(5))[1].dense()
        for q_edges in (everyone, frozenset({2, 3})):  # total weight 0 either way
            out = predict_dense(dense, g, q_edges, everyone, 0.8)
            assert out is not dense
            assert bits_equal(out, dense)
            assert bits_equal(out, predict_dense_edge_by_edge(dense, g, q_edges, everyone, 0.8))

    def test_memo_hits_return_fresh_arrays(self):
        rng = np.random.default_rng(9)
        g = random_graph(5, rng, zero_edge=True)
        q = frozenset({2})
        first, second = (b.dense() for b in random_beliefs(5, rng)[1:])
        want = predict_dense_edge_by_edge(first, g, EMPTY, q, 0.6)
        out = predict_dense(first, g, EMPTY, q, 0.6)
        assert bits_equal(out, want)
        hits = oracle._build_plan.cache_info().hits
        out[:] = np.nan  # the caller owns its result; the memo must not see this
        assert bits_equal(predict_dense(first, g, EMPTY, q, 0.6), want)
        assert oracle._build_plan.cache_info().hits == hits + 1
        # the same key on another belief reuses the plan
        assert bits_equal(predict_dense(second, g, EMPTY, q, 0.6),
                          predict_dense_edge_by_edge(second, g, EMPTY, q, 0.6))
        assert bits_equal(predict_dense(first, g, EMPTY, q, 0.6), want)


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
            assert np.array_equal(aset.values, other.values)
            assert np.array_equal(aset.actions, other.actions)
        for b in probe_beliefs(3, 5):
            assert back.value(1, b) == vf.value(1, b)

    @staticmethod
    def rewrite(path, tmp_path, **arrays):
        """A copy of a saved value function with some of its arrays replaced."""
        with np.load(path) as data:
            contents = dict(data)
        contents.update(arrays)
        bad = tmp_path / "bad.npz"
        np.savez(bad, **contents)
        return bad

    @pytest.fixture
    def saved(self, tmp_path):
        """scenario C (N=2, T=3) saved; entry 0 is stage 1, no quarantine."""
        path = tmp_path / "vf.npz"
        save_value_function(solve(scenario_c()), path)
        with np.load(path) as data:
            return path, dict(data)

    def test_non_finite_entry_rejected(self, saved, tmp_path):
        path, arrays = saved
        values = arrays["values_0"].copy()
        values[1, 2] = np.nan
        with pytest.raises(ValidationError, match=r"stage 1, quarantine \[\]: 1 non-finite "
                                                  r"entries, first in vector 1"):
            load_value_function(self.rewrite(path, tmp_path, values_0=values))

    @pytest.mark.parametrize("rows, width", [(3, 3), (0, 4)], ids=["narrow", "empty"])
    def test_wrong_shape_rejected(self, saved, tmp_path, rows, width):
        path, arrays = saved
        bad = self.rewrite(path, tmp_path, values_0=arrays["values_0"][:rows, :width])
        with pytest.raises(ValidationError, match=rf"entry 0 .*shape \({rows}, {width}\), "
                                                  r"expected one or more rows of width 2\*\*2 = 4"):
            load_value_function(bad)

    def rewrite_entries(self, saved, tmp_path, replace):
        """A copy of the saved file with header entry k set to ``replace[k]``,
        a [stage, quarantine] pair, or dropped where that is None. Scenario
        C's entries are stage 1: [], stage 2: [], [1], [2] and stage 3: [],
        [1], [1, 2], [2]."""
        path, arrays = saved
        header = json.loads(bytes(arrays["header"]).decode())
        entries = [replace.get(k, e) for k, e in enumerate(header["entries"])]
        header["entries"] = [e for e in entries if e is not None]
        return self.rewrite(path, tmp_path, header=np.frombuffer(json.dumps(header).encode(),
                                                                 dtype=np.uint8))

    @pytest.mark.parametrize("stage", [0, 4])
    def test_out_of_range_stage_rejected(self, saved, tmp_path, stage):
        bad = self.rewrite_entries(saved, tmp_path, {0: [stage, []]})
        with pytest.raises(ValidationError, match=rf"entry 0 \(stage {stage}, .*outside \[1, 3\]"):
            load_value_function(bad)

    @pytest.mark.parametrize("q, message", [
        ([7], r"quarantined vertex outside \[1, 2\]"),
        ([1, 2], r"2 quarantined, but at most 1 can be by stage 2"),
    ], ids=["out-of-range-member", "too-many"])
    def test_bad_quarantine_rejected(self, saved, tmp_path, q, message):
        bad = self.rewrite_entries(saved, tmp_path, {1: [2, q]})
        with pytest.raises(ValidationError, match=r"entry 1 \(stage 2, quarantine "
                                                  + re.escape(str(q)) + r"\): " + message):
            load_value_function(bad)

    def test_repeated_slice_rejected(self, saved, tmp_path):
        bad = self.rewrite_entries(saved, tmp_path, {2: [2, []]})
        with pytest.raises(ValidationError, match=r"entry 2 \(stage 2, quarantine \[\]\): "
                                                  r"repeats entry 1"):
            load_value_function(bad)

    def test_missing_slice_rejected(self, saved, tmp_path):
        bad = self.rewrite_entries(saved, tmp_path, {7: None})
        with pytest.raises(ValidationError, match=r"lacks stage 3, quarantine \[2\]: "
                                                  r"it has 7 of the 8 reachable slices"):
            load_value_function(bad)

    @pytest.mark.parametrize("tag", [-1, 3])
    def test_out_of_range_tag_rejected(self, saved, tmp_path, tag):
        path, arrays = saved
        actions = arrays["actions_0"].copy()
        actions[0] = tag
        with pytest.raises(ValidationError, match=rf"entry 0 .*action tags span .*{tag}.*"
                                                  r"outside \[0, 2\]"):
            load_value_function(self.rewrite(path, tmp_path, actions_0=actions))

    def test_tag_count_mismatch_rejected(self, saved, tmp_path):
        path, arrays = saved
        bad = self.rewrite(path, tmp_path, actions_0=arrays["actions_0"][:2])
        with pytest.raises(ValidationError, match=r"stage 1, .*shape \(3, 4\) "
                                                  r"with tags of shape \(2,\)"):
            load_value_function(bad)

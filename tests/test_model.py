import numpy as np
import pytest

from epitest.errors import ContractViolation, SizeCapError, ValidationError
from epitest.model import (
    ContactGraph,
    ContactSchedule,
    Dynamics,
    SystemState,
    active_subgraph,
    dynamics,
    one_step_min,
    sample_active_edge,
    transmit_with_uniform,
    validate_action,
)

from _reference import step_distribution

EMPTY = frozenset()


def row(g, q, p, mask):
    """One row of the one-step kernel under quarantine q: {next mask: prob}."""
    return dynamics(g, q, q, p).predict({mask: 1.0})


class TestStates:
    def test_bits_round_trip(self):
        s = SystemState.from_bits((1, 0, 1))
        assert s.mask == 0b101
        assert s.bits == (1, 0, 1)
        assert s.count() == 2
        assert s.infected(1) and not s.infected(2)

    def test_validation(self):
        with pytest.raises(ValidationError):
            SystemState(4, 2)
        with pytest.raises(ValidationError):
            SystemState(0, 0)
        with pytest.raises(ValidationError):
            SystemState.from_bits((0, 2))


class TestGraphs:
    def test_canonicalization(self):
        g = ContactGraph.from_edges(3, [(2, 1, 1.0), (3, 2, 2.0)])
        assert g.edges == ((1, 2, 1.0), (2, 3, 2.0))
        assert g.total_weight() == 3.0
        assert g.incident_weight(2) == 3.0

    @pytest.mark.parametrize(
        "edges",
        [
            [(1, 1, 1.0)],            # self loop
            [(0, 2, 1.0)],            # vertex out of range
            [(1, 2, -0.5)],           # negative weight
            [(1, 2, 1.0), (2, 1, 2.0)],  # duplicate unordered pair
        ],
    )
    def test_rejects_bad_edges(self, edges):
        with pytest.raises(ValidationError):
            ContactGraph.from_edges(3, edges)

    def test_active_subgraph(self):
        g = ContactGraph.from_edges(3, [(1, 2, 1.0), (2, 3, 2.0)])
        assert active_subgraph(g, frozenset({3})).edges == ((1, 2, 1.0),)
        assert active_subgraph(g, frozenset()).edges == g.edges
        assert active_subgraph(g, frozenset({1, 2, 3})).edges == ()

    def test_schedule_checks(self):
        g2 = ContactGraph.from_edges(2, [(1, 2, 1.0)])
        g3 = ContactGraph.from_edges(3, [(1, 2, 1.0)])
        with pytest.raises(ValidationError):
            ContactSchedule(2, (g2,))
        with pytest.raises(ValidationError):
            ContactSchedule(2, (g2, g3))
        sched = ContactSchedule.static(3, g2)
        assert sched.graph_at(2) is g2
        with pytest.raises(ValidationError):
            sched.graph_at(4)


class TestTransitionKernel:
    def test_single_edge(self):
        g = ContactGraph.from_edges(2, [(1, 2, 1.0)])
        dist = row(g, EMPTY, 0.3, 0b01)
        assert dist == {0b11: pytest.approx(0.3), 0b01: pytest.approx(0.7)}

    def test_no_source(self):
        g = ContactGraph.from_edges(2, [(1, 2, 1.0)])
        assert row(g, EMPTY, 0.9, 0b00) == {0b00: 1.0}

    def test_weight_normalization(self):
        # hand-normalized: weights 1:3 over total 4
        g = ContactGraph.from_edges(3, [(1, 2, 1.0), (1, 3, 3.0)])
        dist = row(g, EMPTY, 1.0, 0b001)
        assert dist[0b011] == pytest.approx(0.25)
        assert dist[0b101] == pytest.approx(0.75)
        assert dist[0b001] == pytest.approx(0.0, abs=1e-15)

    def test_rows_sum_to_one_exhaustive(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4):
            for _ in range(4):
                pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
                edges = [(i, j, float(rng.integers(0, 4))) for i, j in pairs]
                g = ContactGraph.from_edges(n, edges)
                q = frozenset(int(u) for u in rng.choice(n, size=rng.integers(0, n), replace=False) + 1)
                p = float(rng.random())
                for mask in range(1 << n):
                    dist = row(g, q, p, mask)
                    assert abs(sum(dist.values()) - 1.0) < 1e-12
                    for nxt, pr in dist.items():
                        if nxt == mask or pr == 0.0:
                            continue
                        # only single new infections, never at a quarantined vertex
                        flipped = nxt ^ mask
                        assert flipped.bit_count() == 1
                        assert not mask & flipped
                        assert flipped.bit_length() not in q

    def test_matches_reference_enumeration(self):
        rng = np.random.default_rng(11)
        for n in (2, 3):
            pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            edges = [(i, j, float(rng.integers(1, 4))) for i, j in pairs]
            g = ContactGraph.from_edges(n, edges)
            for mask in range(1 << n):
                got = row(g, EMPTY, 0.6, mask)
                want = step_distribution(n, edges, EMPTY, EMPTY, 0.6, mask)
                for key in set(got) | set(want):
                    assert got.get(key, 0.0) == pytest.approx(want.get(key, 0.0), abs=1e-12)

    def test_dense_matrix_agrees_with_rows(self):
        g = ContactGraph.from_edges(3, [(1, 2, 1.0), (2, 3, 2.0), (1, 3, 0.5)])
        dyn = dynamics(g, EMPTY, frozenset({2}), 0.4)
        P = dyn.back(np.eye(8))
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
        for mask in range(8):
            for k, pr in dyn.flows(mask).items():
                assert P[mask, mask | (1 << (k - 1))] == pytest.approx(pr)

    def test_quarantine_monotone_when_vertex_only_touches_infected(self):
        # quarantining an uninfected vertex whose active contacts all lead to
        # infected individuals can only reduce total outgoing infection mass
        rng = np.random.default_rng(21)
        checked = 0
        for n in (3, 4):
            pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            for _ in range(6):
                edges = [(i, j, float(rng.integers(0, 3))) for i, j in pairs]
                g = ContactGraph.from_edges(n, edges)
                for mask in range(1 << n):
                    x = SystemState(mask, n)
                    live = active_subgraph(g, EMPTY).edges
                    for v in range(1, n + 1):
                        if x.infected(v):
                            continue
                        touching = [e for e in live if v in (e[0], e[1]) and e[2] > 0]
                        if not all(
                            x.infected(e[0] if e[1] == v else e[1]) for e in touching
                        ):
                            continue
                        base = sum(dynamics(g, EMPTY, EMPTY, 0.7).flows(mask).values())
                        qv = frozenset({v})
                        less = sum(dynamics(g, qv, qv, 0.7).flows(mask).values())
                        assert less <= base + 1e-12
                        checked += 1
        assert checked > 50

    def test_p_out_of_range(self):
        g = ContactGraph.from_edges(2, [(1, 2, 1.0)])
        with pytest.raises(ValidationError):
            dynamics(g, EMPTY, EMPTY, 1.5)

    def test_enumeration_cap(self):
        # refused before any 2**21 table is built; a bare Dynamics keeps the
        # oversized instance out of the shared cache
        dyn = Dynamics(ContactGraph(21, ()), EMPTY, EMPTY, 0.5)
        for op in (dyn.back, dyn.push):
            with pytest.raises(SizeCapError):
                op(np.zeros(1))


class TestSampling:
    def test_single_edge_certain(self):
        g = ContactGraph.from_edges(2, [(1, 2, 2.0)])
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert sample_active_edge(g, frozenset(), rng) == (1, 2, 2.0)

    def test_empty_subgraph(self):
        g = ContactGraph.from_edges(3, [(1, 2, 1.0)])
        rng = np.random.default_rng(0)
        assert sample_active_edge(g, frozenset({1, 2, 3}), rng) is None
        assert sample_active_edge(ContactGraph.from_edges(2, []), frozenset(), rng) is None

    def test_edge_frequencies(self):
        g = ContactGraph.from_edges(3, [(1, 2, 1.0), (1, 3, 3.0)])
        rng = np.random.default_rng(42)
        n_draws = 100_000
        hits = sum(
            1 for _ in range(n_draws)
            if sample_active_edge(g, frozenset(), rng)[:2] == (1, 2)
        )
        sigma = (0.25 * 0.75 / n_draws) ** 0.5
        assert abs(hits / n_draws - 0.25) < 3 * sigma

    def test_rounding_fallback_skips_zero_weight_edges(self):
        class AtOne:  # a variate that lands exactly on the total weight
            calls = 0

            def random(self):
                self.calls += 1
                return 1.0

        g = ContactGraph.from_edges(3, [(1, 2, 1.0), (2, 3, 0.0)])
        rng = AtOne()
        assert sample_active_edge(g, frozenset(), rng) == (1, 2, 1.0)
        assert rng.calls == 1

    def test_transmit_with_uniform(self):
        rng = np.random.default_rng(1)
        both = SystemState.from_bits((1, 1))
        assert transmit_with_uniform(both, (1, 2, 1.0), 0.5, frozenset(), rng.random()) == both
        none = SystemState.from_bits((0, 0))
        assert transmit_with_uniform(none, (1, 2, 1.0), 0.5, frozenset(), rng.random()) == none
        one = SystemState.from_bits((1, 0))
        assert transmit_with_uniform(one, (1, 2, 1.0), 1.0, frozenset(), rng.random()) == both
        # it crosses only below p, and not into or out of quarantine
        assert transmit_with_uniform(one, (1, 2, 1.0), 0.5, frozenset(), 0.5) == one
        assert transmit_with_uniform(one, (1, 2, 1.0), 1.0, frozenset({1}), 0.0) == one
        assert transmit_with_uniform(one, None, 1.0, frozenset(), 0.0) == one

    def test_validate_action(self):
        assert validate_action(0, 3) == 0
        assert validate_action(np.int64(2), 3) == 2
        with pytest.raises(ContractViolation):
            validate_action(4, 3)
        with pytest.raises(ContractViolation):
            validate_action(-1, 3)


def _one_step_min(n, q, lam, children_by_action):
    """one_step_min on hand-built children: each child is (probability, its
    next-stage value), and the value function reads the value back."""
    return one_step_min(
        n, q, lam,
        lambda u: [(prob, v, q) for prob, v in children_by_action[u]],
        lambda v, q_next: v,
    )


class TestOneStepMin:
    def test_exact_tie_with_a_test_goes_to_no_test(self):
        # no test costs 1.0; testing 1 costs 0.5 + 0.5 * 0.5 + 0.5 * 0.5 = 1.0
        children = {0: [(1.0, 1.0)], 1: [(0.5, 0.5), (0.5, 0.5)], 2: [(1.0, 2.0)]}
        assert _one_step_min(2, frozenset(), 0.5, children) == (0, 1.0)

    def test_tied_tests_go_to_the_lower_index(self):
        # tests 2 and 3 both cost 1.5 < 2.0 for no test; 1 is quarantined, so
        # its cheaper children are never weighed
        children = {
            0: [(1.0, 2.0)],
            1: [(1.0, 0.0)],
            2: [(0.5, 1.5), (0.5, 0.5)],
            3: [(1.0, 1.0)],
        }
        assert _one_step_min(3, frozenset({1}), 0.5, children) == (2, 1.5)

    def test_action_without_children_costs_lam(self):
        children = {0: [(1.0, 1.0)], 1: [], 2: [(1.0, 1.0)]}
        assert _one_step_min(2, frozenset(), 0.25, children) == (1, 0.25)

import numpy as np
import pytest

from epitest.beliefs import (
    Belief,
    belief_update,
    expected_infections,
    filter_observation,
    marginal_infection,
    predict_belief,
)
from epitest.errors import (
    ContractViolation,
    InconsistentObservationError,
    ValidationError,
)
from epitest.model import ContactGraph, SystemState, dynamics

from _reference import joint_posterior

EMPTY = frozenset()


def belief_of(n, mapping):
    return Belief(n, dict(mapping))


class TestBeliefType:
    def test_normalizes_and_orders(self):
        b = belief_of(2, {3: 0.5, 0: 0.5})
        assert list(b.probs) == [0, 3]
        assert sum(b.probs.values()) == pytest.approx(1.0)

    def test_rejects_bad_mass(self):
        with pytest.raises(ValidationError):
            belief_of(2, {0: 0.6, 1: 0.6})
        with pytest.raises(ValidationError):
            belief_of(2, {0: -0.2, 1: 1.2})
        with pytest.raises(ValidationError):
            belief_of(2, {7: 1.0})
        with pytest.raises(ValidationError):
            Belief(2, {})

    def test_dense_round_trip(self):
        b = belief_of(2, {1: 0.25, 2: 0.75})
        assert np.allclose(b.dense(), [0, 0.25, 0.75, 0])
        assert Belief.from_dense(b.dense(), 2).probs == b.probs


class TestObservationModel:
    def test_likelihood(self):
        # tests are noiseless: a known state keeps all its mass under the
        # outcome it implies, the other outcome is impossible, and no test
        # observes nothing
        x = Belief.point(SystemState.from_bits((1, 0)))
        assert filter_observation(x, 1, 1).probs == {0b01: 1.0}
        assert filter_observation(x, 2, 0).probs == {0b01: 1.0}
        assert filter_observation(x, 0, None) is x
        with pytest.raises(InconsistentObservationError):
            filter_observation(x, 1, 0)

    def test_contract_violations(self):
        x = Belief.point(SystemState.from_bits((1, 0)))
        with pytest.raises(ContractViolation):
            filter_observation(x, 1, None)
        with pytest.raises(ContractViolation):
            filter_observation(x, 0, 1)

    def test_filter_is_conditioning(self):
        b = belief_of(2, {0b00: 0.5, 0b01: 0.5})
        filtered = filter_observation(b, 1, 0)
        assert filtered.probs == {0b00: 1.0}
        # observing infection pins the marginal before any prediction
        b2 = belief_of(2, {0b01: 0.3, 0b11: 0.2, 0b00: 0.5})
        assert marginal_infection(filter_observation(b2, 1, 1), 1) == pytest.approx(1.0)

    def test_impossible_observation(self):
        b = belief_of(2, {0b00: 1.0})
        with pytest.raises(InconsistentObservationError):
            filter_observation(b, 1, 1)


class TestBeliefUpdate:
    def test_test_eliminates_hypothesis(self):
        g = ContactGraph.from_edges(2, [(1, 2, 1.0)])
        b = belief_of(2, {0b00: 0.5, 0b01: 0.5})
        out, _ = belief_update(b, g, EMPTY, 1, 0, 0.0)
        assert out.probs == {0b00: 1.0}

    def test_pure_prediction(self):
        g = ContactGraph.from_edges(2, [(1, 2, 1.0)])
        b = Belief.point(SystemState.from_bits((1, 0)))
        out, _ = belief_update(b, g, EMPTY, 0, None, 0.3)
        assert out.probs[0b01] == pytest.approx(0.7)
        assert out.probs[0b11] == pytest.approx(0.3)

    def test_update_with_no_test_equals_predict(self):
        g = ContactGraph.from_edges(3, [(1, 2, 1.0), (2, 3, 2.0)])
        b = belief_of(3, {0b001: 0.5, 0b010: 0.25, 0b110: 0.25})
        assert belief_update(b, g, EMPTY, 0, None, 0.4)[0].probs == pytest.approx(
            predict_belief(b, dynamics(g, EMPTY, EMPTY, 0.4)).probs
        )

    def test_matches_brute_force_posterior(self):
        # positive test quarantines 2 mid-step, blocking the crossing
        g = ContactGraph.from_edges(2, [(1, 2, 1.0)])
        b = Belief.uniform(2)
        got, _ = belief_update(b, g, EMPTY, 2, 1, 0.5)
        want = joint_posterior(2, b.probs, [(g.edges, 2, 1)], 0.5)
        assert got.probs == pytest.approx(want, abs=1e-12)
        # negative branch leaves the dynamics untouched
        got0, _ = belief_update(b, g, EMPTY, 2, 0, 0.5)
        want0 = joint_posterior(2, b.probs, [(g.edges, 2, 0)], 0.5)
        assert got0.probs == pytest.approx(want0, abs=1e-12)

    def test_normalization_preserved_under_random_updates(self):
        rng = np.random.default_rng(7)
        g = ContactGraph.from_edges(3, [(1, 2, 1.0), (2, 3, 0.5), (1, 3, 2.0)])
        b = Belief.from_dense(rng.dirichlet(np.ones(8)), 3)
        q = EMPTY
        for _ in range(30):
            a = int(rng.integers(0, 4))
            if a == 0:
                y = None
            else:
                p1 = marginal_infection(b, a)
                y = 1 if rng.random() < p1 else 0
            b, q = belief_update(b, g, q, a, y, 0.35)
            assert abs(sum(b.probs.values()) - 1.0) < 1e-9
            assert all(pr > 0 for pr in b.probs.values())

    def test_exhaustive_history_consistency_small(self):
        # the full N<=3, length-3 sweep runs in the acceptance suite
        g = ContactGraph.from_edges(2, [(1, 2, 1.0)])
        b0 = belief_of(2, {0b00: 0.4, 0b01: 0.35, 0b11: 0.25})
        p = 0.6
        for a1 in range(0, 3):
            for y1 in ((None,) if a1 == 0 else (0, 1)):
                for a2 in range(0, 3):
                    for y2 in ((None,) if a2 == 0 else (0, 1)):
                        want = joint_posterior(
                            2, b0.probs, [(g.edges, a1, y1), (g.edges, a2, y2)], p
                        )
                        q = frozenset()
                        b = b0
                        try:
                            b, q1 = belief_update(b, g, q, a1, y1, p)
                            b, _ = belief_update(b, g, q1, a2, y2, p)
                        except InconsistentObservationError:
                            assert want is None
                            continue
                        assert want is not None
                        assert b.probs == pytest.approx(want, abs=1e-9)


class TestBeliefUpdateContract:
    g = ContactGraph.from_edges(3, [(1, 2, 1.0), (2, 3, 1.0)])
    q = frozenset({3})

    def test_returns_next_quarantine(self):
        b = Belief.uniform(3)
        assert belief_update(b, self.g, self.q, 2, 1, 0.5)[1] == frozenset({2, 3})
        assert belief_update(b, self.g, self.q, 2, 0, 0.5)[1] == self.q
        assert belief_update(b, self.g, self.q, 0, None, 0.5)[1] == self.q

    @pytest.mark.parametrize("a, y", [(0, 1), (2, None)])
    def test_mismatched_observation_is_a_contract_violation(self, a, y):
        with pytest.raises(ContractViolation):
            belief_update(Belief.uniform(3), self.g, self.q, a, y, 0.5)

    def test_impossible_outcome(self):
        b = Belief.point(SystemState.from_bits((1, 0, 0)))
        with pytest.raises(InconsistentObservationError):
            belief_update(b, self.g, self.q, 2, 1, 0.5)

    @pytest.mark.parametrize("a, y", [(7, 1), (7, 0), (-1, 1)])
    def test_tested_vertex_out_of_range(self, a, y):
        b = Belief.uniform(3)
        for update in (lambda: filter_observation(b, a, y),
                       lambda: belief_update(b, self.g, EMPTY, a, y, 0.5)):
            with pytest.raises(ValidationError, match=rf"tested vertex {a} outside \[1, 3\]"):
                update()


class TestFunctionals:
    def test_marginal(self):
        b = Belief.point(SystemState.from_bits((1, 0)))
        assert marginal_infection(b, 1) == 1.0
        assert marginal_infection(Belief.uniform(2), 2) == pytest.approx(0.5)

    def test_expected_infections(self):
        assert expected_infections(Belief.point(SystemState.from_bits((1, 1)))) == 2
        assert expected_infections(Belief.uniform(2)) == pytest.approx(1.0)
        assert expected_infections(belief_of(2, {0b01: 0.7, 0b11: 0.3})) == pytest.approx(1.3)

    def test_marginal_sums_to_expected(self):
        rng = np.random.default_rng(5)
        b = Belief.from_dense(rng.dirichlet(np.ones(8)), 3)
        total = sum(marginal_infection(b, u) for u in (1, 2, 3))
        assert total == pytest.approx(expected_infections(b))

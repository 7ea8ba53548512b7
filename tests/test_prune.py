"""The vectorized domination prune and the incrementally pruned backup against
the row-by-row reference prune, bit for bit."""

import numpy as np
import pytest

from epitest.beliefs import Belief
from epitest import exact
from epitest.exact import _canonical_prune, exact_backup, solve
from epitest.model import (
    ContactGraph,
    ContactSchedule,
    branches,
    candidate_actions,
    infection_counts,
    outcome_indicator,
)
from epitest.scenario import ScenarioConfig

from _reference import canonical_prune


def assert_same_prune(stacked, actions):
    rows, acts = _canonical_prune(stacked.copy(), actions.copy())
    ref_rows, ref_acts = canonical_prune(stacked, actions)
    ref = np.asarray(ref_rows).reshape(-1, stacked.shape[1])
    assert rows.shape == ref.shape
    assert rows.tobytes() == ref.tobytes()
    assert acts.tolist() == ref_acts


def mixed_candidates(rng, k, dim, n_actions):
    """Rows with exact duplicates, ties in single coordinates, same-action
    dominated copies and copies that dominate across actions."""
    base = np.round(rng.normal(size=(k, dim)), 1)  # coarse grid: many exact ties
    acts = rng.integers(0, n_actions, size=k)
    pick = rng.integers(0, k, size=k // 4)
    shifted = base[pick] + rng.choice([0.0, 0.5], size=(len(pick), dim))
    lower = base[pick] - 0.1  # dominates its source from any action
    stacked = np.vstack([base, base[pick], shifted, lower])
    actions = np.concatenate(
        [acts, acts[pick], acts[pick], rng.integers(0, n_actions, size=len(pick))]
    )
    order = rng.permutation(len(stacked))
    return stacked[order], actions[order]


class TestCanonicalPrune:
    @pytest.mark.parametrize("chunk", [None, 1 << 10], ids=["default-chunk", "small-chunk"])
    @pytest.mark.parametrize("k, dim, n_actions, seed", [
        (40, 4, 3, 0),
        (300, 8, 4, 1),  # two blocks
        (900, 16, 5, 2),  # several blocks, with coordinates reordered
        (2000, 8, 2, 3),
    ])
    def test_matches_reference(self, k, dim, n_actions, seed, chunk, monkeypatch):
        if chunk:  # a few earlier rows per comparison, so every block spans chunks
            monkeypatch.setattr(exact, "_PRUNE_CHUNK", chunk)
        stacked, actions = mixed_candidates(np.random.default_rng(seed), k, dim, n_actions)
        assert_same_prune(stacked, actions)

    def test_small_integer_sets(self):
        rng = np.random.default_rng(7)
        for k in (1, 2, 3, 5, 17):
            for dim in (2, 4, 8):
                stacked = rng.integers(0, 3, size=(k, dim)).astype(float)
                assert_same_prune(stacked, rng.integers(0, 3, size=k))

    def test_duplicates_keep_one_copy(self):
        row = np.array([[1.0, 2.0, 3.0, 4.0]])
        rows, acts = _canonical_prune(np.repeat(row, 600, axis=0), np.full(600, 2))
        assert rows.tobytes() == row.tobytes() and acts.tolist() == [2]


def random_config(n, horizon, seed, p=0.5, lam=0.4):
    """A seeded graph with some zero-weight edges and a uniform belief."""
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = [
        (i, j, float(rng.choice([0.0, 0.5, 1.0, 2.0]))) for i, j in pairs if rng.random() < 0.6
    ]
    g = ContactGraph.from_edges(n, edges)
    return ScenarioConfig(n, horizon, p, lam, ContactSchedule.static(horizon, g),
                          Belief.uniform(n), 0)


def full_cross_sum(nxt, g, q, p, lam):
    """Every action's unpruned cross-sum over its observation branches."""
    n = g.n_vertices
    c = infection_counts(n)
    stacked, actions = [], []
    for u in candidate_actions(n, q):
        rows = (c + lam if u else c)[None, :]
        for y, q_next, step in branches(g, q, u, p):
            back = step.back(nxt[q_next].values.T).T
            if y is not None:
                back = outcome_indicator(n, u, y) * back
            rows = (rows[:, None, :] + back[None, :, :]).reshape(-1, len(c))
        stacked.append(rows)
        actions.append(np.full(len(rows), u))
    return np.concatenate(stacked), np.concatenate(actions)


class TestIncrementalBackup:
    @pytest.mark.parametrize("seed, t, q", [
        (1, 1, ()),  # 1,331 stage-1 vectors from about 4,300 cross-sum rows
        (1, 2, (4,)),
        (1, 3, (1, 3)),
        (3, 1, ()),
        (3, 2, (1,)),
        (2, 2, (2,)),
    ])
    def test_equals_pruned_full_cross_sum(self, seed, t, q):
        cfg = random_config(4, 5, seed)
        vf = solve(cfg)
        q = frozenset(q)
        nxt = {qq: aset for (tt, qq), aset in vf.table.items() if tt == t + 1}
        got = exact_backup(nxt, cfg.graph_at(t), q, cfg.p, cfg.lam)
        ref_rows, ref_acts = canonical_prune(*full_cross_sum(nxt, cfg.graph_at(t), q,
                                                             cfg.p, cfg.lam))
        assert got.values.tobytes() == np.asarray(ref_rows).tobytes()
        assert got.actions.tolist() == ref_acts
        assert vf.alpha_set(t, q).values.tobytes() == got.values.tobytes()

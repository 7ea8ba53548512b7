"""Independent brute-force valuation by expanding the reachable belief tree.

This module deliberately avoids the alpha-vector machinery: beliefs are dense
vectors, the prediction step enumerates active-edge realizations one contact
at a time, and values come from plain backward induction over every
action/observation branch. It exists to certify the exact solver and to
evaluate fixed policies without Monte Carlo error.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .errors import SizeCapError
from .model import EMPTY_QUARANTINE, Quarantine, active_subgraph, infection_counts
from .scenario import ScenarioConfig

DEFAULT_NODE_CAP = 2_000_000


def predict_dense(
    b: np.ndarray,
    g,
    q_edges: Quarantine,
    q_active: Quarantine,
    p: float,
) -> np.ndarray:
    """One-step belief push-forward by explicit enumeration of active edges.

    For each edge of the contact subgraph (drawn with probability
    weight / total), mass on states where exactly one endpoint is infected
    flows to the state with the other endpoint infected too, scaled by p.
    Endpoints quarantined after the edge was drawn block the crossing.
    """
    sub = active_subgraph(g, q_edges)
    total = sub.total_weight()
    out = b.copy()
    if total <= 0.0:
        return out
    size = len(b)
    masks = np.arange(size)
    for i, j, w in sub.edges:
        if w == 0.0 or i in q_active or j in q_active:
            continue
        edge_p = p * w / total
        bi, bj = 1 << (i - 1), 1 << (j - 1)
        has_i = (masks & bi) != 0
        has_j = (masks & bj) != 0
        src_ij = np.nonzero(has_i & ~has_j)[0]  # i infected, j catches it
        src_ji = np.nonzero(~has_i & has_j)[0]
        for src, bit in ((src_ij, bj), (src_ji, bi)):
            moved = b[src] * edge_p
            np.subtract.at(out, src, moved)
            np.add.at(out, src | bit, moved)
    return out


class _Budget:
    __slots__ = ("cap", "left")

    def __init__(self, cap):
        self.cap = self.left = cap

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise SizeCapError(
                f"belief-tree expansion exceeded the node cap of {self.cap}; "
                "the instance is too large for brute-force valuation"
            )


def tree_value(
    cfg: ScenarioConfig,
    b: np.ndarray,
    q: Quarantine = EMPTY_QUARANTINE,
    t: int = 1,
    action_fn: Optional[Callable] = None,
    node_cap: int = DEFAULT_NODE_CAP,
) -> float:
    """Exact expected cost from stage t at belief b and quarantine q.

    With ``action_fn`` None, minimizes over actions at every node (the
    optimal value). Otherwise ``action_fn(t, belief_dense, quarantine)``
    fixes the action, giving exact policy evaluation. Observation branches of
    zero probability are skipped. Decisions stop at the terminal stage, which
    contributes only its stage cost.
    """
    n = cfg.n
    c = infection_counts(n)
    lam = cfg.lam
    p = cfg.p
    T = cfg.horizon
    budget = _Budget(node_cap)

    def recurse(bb: np.ndarray, qq: Quarantine, tt: int) -> float:
        budget.spend()
        stage = float(c @ bb)
        if tt == T:
            return stage
        g = cfg.graph_at(tt)

        def branch_value(u: int) -> float:
            if u == 0:
                child = predict_dense(bb, g, qq, qq, p)
                return recurse(child, qq, tt + 1)
            bit = 1 << (u - 1)
            hot = (np.arange(len(bb)) & bit) != 0
            p1 = float(bb[hot].sum())
            val = 0.0
            if p1 > 0.0:
                pos = np.where(hot, bb, 0.0) / p1
                child = predict_dense(pos, g, qq, qq | {u}, p)
                val += p1 * recurse(child, qq | {u}, tt + 1)
            if p1 < 1.0:
                neg = np.where(hot, 0.0, bb) / (1.0 - p1)
                child = predict_dense(neg, g, qq, qq, p)
                val += (1.0 - p1) * recurse(child, qq, tt + 1)
            return val

        if action_fn is not None:
            u = int(action_fn(tt, bb, qq))
            return stage + (lam if u != 0 else 0.0) + branch_value(u)

        best = branch_value(0)
        for u in range(1, n + 1):
            if u in qq:
                continue
            cand = lam + branch_value(u)
            if cand < best:
                best = cand
        return stage + best

    return recurse(np.asarray(b, dtype=np.float64), frozenset(q), t)


def oracle_value(
    cfg: ScenarioConfig,
    b0,
    t: int = 1,
    q: Quarantine = EMPTY_QUARANTINE,
    node_cap: int = DEFAULT_NODE_CAP,
) -> float:
    """Optimal expected cost from stage t, computed by full tree expansion.

    Accepts a sparse Belief or a dense vector. This is the reference number
    the alpha-vector solver is checked against.
    """
    dense = b0.dense() if hasattr(b0, "dense") else np.asarray(b0, dtype=np.float64)
    est = (2 * (cfg.n + 1)) ** max(cfg.horizon - t, 0)
    if est > node_cap * 4:
        raise SizeCapError(
            f"reachable tree of ~{est:.2e} nodes exceeds {node_cap * 4} "
            f"(4 x the node cap of {node_cap}); "
            "shrink N or T for oracle valuation"
        )
    return tree_value(cfg, dense, q, t, action_fn=None, node_cap=node_cap)

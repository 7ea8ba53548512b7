"""Independent brute-force valuation by expanding the reachable belief tree.

This module deliberately avoids the alpha-vector machinery and the model's
``Dynamics``: beliefs are dense vectors, the prediction step enumerates
active-edge realizations one contact at a time, and values come from plain
backward induction over every action/observation branch. It exists to
certify the exact solver and to evaluate fixed policies without Monte Carlo
error.

The edge enumeration for one (graph, quarantines, p) is the same at every
tree node, so it is written down once as a plan of ordered moves (see
``_build_plan``) and kept in a memo of the last 128 plans; each prediction then
applies the plan with one ``np.add.at``. The moves are applied in the order
the edge loop makes them, so every belief entry sees the same floating-point
operations as an edge-by-edge scatter would give it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import SizeCapError
from .model import EMPTY_QUARANTINE, Quarantine, active_subgraph, infection_counts
from .scenario import ScenarioConfig

DEFAULT_NODE_CAP = 2_000_000


@lru_cache(maxsize=128)
def _build_plan(g, q_edges: Quarantine, q_active: Quarantine, p: float, size: int) -> tuple:
    """The push-forward of ``predict_dense`` as one ordered scatter.

    Walks the contact subgraph edge by edge (drawn with probability
    weight / total). Where exactly one endpoint of an edge is infected, mass
    moves to the state with the other endpoint infected too, scaled by p;
    endpoints quarantined after the edge was drawn block the crossing. Each
    move is listed twice, as a loss at the source state (coefficient
    -edge_p) and a gain at the target (+edge_p), in that order. Returns
    read-only (targets, sources, coefficients) arrays, empty when no edge
    carries weight.
    """
    sub = active_subgraph(g, q_edges)
    total = sub.total_weight()
    masks = np.arange(size)
    targets, sources, coefs = [np.empty(0, np.intp)], [np.empty(0, np.intp)], [np.empty(0)]
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
            targets += [src, src | bit]
            sources += [src, src]
            coefs += [np.full(len(src), -edge_p), np.full(len(src), edge_p)]
    plan = tuple(np.concatenate(parts) for parts in (targets, sources, coefs))
    for arr in plan:
        arr.flags.writeable = False
    return plan


def predict_dense(
    b: np.ndarray,
    g,
    q_edges: Quarantine,
    q_active: Quarantine,
    p: float,
) -> np.ndarray:
    """One-step belief push-forward by explicit enumeration of active edges.

    The moves, in edge order, come from a plan built once per (graph,
    quarantines, p, number of states) and kept in a memo of the last 128
    plans; ``np.add.at`` applies them one after the other. A plan holds
    |edges| * 2^N entries of 24 bytes, so the memo is bounded by
    128 * 24 * |edges| * 2^N bytes (under 1 MiB at N = 5 on a ring), and a
    call also holds one |edges| * 2^N float temporary for the moved mass
    where an edge-by-edge scatter needed a few 2^N ones. The result is a
    fresh array.
    """
    targets, sources, coefs = _build_plan(g, q_edges, q_active, p, len(b))
    out = b.copy()
    np.add.at(out, targets, b[sources] * coefs)
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

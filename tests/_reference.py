"""Independent reference implementations used as oracles by the tests.

Everything here is deliberately written from first principles in plain
Python dictionaries (no shared code with the package internals): transition
probabilities come from enumerating (active edge, crossing) outcomes, and
posteriors come from enumerating whole hidden-state paths. The one numpy
routine, :func:`canonical_prune`, is the original row-by-row domination
loop of the exact solver, kept as the reference for its vectorized form.
"""

from __future__ import annotations

from itertools import product

import numpy as np


def step_distribution(n, edges, q_edges, q_active, p, x_mask):
    """{next mask: prob} by enumerating every edge draw and crossing outcome.

    edges: iterable of (i, j, w). The edge is drawn from pairs with both
    endpoints outside q_edges; the crossing happens with probability p when
    exactly one endpoint is infected and neither endpoint is in q_active.
    """
    live = [(i, j, w) for i, j, w in edges if i not in q_edges and j not in q_edges]
    total = sum(w for _, _, w in live)
    if total <= 0:
        return {x_mask: 1.0}
    out = {}

    def add(mask, pr):
        out[mask] = out.get(mask, 0.0) + pr

    for i, j, w in live:
        edge_pr = w / total
        if edge_pr == 0.0:
            continue
        bi, bj = 1 << (i - 1), 1 << (j - 1)
        xi, xj = bool(x_mask & bi), bool(x_mask & bj)
        blocked = i in q_active or j in q_active
        if blocked or xi == xj:
            add(x_mask, edge_pr)
            continue
        target_bit = bj if xi else bi
        add(x_mask | target_bit, edge_pr * p)
        add(x_mask, edge_pr * (1.0 - p))
    return out


def joint_posterior(n, prior, per_step, p):
    """Posterior over the state after the last step by full path enumeration.

    prior: {mask: prob}; per_step: list of (edges, action, observation) in
    time order. Quarantine starts empty, grows on positive tests, and blocks
    the same step's crossing. Returns the normalized posterior, or None when
    the history has probability zero.
    """
    size = 1 << n
    paths = {(m,): pr for m, pr in prior.items() if pr > 0.0}
    q = frozenset()
    for edges, a, y in per_step:
        filtered = {}
        for path, pr in paths.items():
            m = path[-1]
            if a != 0 and ((m >> (a - 1)) & 1) != y:
                continue
            filtered[path] = pr
        if not filtered:
            return None
        q_after = q | {a} if (a != 0 and y == 1) else q
        extended = {}
        for path, pr in filtered.items():
            dist = step_distribution(n, edges, q, q_after, p, path[-1])
            for nxt, tp in dist.items():
                if tp > 0.0:
                    extended[path + (nxt,)] = extended.get(path + (nxt,), 0.0) + pr * tp
        paths = extended
        q = q_after
    post = {}
    for path, pr in paths.items():
        post[path[-1]] = post.get(path[-1], 0.0) + pr
    total = sum(post.values())
    if total <= 0.0:
        return None
    return {m: pr / total for m, pr in sorted(post.items())}


def greedy_scores_reference(n, belief_probs, edges, q, p):
    """Eq-style greedy scores by direct enumeration: P(u infected, free)
    times p times u's normalized share of the active contact weight."""
    live = [(i, j, w) for i, j, w in edges if i not in q and j not in q]
    total = sum(w for _, _, w in live)
    scores = {}
    for u in range(1, n + 1):
        if u in q:
            continue
        marg = sum(pr for m, pr in belief_probs.items() if (m >> (u - 1)) & 1)
        share = (
            sum(w for i, j, w in live if u in (i, j)) / total if total > 0 else 0.0
        )
        scores[u] = marg * p * share
    return scores


def greedy_action_reference(n, belief_probs, edges, q, p, lam):
    """Test the highest scorer when its score beats the test cost."""
    scores = greedy_scores_reference(n, belief_probs, edges, q, p)
    if not scores:
        return 0
    best = min(scores, key=lambda u: (-scores[u], u))
    return best if scores[best] > lam else 0


def expected_infections_reference(belief_probs):
    return sum(pr * bin(m).count("1") for m, pr in belief_probs.items())


def two_stage_greedy_reference(n, belief_probs, edges, q, p, lam, terminal):
    """Stage cost plus expected next-stage infections under the greedy test,
    all branches enumerated by hand. ``terminal`` skips the second stage."""
    stage = expected_infections_reference(belief_probs)
    if terminal:
        return stage
    u = greedy_action_reference(n, belief_probs, edges, q, p, lam)

    def predicted_infections(cond, q_after):
        total_pr = sum(cond.values())
        if total_pr <= 0.0:
            return None
        out = 0.0
        for m, pr in cond.items():
            dist = step_distribution(n, edges, q, q_after, p, m)
            for nxt, tp in dist.items():
                out += (pr / total_pr) * tp * bin(nxt).count("1")
        return out

    if u == 0:
        return stage + predicted_infections(dict(belief_probs), q)
    bit = 1 << (u - 1)
    pos = {m: pr for m, pr in belief_probs.items() if m & bit}
    neg = {m: pr for m, pr in belief_probs.items() if not m & bit}
    p1 = sum(pos.values())
    nxt = 0.0
    if p1 > 0.0:
        nxt += p1 * predicted_infections(pos, q | {u})
    if p1 < 1.0:
        nxt += (1.0 - p1) * predicted_infections(neg, q)
    return stage + nxt + lam


def all_histories(n, length):
    """Every (action, observation) sequence shape of the given length:
    actions 0..n, observation branches 0/1 for real tests, None otherwise."""
    step_options = [(0, None)] + [(a, y) for a in range(1, n + 1) for y in (0, 1)]
    return list(product(step_options, repeat=length))


def canonical_prune(stacked, actions):
    """Sort by (action, lexicographic values), dedupe, then drop every vector
    weakly dominated componentwise by an earlier survivor (one row at a time)."""
    keys = tuple(stacked[:, c] for c in range(stacked.shape[1] - 1, -1, -1)) + (actions,)
    order = np.lexsort(keys)
    stacked, actions = stacked[order], actions[order]

    kept_rows = []
    kept_actions = []
    kept_mat = None
    for row, act in zip(stacked, actions):
        if kept_mat is not None:
            if np.any(np.all(kept_mat <= row, axis=1)):
                continue
        kept_rows.append(row)
        kept_actions.append(int(act))
        kept_mat = np.vstack([kept_mat, row[None, :]]) if kept_mat is not None else row[None, :]
    return kept_rows, kept_actions

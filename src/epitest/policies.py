"""Test-selection policies and their evaluation machinery.

Everything adaptive here is a one-step minimizer against some stage-value
surrogate: the exact policy minimizes against the solved value function, the
policy-improvement rule against an open-loop plan's value, and the one-step
look-ahead rule against the two-stage greedy value. The shared core is
:func:`one_step_argmin`; policies differ only in the :class:`StageValue`
surrogate they plug in.

Policies are callables mapping a :class:`PolicyContext` to an action in
[0, N]; all bundled ones are deterministic except the random baseline, which
draws from the context's rng stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Sequence

import numpy as np

from .beliefs import (
    Belief,
    as_dense,
    expected_infections,
    filter_observation,
    marginal_infection,
    predict_belief,
)
from .errors import ContractViolation, ValidationError
from .exact import check_stage, solve
from .model import (
    ContactGraph,
    EMPTY_QUARANTINE,
    Quarantine,
    SystemState,
    branches,
    candidate_actions,
    dynamics,
    infection_counts,
    one_step_min,
    quarantine_mask,
    tied,
)
from .oracle import tree_value
from .scenario import ScenarioConfig


@dataclass
class PolicyContext:
    """Everything a policy may condition on at decision time: the scenario,
    the stage, the belief (None when the policy tracks none) and the
    quarantine set. ``rng`` is an exclusively owned stream for stochastic
    policies."""

    cfg: ScenarioConfig
    t: int
    belief: Optional[Belief]
    quarantine: Quarantine
    rng: Optional[np.random.Generator] = None

    @property
    def graph(self) -> ContactGraph:
        return self.cfg.graph_at(self.t)


# ---------------------------------------------------------------------------
# stage-value surrogates and the shared one-step minimizer
# ---------------------------------------------------------------------------


class StageValue(Protocol):
    """Interface: a per-stage value functional over (t, belief, quarantine).
    Anything with this method is a surrogate, a solved ValueFunction too."""

    def value(self, t: int, b: Belief, q: Quarantine) -> float:
        ...


def _outcomes(b: Belief, g: ContactGraph, q: Quarantine, u: int, p: float) -> list:
    """(probability, next belief, next quarantine) per observation branch of
    action u (see :func:`branches`) that some support state of b gives."""
    p1 = marginal_infection(b, u) if u else None
    out = []
    for y, q_next, step in branches(g, q, u, p):
        if y is None:
            prob, now = 1.0, b
        else:
            prob = p1 if y else 1.0 - p1
            if prob <= 0.0 or not any(((m >> (u - 1)) & 1) == y for m in b.probs):
                continue
            now = filter_observation(b, u, y)
        out.append((prob, predict_belief(now, step), q_next))
    return out


def one_step_argmin(surrogate: StageValue, ctx: PolicyContext):
    """Minimize test cost plus expected next-stage surrogate value.

    Returns (action, q_value) where q_value excludes the current stage cost
    (see :func:`model.one_step_min`, which owns the candidates and the
    lowest-index tie rule). Only valid before the terminal stage.
    """
    cfg, b, q, t = ctx.cfg, ctx.belief, ctx.quarantine, ctx.t
    if t >= cfg.horizon:
        raise ValidationError(f"one-step minimization undefined at the terminal stage: "
                              f"t = {t}, horizon {cfg.horizon}")
    g = ctx.graph
    return one_step_min(
        cfg.n, q, cfg.lam,
        lambda u: _outcomes(b, g, q, u, cfg.p),
        lambda nxt, q_next: surrogate.value(t + 1, nxt, q_next),
    )


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


class NeverTestPolicy:
    """Takes action 0 forever."""

    needs_belief = False

    def __call__(self, ctx: PolicyContext) -> int:
        return 0


class RandomTestPolicy:
    """Uniform draw over no-test plus the non-quarantined individuals, from
    the context's rng stream."""

    needs_belief = False

    def __call__(self, ctx: PolicyContext) -> int:
        candidates = candidate_actions(ctx.cfg.n, ctx.quarantine)
        return int(candidates[ctx.rng.integers(len(candidates))])


# ---------------------------------------------------------------------------
# open-loop plans and policy improvement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OpenLoopPlan:
    """A test order fixed before the episode starts, one action per step."""

    actions: tuple

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(int(u) for u in self.actions))

    def action_at(self, t: int) -> int:
        if not 1 <= t <= len(self.actions):
            raise ValidationError(f"stage {t} outside the plan's [1, {len(self.actions)}]")
        return self.actions[t - 1]

    def __len__(self):
        return len(self.actions)


def default_plan(cfg: ScenarioConfig) -> OpenLoopPlan:
    """Test 1, 2, ..., N in order, then stop testing."""
    acts = [t if t <= cfg.n else 0 for t in range(1, cfg.horizon + 1)]
    return OpenLoopPlan(tuple(acts))


def _check_plan(plan: OpenLoopPlan, cfg: ScenarioConfig) -> OpenLoopPlan:
    """A plan gives one action in [0, N] per step of the horizon."""
    if len(plan) != cfg.horizon:
        raise ValidationError(
            f"plan length {len(plan)} does not match horizon {cfg.horizon}"
        )
    for u in plan.actions:
        if not 0 <= u <= cfg.n:
            raise ValidationError(f"plan action {u} outside [0, {cfg.n}]")
    return plan


class OpenLoopPolicy:
    """Executes a fixed plan, ignoring everything it learns."""

    needs_belief = False

    def __init__(self, plan: OpenLoopPlan):
        self.plan = plan

    def __call__(self, ctx: PolicyContext) -> int:
        return self.plan.action_at(ctx.t)


class OpenLoopValue:
    """The plan's value function: one cost vector per (stage, quarantine).

    With no minimization the backward recursion keeps a single linear piece;
    branch vectors follow the same observation/quarantine branching as the
    exact backup, with the plan's action substituted for the argmin.

    Every reachable belief at quarantine q lives on q's face, the states
    that hold every member of q (a positive test is a permanent infection),
    so the (t, q) vector covers that face only: 2**(N - |q|) entries over the
    free bits, in increasing mask order (see :class:`model.Dynamics`). A
    positive test of u restricts the vector to the child's face, the rows of
    q's face that hold u.
    """

    def __init__(self, plan: OpenLoopPlan, cfg: ScenarioConfig):
        self.plan = _check_plan(plan, cfg)
        self.cfg = cfg
        self._alphas = {}

    def alpha(self, t: int, q: Quarantine = EMPTY_QUARANTINE) -> np.ndarray:
        """The plan's cost-to-go from stage t on q's face. At q = {} that is
        the whole 2**N vector, one entry per state mask."""
        q = frozenset(q)
        key = (t, q)
        if key in self._alphas:
            return self._alphas[key]
        cfg = self.cfg
        check_stage(t, q, cfg.horizon)
        free = [k for k in range(1, cfg.n + 1) if k not in q]
        vec = len(q) + infection_counts(len(free))
        if t < cfg.horizon:
            u = self.plan.action_at(t)
            if u:
                vec += cfg.lam
            for y, q_next, step in branches(cfg.graph_at(t), q, u, cfg.p):
                back = step.back(self.alpha(t + 1, q_next), on_face=True)
                if y == 0:
                    back = _rows_testing(back, free, u, 0)
                rows = vec if y is None else _rows_testing(vec, free, u, y)
                rows += back.reshape(rows.shape)
        self._alphas[key] = vec
        return vec

    def value(self, t, b, q=EMPTY_QUARANTINE):
        q = frozenset(q)
        vec = self.alpha(t, q)
        n, held = self.cfg.n, quarantine_mask(q)
        dense = as_dense(b, 1 << n)
        support = np.flatnonzero(dense)
        off = support[(support & held) != held]
        if off.size:
            x = SystemState(int(off[0]), n)
            missing = min(u for u in q if not x.infected(u))
            raise ContractViolation(
                f"belief puts mass {dense[off[0]]} on state {x}, where quarantined "
                f"individual {missing} is healthy"
            )
        full = np.zeros(1 << n)
        face = tuple(1 if n - d in q else slice(None) for d in range(n))
        full.reshape((2,) * n)[face] = vec.reshape((2,) * (n - len(q)))
        return float(full @ dense)


def _rows_testing(vec: np.ndarray, free: list, u: int, y: int) -> np.ndarray:
    """The rows of a face vector over the ``free`` individuals where testing
    u gives outcome y, as a view in increasing mask order. A quarantined u
    is infected on every row of the face."""
    if u not in free:
        return vec if y else vec[:0]
    return vec.reshape(-1, 2, 1 << free.index(u))[:, y]


# ---------------------------------------------------------------------------
# one-step minimizing policies (improvement, look-ahead, exact)
# ---------------------------------------------------------------------------


class OneStepPolicy:
    """Policy that minimizes test cost plus expected surrogate cost-to-go, over
    OpenLoopValue (improved), a ValueFunction (exact) or GreedyStageValue (lookahead).

    Returns 0 at the terminal stage, where no decision can matter.
    """

    needs_belief = True

    def __init__(self, surrogate: StageValue):
        self.surrogate = surrogate

    def __call__(self, ctx: PolicyContext) -> int:
        if ctx.t >= ctx.cfg.horizon:
            return 0
        action, _ = one_step_argmin(self.surrogate, ctx)
        return action


# ---------------------------------------------------------------------------
# greedy and its two-stage value
# ---------------------------------------------------------------------------


def _greedy_scores(ctx: PolicyContext):
    """Expected transmission pressure prevented by testing each individual:
    P(u infected, free) * p * (u's share of active contact weight)."""
    p, q = ctx.cfg.p, ctx.quarantine
    step = dynamics(ctx.graph, q, q, p)
    scores = {}
    for u in candidate_actions(ctx.cfg.n, q)[1:]:
        share = step.active.incident_weight(u) / step.total if step.total > 0.0 else 0.0
        scores[u] = marginal_infection(ctx.belief, u) * p * share
    return scores


class GreedyPolicy:
    """Exploitation-only rule: test the most dangerous individual.

    Tests the lowest individual whose prevented-pressure score is
    :func:`model.tied` with the top score, when that score exceeds the test
    cost by more than a tie, else does nothing.
    """

    needs_belief = True

    def __call__(self, ctx: PolicyContext) -> int:
        if ctx.t >= ctx.cfg.horizon:
            return 0
        scores = _greedy_scores(ctx)
        if not scores:
            return 0
        top = max(scores.values())
        u = next(u for u, score in scores.items() if tied(score, top))
        return u if scores[u] > ctx.cfg.lam and not tied(scores[u], ctx.cfg.lam) else 0


class GreedyStageValue:
    """The look-ahead surrogate: two-stage cost under the greedy action, that
    is expected infections now and next stage, plus the test cost if one is
    taken. At the terminal stage it is just the stage cost."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg

    def value(self, t, b, q):
        cfg = self.cfg
        check_stage(t, q, cfg.horizon)
        stage = expected_infections(b)
        if t >= cfg.horizon:
            return stage
        u = GreedyPolicy()(PolicyContext(cfg, t, b, q))
        nxt = sum(
            prob * expected_infections(nb)
            for prob, nb, _ in _outcomes(b, cfg.graph_at(t), q, u, cfg.p)
        )
        return stage + nxt + (cfg.lam if u else 0.0)


# ---------------------------------------------------------------------------
# exact policy evaluation and the look-ahead guarantee check
# ---------------------------------------------------------------------------


def policy_tree_value(cfg: ScenarioConfig, policy, b0, q: Quarantine = EMPTY_QUARANTINE,
                      t: int = 1) -> float:
    """Exact expected cost of a deterministic policy from stage t.

    Expands the reachable belief tree with the policy's action fixed at each
    node, up to the oracle's node cap. The policy must not consume randomness
    (all bundled policies except the random baseline qualify).
    """

    def action_fn(tt, bb, qq):
        return policy(PolicyContext(cfg, tt, Belief.from_dense(bb, cfg.n), qq))

    b0 = as_dense(b0, 1 << cfg.n)
    return tree_value(cfg, b0, q, t, action_fn=action_fn)


@dataclass
class AssumptionRecord:
    t: int
    probe: int
    surrogate_value: float
    bellman_rhs: float
    passed: bool


@dataclass
class ConclusionRecord:
    t: int
    probe: int
    lookahead_cost: float
    bound: float
    passed: bool


@dataclass
class LookaheadReport:
    """Outcome of checking the look-ahead sufficient condition and, where it
    holds, the induced performance bound."""

    assumption: list
    conclusion: list

    def assumption_passed(self, probe: Optional[int] = None) -> bool:
        rows = self.assumption if probe is None else [
            r for r in self.assumption if r.probe == probe
        ]
        return all(r.passed for r in rows)

    def conclusion_passed(self) -> bool:
        return all(r.passed for r in self.conclusion)


LOOKAHEAD_TOL = 1e-9  # slack of both checks in check_lookahead_assumption


def check_lookahead_assumption(surrogate: StageValue, cfg: ScenarioConfig,
                               probes: Sequence[Belief]) -> LookaheadReport:
    """Verify, probe by probe, that the surrogate dominates its own Bellman
    update; where it does at every stage, also verify that the look-ahead
    policy built from the surrogate meets the implied cost bound.

    The terminal-stage condition is domination of the terminal cost. Bounds
    are checked against exact policy evaluation of the surrogate's look-ahead
    policy, so this is a numerical certificate, not a Monte Carlo one.
    """
    T = cfg.horizon
    q0 = EMPTY_QUARANTINE
    assumption = []
    rhs_cache = {}
    for pi, b in enumerate(probes):
        stage_cost_term = expected_infections(b)
        for t in range(1, T + 1):
            lhs = surrogate.value(t, b, q0)
            if t == T:
                rhs = stage_cost_term
            else:
                _, qval = one_step_argmin(surrogate, PolicyContext(cfg, t, b, q0))
                rhs = stage_cost_term + qval
            rhs_cache[(t, pi)] = rhs
            assumption.append(AssumptionRecord(t, pi, lhs, rhs, lhs >= rhs - LOOKAHEAD_TOL))

    la_policy = OneStepPolicy(surrogate)
    conclusion = []
    for pi, b in enumerate(probes):
        if not all(r.passed for r in assumption if r.probe == pi):
            continue
        for t in range(1, T + 1):
            cost = policy_tree_value(cfg, la_policy, b, q0, t)
            bound = rhs_cache[(t, pi)]
            conclusion.append(ConclusionRecord(t, pi, cost, bound, cost <= bound + LOOKAHEAD_TOL))
    return LookaheadReport(assumption, conclusion)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

POLICY_NAMES = ("never", "random", "open_loop", "improved", "greedy", "lookahead", "exact")


def make_policy(name: str, cfg: ScenarioConfig, plan: Optional[OpenLoopPlan] = None):
    """Build a policy by its scenario-config name.

    ``open_loop`` and ``improved`` use the given plan (default: round-robin
    then stop); ``exact`` solves the scenario first, and raises SizeCapError
    beyond the exact caps.
    """
    if name == "never":
        return NeverTestPolicy()
    if name == "random":
        return RandomTestPolicy()
    if name == "greedy":
        return GreedyPolicy()
    if name == "lookahead":
        return OneStepPolicy(GreedyStageValue(cfg))
    if name == "open_loop":
        return OpenLoopPolicy(_check_plan(plan or default_plan(cfg), cfg))
    if name == "improved":
        return OneStepPolicy(OpenLoopValue(plan or default_plan(cfg), cfg))
    if name == "exact":
        return OneStepPolicy(solve(cfg))
    raise ValidationError(f"unknown policy {name!r}; expected one of {POLICY_NAMES}")

"""Test-selection policies and their evaluation machinery.

Everything adaptive here is a one-step minimizer against some stage-value
surrogate: the exact policy minimizes against the solved value function, the
policy-improvement rule against an open-loop plan's value, and the one-step
look-ahead rule against the two-stage greedy value. The shared core is
:func:`one_step_argmin`; policies differ only in the surrogate they plug in.

Policies are callables mapping a :class:`PolicyContext` to an action in
[0, N]; all bundled ones are deterministic except the random baseline, which
draws from the context's rng stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .beliefs import (
    Belief,
    expected_infections,
    filter_observation,
    marginal_infection,
    observation_probability,
    predict_belief,
)
from .errors import ValidationError
from .exact import ValueFunction, evaluate
from .model import (
    ContactGraph,
    ContactSchedule,
    EMPTY_QUARANTINE,
    Quarantine,
    branches,
    candidate_actions,
    dynamics,
    infection_counts,
    outcome_indicator,
)
from .oracle import tree_value
from .scenario import ScenarioConfig


@dataclass
class PolicyContext:
    """Everything a policy may condition on at decision time.

    ``revealed_edge`` is the current step's active contact when the simulator
    runs in edge-visible mode, else None; none of the bundled policies use
    it. ``rng`` is an exclusively owned stream for stochastic policies.
    """

    belief: Optional[Belief]
    t: int
    quarantine: Quarantine
    graph: ContactGraph
    schedule: ContactSchedule
    revealed_edge: Optional[tuple]
    p: float
    lam: float
    horizon: int
    n: int
    rng: Optional[np.random.Generator] = None


def _context_at(
    cfg: ScenarioConfig, t: int, belief: Belief, q: Quarantine, revealed_edge=None, rng=None
) -> PolicyContext:
    return PolicyContext(
        belief=belief,
        t=t,
        quarantine=q,
        graph=cfg.graph_at(t),
        schedule=cfg.schedule,
        revealed_edge=revealed_edge,
        p=cfg.p,
        lam=cfg.lam,
        horizon=cfg.horizon,
        n=cfg.n,
        rng=rng,
    )


# ---------------------------------------------------------------------------
# stage-value surrogates and the shared one-step minimizer
# ---------------------------------------------------------------------------


class StageValue:
    """Interface: a per-stage value functional over (t, belief, quarantine)."""

    def value(self, t: int, b: Belief, q: Quarantine) -> float:
        raise NotImplementedError


def _outcomes(b: Belief, g: ContactGraph, q: Quarantine, u: int, p: float) -> list:
    """(probability, next belief, next quarantine) per observation branch of
    action u (see :func:`branches`) that some support state of b gives."""
    out = []
    for y, q_next, _ in branches(g, q, u, p):
        if y is None:
            prob, now = 1.0, b
        else:
            prob = observation_probability(b, u, y)
            if prob <= 0.0 or not any(((m >> (u - 1)) & 1) == y for m in b.probs):
                continue
            now = filter_observation(b, u, y)
        out.append((prob, predict_belief(now, g, q_next, p, q_edges=q), q_next))
    return out


def one_step_argmin(surrogate: StageValue, ctx: PolicyContext):
    """Minimize test cost plus expected next-stage surrogate value.

    Returns (action, q_value) where q_value excludes the current stage cost.
    Candidates are no-test plus every non-quarantined individual, lowest
    index winning ties. Only valid before the terminal stage.
    """
    b, q, t = ctx.belief, ctx.quarantine, ctx.t
    if t >= ctx.horizon:
        raise ValidationError("one-step minimization undefined at the terminal stage")

    best_u, best_val = 0, None
    for u in candidate_actions(ctx.n, q):
        val = ctx.lam if u else 0.0
        for prob, nxt, q_next in _outcomes(b, ctx.graph, q, u, ctx.p):
            val += prob * surrogate.value(t + 1, nxt, q_next)
        if best_val is None or val < best_val:
            best_u, best_val = u, val
    return best_u, best_val


class ExactStageValue(StageValue):
    """Surrogate backed by a solved value function (this makes the one-step
    minimizer the exact optimal policy)."""

    def __init__(self, vf: ValueFunction):
        self.vf = vf

    def value(self, t, b, q):
        return evaluate(self.vf.alpha_set(t, q), b).value


class ZeroStageValue(StageValue):
    """The all-zero surrogate; useful as a deliberately failing example."""

    def value(self, t, b, q):
        return 0.0


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


class NeverTestPolicy:
    """Takes action 0 forever."""

    needs_belief = False

    def __call__(self, ctx: PolicyContext) -> int:
        return 0


def policy_never_test(ctx: PolicyContext) -> int:
    return 0


class RandomTestPolicy:
    """Uniform draw over no-test plus the non-quarantined individuals."""

    needs_belief = False

    def __call__(self, ctx: PolicyContext) -> int:
        return policy_random_test(ctx, ctx.rng)


def policy_random_test(ctx: PolicyContext, rng: np.random.Generator) -> int:
    candidates = candidate_actions(ctx.n, ctx.quarantine)
    return int(candidates[rng.integers(len(candidates))])


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
        return self.actions[t - 1]

    def __len__(self):
        return len(self.actions)


def default_plan(cfg: ScenarioConfig) -> OpenLoopPlan:
    """Test 1, 2, ..., N in order, then stop testing."""
    acts = [t if t <= cfg.n else 0 for t in range(1, cfg.horizon + 1)]
    return OpenLoopPlan(tuple(acts))


class OpenLoopPolicy:
    """Executes a fixed plan, ignoring everything it learns."""

    needs_belief = False

    def __init__(self, plan: OpenLoopPlan):
        self.plan = plan

    def __call__(self, ctx: PolicyContext) -> int:
        return self.plan.action_at(ctx.t)


class OpenLoopValue(StageValue):
    """The plan's value function: one cost vector per (stage, quarantine).

    With no minimization the backward recursion keeps a single linear piece;
    branch vectors follow the same observation/quarantine branching as the
    exact backup, with the plan's action substituted for the argmin.
    """

    def __init__(self, plan: OpenLoopPlan, cfg: ScenarioConfig):
        if len(plan) != cfg.horizon:
            raise ValidationError(
                f"plan length {len(plan)} does not match horizon {cfg.horizon}"
            )
        for u in plan.actions:
            if not 0 <= u <= cfg.n:
                raise ValidationError(f"plan action {u} outside [0, {cfg.n}]")
        self.plan = plan
        self.cfg = cfg
        self._alphas = {}

    def alpha(self, t: int, q: Quarantine = EMPTY_QUARANTINE) -> np.ndarray:
        q = frozenset(q)
        key = (t, q)
        if key in self._alphas:
            return self._alphas[key]
        cfg = self.cfg
        c = infection_counts(cfg.n)
        if t == cfg.horizon:
            vec = c.astype(np.float64)
        else:
            u = self.plan.action_at(t)
            vec = c + cfg.lam if u else c
            for y, q_next, step in branches(cfg.graph_at(t), q, u, cfg.p):
                back = step.back(self.alpha(t + 1, q_next))
                vec = vec + (back if y is None else outcome_indicator(cfg.n, u, y) * back)
        self._alphas[key] = vec
        return vec

    def value(self, t, b, q=EMPTY_QUARANTINE):
        return float(self.alpha(t, q) @ b.dense())


def open_loop_value(plan: OpenLoopPlan, cfg: ScenarioConfig) -> OpenLoopValue:
    """Per-stage value functional of the open-loop plan."""
    return OpenLoopValue(plan, cfg)


# ---------------------------------------------------------------------------
# one-step minimizing policies (improvement, look-ahead, exact)
# ---------------------------------------------------------------------------


class OneStepPolicy:
    """Policy that minimizes test cost plus expected surrogate cost-to-go.

    Returns 0 at the terminal stage, where no decision can matter.
    """

    needs_belief = True

    def __init__(self, surrogate: StageValue):
        self.surrogate = surrogate

    def __call__(self, ctx: PolicyContext) -> int:
        if ctx.t >= ctx.horizon:
            return 0
        action, _ = one_step_argmin(self.surrogate, ctx)
        return action


def policy_improved(plan: OpenLoopPlan, cfg: ScenarioConfig) -> OneStepPolicy:
    """One application of the improvement operator to the open-loop plan."""
    return OneStepPolicy(open_loop_value(plan, cfg))


def extract_policy(vf: ValueFunction) -> OneStepPolicy:
    """The optimal policy, read off a solved value function stage by stage."""
    return OneStepPolicy(ExactStageValue(vf))


# ---------------------------------------------------------------------------
# greedy and one-step look-ahead
# ---------------------------------------------------------------------------


def _greedy_scores(ctx: PolicyContext):
    """Expected transmission pressure prevented by testing each individual:
    P(u infected, free) * p * (u's share of active contact weight)."""
    step = dynamics(ctx.graph, ctx.quarantine, ctx.quarantine, ctx.p)
    scores = {}
    for u in candidate_actions(ctx.n, ctx.quarantine)[1:]:
        share = step.active.incident_weight(u) / step.total if step.total > 0.0 else 0.0
        scores[u] = marginal_infection(ctx.belief, u, ctx.quarantine) * ctx.p * share
    return scores


def policy_greedy(ctx: PolicyContext, literal: bool = False) -> int:
    """Exploitation-only rule: test the most dangerous individual.

    Default form tests argmax of the prevented-pressure score when that score
    exceeds the test cost, else does nothing. The ``literal`` form instead
    takes argmin of score + cost, which degenerates to never testing whenever
    the cost is positive; it is kept only for comparison.
    """
    if ctx.t >= ctx.horizon:
        return 0
    scores = _greedy_scores(ctx)
    if not scores:
        return 0
    if literal:
        best_u, best_val = 0, 0.0
        for u in sorted(scores):
            val = scores[u] + ctx.lam
            if val < best_val:
                best_u, best_val = u, val
        return best_u
    best_u = min(scores, key=lambda u: (-scores[u], u))
    return best_u if scores[best_u] > ctx.lam else 0


class GreedyPolicy:
    needs_belief = True

    def __init__(self, literal: bool = False):
        self.literal = literal

    def __call__(self, ctx: PolicyContext) -> int:
        return policy_greedy(ctx, literal=self.literal)


def greedy_value(ctx: PolicyContext, literal: bool = False) -> float:
    """Two-stage cost under the greedy action: current expected infections,
    plus expected next-stage infections and the test cost if one is taken.

    At the terminal stage this is just the stage cost, so the function can
    serve as a value surrogate for look-ahead."""
    b = ctx.belief
    stage = expected_infections(b)
    if ctx.t >= ctx.horizon:
        return stage
    u = policy_greedy(ctx, literal=literal)
    nxt = sum(
        prob * expected_infections(nb)
        for prob, nb, _ in _outcomes(b, ctx.graph, ctx.quarantine, u, ctx.p)
    )
    return stage + nxt + (ctx.lam if u else 0.0)


class GreedyStageValue(StageValue):
    """greedy_value as a per-stage functional (the look-ahead surrogate)."""

    def __init__(self, cfg: ScenarioConfig, literal: bool = False):
        self.cfg = cfg
        self.literal = literal

    def value(self, t, b, q):
        return greedy_value(_context_at(self.cfg, t, b, q), literal=self.literal)


def policy_one_step_lookahead(cfg: ScenarioConfig) -> OneStepPolicy:
    """Look-ahead against the greedy two-stage value, test cost included."""
    return OneStepPolicy(GreedyStageValue(cfg))


# ---------------------------------------------------------------------------
# exact policy evaluation and the look-ahead guarantee check
# ---------------------------------------------------------------------------


def policy_tree_value(
    cfg: ScenarioConfig,
    policy,
    b0,
    q: Quarantine = EMPTY_QUARANTINE,
    t: int = 1,
    node_cap: int = 2_000_000,
) -> float:
    """Exact expected cost of a deterministic policy from stage t.

    Expands the reachable belief tree with the policy's action fixed at each
    node. The policy must not consume randomness or look at revealed edges
    (all bundled policies except the random baseline qualify).
    """
    dense0 = b0.dense() if hasattr(b0, "dense") else np.asarray(b0, dtype=np.float64)

    def action_fn(tt, bb, qq):
        ctx = _context_at(cfg, tt, Belief.from_dense(bb, cfg.n), qq)
        return policy(ctx)

    return tree_value(cfg, dense0, q, t, action_fn=action_fn, node_cap=node_cap)


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


def check_lookahead_assumption(
    surrogate: StageValue,
    cfg: ScenarioConfig,
    probes: Sequence[Belief],
    tol: float = 1e-9,
) -> LookaheadReport:
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
                ctx = _context_at(cfg, t, b, q0)
                _, qval = one_step_argmin(surrogate, ctx)
                rhs = stage_cost_term + qval
            rhs_cache[(t, pi)] = rhs
            assumption.append(AssumptionRecord(t, pi, lhs, rhs, lhs >= rhs - tol))

    la_policy = OneStepPolicy(surrogate)
    conclusion = []
    for pi, b in enumerate(probes):
        if not all(r.passed for r in assumption if r.probe == pi):
            continue
        for t in range(1, T + 1):
            cost = policy_tree_value(cfg, la_policy, b, q0, t)
            bound = rhs_cache[(t, pi)]
            conclusion.append(ConclusionRecord(t, pi, cost, bound, cost <= bound + tol))
    return LookaheadReport(assumption, conclusion)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

POLICY_NAMES = ("never", "random", "open_loop", "improved", "greedy", "lookahead", "exact")


def make_policy(
    name: str,
    cfg: ScenarioConfig,
    plan: Optional[OpenLoopPlan] = None,
    value_function: Optional[ValueFunction] = None,
):
    """Build a policy by its scenario-config name.

    ``open_loop`` and ``improved`` use the given plan (default: round-robin
    then stop); ``exact`` solves the scenario first unless a value function
    is supplied, and raises SizeCapError beyond the exact caps.
    """
    if name == "never":
        return NeverTestPolicy()
    if name == "random":
        return RandomTestPolicy()
    if name == "greedy":
        return GreedyPolicy()
    if name == "lookahead":
        return policy_one_step_lookahead(cfg)
    if name == "open_loop":
        return OpenLoopPolicy(plan or default_plan(cfg))
    if name == "improved":
        return policy_improved(plan or default_plan(cfg), cfg)
    if name == "exact":
        if value_function is None:
            from .exact import solve

            value_function = solve(cfg)
        return extract_policy(value_function)
    raise ValidationError(f"unknown policy {name!r}; expected one of {POLICY_NAMES}")

"""Ground-truth episode dynamics with cost accounting and trace recording.

One step runs in a fixed order: the active contact is drawn from the current
non-quarantined subgraph, the policy picks a test, a positive result
quarantines the individual immediately, the stage cost is charged on the
current hidden state, and only then may the infection cross the active
contact, provided neither endpoint just went into quarantine. That rule is
:func:`model.branches`, and :func:`beliefs.belief_update` follows it too.

Randomness is split into four per-episode streams (initial state, active
edges, transmissions, policy) derived from one seed, so two policies
evaluated on the same seed share every piece of environment randomness their
actions do not disturb. Replaying a seed reproduces a trace bit for bit.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .beliefs import Belief, belief_update
from .errors import ValidationError
from .model import (
    EMPTY_QUARANTINE,
    Quarantine,
    SystemState,
    branches,
    sample_active_edge,
    transmit_with_uniform,
    validate_action,
)
from .policies import PolicyContext
from .scenario import ScenarioConfig


@dataclass(frozen=True)
class StepRecord:
    """Everything that happened during one step of an episode."""

    t: int
    active_edge: Optional[tuple]
    action: int
    observation: Optional[int]
    quarantine_after: Quarantine
    true_state: SystemState
    stage_cost: float

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "active_edge": list(self.active_edge) if self.active_edge else None,
            "action": self.action,
            "observation": self.observation,
            "quarantine_after": sorted(self.quarantine_after),
            "true_state": str(self.true_state),
            "stage_cost": self.stage_cost,
        }


@dataclass(frozen=True)
class EpisodeTrace:
    """A full episode: per-step records plus the cost totals.

    ``seed`` is a replay label: the seed entropy, plus the spawn key after a
    slash when the episode came from a derived per-run stream."""

    config_digest: str
    seed: str
    records: tuple
    total_cost: float
    tests_used: int

    @property
    def final_infections(self) -> int:
        return self.records[-1].true_state.count()

    def to_jsonl(self) -> str:
        lines = [
            json.dumps(
                {"config_digest": self.config_digest, "seed": self.seed,
                 "total_cost": self.total_cost, "tests_used": self.tests_used}
            )
        ]
        lines += [json.dumps(r.to_json_dict()) for r in self.records]
        return "\n".join(lines) + "\n"


def _draw_initial_state(belief: Belief, rng: np.random.Generator) -> SystemState:
    r = rng.random()
    acc = 0.0
    masks = list(belief.probs)
    for mask in masks:
        acc += belief.probs[mask]
        if r < acc:
            return SystemState(mask, belief.n)
    return SystemState(masks[-1], belief.n)


def run_episode(
    cfg: ScenarioConfig,
    policy,
    seed: Union[int, np.random.SeedSequence],
) -> EpisodeTrace:
    """Simulate one episode; deterministic given the seed.

    The policy is consulted at every step including the last (a test there
    still costs lambda but cannot help). Policies advertising
    ``needs_belief = False`` skip the Bayes filter entirely.
    """
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    init_rng, edge_rng, trans_rng, policy_rng = map(np.random.default_rng, seq.spawn(4))
    seed_label = str(seq.entropy)
    if seq.spawn_key:
        seed_label += "/" + ",".join(str(k) for k in seq.spawn_key)

    track_belief = getattr(policy, "needs_belief", True)
    x = _draw_initial_state(cfg.initial_belief, init_rng)
    belief = cfg.initial_belief if track_belief else None
    q: Quarantine = EMPTY_QUARANTINE

    records = []
    total = 0.0
    tests = 0
    T = cfg.horizon
    for t in range(1, T + 1):
        g = cfg.graph_at(t)
        q_before = q
        edge = sample_active_edge(g, q_before, edge_rng)
        u = validate_action(policy(PolicyContext(cfg, t, belief, q_before, policy_rng)), cfg.n)
        y = None if u == 0 else int(x.infected(u))
        if u != 0:
            tests += 1
        q = next(q_next for yy, q_next, _ in branches(g, q_before, u, cfg.p) if yy == y)
        stage_cost = float(x.count()) + (cfg.lam if u != 0 else 0.0)
        total += stage_cost
        records.append(StepRecord(t, edge, u, y, q, x, stage_cost))
        if t < T:
            # one transmission variate per step keeps paired runs aligned
            r = trans_rng.random()
            x = transmit_with_uniform(x, edge, cfg.p, q, r)
            if track_belief:
                belief, _ = belief_update(belief, g, q_before, u, y, cfg.p)
    return EpisodeTrace(cfg.digest(), seed_label, tuple(records), total, tests)


# ---------------------------------------------------------------------------
# Monte Carlo evaluation
# ---------------------------------------------------------------------------


@dataclass
class MonteCarloResult:
    """Sample statistics over seeded runs; costs are kept per run so paired
    comparisons across policies stay possible."""

    mean_cost: float
    std_error: Optional[float]  # None when a single run makes it undefined
    mean_tests: float
    mean_final_infections: float
    costs: np.ndarray
    tests: np.ndarray
    final_infections: np.ndarray


def run_seed(base_seed: int, index: int) -> np.random.SeedSequence:
    """The seed of run ``index`` under ``base_seed``: Monte Carlo run i and
    ``trace --run-index i`` replay the same episode."""
    return np.random.SeedSequence(entropy=base_seed, spawn_key=(index,))


def _episode_stats(args):
    cfg, policy, start, stop = args
    out = []
    for i in range(start, stop):
        trace = run_episode(cfg, policy, run_seed(cfg.seed, i))
        out.append((i, trace.total_cost, trace.tests_used, trace.final_infections))
    return out


def monte_carlo_eval(
    cfg: ScenarioConfig,
    policy,
    n_runs: int,
    workers: int = 1,
) -> MonteCarloResult:
    """Run seeded episodes and aggregate in fixed run order.

    Run i draws its streams from ``run_seed(cfg.seed, i)``, so two policies
    evaluated on the same scenario are paired (``cfg.with_seed`` re-seeds
    it). Aggregation order is run order regardless of worker count, keeping
    reported numbers bit-identical across parallelism levels.
    """
    if n_runs < 1:
        raise ValidationError(f"n_runs must be >= 1, got {n_runs}")
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")

    if workers <= 1 or n_runs < 4:
        rows = _episode_stats((cfg, policy, 0, n_runs))
    else:
        bounds = np.linspace(0, n_runs, workers + 1).astype(int)
        chunks = [
            (cfg, policy, int(a), int(b))
            for a, b in zip(bounds[:-1], bounds[1:])
            if a < b
        ]
        rows = []
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            for part in pool.map(_episode_stats, chunks):
                rows.extend(part)
    rows.sort(key=lambda r: r[0])

    costs = np.array([r[1] for r in rows])
    tests = np.array([r[2] for r in rows])
    finals = np.array([r[3] for r in rows])
    se = float(np.std(costs, ddof=1) / np.sqrt(n_runs)) if n_runs > 1 else None
    return MonteCarloResult(
        mean_cost=float(costs.mean()),
        std_error=se,
        mean_tests=float(tests.mean()),
        mean_final_infections=float(finals.mean()),
        costs=costs,
        tests=tests,
        final_infections=finals,
    )


def paired_difference(costs_a: np.ndarray, costs_b: np.ndarray):
    """Mean and standard error of per-run cost differences a - b.

    Zero spread (identical runs) reports a zero standard error."""
    if len(costs_a) != len(costs_b):
        raise ValidationError(f"paired comparison needs equal run counts, "
                              f"got {len(costs_a)} and {len(costs_b)}")
    diff = np.asarray(costs_a, dtype=float) - np.asarray(costs_b, dtype=float)
    se = float(np.std(diff, ddof=1) / np.sqrt(len(diff))) if len(diff) > 1 else 0.0
    return float(diff.mean()), se

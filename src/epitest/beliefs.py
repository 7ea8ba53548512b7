"""Exact posterior over the hidden infection state and its Bayes propagation.

A belief is a sparse probability distribution over the 2**N infection
patterns, keyed by state bitmask. Updates factor into two steps that the
toolkit also exposes separately: conditioning on a test outcome
(:func:`filter_observation`) and pushing the result through the one-step
transition structure (:func:`predict_belief`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    ContractViolation,
    DimensionError,
    InconsistentObservationError,
    ValidationError,
)
from .model import (
    ContactGraph,
    EMPTY_QUARANTINE,
    Quarantine,
    SystemState,
    _enumeration_cap,
    dynamics,
)

SUM_TOLERANCE = 1e-9
SUPPORT_PRUNE = 1e-12  # support entries below this are dropped, then renormalized


@dataclass(frozen=True)
class Belief:
    """Sparse distribution over hidden states; absent masks carry zero mass.

    ``probs`` maps state mask to probability, keys in increasing mask order,
    values in (0, 1] summing to 1. Treat instances as immutable.
    """

    n: int
    probs: dict

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"population size must be >= 1, got {self.n}")
        if not self.probs:
            raise ValidationError("belief needs a nonempty support")
        total = 0.0
        clean = {}
        for mask in sorted(self.probs):
            pr = float(self.probs[mask])
            if not 0 <= mask < (1 << self.n):
                raise ValidationError(f"support mask {mask} out of range for n={self.n}")
            if pr < 0.0:
                raise ValidationError(f"negative probability {pr} at mask {mask}")
            if pr == 0.0:
                continue
            clean[mask] = pr
            total += pr
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise ValidationError(f"belief mass sums to {total}, expected 1")
        # store exactly normalized, in mask order
        object.__setattr__(self, "probs", {m: pr / total for m, pr in clean.items()})

    # -- constructors -------------------------------------------------------

    @classmethod
    def point(cls, state: SystemState) -> "Belief":
        return cls(state.n, {state.mask: 1.0})

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "Belief":
        probs = {}
        for state, pr in pairs:
            mask = state.mask if isinstance(state, SystemState) else int(state)
            probs[mask] = probs.get(mask, 0.0) + float(pr)
        return cls(n, probs)

    @classmethod
    def from_dense(cls, vec: np.ndarray, n: int) -> "Belief":
        if len(vec) != (1 << n):
            raise DimensionError(f"dense belief length {len(vec)} != 2**{n}")
        return cls(n, {int(m): float(v) for m, v in enumerate(vec) if v > 0.0})

    @classmethod
    def uniform(cls, n: int) -> "Belief":
        _enumeration_cap(n)
        size = 1 << n
        return cls(n, {m: 1.0 / size for m in range(size)})

    # -- views ---------------------------------------------------------------

    def dense(self) -> np.ndarray:
        _enumeration_cap(self.n)
        vec = np.zeros(1 << self.n)
        for mask, pr in self.probs.items():
            vec[mask] = pr
        return vec

    def support(self):
        return tuple(SystemState(m, self.n) for m in self.probs)

    def prob(self, state) -> float:
        mask = state.mask if isinstance(state, SystemState) else int(state)
        return self.probs.get(mask, 0.0)


def _prune(n: int, raw: dict) -> Belief:
    kept = {m: pr for m, pr in raw.items() if pr >= SUPPORT_PRUNE}
    if not kept:
        kept = raw  # degenerate: keep everything rather than lose all mass
    total = sum(kept.values())
    return Belief(n, {m: pr / total for m, pr in sorted(kept.items())})


# ---------------------------------------------------------------------------
# observation model
# ---------------------------------------------------------------------------


def _check_observation(a: int, y: Optional[int]):
    if a == 0 and y is not None:
        raise ContractViolation("observation must be None when nobody is tested")
    if a != 0 and y is None:
        raise ContractViolation("a real test must come with a 0/1 outcome")


def observation_likelihood(x, a: int, y: Optional[int]) -> float:
    """P(test outcome | hidden state): tests are noiseless.

    Action 0 means no test and carries the vacuous observation None;
    testing individual a reveals its indicator exactly.
    """
    state = x if isinstance(x, SystemState) else SystemState.from_bits(x)
    _check_observation(a, y)
    if a == 0:
        return 1.0
    if not 1 <= a <= state.n:
        raise ValidationError(f"tested vertex {a} outside [1, {state.n}]")
    return 1.0 if int(state.infected(a)) == int(y) else 0.0


def filter_observation(b: Belief, a: int, y: Optional[int]) -> Belief:
    """Condition a belief on one test outcome (no time passes).

    Raises InconsistentObservationError when the outcome has zero
    probability under b.
    """
    _check_observation(a, y)
    if a == 0:
        return b
    want = int(y)
    kept = {
        m: pr
        for m, pr in b.probs.items()
        if ((m >> (a - 1)) & 1) == want
    }
    total = sum(kept.values())
    if total <= 0.0:
        raise InconsistentObservationError(
            f"observing X_{a}={want} has zero probability under the belief"
        )
    return Belief(b.n, {m: pr / total for m, pr in kept.items()})


def predict_belief(
    b: Belief,
    g: ContactGraph,
    q: Quarantine,
    p: float,
    q_edges: Optional[Quarantine] = None,
) -> Belief:
    """Push a belief through one step of the epidemic dynamics.

    ``q`` is the quarantine set in force for transmission. ``q_edges``, when
    given, is the (smaller) set that was in force when the active edge was
    drawn; it defaults to ``q``. The distinction only matters on the step an
    individual is quarantined: the contact had already been drawn from the
    wider graph, the new quarantine merely blocks the crossing.
    """
    if g.n_vertices != b.n:
        raise DimensionError(f"graph has {g.n_vertices} vertices, belief has {b.n}")
    step = dynamics(g, q if q_edges is None else q_edges, q, p)
    return _prune(b.n, step.predict(b.probs))


def belief_update(
    b: Belief,
    a: int,
    y: Optional[int],
    g: ContactGraph,
    q: Quarantine,
    p: float,
    q_edges: Optional[Quarantine] = None,
) -> Belief:
    """Full Bayes step: condition on the test outcome at time t, then predict
    through the time-t dynamics under quarantine q.

    The recursion is normalized explicitly and the support pruned of entries
    below 1e-12 (then renormalized).
    """
    return predict_belief(filter_observation(b, a, y), g, q, p, q_edges=q_edges)


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------


def marginal_infection(b: Belief, u: int, q: Quarantine = EMPTY_QUARANTINE) -> float:
    """P(individual u infected and not quarantined) under b."""
    if not 1 <= u <= b.n:
        raise ValidationError(f"vertex id {u} outside [1, {b.n}]")
    if u in q:
        return 0.0
    bit = 1 << (u - 1)
    return sum(pr for m, pr in b.probs.items() if m & bit)


def expected_infections(b: Belief) -> float:
    """Expected number of infected individuals under b."""
    return sum(pr * m.bit_count() for m, pr in b.probs.items())


def observation_probability(b: Belief, a: int, y: int) -> float:
    """P(outcome y | belief, testing a) for a real test a >= 1."""
    if not 1 <= a <= b.n:
        raise ValidationError(f"tested vertex {a} outside [1, {b.n}]")
    bit = 1 << (a - 1)
    p1 = sum(pr for m, pr in b.probs.items() if m & bit)
    return p1 if int(y) == 1 else 1.0 - p1

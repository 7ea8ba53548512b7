"""Exact posterior over the hidden infection state and its Bayes propagation.

A belief is a sparse probability distribution over the 2**N infection
patterns, keyed by state bitmask. Updates factor into two steps that the
toolkit also exposes separately: conditioning on a test outcome
(:func:`filter_observation`) and pushing the result through the step of
the observation branch taken (:func:`predict_belief`). :func:`belief_update`
does both, with the step and the next quarantine from :func:`model.branches`.
"""

from __future__ import annotations

import math
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
    Dynamics,
    Quarantine,
    SystemState,
    _enumeration_cap,
    branches,
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
            if not 0.0 <= pr < math.inf:
                raise ValidationError(
                    f"probability of state {SystemState(mask, self.n)} must be a finite "
                    f"number >= 0, got {pr}"
                )
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


def as_dense(b) -> np.ndarray:
    """A belief as a dense float vector over state masks: a :class:`Belief`
    is expanded, anything else is read as an array."""
    return b.dense() if isinstance(b, Belief) else np.asarray(b, dtype=np.float64)


def _prune(n: int, raw: dict) -> Belief:
    kept = {m: pr for m, pr in raw.items() if pr >= SUPPORT_PRUNE}
    if not kept:
        kept = raw  # degenerate: keep everything rather than lose all mass
    total = sum(kept.values())
    return Belief(n, {m: pr / total for m, pr in sorted(kept.items())})


# ---------------------------------------------------------------------------
# observation model
# ---------------------------------------------------------------------------


def _check_observation(a: int, y: Optional[int], n: int):
    if a == 0:
        if y is not None:
            raise ContractViolation("observation must be None when nobody is tested")
        return
    if y is None:
        raise ContractViolation("a real test must come with a 0/1 outcome")
    if not 1 <= a <= n:
        raise ValidationError(f"tested vertex {a} outside [1, {n}]")


def filter_observation(b: Belief, a: int, y: Optional[int]) -> Belief:
    """Condition a belief on one test outcome (no time passes).

    Raises ValidationError when a is not 0 or a vertex in [1, n], and
    InconsistentObservationError when the outcome has zero probability
    under b.
    """
    _check_observation(a, y, b.n)
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


def predict_belief(b: Belief, step: Dynamics) -> Belief:
    """Push a belief through one step of the epidemic dynamics.

    ``step`` is the :class:`Dynamics` of the observation branch taken, as
    :func:`model.branches` returns it; it already knows which quarantine
    was in force when the contact was drawn and which blocks the crossing.
    """
    if step.n != b.n:
        raise DimensionError(f"step has {step.n} vertices, belief has {b.n}")
    return _prune(b.n, step.predict(b.probs))


def belief_update(
    b: Belief, g: ContactGraph, q: Quarantine, a: int, y: Optional[int], p: float
) -> tuple:
    """Full Bayes step from quarantine q: condition on outcome y of test a
    at time t, then predict through the step of the :func:`model.branches`
    entry with that outcome. Returns (posterior, next quarantine).

    The recursion is normalized explicitly and the support pruned of entries
    below 1e-12 (then renormalized).
    """
    now = filter_observation(b, a, y)
    _, q_next, step = next(br for br in branches(g, q, a, p) if br[0] == y)
    return predict_belief(now, step), q_next


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------


def marginal_infection(b: Belief, u: int) -> float:
    """P(individual u infected) under b: also the probability that testing
    u comes back positive."""
    if not 1 <= u <= b.n:
        raise ValidationError(f"vertex id {u} outside [1, {b.n}]")
    bit = 1 << (u - 1)
    return sum(pr for m, pr in b.probs.items() if m & bit)


def expected_infections(b: Belief) -> float:
    """Expected number of infected individuals under b."""
    return sum(pr * m.bit_count() for m, pr in b.probs.items())


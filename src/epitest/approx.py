"""Tractable value bounds: sample-point pruning above, interpolation below.

The upper bound runs the exact backup but keeps, per stage, only the vectors
that win at R chosen belief points; shrinking a min-set can only raise the
pointwise minimum, and the Bellman operator preserves that ordering, so the
result dominates the true value function everywhere. The lower bound runs
the backward recursion on grid values only, evaluating next-stage values by
convex-combination interpolation; concavity puts any such interpolant below
the true function. Together they sandwich the exact value function, and the
per-probe gap is the accuracy certificate of the pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

from .beliefs import SUM_TOLERANCE, Belief, as_dense
from .errors import CoverageError, SizeCapError, ValidationError
from .exact import (
    AlphaSet,
    ValueFunction,
    _backward_induction,
    _terminal_set,
    exact_backup,
)
from .model import (
    EMPTY_QUARANTINE,
    Quarantine,
    branches,
    candidate_actions,
    infection_counts,
    one_step_min,
    outcome_indicator,
)
from .scenario import ScenarioConfig

DEFAULT_MAX_N = 12
GAP_TIGHT = 1e-9


# ---------------------------------------------------------------------------
# belief grids
# ---------------------------------------------------------------------------


@dataclass
class BeliefGrid:
    """An ordered list of belief points on the 2**n simplex.

    ``descriptor`` records how the points were generated, for provenance in
    reports. Corner points (all point-mass beliefs) guarantee every belief is
    inside the convex hull, which the lower bound needs for coverage.
    """

    n: int
    points: list  # dense arrays of length 2**n
    descriptor: str

    def __post_init__(self):
        if not self.points:
            raise ValidationError("belief grid needs at least one point")
        size = 1 << self.n
        for k, pt in enumerate(self.points):
            if len(pt) != size:
                raise ValidationError("grid point dimension mismatch")
            if not np.all(np.isfinite(pt) & (np.asarray(pt) >= 0.0)):
                raise ValidationError(f"grid point {k} has a negative or non-finite entry")

    def matrix(self) -> np.ndarray:
        return np.stack(self.points)

    def __len__(self):
        return len(self.points)

    @classmethod
    def corners(cls, n: int) -> "BeliefGrid":
        return cls(n, list(np.eye(1 << n)), "corner")

    @classmethod
    def uniform_random(cls, n: int, r: int, seed: int) -> "BeliefGrid":
        rng = np.random.default_rng(seed)
        pts = [rng.dirichlet(np.ones(1 << n)) for _ in range(r)]
        return cls(n, pts, f"uniform-random({r},seed={seed})")

    @classmethod
    def regular(cls, n: int, m: int, max_points: int = 20000) -> "BeliefGrid":
        """All beliefs with probabilities in multiples of 1/m."""
        size = 1 << n
        from math import comb

        count = comb(m + size - 1, size - 1)
        if count > max_points:
            raise SizeCapError(
                f"regular grid would hold {count} points (cap {max_points})"
            )
        pts = []
        for cuts in combinations(range(m + size - 1), size - 1):
            parts = np.diff((-1,) + cuts + (m + size - 1,)) - 1
            pts.append(parts / m)
        return cls(n, pts, f"regular-grid(m={m})")

    @classmethod
    def corners_plus_random(cls, n: int, r: int, seed: int) -> "BeliefGrid":
        return nested_grid_ladder(n, [r], seed)[0]


def nested_grid_ladder(n: int, sizes: Sequence[int], seed: int):
    """Grids sharing one random draw: each holds all corners plus the first
    R interior points, so larger grids are supersets of smaller ones."""
    sizes = list(sizes)
    master = BeliefGrid.uniform_random(n, max(sizes), seed) if max(sizes) > 0 else None
    corners = BeliefGrid.corners(n)
    out = []
    for r in sizes:
        pts = corners.points + (master.points[:r] if master else [])
        out.append(BeliefGrid(n, pts, f"corner+uniform-random({r},seed={seed})"))
    return out


# ---------------------------------------------------------------------------
# upper bound: backup + sample-point pruning
# ---------------------------------------------------------------------------


def prune_at_points(aset: AlphaSet, grid: BeliefGrid) -> AlphaSet:
    """Keep exactly the vectors that achieve the minimum at some grid point.

    Ties at a point go to the lowest vector index; kept vectors stay in their
    original order. The pruned set agrees with the full set at every grid
    point by construction.
    """
    dots = aset.values @ grid.matrix().T  # |set| x R
    winners = np.unique(np.argmin(dots, axis=0))
    return AlphaSet(aset.values[winners], aset.actions[winners], aset.t, aset.quarantine)


def _check_grid(cfg: ScenarioConfig, grid: BeliefGrid):
    if cfg.n > DEFAULT_MAX_N:
        raise SizeCapError(f"approximate solver capped at N <= {DEFAULT_MAX_N}, got {cfg.n}")
    if grid.n != cfg.n:
        raise ValidationError("grid dimension does not match the scenario")


def approx_solve_upper(cfg: ScenarioConfig, grid: BeliefGrid) -> ValueFunction:
    """Backward recursion with sample-point pruning after every backup; the
    result dominates the true value function everywhere."""
    _check_grid(cfg, grid)
    table = _backward_induction(
        cfg,
        lambda q: _terminal_set(cfg, q),
        lambda nxt, g, q: prune_at_points(exact_backup(nxt, g, q, cfg.p, cfg.lam), grid),
    )
    return ValueFunction(cfg.n, cfg.horizon, table)


# ---------------------------------------------------------------------------
# lower bound: grid-value recursion with convex interpolation
# ---------------------------------------------------------------------------


class _HullInterpolator:
    """Best certified value of a belief as a convex combination of grid points.

    Solves max sum(mu * v) over mu >= 0 with grid^T mu = b, sum mu = 1; any
    feasible mu certifies a lower bound (concavity), and the maximum is the
    tightest certificate the grid can give. Infeasibility means the belief
    lies outside the grid's hull.

    Support rule: grid points are nonnegative, so mu_j > 0 only when
    supp(g_j) is inside supp(b). When the only such points are corners, one
    per state of supp(b), mu is forced to equal b and the optimum is exactly
    sum_s b_s v_corner(s), with no LP. Interior points of a random grid have
    full support, so every belief with a zero coordinate (test-outcome
    branches, children of corners) is settled this way; anything else, and
    any belief that is not a distribution, goes to the LP.
    """

    def __init__(self, grid: BeliefGrid):
        self.grid = grid
        pts = grid.matrix()
        self._a_eq = np.vstack([pts.T, np.ones(len(grid))])
        self._cache = {}
        is_corner = (pts.max(axis=1) == 1.0) & (np.count_nonzero(pts, axis=1) == 1)
        states = pts[is_corner].argmax(axis=1)
        self._corner = np.full(pts.shape[1], -1)  # state -> corner column
        self._corner[states] = np.flatnonzero(is_corner)
        self._corner[np.bincount(states, minlength=pts.shape[1]) > 1] = -1  # duplicates
        self._others = pts[~is_corner] > 0.0  # supports of the non-corner points

    def _settle(self, b: np.ndarray, values: np.ndarray):
        """The LP optimum in closed form, or None when the support leaves a choice."""
        if (b.shape != self._corner.shape or not b.min() >= 0.0
                or abs(b.sum() - 1.0) > SUM_TOLERANCE):
            return None
        inside = b > 0.0
        cols = self._corner[inside]
        if (cols < 0).any() or not self._others[:, ~inside].any(axis=1).all():
            return None
        return float(b[inside] @ values[cols])

    def value(self, b: np.ndarray, values: np.ndarray) -> float:
        b, values = np.asarray(b, dtype=float), np.asarray(values, dtype=float)
        key = (values.tobytes(), np.round(b, 12).tobytes())
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        out = self._settle(b, values)
        if out is None:
            res = linprog(-values, A_eq=self._a_eq, b_eq=np.concatenate([b, [1.0]]),
                          bounds=(0.0, None), method="highs")
            if res.status != 0:
                raise CoverageError(b, f"belief with support {np.count_nonzero(b)} of {b.size} "
                                    f"states is outside the hull of grid "
                                    f"{self.grid.descriptor!r} ({len(self.grid)} points)")
            out = float(-res.fun)
        self._cache[key] = out
        return out


@dataclass
class LowerBound:
    """Grid-value tables per (stage, quarantine); lies below the true value
    wherever the interpolation certificate exists."""

    n: int
    horizon: int
    grid: BeliefGrid
    tables: dict  # (t, frozenset) -> np.ndarray of per-point values
    _interp: _HullInterpolator = field(repr=False)

    def grid_values(self, t: int, q: Quarantine = EMPTY_QUARANTINE) -> np.ndarray:
        return self.tables[(t, frozenset(q))]

    def value(self, t: int, b, q: Quarantine = EMPTY_QUARANTINE) -> float:
        return self._interp.value(as_dense(b), self.grid_values(t, q))


def _branch_children(bf: np.ndarray, u: int, branch_set: list, n: int):
    """(probability, next dense belief, next quarantine) per branch in
    ``branch_set`` (the :func:`branches` of action u) that some state in the
    support of dense belief bf gives."""
    out = []
    for y, q_next, step in branch_set:
        if y is None:
            out.append((1.0, step.push(bf), q_next))
            continue
        p1 = float(bf @ outcome_indicator(n, u, 1))
        prob = p1 if y else 1.0 - p1
        part = bf * outcome_indicator(n, u, y)
        if prob > 0.0 and part.any():
            out.append((prob, step.push(part / prob), q_next))
    return out


def approx_solve_lower(cfg: ScenarioConfig, grid: BeliefGrid) -> LowerBound:
    """Backward recursion restricted to grid points.

    Raises CoverageError (naming the grid and the belief's support size) if
    some branch belief leaves the grid's convex hull; including all corners in
    the grid rules that out.
    """
    _check_grid(cfg, grid)
    c = infection_counts(cfg.n)
    interp = _HullInterpolator(grid)
    pts = grid.matrix()

    def backup(nxt, g, q):  # stage-(t+1) grid values nxt, interpolated at each child
        branch_sets = {u: branches(g, q, u, cfg.p) for u in candidate_actions(cfg.n, q)}
        vals = np.empty(len(grid))
        for r, bf in enumerate(grid.points):
            _, best = one_step_min(
                cfg.n, q, cfg.lam,
                lambda u: _branch_children(bf, u, branch_sets[u], cfg.n),
                lambda child, q_next: interp.value(child, nxt[q_next]),
            )
            vals[r] = float(bf @ c) + best
        return vals

    tables = _backward_induction(cfg, lambda q: pts @ c, backup)
    return LowerBound(cfg.n, cfg.horizon, grid, tables, interp)


# ---------------------------------------------------------------------------
# the sandwich
# ---------------------------------------------------------------------------


@dataclass
class GapRow:
    t: int
    probe: int
    lower: float
    upper: float

    @property
    def gap(self) -> float:
        return self.upper - self.lower

    @property
    def tight(self) -> bool:
        return self.gap < GAP_TIGHT


@dataclass
class SandwichResult:
    """Both bounds plus the per-(stage, probe) gap report."""

    upper: ValueFunction
    lower: LowerBound
    rows: list
    violations: list  # rows where lower exceeded upper beyond tolerance


def sandwich(
    cfg: ScenarioConfig,
    grid: BeliefGrid,
    probes: Sequence[Belief],
    tol: float = 1e-9,
) -> SandwichResult:
    """Compute both bounds and evaluate them at every probe and stage.

    Rows where the lower bound exceeds the upper beyond tolerance land in
    ``violations``; by construction that list should stay empty, and a
    non-empty one signals an internal inconsistency to the caller.
    """
    ub = approx_solve_upper(cfg, grid)
    lb = approx_solve_lower(cfg, grid)
    rows = []
    violations = []
    for t in range(1, cfg.horizon + 1):
        for pi, b in enumerate(probes):
            row = GapRow(t, pi, lb.value(t, b), ub.value(t, b))
            rows.append(row)
            if row.lower > row.upper + tol:
                violations.append(row)
    return SandwichResult(ub, lb, rows, violations)

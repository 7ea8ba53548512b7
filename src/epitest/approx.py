"""Tractable value bounds: sample-point pruning above, interpolation below.

The upper bound runs the exact backup but keeps, per stage, only the vectors
that win at R chosen belief points; shrinking a min-set can only raise the
pointwise minimum, and the Bellman operator preserves that ordering, so the
result dominates the true value function everywhere. The lower bound runs
the backward recursion on grid values only, evaluating next-stage values by
convex-combination interpolation (Lovejoy, Operations Research 1991), which
concavity puts below the true function. With the grid's corners implicit, a
belief b is worth b.v_c, the plane through the corner values, plus at most
one LP over the interior points above that plane; a backup whose next-stage
tables lie on or below their corner planes is an exact alpha backup
(Hauskrecht, JAIR 2000). Together the bounds sandwich the exact value
function, and the per-probe gap is the accuracy certificate of the pair.
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
REGULAR_GRID_MAX_POINTS = 20000
BRACKET_TOL = 1e-9  # a tighter gap is tight; bounds may cross or miss the oracle by this


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
                raise ValidationError(f"grid point {k} has {len(pt)} entries, "
                                      f"expected 2**{self.n} = {size}")
            bad = np.flatnonzero(~(np.isfinite(pt) & (np.asarray(pt) >= 0.0)))
            if len(bad):
                raise ValidationError(f"grid point {k} has a negative or non-finite entry: "
                                      f"state {bad[0]} holds {pt[bad[0]]}")
            if abs(np.sum(pt) - 1.0) > SUM_TOLERANCE:
                raise ValidationError(f"grid point {k} has mass {np.sum(pt)}, expected 1")

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
    def regular(cls, n: int, m: int) -> "BeliefGrid":
        """All beliefs with probabilities in multiples of 1/m."""
        size = 1 << n
        from math import comb

        count = comb(m + size - 1, size - 1)
        if count > REGULAR_GRID_MAX_POINTS:
            raise SizeCapError(f"regular grid would hold {count} points "
                               f"(cap {REGULAR_GRID_MAX_POINTS})")
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
        raise ValidationError(f"grid dimension N = {grid.n} does not match "
                              f"the scenario's N = {cfg.n}")


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

    The first point mass on each state is its corner; every other point, a
    second copy of a corner included, is interior. A corner's weight is b_s
    minus the interior weights' mass on s, so with corner values v_c (0 where
    a state has none) and gain_j = v_j - g_j.v_c the value is b.v_c + max
    gain.mu over mu >= 0, G^T mu <= b on states with a corner and = b on the
    rest. Only points inside supp(b) can take weight, and where all of supp(b)
    has corners, only points with gain_j > 0; with none left there is no LP.
    The LP's mu is clipped to >= 0 and scaled until each corner weight is
    >= 0, so the value is certified to rounding, not to HiGHS's 1e-7; with
    equality rows (no CLI verb builds such a grid) the LP's value stands.
    """

    def __init__(self, grid: BeliefGrid):
        self.grid = grid
        corner = {}  # state -> grid row of its first point mass
        for r, pt in enumerate(map(np.asarray, grid.points)):
            s = int(pt.argmax())
            if pt[s] == 1.0 and np.count_nonzero(pt) == 1:
                corner.setdefault(s, r)
        self.corner_states = np.array(list(corner), dtype=int)
        self.corner_rows = np.array(list(corner.values()), dtype=int)
        self.interior_rows = np.setdiff1d(np.arange(len(grid)), self.corner_rows)
        self.interior = np.reshape([grid.points[r] for r in self.interior_rows], (-1, 1 << grid.n))
        self.cornered = np.isin(np.arange(1 << grid.n), self.corner_states)
        # A corner's child has at most n + 1 support states, so no interior point with
        # more fits it: then, with a corner on every state, corner rows are one backup.
        self.corner_backup = bool(self.cornered.all() and (
            np.count_nonzero(self.interior, axis=1) > grid.n + 1).all())

    def split(self, values: np.ndarray):
        """(corner values v_c by state, the interior points' gains)."""
        v_c = np.zeros(self.cornered.size)
        v_c[self.corner_states] = values[self.corner_rows]
        return v_c, values[self.interior_rows] - self.interior @ v_c

    def plane(self, c: np.ndarray) -> np.ndarray:
        """Grid values of the pointwise minimum of the planes in the rows of
        ``c`` (one plane when ``c`` is 1-D); a corner reads c at its state."""
        c = np.atleast_2d(c)
        vals = np.empty(len(self.grid))
        vals[self.corner_rows] = c.min(axis=0)[self.corner_states]
        vals[self.interior_rows] = (self.interior @ c.T).min(axis=1)
        return vals

    def flat(self, values: np.ndarray) -> bool:
        """``corner_backup`` holds and no grid value lies above the plane
        through the corner values (no gain > 0, an exact comparison)."""
        return self.corner_backup and not (self.split(values)[1] > 0.0).any()

    def value(self, b: np.ndarray, values: np.ndarray) -> float:
        b, values = np.asarray(b, dtype=float), np.asarray(values, dtype=float)
        if b.shape == self.cornered.shape and b.min() >= 0.0 and abs(b.sum() - 1) <= SUM_TOLERANCE:
            inside, (v_c, gain) = b > 0.0, self.split(values)
            eq = ~self.cornered[inside]  # the rows of states with no corner
            keep = ~self.interior[:, ~inside].any(axis=1) & (eq.any() | (gain > 0.0))
            g, b_in = self.interior[keep][:, inside].T, b[inside]
            base = float(b_in @ v_c[inside])
            if not keep.any() and not eq.any():
                return base
            if keep.any():
                res = linprog(-gain[keep], A_ub=g[~eq], b_ub=b_in[~eq], A_eq=g[eq], b_eq=b_in[eq],
                              bounds=(0.0, None), method="highs")
                if res.status == 0 and eq.any():
                    return base - float(res.fun)
                if res.status == 0:  # a feasible mu: clipped, then scaled by
                    mu = np.maximum(res.x, 0.0)  # alpha = min(1, min_s b_s / (G^T mu)_s)
                    alpha = (b_in / np.maximum(g @ mu, b_in)).min()
                    return base + float(alpha * (gain[keep] @ mu))
        raise CoverageError(b, f"belief with support {np.count_nonzero(b)} of {b.size} states "
                               f"is outside the hull of grid {self.grid.descriptor!r} "
                               f"({len(self.grid)} points)")


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
        return self._interp.value(as_dense(b, 1 << self.n), self.grid_values(t, q))


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
    """Backward recursion restricted to grid points. When the interpolator's
    ``corner_backup`` holds, every corner child settles as b.v_c, so the
    corner rows of each (t, q) table are ``a.min(axis=0)`` over the vectors a
    of one :func:`exact_backup` of the stage-(t+1) corner values, and only
    the interior rows are interpolated; otherwise every row is. When every
    next table the backup reaches is also flat, weak duality makes each
    interpolant its corner plane, so the interior rows are
    ``(interior @ a.T).min(axis=1)`` and no LP is solved. Terminal tables
    come from the same :meth:`_HullInterpolator.plane`, so they are flat bit
    for bit. Raises CoverageError (naming the grid and the belief's support
    size) if some branch belief leaves the grid's hull; including all
    corners in the grid rules that out.
    """
    _check_grid(cfg, grid)
    c = infection_counts(cfg.n)
    interp = _HullInterpolator(grid)

    def backup(nxt, g, q):  # stage-(t+1) grid values nxt, interpolated at each child
        branch_sets = {u: branches(g, q, u, cfg.p) for u in candidate_actions(cfg.n, q)}
        vals, rows = np.empty(len(grid)), range(len(grid))
        if interp.corner_backup:  # the sets' stage label, t=0, is never read
            sets = {q_next: AlphaSet(interp.split(nxt[q_next])[0][None], [0], 0, q_next)
                    for bs in branch_sets.values() for _, q_next, _ in bs}
            vals = interp.plane(exact_backup(sets, g, q, cfg.p, cfg.lam).values)
            if all(interp.flat(nxt[q_next]) for q_next in sets):
                return vals  # every child's interpolant is its corner plane
            rows = interp.interior_rows
        for r in rows:
            bf = grid.points[r]
            _, best = one_step_min(
                cfg.n, q, cfg.lam,
                lambda u: _branch_children(bf, u, branch_sets[u], cfg.n),
                lambda child, q_next: interp.value(child, nxt[q_next]),
            )
            vals[r] = float(bf @ c) + best
        return vals

    tables = _backward_induction(cfg, lambda q: interp.plane(c), backup)
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
        return self.gap < BRACKET_TOL


@dataclass
class SandwichResult:
    """Both bounds plus the per-(stage, probe) gap report."""

    upper: ValueFunction
    lower: LowerBound
    rows: list
    violations: list  # rows where lower exceeded upper beyond tolerance


def sandwich(cfg: ScenarioConfig, grid: BeliefGrid, probes: Sequence[Belief]) -> SandwichResult:
    """Compute both bounds and evaluate them at every probe and stage.

    Rows where the lower bound exceeds the upper beyond BRACKET_TOL land in
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
            if row.lower > row.upper + BRACKET_TOL:
                violations.append(row)
    return SandwichResult(ub, lb, rows, violations)

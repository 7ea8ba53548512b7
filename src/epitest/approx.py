"""Tractable value bounds: point backups above, interpolation below.

The upper bound builds only the vectors of the exact backup that win at R
chosen belief points: an action's cost plus, per branch, the next row least
at the point (Pineau, Gordon & Thrun, IJCAI 2003). A smaller min-set lies
higher, and the Bellman operator keeps that order, so the result dominates
the true value function everywhere. ``BeliefGrid`` owns the corner rule, and
nothing 2^N x 2^N is built beyond its corners. The lower bound runs the
backward recursion on grid values only, evaluating next-stage values by
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
from typing import Mapping, Sequence

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
    pulled_back,
)
from .model import (
    ContactGraph,
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
    inside the convex hull, which the lower bound needs for coverage. A state's
    first point mass is its corner (``corner_states``, at ``corner_rows``);
    the rest, a second copy of a corner included, are ``interior``.
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
        corner = {}  # state -> grid row of its first point mass
        for r, pt in enumerate(map(np.asarray, self.points)):
            s = int(pt.argmax())
            if pt[s] == 1.0 and np.count_nonzero(pt) == 1:
                corner.setdefault(s, r)
        self.corner_states = np.array(list(corner), dtype=int)
        self.corner_rows = np.array(list(corner.values()), dtype=int)
        self.interior_rows = np.setdiff1d(np.arange(len(self)), self.corner_rows)
        self.interior = np.reshape([self.points[r] for r in self.interior_rows], (-1, size))

    def dots(self, vectors: np.ndarray) -> np.ndarray:
        """Each row of ``vectors`` at each point, shaped (len(vectors), len(grid))."""
        out = np.empty((len(vectors), len(self)))
        out[:, self.corner_rows] = vectors[:, self.corner_states]
        out[:, self.interior_rows] = (self.interior @ vectors.T).T
        return out

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
    corners = list(np.eye(1 << n))
    out = []
    for r in sizes:
        pts = corners + (master.points[:r] if master else [])
        out.append(BeliefGrid(n, pts, f"corner+uniform-random({r},seed={seed})"))
    return out


# ---------------------------------------------------------------------------
# upper bound: point backups
# ---------------------------------------------------------------------------


def point_backup(next_sets: Mapping[Quarantine, AlphaSet], g: ContactGraph, q: Quarantine,
                 p: float, lam: float, grid: BeliefGrid) -> AlphaSet:
    """The vectors of :func:`exact_backup` least at some grid point, with no cross-sum:
    at a point, action u's least sum is (c + λ) plus each branch's least row there.
    Rows sort lexicographically, sums by (action, rows), so a point keeps its first
    tied minimizer, which the full backup never prunes; sums add in its order."""
    c = infection_counts(g.n_vertices)
    sums, tags = [], []
    for u, backs in pulled_back(next_sets, g, q, p):
        backs = [back[np.lexsort(back.T[::-1])] for back in backs]
        shape = [len(back) for back in backs]  # distinct tuples of per-branch least rows
        picks = np.ravel_multi_index([grid.dots(back).argmin(axis=0) for back in backs], shape)
        rows = c + lam if u else c
        for back, pick in zip(backs, np.unravel_index(np.unique(picks), shape)):
            rows = rows + back[pick]
        sums.append(rows)
        tags.append(np.full(len(rows), u))
    values, actions = np.concatenate(sums), np.concatenate(tags)
    order = np.lexsort((*values.T[::-1], actions))
    keep = order[np.unique(grid.dots(values[order]).argmin(axis=0))]
    return AlphaSet(values[keep], actions[keep], t=next_sets[q].t - 1, quarantine=q)


def _check_grid(cfg: ScenarioConfig, grid: BeliefGrid):
    if cfg.n > DEFAULT_MAX_N:
        raise SizeCapError(f"approximate solver capped at N <= {DEFAULT_MAX_N}, got {cfg.n}")
    if grid.n != cfg.n:
        raise ValidationError(f"grid dimension N = {grid.n} does not match "
                              f"the scenario's N = {cfg.n}")


def approx_solve_upper(cfg: ScenarioConfig, grid: BeliefGrid) -> ValueFunction:
    """Backward recursion by :func:`point_backup`; the result dominates the
    true value function everywhere."""
    _check_grid(cfg, grid)
    table = _backward_induction(
        cfg,
        lambda q: _terminal_set(cfg, q),
        lambda nxt, g, q: point_backup(nxt, g, q, cfg.p, cfg.lam, grid),
    )
    return ValueFunction(cfg.n, cfg.horizon, table)


# ---------------------------------------------------------------------------
# lower bound: grid-value recursion with convex interpolation
# ---------------------------------------------------------------------------


class _HullInterpolator:
    """Best certified value of a belief as a convex combination of grid points.

    With the grid's corners and interior points, a corner's weight is b_s
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
        self.cornered = np.isin(np.arange(1 << grid.n), grid.corner_states)
        # A corner's child has at most n + 1 support states, so no interior point with
        # more fits it: then, with a corner on every state, corner rows are one backup.
        self.corner_backup = bool(self.cornered.all() and (
            np.count_nonzero(grid.interior, axis=1) > grid.n + 1).all())

    def split(self, values: np.ndarray):
        """(corner values v_c by state, the interior points' gains)."""
        v_c = np.zeros(self.cornered.size)
        v_c[self.grid.corner_states] = values[self.grid.corner_rows]
        return v_c, values[self.grid.interior_rows] - self.grid.interior @ v_c

    def plane(self, c: np.ndarray) -> np.ndarray:
        """Grid values of the least plane in the rows of ``c`` (or of 1-D ``c``)."""
        return self.grid.dots(np.atleast_2d(c)).min(axis=0)

    def flat(self, values: np.ndarray) -> bool:
        """``corner_backup`` holds and no grid value lies above the plane
        through the corner values (no gain > 0, an exact comparison)."""
        return self.corner_backup and not (self.split(values)[1] > 0.0).any()

    def value(self, b: np.ndarray, values: np.ndarray) -> float:
        b, values = np.asarray(b, dtype=float), np.asarray(values, dtype=float)
        if b.shape == self.cornered.shape and b.min() >= 0.0 and abs(b.sum() - 1) <= SUM_TOLERANCE:
            inside, (v_c, gain) = b > 0.0, self.split(values)
            eq = ~self.cornered[inside]  # the rows of states with no corner
            keep = ~self.grid.interior[:, ~inside].any(axis=1) & (eq.any() | (gain > 0.0))
            g, b_in = self.grid.interior[keep][:, inside].T, b[inside]
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
            rows = grid.interior_rows
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

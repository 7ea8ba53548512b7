"""Tractable value bounds on belief grids: point backups above, interpolation below.

Every ``BeliefGrid`` holds the 2^N point masses implicitly, so every belief lies in
its hull, and nothing 2^N x 2^N is built. The upper bound builds only the vectors of
the exact backup that win at grid points: an action's cost plus, per branch, the next
row least at the point (Pineau, Gordon & Thrun, IJCAI 2003). A smaller min-set lies
higher, and the Bellman operator keeps that order, so it dominates the true value
function everywhere. The lower bound backs up grid values only, valuing children by
convex-combination interpolation (Lovejoy, Operations Research 1991), which concavity
puts below the true function: b.v_c, the plane through the corner values, plus at most
one LP over the interior points above that plane; a backup whose next tables lie on
their corner planes is one alpha backup (Hauskrecht, JAIR 2000). The per-probe gap
between the bounds certifies the pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Optional, Sequence

import numpy as np
from scipy.optimize import linprog

from .beliefs import SUM_TOLERANCE, Belief, as_dense
from .errors import InternalInconsistency, SizeCapError, ValidationError
from .exact import (
    AlphaSet,
    ValueFunction,
    _backward_induction,
    _terminal_set,
    exact_backup,
    pulled_back,
    stage_slice,
)
from .model import (
    ContactGraph,
    EMPTY_QUARANTINE,
    Quarantine,
    TIE_RTOL,
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


@dataclass(eq=False)  # grids compare by identity: ``points`` is an array
class BeliefGrid:
    """Belief points on the 2**n simplex: the 2**n point masses, implicit,
    then the interior ``points`` given, and the hull values they carry.

    Row r < 2**n is the point mass on state r, so every belief lies in the
    grid's hull; row 2**n + j is ``points[j]``, a point mass given again
    included. ``points`` is stored as one float (R, 2**n) array.
    ``descriptor`` records how the points were generated, for provenance in
    reports. ``corner_backup`` holds when every interior point has more than
    n + 1 support states: a corner's child has at most n + 1, so no interior
    point fits it, and the lower bound's corner rows are one backup.
    """

    n: int
    points: np.ndarray  # the interior points, one row of length 2**n each
    descriptor: str

    def __post_init__(self):
        for k, pt in enumerate(self.points):
            _check_distribution(pt, self.n, f"grid point {k}")
        self.points = np.reshape(np.asarray(self.points, dtype=float), (-1, 1 << self.n))
        self.corner_backup = bool((np.count_nonzero(self.points, axis=1) > self.n + 1).all())

    def dots(self, vectors: np.ndarray) -> np.ndarray:
        """Each row of ``vectors`` at each point, shaped (len(vectors), len(grid))."""
        return np.hstack([vectors, (self.points @ vectors.T).T])

    def __len__(self):
        return (1 << self.n) + len(self.points)

    def split(self, values: np.ndarray):
        """(corner values v_c by state, the interior points' gains v_j - g_j.v_c)."""
        v_c = values[: 1 << self.n]
        return v_c, values[v_c.size:] - self.points @ v_c

    def plane(self, c: np.ndarray) -> np.ndarray:
        """Grid values of the least plane in the rows of ``c`` (or of 1-D ``c``)."""
        return self.dots(np.atleast_2d(c)).min(axis=0)

    def flat(self, values: np.ndarray) -> bool:
        """``corner_backup`` holds and no grid value lies above the plane
        through the corner values (no gain > 0, an exact comparison)."""
        return self.corner_backup and not (self.split(values)[1] > 0.0).any()

    def hull_value(self, b, values) -> float:
        """Best value of belief b as a convex combination of grid points
        carrying ``values``.

        A corner's weight is b_s minus the interior weights' mass on s, so
        the value is b.v_c + max gain.mu over mu >= 0, G^T mu <= b. Only
        points inside supp(b) with gain > 0 can take weight; with none left
        there is no LP. mu = 0 is feasible, so a failed LP is the solver's
        failure. The LP's mu is clipped to >= 0 and scaled until each corner
        weight is >= 0, so the value is certified to rounding, not to
        HiGHS's 1e-7.
        """
        b, values = np.asarray(b, dtype=float), np.asarray(values, dtype=float)
        _check_distribution(b, self.n, "belief")
        inside, (v_c, gain) = b > 0.0, self.split(values)
        keep = ~self.points[:, ~inside].any(axis=1) & (gain > 0.0)
        g, b_in = self.points[keep][:, inside].T, b[inside]
        base = float(b_in @ v_c[inside])
        if not keep.any():
            return base
        res = linprog(-gain[keep], A_ub=g, b_ub=b_in, bounds=(0.0, None), method="highs")
        if res.status != 0:
            raise InternalInconsistency(
                f"hull LP over {g.shape[1]} points of grid {self.descriptor!r} failed for a "
                f"belief with support {b_in.size} of {b.size} states: status {res.status}, "
                f"{res.message}")
        mu = np.maximum(res.x, 0.0)  # a feasible mu: clipped, then scaled by
        alpha = (b_in / np.maximum(g @ mu, b_in)).min()  # alpha = min(1, min_s b_s / (G^T mu)_s)
        return base + float(alpha * (gain[keep] @ mu))

    @classmethod
    def corners(cls, n: int) -> "BeliefGrid":
        return cls(n, [], "corner")

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
            if parts.max() < m:  # the point masses are implicit
                pts.append(parts / m)
        return cls(n, pts, f"regular-grid(m={m})")

    @classmethod
    def corners_plus_random(cls, n: int, r: int, seed: int) -> "BeliefGrid":
        return nested_grid_ladder(n, [r], seed)[0]


def _check_distribution(pt, n: int, name: str):
    """A ValidationError naming ``name`` unless pt is a distribution on the 2**n states."""
    size = 1 << n
    pt = np.asarray(pt, dtype=float)
    if pt.shape != (size,):
        raise ValidationError(f"{name} has {pt.size} entries, expected 2**{n} = {size}")
    bad = np.flatnonzero(~(np.isfinite(pt) & (pt >= 0.0)))
    if len(bad):
        raise ValidationError(f"{name} has a negative or non-finite entry: "
                              f"state {bad[0]} holds {pt[bad[0]]}")
    if abs(np.sum(pt) - 1.0) > SUM_TOLERANCE:
        raise ValidationError(f"{name} has mass {np.sum(pt)}, expected 1")


def nested_grid_ladder(n: int, sizes: Sequence[int], seed: int):
    """Grids sharing one random draw: each holds the first R uniform-random
    interior points, so larger grids are supersets of smaller ones. Refuses
    N > ``DEFAULT_MAX_N`` and a negative R before drawing any point."""
    _check_size(n)
    for r in sizes:
        if r < 0:
            raise ValidationError(f"grid sizes must be >= 0, got {r}")
    rng = np.random.default_rng(seed)
    master = [rng.dirichlet(np.ones(1 << n)) for _ in range(max(sizes, default=0))]
    return [BeliefGrid(n, master[:r], f"corner+uniform-random({r},seed={seed})") for r in sizes]


# ---------------------------------------------------------------------------
# upper bound: point backups
# ---------------------------------------------------------------------------


def point_backup(next_sets: Mapping[Quarantine, AlphaSet], g: ContactGraph, q: Quarantine,
                 p: float, lam: float, grid: BeliefGrid) -> AlphaSet:
    """The vectors of :func:`exact_backup` least at some grid point, with no cross-sum:
    at a point, action u's least sum is (c + λ) plus each branch's least row there.
    Rows sort lexicographically, sums by (action, rows), so a point keeps its first
    tied minimizer, which the full backup never prunes; sums add in its order. Off the
    corners a sum's own rounding decides among exactly tied sums, so there every row
    within ``TIE_RTOL`` times the least sum of its branch's least takes part too."""
    c, size = infection_counts(g.n_vertices), 1 << g.n_vertices
    sums, tags = [], []
    for u, backs in pulled_back(next_sets, g, q, p):
        backs = [back[np.lexsort(back.T[::-1])] for back in backs]
        shape = [len(back) for back in backs]  # distinct tuples of per-branch least rows
        at, rows = [grid.dots(back) for back in backs], c + lam if u else c
        picks = [np.ravel_multi_index([a.argmin(axis=0) for a in at], shape)]
        if max(shape) > 1:  # else no branch has a second row to tie
            least = [a[:, size:].min(axis=0) for a in at]
            slack = TIE_RTOL * (grid.points @ rows + sum(least))
            near = [a[:, size:] <= m + slack for a, m in zip(at, least)]
            for j in np.flatnonzero(sum(m.sum(axis=0) for m in near) > len(near)):
                tied = np.ix_(*[np.flatnonzero(m[:, j]) for m in near])
                picks.append(np.ravel_multi_index(tied, shape).ravel())
        for back, pick in zip(backs, np.unravel_index(np.unique(np.concatenate(picks)), shape)):
            rows = rows + back[pick]
        sums.append(rows)
        tags.append(np.full(len(rows), u))
    values, actions = np.concatenate(sums), np.concatenate(tags)
    order = np.lexsort((*values.T[::-1], actions))
    keep = order[np.unique(grid.dots(values[order]).argmin(axis=0))]
    return AlphaSet(values[keep], actions[keep], t=next_sets[q].t - 1, quarantine=q)


def _check_size(n: int, grid: BeliefGrid | None = None):
    if n > DEFAULT_MAX_N:
        raise SizeCapError(f"approximate solver capped at N <= {DEFAULT_MAX_N}, got {n}")
    if grid is not None and grid.n != n:
        raise ValidationError(f"grid dimension N = {grid.n} does not match "
                              f"the scenario's N = {n}")


def approx_solve_upper(cfg: ScenarioConfig, grid: BeliefGrid) -> ValueFunction:
    """Backward recursion by :func:`point_backup`; the result dominates the
    true value function everywhere."""
    _check_size(cfg.n, grid)
    table = _backward_induction(
        cfg,
        lambda q: _terminal_set(cfg, q),
        lambda nxt, g, q: point_backup(nxt, g, q, cfg.p, cfg.lam, grid),
    )
    return ValueFunction(cfg.n, cfg.horizon, table)


# ---------------------------------------------------------------------------
# lower bound: grid-value recursion with convex interpolation
# ---------------------------------------------------------------------------


@dataclass
class LowerBound:
    """Grid-value tables per (stage, quarantine); lies below the true value
    function everywhere."""

    n: int
    horizon: int
    grid: BeliefGrid
    tables: dict  # (t, frozenset) -> np.ndarray of per-point values

    def grid_values(self, t: int, q: Quarantine = EMPTY_QUARANTINE) -> np.ndarray:
        return stage_slice(self.tables, self.n, self.horizon, t, q)

    def value(self, t: int, b, q: Quarantine = EMPTY_QUARANTINE) -> float:
        return self.grid.hull_value(as_dense(b, 1 << self.n), self.grid_values(t, q))


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
    """Backward recursion restricted to grid points. When the grid's
    ``corner_backup`` holds, every corner child settles as b.v_c, so the
    corner rows of each (t, q) table are ``a.min(axis=0)`` over the vectors a
    of one :func:`exact_backup` of the stage-(t+1) corner values, and only
    the interior rows are interpolated; otherwise every row is. When every
    next table the backup reaches is also flat, weak duality makes each
    interpolant its corner plane, so the interior rows are
    ``(points @ a.T).min(axis=1)`` and no LP is solved. Terminal tables
    come from the same :meth:`BeliefGrid.plane`, so they are flat bit for
    bit. Raises InternalInconsistency (naming the LP's status and the
    belief's support size) if HiGHS fails on a hull LP.
    """
    _check_size(cfg.n, grid)
    c, size = infection_counts(cfg.n), 1 << cfg.n

    def backup(nxt, g, q):  # stage-(t+1) grid values nxt, interpolated at each child
        branch_sets = {u: branches(g, q, u, cfg.p) for u in candidate_actions(cfg.n, q)}
        vals, rows = np.empty(len(grid)), range(len(grid))
        if grid.corner_backup:  # the sets' stage label, t=0, is never read
            sets = {q_next: AlphaSet(grid.split(nxt[q_next])[0][None], [0], 0, q_next)
                    for bs in branch_sets.values() for _, q_next, _ in bs}
            vals = grid.plane(exact_backup(sets, g, q, cfg.p, cfg.lam).values)
            if all(grid.flat(nxt[q_next]) for q_next in sets):
                return vals  # every child's interpolant is its corner plane
            rows = range(size, len(grid))
        for r in rows:
            bf = grid.points[r - size] if r >= size else np.eye(1, size, r)[0]
            _, best = one_step_min(
                cfg.n, q, cfg.lam,
                lambda u: _branch_children(bf, u, branch_sets[u], cfg.n),
                lambda child, q_next: grid.hull_value(child, nxt[q_next]),
            )
            vals[r] = float(bf @ c) + best
        return vals

    tables = _backward_induction(cfg, lambda q: grid.plane(c), backup)
    return LowerBound(cfg.n, cfg.horizon, grid, tables)


# ---------------------------------------------------------------------------
# the sandwich
# ---------------------------------------------------------------------------


@dataclass
class GapRow:
    """Both bounds at probe belief ``probe`` and stage t on a grid of R interior points."""

    R: int
    t: int
    probe: int
    lower: float
    upper: float
    oracle: Optional[float] = None  # the true value there, when computed

    @property
    def gap(self) -> float:
        return self.upper - self.lower

    @property
    def tight(self) -> bool:
        return self.gap < BRACKET_TOL

    @property
    def status(self) -> str:
        """``sandwich_violation`` if the lower bound crosses the upper,
        else ``oracle_outside`` if the oracle misses the bracket, else ``ok``."""
        if self.lower > self.upper + BRACKET_TOL:
            return "sandwich_violation"
        if self.oracle is not None and not (
                self.lower - BRACKET_TOL <= self.oracle <= self.upper + BRACKET_TOL):
            return "oracle_outside"
        return "ok"


@dataclass
class SandwichResult:
    """Both bounds plus the per-(stage, probe) gap report."""

    upper: ValueFunction
    lower: LowerBound
    rows: list

    @property
    def violations(self) -> list:
        """Rows whose lower bound crosses the upper; empty by construction."""
        return [row for row in self.rows if row.status == "sandwich_violation"]


def sandwich(cfg: ScenarioConfig, grid: BeliefGrid, probes: Sequence[Belief]) -> SandwichResult:
    """Compute both bounds and evaluate them at every probe and stage, one
    :class:`GapRow` each, stage by stage."""
    ub = approx_solve_upper(cfg, grid)
    lb = approx_solve_lower(cfg, grid)
    rows = [GapRow(len(grid.points), t, pi, lb.value(t, b), ub.value(t, b))
            for t in range(1, cfg.horizon + 1) for pi, b in enumerate(probes)]
    return SandwichResult(ub, lb, rows)

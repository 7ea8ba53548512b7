import numpy as np
import pytest
from scipy.optimize import linprog

from epitest import approx
from epitest.approx import (
    BeliefGrid,
    _branch_children,
    _HullInterpolator,
    approx_solve_lower,
    approx_solve_upper,
    nested_grid_ladder,
    prune_at_points,
    sandwich,
)
from epitest.beliefs import Belief
from epitest.errors import CoverageError, SizeCapError, ValidationError
from epitest.exact import AlphaSet, evaluate, solve
from epitest.model import (
    ContactGraph,
    ContactSchedule,
    branches,
    candidate_actions,
    infection_counts,
)
from epitest.oracle import oracle_value
from epitest.presets import probe_beliefs, scenario_a, scenario_c
from epitest.scenario import ScenarioConfig

from _scenarios import random_beliefs, random_scenario

EMPTY = frozenset()


def config(n, horizon, p, lam, edges, seed=0):
    g = ContactGraph.from_edges(n, edges)
    return ScenarioConfig(
        n, horizon, p, lam, ContactSchedule.static(horizon, g), Belief.uniform(n), seed
    )


class TestGrids:
    def test_corners(self):
        grid = BeliefGrid.corners(2)
        assert len(grid) == 4
        assert np.array_equal(grid.matrix(), np.eye(4))

    def test_uniform_random_is_seeded(self):
        a = BeliefGrid.uniform_random(2, 3, seed=5)
        b = BeliefGrid.uniform_random(2, 3, seed=5)
        assert np.array_equal(a.matrix(), b.matrix())
        assert np.allclose(a.matrix().sum(axis=1), 1.0)

    def test_regular_grid(self):
        grid = BeliefGrid.regular(1, 4)
        assert len(grid) == 5  # compositions of 4 into 2 parts
        assert sorted(pt[1] for pt in grid.points) == [0.0, 0.25, 0.5, 0.75, 1.0]
        with pytest.raises(SizeCapError):
            BeliefGrid.regular(3, 40)

    def test_nested_ladder_shares_prefixes(self):
        g2, g4 = nested_grid_ladder(2, [2, 4], seed=9)
        assert len(g2) == 4 + 2 and len(g4) == 4 + 4
        assert np.array_equal(g2.matrix(), g4.matrix()[: len(g2)])

    def test_dimension_check(self):
        with pytest.raises(ValidationError):
            BeliefGrid(2, [np.ones(3) / 3], "bad")

    @pytest.mark.parametrize("bad", [-0.25, float("nan"), float("inf")])
    def test_rejects_negative_and_non_finite_entries(self, bad):
        with pytest.raises(ValidationError, match="grid point 1"):
            BeliefGrid(1, [np.array([1.0, 0.0]), np.array([1.0 - bad, bad])], "bad")


class TestPruneAtPoints:
    def test_singleton_unchanged(self):
        aset = AlphaSet(infection_counts(2)[None, :], [0], t=1)
        grid = BeliefGrid.corners(2)
        pruned = prune_at_points(aset, grid)
        assert np.array_equal(pruned.values, aset.values)
        assert np.array_equal(pruned.actions, aset.actions)

    def test_dominated_vector_dropped(self):
        aset = AlphaSet(np.stack([np.ones(4), np.zeros(4)]), [0, 1], t=1)
        pruned = prune_at_points(aset, BeliefGrid.corners(2))
        assert len(pruned) == 1
        assert pruned.actions[0] == 1

    def test_grid_point_values_preserved(self):
        cfg = scenario_a()
        vf = solve(cfg)
        full = vf.alpha_set(1)
        grid = BeliefGrid.corners_plus_random(3, 5, seed=3)
        pruned = prune_at_points(full, grid)
        assert len(pruned) <= min(len(full), len(grid))
        for pt in grid.points:
            assert evaluate(pruned, pt).value == pytest.approx(
                evaluate(full, pt).value, abs=1e-12
            )


class TestUpperBound:
    def test_sound_even_with_one_grid_point(self):
        cfg = scenario_a()
        grid = BeliefGrid(3, [np.full(8, 1 / 8)], "center-only")
        ub = approx_solve_upper(cfg, grid)
        for b in probe_beliefs(3, 10):
            assert ub.value(1, b) >= oracle_value(cfg, b) - 1e-9

    def test_equals_exact_when_tests_cannot_pay(self):
        cfg = config(2, 3, 0.5, 100.0, [(1, 2, 1.0)])
        grid = BeliefGrid(2, [np.full(4, 0.25)], "center-only")
        ub = approx_solve_upper(cfg, grid)
        vf = solve(cfg)
        for b in probe_beliefs(2, 10):
            assert ub.value(1, b) == pytest.approx(vf.value(1, b), abs=1e-9)

    def test_cap(self, monkeypatch):
        # one past the cap, read at call time, is refused by both bounds
        # before any backup
        def no_backups(*args):
            raise AssertionError("a capped solve started its backups")

        monkeypatch.setattr(approx, "_backward_induction", no_backups)
        for max_n in (approx.DEFAULT_MAX_N, 2):
            monkeypatch.setattr(approx, "DEFAULT_MAX_N", max_n)
            n = max_n + 1
            cfg = config(n, 2, 0.5, 0.5, [(1, 2, 1.0)])
            grid = BeliefGrid(n, [np.full(1 << n, 1.0 / (1 << n))], "center-only")
            for bound in (approx_solve_upper, approx_solve_lower):
                with pytest.raises(SizeCapError, match=f"got {n}"):
                    bound(cfg, grid)


class TestLowerBound:
    def test_exact_at_corners_single_individual(self):
        cfg = config(1, 2, 0.0, 0.5, [])
        lb = approx_solve_lower(cfg, BeliefGrid.corners(1))
        vf = solve(cfg)
        for corner in np.eye(2):
            assert lb.value(1, corner) == pytest.approx(
                evaluate(vf.alpha_set(1), corner).value, abs=1e-12
            )

    def test_exact_when_value_is_linear(self):
        # p=0, lam=0: never any reason to test, value is linear in belief
        cfg = config(2, 3, 0.0, 0.0, [(1, 2, 1.0)])
        lb = approx_solve_lower(cfg, BeliefGrid.corners(2))
        vf = solve(cfg)
        for b in probe_beliefs(2, 10):
            assert lb.value(1, b) == pytest.approx(vf.value(1, b), abs=1e-9)

    def test_coverage_error_without_corners(self):
        cfg = scenario_c()
        lonely = BeliefGrid(2, [np.full(4, 0.25)], "center-only")
        with pytest.raises(CoverageError) as info:
            approx_solve_lower(cfg, lonely)
        support = np.count_nonzero(info.value.belief_dense)
        assert info.value.belief_dense.shape == (4,)
        assert f"support {support} of 4 states" in str(info.value)
        assert "grid 'center-only' (1 points)" in str(info.value)


def reference_hull_value(grid, b, values):
    """The interpolation LP exactly as stated, solved with no support rule."""
    pts = grid.matrix()
    res = linprog(
        -values,
        A_eq=np.vstack([pts.T, np.ones(len(grid))]),
        b_eq=np.concatenate([b, [1.0]]),
        bounds=(0.0, None),
        method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun


def ring(n):
    edges = [(i, i + 1, 1.0) for i in range(1, n)]
    return ContactGraph.from_edges(n, edges + ([(1, n, 0.5)] if n > 2 else []))


def beliefs_for(grid, rng):
    """Point masses, full-support and sparse Dirichlet beliefs, and the
    branch children of grid points (every interior point, some corners)."""
    n, size = grid.n, 1 << grid.n
    out = list(np.eye(size))
    out += [rng.dirichlet(np.ones(size)) for _ in range(4)]
    for _ in range(6):
        b = np.zeros(size)
        keep = rng.choice(size, size=rng.integers(1, size), replace=False)
        b[keep] = rng.dirichlet(np.ones(len(keep)))
        out.append(b)
    g = ring(n)
    interior = [pt for pt in grid.points if np.count_nonzero(pt) > 1]
    sources = interior + grid.points[:: 1 + size // 4]
    for q in (frozenset(), frozenset({1})):
        for u in candidate_actions(n, q):
            branch_set = branches(g, q, u, 0.5)
            for pt in sources:
                out += [child for _, child, _ in _branch_children(pt, u, branch_set, n)]
    return out


def duplicated_corner_grid(n, seed):
    corners = list(np.eye(1 << n))
    interior = BeliefGrid.uniform_random(n, 2, seed).points
    return BeliefGrid(n, corners + [corners[0].copy()] + interior, "duplicated-corner")


class TestHullInterpolator:
    """The interpolator, with its support rule, against the plain LP."""

    GRIDS = (
        [nested_grid_ladder(n, [3], seed=40 + n)[0] for n in (2, 3, 4, 5)]
        + [BeliefGrid.regular(1, 4), BeliefGrid.regular(2, 3), BeliefGrid.regular(3, 2)]
        + [duplicated_corner_grid(2, 5), duplicated_corner_grid(3, 6)]
    )

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"n{g.n}-{g.descriptor}")
    def test_matches_plain_lp(self, grid):
        rng = np.random.default_rng(len(grid))
        values = rng.uniform(0.0, grid.n, size=len(grid))
        interp = _HullInterpolator(grid)
        for b in beliefs_for(grid, rng):
            assert abs(interp.value(b, values) - reference_hull_value(grid, b, values)) <= 1e-12

    def test_duplicated_corner_takes_the_better_copy(self):
        grid = BeliefGrid(1, [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                              np.array([1.0, 0.0])], "duplicated-corner")
        b = np.array([0.25, 0.75])
        assert _HullInterpolator(grid).value(b, np.array([3.0, 2.0, 1.0])) == pytest.approx(
            0.25 * 3.0 + 0.75 * 2.0, abs=1e-12)

    @pytest.mark.parametrize("grid", [
        BeliefGrid(2, [np.full(4, 0.25)], "center-only"),
        BeliefGrid.uniform_random(3, 4, seed=12),
    ], ids=["center-only", "random-no-corners"])
    def test_cornerless_grid_raises_for_sparse_and_full_beliefs(self, grid):
        rng = np.random.default_rng(3)
        size = 1 << grid.n
        sparse = np.zeros(size)
        sparse[[0, size - 1]] = 0.5
        for b in (np.eye(size)[1], sparse, rng.dirichlet(np.ones(size))):
            with pytest.raises(CoverageError):
                _HullInterpolator(grid).value(b, np.ones(len(grid)))

    @pytest.mark.parametrize("b", [[0.5, 0.0, 0.0, 0.0], [1.5, -0.5, 0.0, 0.0]],
                             ids=["half-mass", "negative-entry"])
    def test_non_distribution_is_left_to_the_lp(self, b):
        with pytest.raises(CoverageError):
            _HullInterpolator(BeliefGrid.corners(2)).value(np.array(b), np.ones(4))

    def test_lower_bound_tables_match_the_plain_lp(self, monkeypatch):
        cfg = scenario_c()
        grid = BeliefGrid.corners_plus_random(2, 4, seed=1)
        settled = approx_solve_lower(cfg, grid)
        monkeypatch.setattr(_HullInterpolator, "_settle", lambda self, b, values: None)
        plain = approx_solve_lower(cfg, grid)
        assert settled.tables.keys() == plain.tables.keys()
        for key, vals in plain.tables.items():
            assert np.allclose(settled.tables[key], vals, rtol=0.0, atol=1e-12)


class TestLpSolveCount:
    """Beliefs with a zero coordinate are settled by support, never by HiGHS."""

    @pytest.fixture
    def lp_beliefs(self, monkeypatch):
        seen = []
        real = approx.linprog

        def counting(c, **kwargs):
            seen.append(kwargs["b_eq"][:-1].copy())
            return real(c, **kwargs)

        monkeypatch.setattr(approx, "linprog", counting)
        return seen

    @pytest.mark.parametrize("make", [scenario_a, scenario_c])
    def test_corner_grid_solves_no_lp(self, make, lp_beliefs):
        cfg = make()
        lb = approx_solve_lower(cfg, BeliefGrid.corners(cfg.n))
        for b in probe_beliefs(cfg.n, 4):
            lb.value(1, b)
        assert lp_beliefs == []

    def test_sandwich_sends_only_full_support_beliefs_to_the_lp(self, lp_beliefs):
        cfg = scenario_c()
        sw = sandwich(cfg, BeliefGrid.corners_plus_random(2, 4, seed=1), probe_beliefs(2, 8))
        assert not sw.violations
        assert lp_beliefs, "interior grid points still need the LP"
        assert all(np.all(b > 0.0) for b in lp_beliefs)


class TestSandwich:
    def test_oracle_between_bounds(self):
        cfg = scenario_c()
        probes = probe_beliefs(2, 8)
        sw = sandwich(cfg, BeliefGrid.corners_plus_random(2, 4, seed=1), probes)
        assert not sw.violations
        for row in sw.rows:
            ov = oracle_value(cfg, probes[row.probe], t=row.t)
            assert row.lower - 1e-9 <= ov <= row.upper + 1e-9

    @pytest.mark.parametrize("n, horizon, p, lam, per_step, seed", [
        (4, 4, 1.0, 0.0, True, 31),
        (4, 3, 0.0, 0.5, False, 32),
        (5, 3, 0.6, 0.3, True, 33),
        (5, 4, 0.5, 0.0, False, 34),
    ], ids=["n4-p1-free-tests-schedule", "n4-p0-static", "n5-schedule", "n5-free-tests"])
    def test_oracle_between_bounds_on_random_scenarios(self, n, horizon, p, lam, per_step, seed):
        """All three solvers of the shared backward sweep against the oracle:
        lower <= oracle == exact <= upper at every probe and stage."""
        rng = np.random.default_rng(seed)
        cfg = random_scenario(n, horizon, p, lam, rng, per_step)
        probes = random_beliefs(n, rng)
        sw = sandwich(cfg, nested_grid_ladder(n, [2], seed)[0], probes)
        vf = solve(cfg)
        assert not sw.violations
        assert len(sw.rows) == horizon * len(probes)
        for row in sw.rows:
            ov = oracle_value(cfg, probes[row.probe], t=row.t)
            assert vf.value(row.t, probes[row.probe]) == pytest.approx(ov, abs=1e-9)
            assert row.lower - 1e-9 <= ov <= row.upper + 1e-9

    def test_zero_gap_when_value_linear(self):
        cfg = config(2, 3, 0.5, 100.0, [(1, 2, 1.0)])
        probes = probe_beliefs(2, 6)
        sw = sandwich(cfg, BeliefGrid.corners_plus_random(2, 2, seed=2), probes)
        assert all(row.tight for row in sw.rows)

    def test_refinement_tightens_gaps(self):
        cfg = scenario_c()
        probes = probe_beliefs(2, 6)
        grids = nested_grid_ladder(2, [1, 3], seed=4)
        small = sandwich(cfg, grids[0], probes)
        large = sandwich(cfg, grids[1], probes)
        for r_small, r_large in zip(small.rows, large.rows):
            assert (r_large.t, r_large.probe) == (r_small.t, r_small.probe)
            assert r_large.gap <= r_small.gap + 1e-9

    def test_refinement_never_loosens_at_old_grid_points(self):
        cfg = scenario_c()
        coarse, fine = nested_grid_ladder(2, [2, 6], seed=8)
        ub_c, ub_f = approx_solve_upper(cfg, coarse), approx_solve_upper(cfg, fine)
        lb_c, lb_f = approx_solve_lower(cfg, coarse), approx_solve_lower(cfg, fine)
        for t in range(1, cfg.horizon + 1):
            for pt in coarse.points:
                assert ub_f.value(t, pt) <= ub_c.value(t, pt) + 1e-9
                assert lb_f.value(t, pt) >= lb_c.value(t, pt) - 1e-9

    def test_rich_grid_reproduces_exact_solution(self):
        # every linear piece wins somewhere on the grid, so nothing is pruned
        cfg = scenario_c()
        vf = solve(cfg)
        ub = approx_solve_upper(cfg, BeliefGrid.corners_plus_random(2, 16, seed=77))
        for t in (1, 2, 3):
            for b in probe_beliefs(2, 20):
                assert ub.value(t, b) == pytest.approx(vf.value(t, b), abs=1e-12)

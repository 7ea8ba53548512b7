from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog

from epitest import approx
from epitest.approx import (
    BeliefGrid,
    _branch_children,
    approx_solve_lower,
    approx_solve_upper,
    nested_grid_ladder,
    point_backup,
    sandwich,
)
from epitest.beliefs import Belief
from epitest.errors import InternalInconsistency, SizeCapError, ValidationError
from epitest.exact import (
    AlphaSet,
    _backward_induction,
    _reachable_quarantines,
    _terminal_set,
    evaluate,
    exact_backup,
    solve,
)
from epitest.model import (
    ContactGraph,
    ContactSchedule,
    branches,
    candidate_actions,
    infection_counts,
    one_step_min,
)
from epitest.oracle import oracle_value
from epitest.presets import probe_beliefs, scenario_a, scenario_b, scenario_c, scenario_d
from epitest.scenario import ScenarioConfig

from _child import peak_rss_mib
from _scenarios import random_beliefs, random_scenario, ring_scenario

EMPTY = frozenset()


def every_row(grid):
    """The grid's rows as one dense matrix: its 2**n corners, then its points."""
    return np.vstack([np.eye(2**grid.n), grid.points])


def config(n, horizon, p, lam, edges, seed=0):
    g = ContactGraph.from_edges(n, edges)
    return ScenarioConfig(
        n, horizon, p, lam, ContactSchedule.static(horizon, g), Belief.uniform(n), seed
    )


class TestGrids:
    def test_corners(self):
        grid = BeliefGrid.corners(2)
        assert len(grid) == 4
        assert np.array_equal(every_row(grid), np.eye(4))

    def test_uniform_random_is_seeded(self):
        a = BeliefGrid.corners_plus_random(2, 3, seed=5)
        b = BeliefGrid.corners_plus_random(2, 3, seed=5)
        assert np.array_equal(np.stack(a.points), np.stack(b.points))
        assert np.allclose(np.stack(a.points).sum(axis=1), 1.0)

    def test_regular_grid(self):
        grid = BeliefGrid.regular(1, 4)
        assert len(grid) == 5  # compositions of 4 into 2 parts
        assert sorted(pt[1] for pt in every_row(grid)) == [0.0, 0.25, 0.5, 0.75, 1.0]
        with pytest.raises(SizeCapError):
            BeliefGrid.regular(3, 40)

    def test_nested_ladder_shares_prefixes(self):
        g2, g4 = nested_grid_ladder(2, [2, 4], seed=9)
        assert len(g2) == 4 + 2 and len(g4) == 4 + 4
        assert np.array_equal(every_row(g2), every_row(g4)[: len(g2)])

    def test_nested_ladder_refuses_a_negative_size(self):
        with pytest.raises(ValidationError, match=r"^grid sizes must be >= 0, got -2$"):
            nested_grid_ladder(3, [5, -2], 1)

    def test_dimension_check(self):
        message = r"grid point 1 has 3 entries, expected 2\*\*2 = 4"
        with pytest.raises(ValidationError, match=message):
            BeliefGrid(2, [np.full(4, 0.25), np.ones(3) / 3], "bad")

    def test_rejects_points_whose_mass_is_not_one(self):
        with pytest.raises(ValidationError, match="grid point 0 has mass 2.0"):
            BeliefGrid(1, [[2.0, 0.0], [0.0, 1.0]], "x")
        with pytest.raises(ValidationError, match="grid point 1 has mass 0.9"):
            BeliefGrid(1, [[1.0, 0.0], [0.0, 0.9]], "x")
        BeliefGrid(1, [[1.0, 0.0], [0.5, 0.5 + 0.5e-9]], "x")  # within SUM_TOLERANCE

    @pytest.mark.parametrize("bad, named", [
        (-0.25, "state 1 holds -0.25"), (float("nan"), "state 0 holds nan"),
        (float("inf"), "state 0 holds -inf"),
    ], ids=["-0.25", "nan", "inf"])
    def test_rejects_negative_and_non_finite_entries(self, bad, named):
        with pytest.raises(ValidationError, match=f"grid point 1 .*: {named}$"):
            BeliefGrid(1, [np.array([1.0, 0.0]), np.array([1.0 - bad, bad])], "bad")


def sieve(aset, grid):
    """The dense reference: keep exactly the vectors least at some grid
    point, ties to the lowest index, in their order."""
    winners = np.unique(np.argmin(aset.values @ every_row(grid).T, axis=0))
    return AlphaSet(aset.values[winners], aset.actions[winners], aset.t, aset.quarantine)


def assert_same_set(got, want):
    assert (got.t, got.quarantine) == (want.t, want.quarantine)
    assert got.values.shape == want.values.shape
    assert got.values.tobytes() == want.values.tobytes()
    assert got.actions.tobytes() == want.actions.tobytes()


def against_the_sieve(cfg, grid):
    """The upper bound's sweep, checking at every (t, q) that point_backup
    equals sieve(exact_backup) of the same next sets; returns the count."""
    compared = []

    def backup(nxt, g, q):
        want = sieve(exact_backup(nxt, g, q, cfg.p, cfg.lam), grid)
        assert_same_set(point_backup(nxt, g, q, cfg.p, cfg.lam, grid), want)
        compared.append(q)
        return want

    _backward_induction(cfg, lambda q: _terminal_set(cfg, q), backup)
    return len(compared)


def sieve_grids(n):
    """Regular grids, the centre, a duplicated corner, corners only and both
    extreme corners given again."""
    size = 1 << n
    regular = {2: range(1, 5), 3: range(1, 4)}.get(n, ())
    return ([BeliefGrid.regular(n, m) for m in regular]
            + [BeliefGrid(n, [np.full(size, 1.0 / size)], "center-only"),
               duplicated_corner_grid(n, 4 + n), BeliefGrid.corners(n),
               BeliefGrid(n, [np.eye(size)[size - 1], np.eye(size)[0]], "two-corners")])


class TestPointBackup:
    """The point backup keeps what the dense sieve keeps of the full backup:
    the same vectors, bit for bit, with the same tags, in the same order."""

    @pytest.mark.parametrize("n, horizon, per_step", [
        (n, horizon, per_step) for n in (2, 3, 4) for horizon in (3, 4) for per_step in (False, True)
    ])
    def test_random_scenarios_match_the_sieve(self, n, horizon, per_step):
        for lam in (0.0, 0.3, 1.0):
            rng = np.random.default_rng([n, horizon, per_step, int(10 * lam)])
            cfg = random_scenario(n, horizon, 0.5, lam, rng, per_step)
            for grid in sieve_grids(n):
                assert against_the_sieve(cfg, grid) > 0

    @pytest.mark.parametrize("make", [scenario_a, scenario_b, scenario_c, scenario_d])
    def test_presets_match_the_sieve(self, make):
        cfg = make()
        for grid in nested_grid_ladder(cfg.n, [0, 1, 5], seed=11):
            assert against_the_sieve(cfg, grid) > 0

    def test_singleton_unchanged(self):
        # tests cost 100, so not testing wins everywhere: one vector, tag 0
        cfg = config(2, 2, 0.5, 100.0, [(1, 2, 1.0)])
        nxt = {q: _terminal_set(cfg, q) for q in _reachable_quarantines(2, 1)}
        args = (nxt, cfg.graph_at(1), EMPTY, cfg.p, cfg.lam)
        got = point_backup(*args, BeliefGrid.corners(2))
        assert len(got) == 1 and got.actions.tolist() == [0]
        assert_same_set(got, exact_backup(*args))

    def test_dominated_vector_dropped(self):
        # each next set gains, first, a copy of its row raised on the last
        # state: it ties wherever that state has no mass, and never wins
        cfg = scenario_c()
        nxt = {q: _terminal_set(cfg, q) for q in _reachable_quarantines(2, 2)}
        raised = {}
        for q, aset in nxt.items():
            worse = aset.values.copy()
            worse[:, -1] += 1.0
            raised[q] = AlphaSet(np.vstack([worse, aset.values]), [0, 0], aset.t, q)
        grid = nested_grid_ladder(2, [3], seed=2)[0]
        for q in _reachable_quarantines(2, 1):
            args = (cfg.graph_at(2), q, cfg.p, cfg.lam, grid)
            assert_same_set(point_backup(raised, *args), point_backup(nxt, *args))

    def test_grid_point_values_preserved(self):
        cfg = scenario_a()
        vf = solve(cfg)
        nxt = {q: vf.alpha_set(2, q) for q in _reachable_quarantines(3, 1)}
        full = exact_backup(nxt, cfg.graph_at(1), EMPTY, cfg.p, cfg.lam)
        grid = BeliefGrid.corners_plus_random(3, 5, seed=3)
        kept = point_backup(nxt, cfg.graph_at(1), EMPTY, cfg.p, cfg.lam, grid)
        assert len(kept) <= min(len(full), len(grid))
        for pt in every_row(grid):
            assert evaluate(kept, pt).value == pytest.approx(evaluate(full, pt).value, abs=1e-12)


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


def test_grid_of_another_size_is_refused_with_both_sizes():
    cfg = scenario_c()
    for bound in (approx_solve_upper, approx_solve_lower):
        with pytest.raises(ValidationError,
                           match="grid dimension N = 3 does not match the scenario's N = 2"):
            bound(cfg, BeliefGrid.corners(3))


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

    def test_centre_only_grid_brackets_the_oracle(self):
        # the corners are implicit, so a grid given only its centre covers
        # every belief
        cfg = scenario_a()
        grid = BeliefGrid(3, [np.full(8, 1 / 8)], "center-only")
        lb, ub = approx_solve_lower(cfg, grid), approx_solve_upper(cfg, grid)
        tol = approx.BRACKET_TOL
        for t in range(1, cfg.horizon + 1):
            for b in probe_beliefs(3, 6):
                assert lb.value(t, b) - tol <= oracle_value(cfg, b, t=t) <= ub.value(t, b) + tol


def reference_hull_value(grid, b, values):
    """The interpolation LP exactly as stated, solved with no support rule."""
    pts = every_row(grid)
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
    rows = list(every_row(grid))
    interior = [pt for pt in rows if np.count_nonzero(pt) > 1]
    sources = interior + rows[:: 1 + size // 4]
    for q in (frozenset(), frozenset({1})):
        for u in candidate_actions(n, q):
            branch_set = branches(g, q, u, 0.5)
            for pt in sources:
                out += [child for _, child, _ in _branch_children(pt, u, branch_set, n)]
    return out


def duplicated_corner_grid(n, seed):
    interior = BeliefGrid.corners_plus_random(n, 2, seed).points
    return BeliefGrid(n, [np.eye(1 << n)[0], *interior], "duplicated-corner")


class TestHullInterpolator:
    """`BeliefGrid.hull_value`, with its support rule, against the plain LP."""

    GRIDS = (
        [nested_grid_ladder(n, [3], seed=40 + n)[0] for n in (2, 3, 4, 5)]
        + [BeliefGrid.regular(1, 4), BeliefGrid.regular(2, 3), BeliefGrid.regular(3, 2)]
        + [duplicated_corner_grid(2, 5), duplicated_corner_grid(3, 6)]
    )

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"n{g.n}-{g.descriptor}")
    def test_matches_plain_lp(self, grid):
        rng = np.random.default_rng(len(grid))
        values = rng.uniform(0.0, grid.n, size=len(grid))
        for b in beliefs_for(grid, rng):
            assert abs(grid.hull_value(b, values) - reference_hull_value(grid, b, values)) <= 1e-12

    def test_duplicated_corner_takes_the_better_copy(self):
        grid = BeliefGrid(1, [np.array([1.0, 0.0])], "duplicated-corner")
        b = np.array([0.25, 0.75])
        assert grid.hull_value(b, np.array([3.0, 2.0, 1.0])) == pytest.approx(
            0.25 * 3.0 + 0.75 * 2.0, abs=1e-12)

    @pytest.mark.parametrize("b, named", [
        ([0.5, 0.0, 0.0, 0.0], "mass 0.5, expected 1"),
        ([1.5, -0.5, 0.0, 0.0], "a negative or non-finite entry: state 1 holds -0.5"),
    ], ids=["half-mass", "negative-entry"])
    def test_non_distribution_is_left_to_the_lp(self, b, named):
        with pytest.raises(ValidationError, match=f"^belief has {named}"):
            BeliefGrid.corners(2).hull_value(np.array(b), np.ones(4))

    def test_failed_lp_names_its_status_and_the_support(self, monkeypatch):
        # mu = 0 is feasible on every grid, so a non-zero status is the
        # solver failing, not the belief leaving the hull
        monkeypatch.setattr(approx, "linprog", lambda c, **kwargs: SimpleNamespace(
            status=4, message="Numerical difficulties encountered", x=None))
        grid = BeliefGrid(2, [np.full(4, 0.25)], "center-only")
        b = np.array([0.1, 0.2, 0.3, 0.4])
        with pytest.raises(InternalInconsistency, match="status 4, Numerical difficulties") as info:
            grid.hull_value(b, np.array([0.0, 0.0, 0.0, 0.0, 1.0]))
        assert "support 4 of 4 states" in str(info.value)

    def test_lower_bound_tables_match_the_plain_lp(self, monkeypatch):
        cfg = scenario_c()
        grid = BeliefGrid.corners_plus_random(2, 4, seed=1)
        settled = approx_solve_lower(cfg, grid)
        monkeypatch.setattr(BeliefGrid, "hull_value",
                            lambda self, b, values: reference_hull_value(self, b, values))
        plain = approx_solve_lower(cfg, grid)
        assert settled.tables.keys() == plain.tables.keys()
        for key, vals in plain.tables.items():
            assert np.allclose(settled.tables[key], vals, rtol=0.0, atol=1e-12)


def test_hull_values_are_certified(monkeypatch):
    """Every hull value is at most the objective at the LP's weights clipped
    to >= 0 and scaled until every corner weight is >= 0, which is a convex
    combination of grid points. ring-7 T=6 is the smallest fixture where
    HiGHS's own optimum lies above it (by 3.4e-7, in one LP)."""
    cfg = ring_scenario(7, 0.3, chord_seed=1, horizon=6)
    grid = nested_grid_ladder(7, [8], 601)[0]  # its corners come first, in state order
    solved, excess = [], []
    real_linprog, real_value = approx.linprog, BeliefGrid.hull_value

    def capturing(c, **kwargs):
        res = real_linprog(c, **kwargs)
        solved.append((c, kwargs["A_ub"], kwargs["b_ub"], res.x))
        return res

    def checking(self, b, values):
        solved.clear()
        out = real_value(self, b, values)
        if solved:
            (c, a_ub, b_ub, x), = solved
            mu = np.maximum(x, 0.0)
            load = a_ub @ mu
            alpha = min([1.0, *(b_ub[load > 0.0] / load[load > 0.0])])
            inside = b > 0.0
            excess.append(out - (b[inside] @ values[: b.size][inside] - alpha * (c @ mu)))
        return out

    monkeypatch.setattr(approx, "linprog", capturing)
    monkeypatch.setattr(BeliefGrid, "hull_value", checking)
    approx_solve_lower(cfg, grid)
    assert len(excess) > 500
    assert max(excess) <= 1e-12, max(excess)


def per_point_tables(cfg, grid):
    """The lower bound's tables with every row, corners included, from the
    per-point loop: one_step_min over the branch children, interpolated."""
    c = infection_counts(cfg.n)

    def backup(nxt, g, q):
        vals = []
        for bf in every_row(grid):
            _, best = one_step_min(
                cfg.n, q, cfg.lam,
                lambda u: _branch_children(bf, u, branches(g, q, u, cfg.p), cfg.n),
                lambda child, q_next: grid.hull_value(child, nxt[q_next]),
            )
            vals.append(float(bf @ c) + best)
        return np.array(vals)

    return _backward_induction(cfg, lambda q: every_row(grid) @ c, backup)


class TestCornerRows:
    """Corner rows come from one full-information backup per (t, q) exactly
    when every corner child settles in closed form, and every table matches
    the per-point loop either way."""

    LADDERS = [nested_grid_ladder(n, [3], seed=60 + n)[0] for n in range(2, 7)]
    LOOP_ONLY = [nested_grid_ladder(1, [2], seed=61)[0], BeliefGrid.regular(2, 2),
                 duplicated_corner_grid(3, 6)]
    CASES = [(g, True) for g in LADDERS] + [(g, False) for g in LOOP_ONLY]

    @pytest.mark.parametrize("grid, from_backup", CASES,
                             ids=[f"n{g.n}-{g.descriptor}" for g, _ in CASES])
    def test_tables_match_the_per_point_loop(self, grid, from_backup, monkeypatch):
        rng = np.random.default_rng(70 + grid.n)
        cfg = (config(1, 3, 0.5, 0.3, []) if grid.n == 1
               else random_scenario(grid.n, 3, 0.5, 0.3, rng, per_step=True))
        calls = []
        real = approx.exact_backup
        monkeypatch.setattr(approx, "exact_backup", lambda *args: calls.append(1) or real(*args))
        lb = approx_solve_lower(cfg, grid)
        assert grid.corner_backup == from_backup
        assert len(calls) == (len(lb.tables) - len(_reachable_quarantines(cfg.n, cfg.horizon - 1))
                              if from_backup else 0)  # one per (t, q) below the horizon
        reference = per_point_tables(cfg, grid)
        assert lb.tables.keys() == reference.keys()
        for key, vals in reference.items():
            np.testing.assert_allclose(lb.tables[key], vals, rtol=0.0, atol=1e-12, err_msg=key)

    def test_interpolator_keeps_no_state_across_calls(self):
        grid = self.LADDERS[1]
        before = dict(vars(grid))
        rng = np.random.default_rng(5)
        values = rng.uniform(0.0, 3.0, size=len(grid))
        for b in beliefs_for(grid, rng) * 2:
            grid.hull_value(b, values)
        assert vars(grid).keys() == before.keys()
        assert all(vars(grid)[k] is v for k, v in before.items())


class TestFlatTables:
    """A backup whose next-stage tables all lie on their corner planes is one
    alpha backup: it builds no branch children and solves no LP."""

    CFG = ring_scenario(5, 0.3, chord_seed=1, horizon=4)
    GRID = nested_grid_ladder(5, [8], 601)[0]

    @pytest.fixture
    def per_stage(self, monkeypatch):
        """{stage: [LPs, _branch_children calls]} over the backups of a sweep."""
        counts, stage = {}, [None]

        def counting(i, real):
            def wrapped(*args, **kwargs):
                counts.setdefault(stage[0], [0, 0])[i] += 1
                return real(*args, **kwargs)
            return wrapped

        def staged(real):
            def sweep(cfg, terminal, backup):
                def at_stage(nxt, g, q):
                    stage[0] = max(map(len, nxt))  # stage t + 1 holds sets of size <= t
                    return backup(nxt, g, q)
                return real(cfg, terminal, at_stage)
            return sweep

        monkeypatch.setattr(approx, "linprog", counting(0, approx.linprog))
        monkeypatch.setattr(approx, "_branch_children", counting(1, approx._branch_children))
        monkeypatch.setattr(approx, "_backward_induction", staged(approx._backward_induction))
        return counts

    def test_last_backups_solve_no_lp(self, per_stage):
        approx_solve_lower(self.CFG, self.GRID)
        # stages 1 to T - 2 interpolate; stage T - 1 reads only terminal tables
        assert sorted(per_stage) == list(range(1, self.CFG.horizon - 1))
        assert all(lps > 0 and children > 0 for lps, children in per_stage.values())

    def test_linear_value_solves_no_lp(self, per_stage):
        # p = 0 and lambda = 0: nothing spreads and tests are free, so every
        # table is linear
        approx_solve_lower(replace(self.CFG, p=0.0, lam=0.0), self.GRID)
        assert per_stage == {}

    def test_flatness_check_is_exact(self, per_stage, monkeypatch):
        last = self.GRID.plane(infection_counts(self.CFG.n))  # a terminal table
        assert self.GRID.flat(last)
        raised = last.copy()
        raised[-1] += 1e-9  # the last point is interior
        assert not self.GRID.flat(raised)
        assert not BeliefGrid.regular(2, 2).flat(np.zeros(10))

        sweep = approx._backward_induction
        monkeypatch.setattr(approx, "_backward_induction", lambda cfg, terminal, backup: sweep(
            cfg, lambda q: raised if q == EMPTY else terminal(q), backup))
        approx_solve_lower(self.CFG, self.GRID)
        assert per_stage[self.CFG.horizon - 1][0] > 0  # the backup at q = {} interpolates


LOWER_BOUND_RING8 = """
    import sys

    import numpy as np
    from epitest import approx
    from epitest.beliefs import Belief
    from epitest.model import ContactGraph, ContactSchedule
    from epitest.scenario import ScenarioConfig

    n, horizon, bound = int(sys.argv[1]), int(sys.argv[2]), getattr(approx, sys.argv[3])
    edges = {tuple(sorted((i, i % n + 1))): 1.0 for i in range(1, n + 1)}
    rng = np.random.default_rng(1)
    for _ in range(n):
        a, b = sorted(int(v) for v in rng.choice(np.arange(1, n + 1), size=2, replace=False))
        edges.setdefault((a, b), 0.5)
    g = ContactGraph.from_edges(n, [(a, b, w) for (a, b), w in edges.items()])
    schedule = ContactSchedule.static(horizon, g)
    cfg = ScenarioConfig(n, horizon, 0.5, 0.3, schedule, Belief.uniform(n), 0)
    bound(cfg, approx.nested_grid_ladder(n, [8], 601)[0])
    """


def test_ring8_lower_bound_memory():
    """The ring-8 T=4 lower bound on its 2**8 corners plus 8 random points,
    in a child process limited to 3 GB of address space: with no memo, and
    the corner rows from one backup per (t, q), it stays under 160 MiB."""
    peak_mib = peak_rss_mib(LOWER_BOUND_RING8, 8, 4, "approx_solve_lower")
    assert peak_mib < 160, peak_mib


def test_ring12_lower_bound_memory():
    """The same at ring-12 T=4, the largest N the bounds admit: the corners
    are implicit, so nothing of size 4**N is built, not even a corner block."""
    peak_mib = peak_rss_mib(LOWER_BOUND_RING8, 12, 4, "approx_solve_lower")
    assert peak_mib < 224, peak_mib


def test_ring8_t6_upper_bound_memory():
    """The ring-8 T=6 upper bound: point backups build only the vectors that
    win at a grid point, never the cross-sum, so it stays under 200 MiB."""
    peak_mib = peak_rss_mib(LOWER_BOUND_RING8, 8, 6, "approx_solve_upper")
    assert peak_mib < 200, peak_mib


def test_ring12_upper_bound_memory():
    """The ring-12 T=4 upper bound: with the corners implicit, no dense
    corner block exists, so it stays under 224 MiB."""
    peak_mib = peak_rss_mib(LOWER_BOUND_RING8, 12, 4, "approx_solve_upper")
    assert peak_mib < 224, peak_mib


class TestLpSolveCount:
    """Beliefs with a zero coordinate are settled by support, never by HiGHS."""

    @pytest.fixture
    def lp_beliefs(self, monkeypatch):
        seen = []
        real = approx.linprog

        def counting(c, **kwargs):
            seen.append(len(kwargs["b_ub"]))  # rows: supp(b)
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
        assert all(rows == 1 << cfg.n for rows in lp_beliefs)


TOL = approx.BRACKET_TOL


class TestGapRowStatus:
    @pytest.mark.parametrize("lower, upper, oracle, status", [
        (1.0, 1.0 - 0.5 * TOL, None, "ok"),
        (1.0, 1.0 - 2.0 * TOL, None, "sandwich_violation"),
        (1.0, 1.0 - 2.0 * TOL, 5.0, "sandwich_violation"),
        (1.0, 2.0, 1.0 - 0.5 * TOL, "ok"),
        (1.0, 2.0, 1.0 - 2.0 * TOL, "oracle_outside"),
        (1.0, 2.0, 2.0 + 0.5 * TOL, "ok"),
        (1.0, 2.0, 2.0 + 2.0 * TOL, "oracle_outside"),
        (1.0, 2.0, None, "ok"),
    ], ids=["crossed-inside-tol", "crossed", "crossed-named-before-the-oracle",
            "oracle-just-inside-below", "oracle-just-outside-below",
            "oracle-just-inside-above", "oracle-just-outside-above", "no-oracle"])
    def test_status_at_the_edges_of_the_tolerance(self, lower, upper, oracle, status):
        assert approx.GapRow(2, 1, 0, lower, upper, oracle).status == status

    def test_violations_are_the_crossed_rows(self):
        cfg = scenario_c()
        grid = BeliefGrid.corners_plus_random(2, 4, seed=1)
        sw = sandwich(cfg, grid, probe_beliefs(2, 3))
        assert {row.R for row in sw.rows} == {len(grid.points)}
        assert all(row.oracle is None for row in sw.rows)
        assert sw.violations == []
        sw.rows[1].lower = sw.rows[1].upper + 1.0
        sw.rows[2].oracle = sw.rows[2].upper + 1.0
        assert sw.violations == [sw.rows[1]]


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
        (6, 4, 0.5, 0.3, True, 35),
        (6, 4, 0.0, 0.0, False, 36),
    ], ids=["n4-p1-free-tests-schedule", "n4-p0-static", "n5-schedule", "n5-free-tests",
            "n6-schedule", "n6-p0-free-tests-linear"])
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
            for pt in every_row(coarse):
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

"""Reproducible experiment runner: benchmarks, bound reports, exports.

Everything written here is deterministic given the scenario, whose seed is
the base seed: result tables carry the scenario digest and base seed of
every row, per-run records allow replaying any single episode, and
aggregation order is independent of the worker count. Wall-clock timings
are the one exception; they go to a separate file excluded from the
determinism contract.
"""

from __future__ import annotations

import csv
import time
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .approx import nested_grid_ladder, sandwich
from .errors import SizeCapError
from .oracle import oracle_value
from .policies import OpenLoopPlan, make_policy
from .presets import probe_beliefs
from .scenario import ScenarioConfig
from .simulate import monte_carlo_eval

RESULT_COLUMNS = (
    "policy",
    "status",
    "mean_cost",
    "std_error",
    "mean_tests_used",
    "mean_final_infections",
    "n_runs",
    "base_seed",
    "scenario_digest",
)

PER_RUN_COLUMNS = (
    "policy", "run_index", "cost", "tests_used", "final_infections",
    "base_seed", "scenario_digest",
)

SANDWICH_COLUMNS = (
    "R", "stage", "probe", "lower", "upper", "gap", "oracle", "status",
    "base_seed", "scenario_digest",
)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def run_benchmark(
    cfg: ScenarioConfig,
    policies: Sequence[str],
    n_runs: int,
    plan: Optional[OpenLoopPlan] = None,
    workers: int = 1,
) -> list:
    """Evaluate every requested policy on the paired seeds of ``cfg.seed``.

    Returns one (name, result, seconds) per policy, in request order, its
    seconds covering its build and its runs. Every policy is built before the
    first run, so a bad name or plan fails first. A solver cap (for the exact
    row) gives that row no result and no time and leaves the others untouched.
    Exact and approximate policies share the environment seed stream with
    the baselines, so per-run costs are directly comparable.
    """
    built = []
    for name in policies:
        started = time.perf_counter()
        try:
            built.append((name, make_policy(name, cfg, plan=plan), time.perf_counter() - started))
        except SizeCapError:
            built.append((name, None, None))
    out = []
    for name, policy, seconds in built:
        if policy is None:
            out.append((name, None, None))
            continue
        started = time.perf_counter()
        result = monte_carlo_eval(cfg, policy, n_runs, workers=workers)
        out.append((name, result, seconds + time.perf_counter() - started))
    return out


def _write_csv(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def write_result_table(results: list, cfg: ScenarioConfig, n_runs: int, out_dir: Path) -> None:
    """Write :func:`run_benchmark`'s results. results.csv and per_run.csv are
    byte-identical across reruns; the wall-clock column lives in timings.csv
    only."""
    out_dir = Path(out_dir)
    tail = (cfg.seed, cfg.digest())
    _write_csv(out_dir / "results.csv", RESULT_COLUMNS, (
        [name, "cap_exceeded", "", "", "", "", n_runs, *tail] if r is None else
        [name, "ok", _fmt(r.mean_cost), _fmt(r.std_error), _fmt(r.mean_tests),
         _fmt(r.mean_final_infections), n_runs, *tail]
        for name, r, _ in results
    ))
    _write_csv(out_dir / "per_run.csv", PER_RUN_COLUMNS, (
        [name, i, _fmt(float(cost)), int(tests), int(final), *tail]
        for name, r, _ in results if r is not None
        for i, (cost, tests, final) in enumerate(zip(r.costs, r.tests, r.final_infections))
    ))
    _write_csv(out_dir / "timings.csv", ("policy", "runtime_seconds"),
               ([name, _fmt(seconds)] for name, _, seconds in results))


def run_sandwich_report(cfg: ScenarioConfig, grid_sizes: Sequence[int], probe_count: int) -> list:
    """Bound gaps over a nested grid ladder; the empirical gap-versus-R curve.

    Returns the :class:`approx.GapRow` of every grid, stage and probe, in
    that order. Probes and grids are drawn from ``cfg.seed``. Each row's
    oracle is filled when brute-force valuation is feasible, that is when
    (2(N+1))^(T-1), a bound on the oracle's tree size, is at most 200,000;
    a row's ``status`` then also says whether the oracle escapes its bounds.
    """
    # first, so that the size cap is checked before any 2^N-sized draw
    grids = nested_grid_ladder(cfg.n, list(grid_sizes), seed=cfg.seed)
    probes = probe_beliefs(
        cfg.n, probe_count, np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0xB111,))
    )
    include_oracle = (2 * (cfg.n + 1)) ** (cfg.horizon - 1) <= 200_000
    oracle_cache = {}
    rows = []
    for grid in grids:
        for row in sandwich(cfg, grid, probes).rows:
            if include_oracle:
                key = (row.t, row.probe)
                if key not in oracle_cache:
                    oracle_cache[key] = oracle_value(cfg, probes[row.probe], t=row.t)
                row.oracle = oracle_cache[key]
            rows.append(row)
    return rows


def write_sandwich_report(rows: list, cfg: ScenarioConfig, out_dir: Path) -> None:
    tail = (cfg.seed, cfg.digest())
    _write_csv(Path(out_dir) / "sandwich.csv", SANDWICH_COLUMNS, (
        [r.R, r.t, r.probe, _fmt(r.lower), _fmt(r.upper),
         _fmt(r.gap), _fmt(r.oracle), r.status, *tail]
        for r in rows
    ))

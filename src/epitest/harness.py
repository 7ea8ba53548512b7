"""Reproducible experiment runner: benchmarks, bound reports, exports.

Everything written here is deterministic given the experiment spec: result
tables carry the scenario digest and base seed of every row, per-run records
allow replaying any single episode, and aggregation order is independent of
the worker count. Wall-clock timings are the one exception; they go to a
separate file excluded from the determinism contract.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .approx import nested_grid_ladder, sandwich
from .errors import CoverageError, SizeCapError
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


@dataclass
class ExperimentSpec:
    """One benchmark request: a scenario plus what to run on it."""

    scenario: ScenarioConfig
    policies: Sequence[str] = ("never", "greedy")
    n_runs: int = 1000
    probe_count: int = 10
    grid_sizes: Sequence[int] = (2, 4, 8)
    plan: Optional[OpenLoopPlan] = None
    workers: int = 1
    edge_visibility: str = "before"
    seed_override: Optional[int] = None
    out_dir: Optional[Path] = None

    @property
    def base_seed(self) -> int:
        return self.seed_override if self.seed_override is not None else self.scenario.seed


@dataclass
class ResultRow:
    policy: str
    status: str
    mean_cost: Optional[float] = None
    std_error: Optional[float] = None
    mean_tests_used: Optional[float] = None
    mean_final_infections: Optional[float] = None
    runtime_seconds: Optional[float] = None
    per_run: Optional[list] = field(default=None, repr=False)


@dataclass
class ResultTable:
    rows: list
    n_runs: int
    base_seed: int
    scenario_digest: str


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def run_benchmark(spec: ExperimentSpec) -> ResultTable:
    """Evaluate every requested policy on paired seeds.

    A solver cap (for the exact row) marks that row and leaves the others
    untouched. Exact and approximate policies share the environment seed
    stream with the baselines, so per-run costs are directly comparable.
    """
    cfg = spec.scenario
    digest = cfg.digest()
    rows = []
    for name in spec.policies:
        started = time.perf_counter()
        try:
            policy = make_policy(name, cfg, plan=spec.plan)
        except SizeCapError:
            rows.append(ResultRow(name, "cap_exceeded"))
            continue
        result = monte_carlo_eval(
            cfg,
            policy,
            spec.n_runs,
            base_seed=spec.base_seed,
            workers=spec.workers,
            edge_visibility=spec.edge_visibility,
        )
        per_run = [
            (name, i, float(result.costs[i]), int(result.tests[i]), int(result.final_infections[i]))
            for i in range(spec.n_runs)
        ]
        rows.append(
            ResultRow(
                name,
                "ok",
                result.mean_cost,
                result.std_error,
                result.mean_tests,
                result.mean_final_infections,
                time.perf_counter() - started,
                per_run,
            )
        )
    return ResultTable(rows, spec.n_runs, spec.base_seed, digest)


def _write_csv(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def write_result_table(table: ResultTable, out_dir: Path) -> None:
    """results.csv and per_run.csv are byte-identical across reruns; the
    wall-clock column lives in timings.csv only."""
    out_dir = Path(out_dir)
    _write_csv(out_dir / "results.csv", RESULT_COLUMNS, (
        [r.policy, r.status, _fmt(r.mean_cost), _fmt(r.std_error),
         _fmt(r.mean_tests_used), _fmt(r.mean_final_infections),
         table.n_runs, table.base_seed, table.scenario_digest]
        for r in table.rows
    ))
    _write_csv(out_dir / "per_run.csv", PER_RUN_COLUMNS, (
        [rec[0], rec[1], _fmt(rec[2]), rec[3], rec[4], table.base_seed, table.scenario_digest]
        for r in table.rows
        for rec in r.per_run or []
    ))
    _write_csv(out_dir / "timings.csv", ("policy", "runtime_seconds"),
               ([r.policy, _fmt(r.runtime_seconds)] for r in table.rows))


@dataclass
class SandwichReportRow:
    R: int
    stage: int
    probe: int
    lower: Optional[float]
    upper: Optional[float]
    oracle: Optional[float]
    status: str  # ok | coverage | sandwich_violation | oracle_outside

    @property
    def gap(self) -> Optional[float]:
        if self.lower is None or self.upper is None:
            return None
        return self.upper - self.lower


def run_sandwich_report(spec: ExperimentSpec, include_oracle: Optional[bool] = None) -> list:
    """Bound gaps over a nested grid ladder; the empirical gap-versus-R curve.

    The oracle column is filled whenever brute-force valuation is feasible
    (or forced by ``include_oracle``); rows where it escapes the bounds are
    marked so callers can fail loudly.
    """
    cfg = spec.scenario
    probes = probe_beliefs(
        cfg.n,
        spec.probe_count,
        np.random.SeedSequence(entropy=spec.base_seed, spawn_key=(0xB111,)),
    )
    if include_oracle is None:
        include_oracle = (2 * (cfg.n + 1)) ** (cfg.horizon - 1) <= 200_000
    grids = nested_grid_ladder(cfg.n, list(spec.grid_sizes), seed=spec.base_seed)
    oracle_cache = {}
    rows = []
    for R, grid in zip(spec.grid_sizes, grids):
        try:
            sw = sandwich(cfg, grid, probes)
        except CoverageError:
            for t in range(1, cfg.horizon + 1):
                for pi in range(len(probes)):
                    rows.append(SandwichReportRow(R, t, pi, None, None, None, "coverage"))
            continue
        for row in sw.rows:
            oracle_val = None
            if include_oracle:
                key = (row.t, row.probe)
                if key not in oracle_cache:
                    oracle_cache[key] = oracle_value(cfg, probes[row.probe], t=row.t)
                oracle_val = oracle_cache[key]
            status = "ok"
            if row.lower > row.upper + 1e-9:
                status = "sandwich_violation"
            elif oracle_val is not None and not (
                row.lower - 1e-9 <= oracle_val <= row.upper + 1e-9
            ):
                status = "oracle_outside"
            rows.append(
                SandwichReportRow(R, row.t, row.probe, row.lower, row.upper, oracle_val, status)
            )
    return rows


def write_sandwich_report(rows: list, spec: ExperimentSpec, out_dir: Path) -> None:
    digest = spec.scenario.digest()
    _write_csv(Path(out_dir) / "sandwich.csv", SANDWICH_COLUMNS, (
        [r.R, r.stage, r.probe, _fmt(r.lower), _fmt(r.upper),
         _fmt(r.gap), _fmt(r.oracle), r.status, spec.base_seed, digest]
        for r in rows
    ))

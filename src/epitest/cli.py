"""Command-line entry points for scenario validation, solving, benchmarking
and trace export.

Verbs: validate, solve-exact, solve-approx, bench, sandwich, trace. Exit
codes: 0 success, 2 validation failure, 3 solver cap exceeded, 4 internal
inconsistency (a bound cross-check failed).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .approx import BeliefGrid, approx_solve_lower, approx_solve_upper
from .errors import (
    CoverageError,
    InternalInconsistency,
    SizeCapError,
    ValidationError,
)
from .exact import save_value_function, solve
from .harness import (
    run_benchmark,
    run_sandwich_report,
    write_result_table,
    write_sandwich_report,
)
from .policies import OpenLoopPlan, make_policy
from .scenario import load_scenario
from .simulate import run_episode, run_seed

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAP = 3
EXIT_INCONSISTENT = 4


def _common_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--scenario", required=True, help="scenario YAML file")
    sub.add_argument("--out-dir", default="out", help="directory for result files")
    sub.add_argument("--seed-override", type=int, default=None,
                     help="replace the scenario's base seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epitest",
        description="sequential testing on contact networks: solvers and benchmarks",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("validate", help="parse and validate a scenario file")
    _common_flags(sub)

    sub = subs.add_parser("solve-exact", help="exact value function, saved to disk")
    _common_flags(sub)

    sub = subs.add_parser("solve-approx", help="upper/lower value bounds on a belief grid")
    _common_flags(sub)
    sub.add_argument("--grid-size", type=int, default=8,
                     help="random interior points added to the corner grid")

    sub = subs.add_parser("bench", help="Monte Carlo policy comparison on paired seeds")
    _common_flags(sub)
    sub.add_argument("--policies", default="never,greedy",
                     help="comma list from never,random,open_loop,improved,greedy,lookahead,exact")
    sub.add_argument("--n-runs", type=int, default=1000)
    sub.add_argument("--workers", type=int, default=1,
                     help="parallel Monte Carlo workers")
    sub.add_argument("--plan", default=None,
                     help="open-loop plan as comma-separated actions, e.g. 1,2,3,0")

    sub = subs.add_parser("sandwich", help="bound gaps over a nested grid ladder")
    _common_flags(sub)
    sub.add_argument("--grid-sizes", default="2,4,8")
    sub.add_argument("--probes", type=int, default=10)

    sub = subs.add_parser("trace", help="run one episode and export its step records")
    _common_flags(sub)
    sub.add_argument("--policy", default="greedy")
    sub.add_argument("--run-index", type=int, default=0)
    sub.add_argument("--plan", default=None)
    return parser


def _load(args):
    cfg = load_scenario(args.scenario)
    if args.seed_override is not None:
        cfg = cfg.with_seed(args.seed_override)
    return cfg


def _count(value: int, flag: str, least: int = 0) -> int:
    """A count or run index from the command line: at least ``least``."""
    if value < least:
        raise ValidationError(f"{flag} must be >= {least}, got {value}")
    return value


def _int_list(raw: str, flag: str) -> tuple:
    """Comma-separated integers; the first token that is not one is named."""
    out = []
    for tok in raw.split(","):
        try:
            out.append(int(tok))
        except ValueError:
            raise ValidationError(f"{flag}: {tok!r} is not an integer") from None
    return tuple(out)


def _parse_plan(raw):
    if raw is None:
        return None
    return OpenLoopPlan(_int_list(raw, "--plan"))


def cmd_validate(args) -> int:
    cfg = _load(args)
    print(f"ok: N={cfg.n} T={cfg.horizon} p={cfg.p} lambda={cfg.lam} "
          f"seed={cfg.seed} digest={cfg.digest()}")
    return EXIT_OK


def cmd_solve_exact(args) -> int:
    cfg = _load(args)
    vf = solve(cfg)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "value_function.npz"
    save_value_function(vf, path)
    print(f"solved: stage-1 vectors={len(vf.alpha_set(1))} "
          f"V1(initial)={vf.value(1, cfg.initial_belief):.12g} -> {path}")
    return EXIT_OK


def cmd_solve_approx(args) -> int:
    cfg = _load(args)
    size = _count(args.grid_size, "--grid-size")
    grid = BeliefGrid.corners_plus_random(cfg.n, size, cfg.seed)
    ub = approx_solve_upper(cfg, grid)
    lb = approx_solve_lower(cfg, grid)
    b0 = cfg.initial_belief
    lo, hi = lb.value(1, b0), ub.value(1, b0)
    if lo > hi + 1e-9:
        raise InternalInconsistency(f"lower bound {lo} exceeds upper bound {hi}")
    print(f"bounds at initial belief: [{lo:.12g}, {hi:.12g}] gap={hi - lo:.12g} "
          f"grid={grid.descriptor}")
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = _load(args)
    policies = tuple(tok.strip() for tok in args.policies.split(",") if tok.strip())
    if not policies:
        raise ValidationError(f"--policies names no policy: {args.policies!r}")
    workers = _count(args.workers, "--workers", 1)
    n_runs = _count(args.n_runs, "--n-runs", 1)
    results = run_benchmark(cfg, policies, n_runs, _parse_plan(args.plan), workers)
    write_result_table(results, cfg, n_runs, Path(args.out_dir))
    for name, r, _ in results:
        if r is None:
            print(f"{name:>10}: cap_exceeded")
        else:
            se = f"{r.std_error:.4f}" if r.std_error is not None else "n/a"
            print(f"{name:>10}: cost={r.mean_cost:.4f} se={se} "
                  f"tests={r.mean_tests:.3f} final_inf={r.mean_final_infections:.3f}")
    print(f"written: {Path(args.out_dir) / 'results.csv'}")
    return EXIT_OK


def cmd_sandwich(args) -> int:
    cfg = _load(args)
    grid_sizes = tuple(
        _count(r, "--grid-sizes") for r in _int_list(args.grid_sizes, "--grid-sizes")
    )
    rows = run_sandwich_report(cfg, grid_sizes, _count(args.probes, "--probes", 1))
    write_sandwich_report(rows, cfg, Path(args.out_dir))
    bad = [r for r in rows if r.status in ("sandwich_violation", "oracle_outside")]
    coverage = [r for r in rows if r.status == "coverage"]
    per_r = {}
    for r in rows:
        if r.gap is not None:
            per_r.setdefault(r.R, []).append(r.gap)
    for R in sorted(per_r):
        gaps = per_r[R]
        print(f"R={R}: mean gap={np.mean(gaps):.6f} max gap={np.max(gaps):.6f}")
    if coverage:
        print(f"coverage errors on {len(coverage)} rows")
    print(f"written: {Path(args.out_dir) / 'sandwich.csv'}")
    if bad:
        raise InternalInconsistency(
            f"{len(bad)} rows violate the bound ordering (see sandwich.csv)"
        )
    return EXIT_OK


def cmd_trace(args) -> int:
    cfg = _load(args)
    policy = make_policy(args.policy, cfg, plan=_parse_plan(args.plan))
    index = _count(args.run_index, "--run-index")
    trace = run_episode(cfg, policy, run_seed(cfg.seed, index))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "trace.jsonl"
    with open(path, "w", newline="\n") as fh:
        fh.write(trace.to_jsonl())
    print(f"episode cost={trace.total_cost:.6g} tests={trace.tests_used} "
          f"final_infections={trace.final_infections} -> {path}")
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "solve-exact": cmd_solve_exact,
    "solve-approx": cmd_solve_approx,
    "bench": cmd_bench,
    "sandwich": cmd_sandwich,
    "trace": cmd_trace,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValidationError, CoverageError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SizeCapError as exc:
        print(f"size cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())

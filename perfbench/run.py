#!/usr/bin/env python3
"""Benchmark of the epitest command-line verbs on seeded fixtures.

    python3 perfbench/run.py --workload trace-ring --seed 7 --seconds 10 --trace 0

Run it from the root of a source tree: it imports the package from ``src/``
and builds nothing. Each op is one in-process call of ``epitest.cli.main``
(single process, no worker pool), timed from outside, followed by a check of
the files it wrote. Ops repeat, one after the other, for ``--seconds``.

Workloads (see BENCHMARK.json for why each is there):

- exact-path     solve-exact on path-5-5; output V1(b0) against the oracle.
- mc-small       bench on scenario A, seven policies, 200 runs each.
- trace-ring     trace on ring-9 (lambda 0.01), improved; then a lookahead probe.
- sandwich-ring  sandwich on ring-5, T=4, grid sizes 2,4,8, 10 probes.

Seeds. ``--fixture-seed`` (default 1; use 2 as the held-out check) draws the
path weights and ring chords, so it fixes each instance and its size.
``--seed`` is the base seed of every scenario, which draws what varies
between runs of one instance: Monte Carlo streams, trace episodes, sandwich
grids and probes. The exact solver reads no seed, so exact-path solves the
same instance in every run.

An op fails if the call raises (counted by exception kind, such as
``inconsistent_observation``), exits non-zero, or writes output its check
rejects. ``correct`` is false only for the last two: a call that raised
wrote nothing to judge.

Known defect. lookahead on trace-ring's instance raises
InconsistentObservationError in a share of its episodes (see
``workloads.TraceRing``). Timed ops must all complete, so trace-ring times
improved episodes only, and after the timed ops runs a fixed set of lookahead
episodes, untimed and outside ``attempted``/``failed``. What they raise is
printed, kept in the result file and, with ``--trace 1``, reported as
``known_defect.inconsistent_observation``; a wrong output among them still
makes ``correct`` false.

``--trace 0`` prints the end-to-end metrics:

- op_p50_s      median op time; a failed op ranks above every completed one
- ops_per_s     completed ops per second of op time
- peak_rss_mib  peak resident memory of this process
- setup_s       import, fixture, reference values and one untimed warm-up op,
                timed from before the first numpy import; the median of this
                process and two fresh ones

``--trace 1`` runs half the time untraced and half traced (see tracing.py),
and prints the per-layer metrics of the traced half, per traced op, with the
tracing overhead. The last line of stdout is the JSON result. A manifest with
provenance and sample counts, and the spans of a traced run, go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, namedtuple
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_FIXTURE_SEED = 1
SETUP_SAMPLES = 3  # this process plus two fresh ones
SETUP_CHILD_TIMEOUT_S = 60
P90_MIN_SAMPLES = 100  # a p90 needs ten samples beyond it
PROBE_METRIC = "known_defect.inconsistent_observation"

Op = namedtuple("Op", "key seconds kind detail")

# workload-specific names for the generic op metrics
ALIASES = {
    "exact-path": {"op_p50_s": "solve_s"},
    "trace-ring": {"op_p50_s": "episode_p50_s", "op_p90_s": "episode_p90_s"},
    "sandwich-ring": {"op_p50_s": "sandwich_s"},
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def parse_args(spec: dict, argv=None):
    ap = argparse.ArgumentParser(description="epitest benchmark")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fixture-seed", type=int, default=DEFAULT_FIXTURE_SEED)
    ap.add_argument("--setup-only", action="store_true",
                    help="time set-up alone and print it (used for the extra set-up samples)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.fixture_seed < 0 or args.seconds <= 0:
        ap.error("seeds must be >= 0 and --seconds > 0")
    return args


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup(args, work_dir: Path):
    """Import the package, write the fixture, compute reference values and
    run one untimed warm-up op. Returns (workload, seconds taken)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    if not Path(workloads.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"epitest was imported from {workloads.cli.__file__}, not {SRC}")
    wl = workloads.WORKLOADS[args.workload](args.seed, args.fixture_seed, work_dir)
    wl.out.mkdir(parents=True)
    wl.prepare()
    key = wl.warmup_key()
    _, code, exc, _ = workloads.run_op(wl.argv(key))
    if exc is None and code == 0:
        try:
            wl.check(key)
        except (workloads.CheckFailed, OSError) as err:
            wl.fixture["warmup_check"] = str(err)
    else:
        wl.fixture["warmup_failure"] = repr(exc) if exc is not None else f"exit {code}"
    return wl, time.perf_counter() - start


def setup_in_fresh_process(args) -> float:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--fixture-seed", str(args.fixture_seed), "--setup-only",
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise SystemExit(f"set-up in a fresh process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def run_one(wl, key, tracer=None) -> Op:
    """One op: its CLI call, then the check of what it wrote."""
    import workloads

    wl.clear_outputs()
    secs, code, exc, printed = workloads.run_op(wl.argv(key), tracer)
    kind = detail = None
    if exc is not None:
        kind, detail = workloads.failure_kind(exc), repr(exc)
    elif code != 0:
        kind, detail = f"exit_{code}", printed.strip()[-300:]
    else:
        try:
            wl.check(key)
        except (workloads.CheckFailed, OSError) as err:
            kind, detail = "output_check", str(err)
    return Op(key, secs, kind, detail)


def run_ops(wl, seconds: float, tracer=None) -> list:
    """Ops 0, 1, ... until ``seconds`` have passed (at least one op)."""
    ops = []
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.op = len(ops)
        ops.append(run_one(wl, wl.key(len(ops)), tracer))
    return ops


def latencies(ops) -> list:
    """Op times, sorted; a failed op counts as slower than every completed one."""
    done = sorted(op.seconds for op in ops if op.kind is None)
    return done + [math.inf] * (len(ops) - len(done))


def op_p50(ops) -> float:
    """Median of ``latencies``; past half failed, the median of all op times
    (``failed`` in the result then tells the story)."""
    p50 = statistics.median(latencies(ops))
    return p50 if math.isfinite(p50) else statistics.median(op.seconds for op in ops)


def op_p90(ops):
    """Nearest-rank p90, or None below 100 samples or past 10% failed."""
    times = latencies(ops)
    if len(times) < P90_MIN_SAMPLES:
        return None
    p90 = times[math.ceil(0.9 * len(times)) - 1]
    return p90 if math.isfinite(p90) else None


def ops_per_s(ops) -> float:
    return sum(op.kind is None for op in ops) / sum(op.seconds for op in ops)


def measure_end_to_end(args, wl, setup_samples):
    """Untraced ops for the whole run. Returns (ops, metrics, extra), each
    metric as (value, sample count)."""
    ops = run_ops(wl, args.seconds)
    metrics = {
        "op_p50_s": (op_p50(ops), len(ops)),
        "ops_per_s": (ops_per_s(ops), len(ops)),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "setup_s": (statistics.median(setup_samples), len(setup_samples)),
    }
    extra = {"op_p90_s": (op_p90(ops), len(ops))}
    if wl.episodes_per_op:
        extra["episodes_per_s"] = (ops_per_s(ops) * wl.episodes_per_op, len(ops))
    return ops, metrics, extra


def measure_layers(args, wl, result, spans_path):
    """Half the run untraced, half traced; per-layer metrics per traced op."""
    import tracing

    untraced = run_ops(wl, args.seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_ops(wl, args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    ops = untraced + traced
    failures = Counter(op.kind for op in ops if op.kind is not None)
    layer = tracer.per_layer(len(traced), wl.n, failures)
    layer["trace.op_s"] = op_p50(traced)
    layer["trace.overhead_s"] = op_p50(traced) - op_p50(untraced)
    tracer.write_spans(spans_path)
    result.update(
        layers=tracer.layer_table(len(traced)),
        histories=tracer.history_table(),
        spans_file=str(spans_path.relative_to(ROOT)),
        spans_kept=len(tracer.spans),
        spans_dropped=tracer.dropped,
        missing_targets=tracer.missing,
    )
    metrics = {name: (value, len(traced)) for name, value in layer.items()}
    return ops, metrics, {"untraced_op_p50_s": (op_p50(untraced), len(untraced))}


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except FileNotFoundError:
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the package's source files, for trees without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "epitest").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def manifest(args, wl) -> dict:
    import numpy
    import scipy
    import yaml
    import epitest

    return {
        "workload": args.workload,
        "seed": args.seed,
        "fixture_seed": args.fixture_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "epitest": getattr(epitest, "__version__", None),
        "fixture": wl.fixture,
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(spec, argv)
    if not (SRC / "epitest" / "__init__.py").is_file():
        print(f"no epitest package under {SRC}; run from the root of a source tree",
              file=sys.stderr)
        return 2
    work_dir = OUT / f"work-{os.getpid()}"
    try:
        return run(args, spec, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run(args, spec, work_dir: Path) -> int:
    if args.setup_only:
        _, seconds = setup(args, work_dir)
        print(json.dumps({"setup_s": seconds}))
        return 0

    setup_samples = []
    if args.trace == 0:  # fresh processes first, while this one is still small
        setup_samples = [setup_in_fresh_process(args) for _ in range(SETUP_SAMPLES - 1)]
    wl, seconds = setup(args, work_dir)
    setup_samples.append(seconds)
    gc.collect()
    import workloads  # loaded by setup()

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"manifest": manifest(args, wl), "setup_samples": setup_samples}
    if args.trace == 0:
        ops, metrics, extra = measure_end_to_end(args, wl, setup_samples)
        declared = spec["end_to_end"]
    else:
        ops, metrics, extra = measure_layers(args, wl, result, OUT / f"{stem}-spans.csv")
        declared = spec["per_layer"]
    probe = [run_one(wl, key) for key in wl.probe_keys()]
    probe_failures = Counter(op.kind for op in probe if op.kind is not None)
    if args.trace == 1:
        metrics[PROBE_METRIC] = (probe_failures["inconsistent_observation"], len(probe))

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise SystemExit(
            f"metrics do not match BENCHMARK.json: missing {sorted(set(units) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(units))}"
        )
    failures = Counter(op.kind for op in ops if op.kind is not None)
    failed = sum(failures.values())

    result.update(
        metrics={n: {"value": v, "unit": units[n], "samples": s} for n, (v, s) in metrics.items()},
        extra={n: {"value": v, "samples": s} for n, (v, s) in extra.items()},
        attempted=len(ops),
        failed=failed,
        failures=dict(failures),
        failure_examples=sorted({f"{op.kind}: {op.detail}" for op in ops if op.kind})[:10],
        ops=[[op.key, op.seconds, op.kind] for op in ops],
        probe={
            "attempted": len(probe),
            "failures": dict(probe_failures),
            "ops": [[op.key, op.seconds, op.kind] for op in probe],
        },
    )
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1, default=str)

    aliases = ALIASES.get(args.workload, {})
    print(f"# {args.workload} seed={args.seed} fixture_seed={args.fixture_seed} "
          f"trace={args.trace} ops={len(ops)}")
    for name, (value, samples) in list(metrics.items()) + list(extra.items()):
        unit = units.get(name, "1/s" if name.endswith("_per_s") else "s")
        alias = f" [{aliases[name]}]" if name in aliases else ""
        shown = f"{value:.6g} {unit}" if value is not None else "not reported (n < 100)"
        print(f"{name}{alias} = {shown} (n={samples})")
    print(f"failed_op_ratio = {failed}/{len(ops)} = {failed / len(ops):.4g} {dict(failures)}")
    if probe:
        print(f"known-defect probe: {sum(probe_failures.values())} of {len(probe)} untimed "
              f"{probe[0].key[0]} ops raised {dict(probe_failures)}")
    print(json.dumps({
        "correct": not any(workloads.is_wrong_output(op.kind) for op in ops + probe),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, (v, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

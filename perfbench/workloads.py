"""The four workloads: their fixtures, the CLI call of each op and its output check.

Every op is one in-process call of ``epitest.cli.main`` with a single process
and no worker pool. A workload maps an op number to a key (the op's inputs),
the key to CLI arguments, and checks the files the call wrote. Checks raise
:class:`CheckFailed`; the runner counts that op as failed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import re
import time
import zipfile
from pathlib import Path

from epitest import cli
from epitest.exact import load_value_function
from epitest.oracle import oracle_value
from epitest.policies import make_policy, policy_tree_value
from epitest.scenario import load_scenario

import fixtures

ROOT = Path(__file__).resolve().parent.parent
TOL = 1e-9


class CheckFailed(Exception):
    """An op's output is wrong."""


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def check_value_function(path, belief, reference: float) -> None:
    """The saved value function loads and V1(b0) equals the oracle value."""
    try:
        vf = load_value_function(path)
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise CheckFailed(f"{path} does not load: {exc}") from exc
    v1 = vf.value(1, belief)
    if not abs(v1 - reference) <= TOL:
        raise CheckFailed(f"V1(b0) = {v1!r}, oracle value {reference!r}")


def check_bench(outputs: dict, reference: dict, tree_values: dict, n_runs: int) -> None:
    """Outputs equal the run's first ones byte for byte, and each deterministic
    policy's mean lies within 4 standard errors of its exact policy value."""
    for name, data in reference.items():
        if outputs.get(name) != data:
            raise CheckFailed(f"{name} differs from the first output of this run")
    rows = {r["policy"]: r for r in csv.DictReader(io.StringIO(outputs["results.csv"].decode()))}
    for policy, exact_value in tree_values.items():
        row = rows.get(policy)
        try:
            complete = row["status"] == "ok" and int(row["n_runs"]) == n_runs
            mean, se = float(row["mean_cost"]), float(row["std_error"])
        except (TypeError, KeyError, ValueError) as exc:
            raise CheckFailed(f"results.csv has no readable row for {policy}") from exc
        if not complete:
            raise CheckFailed(f"results.csv has no complete row for {policy}")
        if abs(mean - exact_value) > 4.0 * se + TOL:
            raise CheckFailed(
                f"{policy}: mean {mean} is more than 4 SE ({se}) from {exact_value}"
            )


def check_trace(data: bytes, horizon: int, replayed: bytes | None = None) -> None:
    """One record per step, stage costs summing to the total, and the same
    bytes as an earlier op with the same policy and run index."""
    if replayed is not None and data != replayed:
        raise CheckFailed("replayed run index wrote a different trace.jsonl")
    try:
        header, *records = [json.loads(line) for line in data.decode().splitlines()]
        steps = [r["t"] for r in records]
        total = sum(r["stage_cost"] for r in records)
        claimed = header["total_cost"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"trace.jsonl is malformed: {exc}") from exc
    if steps != list(range(1, horizon + 1)):
        raise CheckFailed(f"trace has steps {steps}, expected 1..{horizon}")
    if not abs(total - claimed) <= TOL:
        raise CheckFailed(f"stage costs sum to {total}, trace claims {claimed}")


def check_sandwich(path, expected_rows: int) -> None:
    """Every row has status ok, lower <= oracle <= upper, and none is missing."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != expected_rows:
        raise CheckFailed(f"sandwich.csv has {len(rows)} rows, expected {expected_rows}")
    for r in rows:
        where = f"R={r['R']} stage={r['stage']} probe={r['probe']}"
        if r["status"] != "ok":
            raise CheckFailed(f"{where}: status {r['status']}")
        try:
            lower, upper, oracle = float(r["lower"]), float(r["upper"]), float(r["oracle"])
        except ValueError as exc:
            raise CheckFailed(f"{where}: bound or oracle column is not a number") from exc
        if lower > upper + TOL:
            raise CheckFailed(f"{where}: lower {lower} exceeds upper {upper}")
        if not lower - TOL <= oracle <= upper + TOL:
            raise CheckFailed(f"{where}: oracle {oracle} outside [{lower}, {upper}]")


# ---------------------------------------------------------------------------
# running one op
# ---------------------------------------------------------------------------


def run_op(argv, tracer=None):
    """One in-process CLI call with its printed output captured.

    Returns (seconds, exit code, exception, output); the exception is None
    unless the call raised, in which case the exit code is None.
    """
    sink = io.StringIO()
    code = exc = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call("op." + argv[0], cli.main, (argv,), {})
        except SystemExit as err:  # argparse refused the arguments
            code = err.code
        except Exception as err:  # any raise is a failed op, counted by kind
            exc = err
        seconds = time.perf_counter() - start
    return seconds, code, exc, sink.getvalue()


def failure_kind(exc: BaseException) -> str:
    """InconsistentObservationError -> inconsistent_observation."""
    name = re.sub(r"Error$", "", type(exc).__name__) or type(exc).__name__
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()


def is_wrong_output(kind) -> bool:
    """A failed check or a non-zero exit; a raise (any other kind) wrote nothing."""
    return kind is not None and (kind == "output_check" or kind.startswith("exit_"))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """Fixture set-up, op inputs and output checks of one workload."""

    name = ""
    outputs: tuple = ()
    episodes_per_op = 0

    def __init__(self, seed: int, fixture_seed: int, work_dir: Path):
        self.seed = seed
        self.fixture_seed = fixture_seed
        self.out = work_dir / "op"
        self.work_dir = work_dir
        self.fixture = {}  # parameters recorded in the run manifest

    def prepare(self) -> None:
        """Write fixture files and compute reference values."""

    def key(self, k: int):
        """Inputs of op k; ops with equal keys must write equal outputs."""
        return None

    def warmup_key(self):
        return self.key(0)

    def probe_keys(self) -> list:
        """Inputs of untimed ops run after the timed ones to count a known
        defect; their raises are reported apart from the timed ops."""
        return []

    def argv(self, key) -> list:
        raise NotImplementedError

    def check(self, key) -> None:
        raise NotImplementedError

    def clear_outputs(self) -> None:
        for name in self.outputs:
            (self.out / name).unlink(missing_ok=True)

    def _write_fixture(self, doc: dict):
        """Write the scenario file the ops load; returns its parsed config."""
        self.scenario = self.work_dir / f"{self.name}.yaml"
        fixtures.write_scenario(doc, self.scenario)
        cfg = load_scenario(self.scenario)
        self.n = cfg.n
        self.fixture.update(scenario=doc, digest=cfg.digest())
        return cfg


class ExactPath(Workload):
    """solve-exact on path-5-5. The run seed is only the scenario's base seed,
    which the solver does not read: every run solves the same instance."""

    name = "exact-path"
    outputs = ("value_function.npz",)

    def prepare(self):
        cfg = self._write_fixture(fixtures.path_scenario(5, 5, self.fixture_seed, seed=self.seed))
        self.belief = cfg.initial_belief
        self.reference = oracle_value(cfg, cfg.initial_belief)
        self.fixture["oracle_value"] = self.reference

    def argv(self, key):
        return ["solve-exact", "--scenario", str(self.scenario), "--out-dir", str(self.out)]

    def check(self, key):
        check_value_function(self.out / "value_function.npz", self.belief, self.reference)


BENCH_POLICIES = ("never", "random", "open_loop", "improved", "greedy", "lookahead", "exact")
BENCH_RUNS = 200


class MonteCarloSmall(Workload):
    """bench on scenario A, all seven policies, base seed = the run seed."""

    name = "mc-small"
    outputs = ("results.csv", "per_run.csv", "timings.csv")
    episodes_per_op = len(BENCH_POLICIES) * BENCH_RUNS
    scenario = ROOT / "scenarios" / "scenario_a.yaml"

    def prepare(self):
        cfg = load_scenario(self.scenario).with_seed(self.seed)
        self.n = cfg.n
        self.tree_values = {
            name: policy_tree_value(cfg, make_policy(name, cfg), cfg.initial_belief)
            for name in BENCH_POLICIES
            if name != "random"
        }
        self.reference = {}
        self.fixture.update(
            scenario=str(self.scenario.relative_to(ROOT)),
            digest=cfg.digest(),
            n_runs=BENCH_RUNS,
            policies=list(BENCH_POLICIES),
            policy_tree_values=self.tree_values,
        )

    def argv(self, key):
        return [
            "bench", "--scenario", str(self.scenario),
            "--policies", ",".join(BENCH_POLICIES), "--n-runs", str(BENCH_RUNS),
            "--seed-override", str(self.seed), "--workers", "1", "--out-dir", str(self.out),
        ]

    def check(self, key):
        outputs = {name: (self.out / name).read_bytes() for name in ("results.csv", "per_run.csv")}
        check_bench(outputs, self.reference, self.tree_values, BENCH_RUNS)
        self.reference = self.reference or outputs


REPLAY_EVERY = 8  # every 8th op replays the op before it
WARMUP_RUN_INDEX = 1_000_000
PROBE_EPISODES = 24


class TraceRing(Workload):
    """trace on ring-9, lambda=0.01: timed improved episodes, then a probe of
    lookahead episodes for a known defect.

    lookahead raises InconsistentObservationError in about a tenth to a fifth
    of its episodes on this instance: ``greedy_value`` and ``one_step_argmin``
    in ``epitest.policies`` guard the negative test branch with ``p1 < 1.0``,
    and p1, a float sum over a support where every state has the bit set, can
    fall just short of 1. Timed ops must all complete, so they run
    ``improved`` only. The probe runs lookahead on run indices
    0..PROBE_EPISODES-1 after the timed ops, untimed, checks what completes
    and counts what raises, so every result still reports the defect.
    """

    name = "trace-ring"
    outputs = ("trace.jsonl",)
    episodes_per_op = 1

    def prepare(self):
        doc = fixtures.ring_scenario(9, 9, self.fixture_seed, lam=0.01, seed=self.seed)
        self.horizon = self._write_fixture(doc).horizon
        self.first_output = {}

    def key(self, k):
        """(policy, run index); run indices count up from 0 between replays."""
        block, r = divmod(k, REPLAY_EVERY)
        return "improved", block * (REPLAY_EVERY - 1) + min(r, REPLAY_EVERY - 2)

    def warmup_key(self):
        return "improved", WARMUP_RUN_INDEX  # fills the dense kernel cache

    def probe_keys(self):
        return [("lookahead", index) for index in range(PROBE_EPISODES)]

    def argv(self, key):
        policy, index = key
        return [
            "trace", "--scenario", str(self.scenario), "--policy", policy,
            "--run-index", str(index), "--out-dir", str(self.out),
        ]

    def check(self, key):
        data = (self.out / "trace.jsonl").read_bytes()
        check_trace(data, self.horizon, self.first_output.get(key))
        self.first_output.setdefault(key, data)


GRID_SIZES = (2, 4, 8)
PROBES = 10


class SandwichRing(Workload):
    """sandwich on ring-5, T=4, lambda=0.3, with the oracle column."""

    name = "sandwich-ring"
    outputs = ("sandwich.csv",)

    def prepare(self):
        doc = fixtures.ring_scenario(5, 4, self.fixture_seed, lam=0.3, seed=self.seed)
        self.horizon = self._write_fixture(doc).horizon
        self.fixture.update(grid_sizes=list(GRID_SIZES), probes=PROBES)

    def key(self, k):
        return GRID_SIZES, PROBES

    def warmup_key(self):
        # the smallest ladder visits every (stage, quarantine) pair and loads
        # the LP solver, at a tenth of the cost of a timed op
        return GRID_SIZES[:1], 1

    def argv(self, key):
        grid_sizes, probes = key
        return [
            "sandwich", "--scenario", str(self.scenario),
            "--grid-sizes", ",".join(map(str, grid_sizes)), "--probes", str(probes),
            "--out-dir", str(self.out),
        ]

    def check(self, key):
        grid_sizes, probes = key
        check_sandwich(self.out / "sandwich.csv", len(grid_sizes) * self.horizon * probes)


WORKLOADS = {w.name: w for w in (ExactPath, MonteCarloSmall, TraceRing, SandwichRing)}

#!/usr/bin/env python3
"""Self-tests of the benchmark: fixtures repeat for a seed, each output check
rejects a corrupted output, and the tracer wraps every binding it must.

    python3 perfbench/selftest.py

They run on small instances in a few seconds and are not collected by the
package's pytest suite.
"""

from __future__ import annotations

import csv
import json
import sys
import tempfile
import unittest
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import fixtures  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402

from epitest.errors import InconsistentObservationError  # noqa: E402
from epitest.exact import save_value_function, solve  # noqa: E402
from epitest.oracle import oracle_value  # noqa: E402
from epitest.policies import make_policy, policy_tree_value  # noqa: E402
from epitest.scenario import load_scenario  # noqa: E402


class Scratch(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.dir = Path(tmp.name)

    def scenario(self, doc, name="s.yaml") -> Path:
        path = self.dir / name
        fixtures.write_scenario(doc, path)
        return path

    def cli(self, *argv):
        _, code, exc, _ = workloads.run_op([*argv, "--out-dir", str(self.dir / "out")])
        self.assertIsNone(exc)
        self.assertEqual(code, 0)
        return self.dir / "out"


class FixtureTest(Scratch):
    def test_same_seed_same_file(self):
        for build in (
            lambda s: fixtures.path_scenario(5, 5, s, seed=7),
            lambda s: fixtures.ring_scenario(9, 9, s, lam=0.01, seed=7),
        ):
            first = self.scenario(build(1), "a.yaml").read_bytes()
            again = self.scenario(build(1), "b.yaml").read_bytes()
            other = self.scenario(build(2), "c.yaml").read_bytes()
            self.assertEqual(first, again)
            self.assertNotEqual(first, other)

    def test_fixtures_load(self):
        path = load_scenario(self.scenario(fixtures.path_scenario(5, 5, 1)))
        self.assertEqual((path.n, path.horizon), (5, 5))
        self.assertEqual(len(path.graph_at(1).edges), 4)
        ring = load_scenario(self.scenario(fixtures.ring_scenario(9, 9, 1, lam=0.01)))
        weights = [w for _, _, w in ring.graph_at(1).edges]
        self.assertEqual(weights.count(1.0), 9)
        self.assertLessEqual(weights.count(fixtures.CHORD_WEIGHT), 9)
        self.assertAlmostEqual(ring.initial_belief.probs[0], 0.5)


class CheckTest(Scratch):
    def test_value_function_off_by_1e6_is_rejected(self):
        cfg = load_scenario(self.scenario(fixtures.path_scenario(3, 3, 1)))
        reference = oracle_value(cfg, cfg.initial_belief)
        path = self.dir / "vf.npz"
        save_value_function(solve(cfg), path)
        workloads.check_value_function(path, cfg.initial_belief, reference)

        with np.load(path) as data:
            arrays = dict(data)
        entries = json.loads(bytes(arrays["header"]).decode())["entries"]
        k = entries.index([1, []])
        arrays[f"values_{k}"] = arrays[f"values_{k}"] + 1e-6
        np.savez_compressed(path, **arrays)
        with self.assertRaises(CheckFailed):
            workloads.check_value_function(path, cfg.initial_belief, reference)

    def test_bench_flipped_byte_is_rejected(self):
        scenario = workloads.MonteCarloSmall.scenario
        out = self.cli("bench", "--scenario", str(scenario), "--policies", "never,greedy",
                       "--n-runs", "50", "--seed-override", "3")
        cfg = load_scenario(scenario).with_seed(3)
        exact = {p: policy_tree_value(cfg, make_policy(p, cfg), cfg.initial_belief)
                 for p in ("never", "greedy")}
        outputs = {n: (out / n).read_bytes() for n in ("results.csv", "per_run.csv")}
        workloads.check_bench(outputs, {}, exact, 50)
        workloads.check_bench(outputs, dict(outputs), exact, 50)

        flipped = bytearray(outputs["per_run.csv"])
        flipped[len(flipped) // 2] ^= 1
        with self.assertRaises(CheckFailed):
            workloads.check_bench({**outputs, "per_run.csv": bytes(flipped)}, outputs, exact, 50)
        with self.assertRaises(CheckFailed):
            workloads.check_bench(outputs, {}, {**exact, "greedy": exact["greedy"] + 100.0}, 50)

    def test_trace_corruptions_are_rejected(self):
        scenario = self.scenario(fixtures.ring_scenario(4, 4, 1, lam=0.01, seed=5))
        out = self.cli("trace", "--scenario", str(scenario), "--policy", "improved",
                       "--run-index", "2")
        data = (out / "trace.jsonl").read_bytes()
        workloads.check_trace(data, 4)
        workloads.check_trace(data, 4, replayed=data)

        lines = data.decode().splitlines()
        step = json.loads(lines[1])
        step["stage_cost"] += 1.0
        bad_cost = "\n".join([lines[0], json.dumps(step), *lines[2:]]).encode()
        for corrupt, horizon, replayed in (
            (data, 5, None),  # wrong number of steps
            (bad_cost, 4, None),  # stage costs no longer sum to the total
            (data, 4, data + b"\n"),  # replay differs
            (data[:-10], 4, None),  # truncated
        ):
            with self.assertRaises(CheckFailed):
                workloads.check_trace(corrupt, horizon, replayed)

    def test_sandwich_lower_above_upper_is_rejected(self):
        scenario = self.scenario(fixtures.ring_scenario(3, 3, 1, lam=0.3, seed=5))
        out = self.cli("sandwich", "--scenario", str(scenario), "--grid-sizes", "2",
                       "--probes", "2")
        path = out / "sandwich.csv"
        workloads.check_sandwich(path, 6)
        with self.assertRaises(CheckFailed):
            workloads.check_sandwich(path, 7)

        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        rows[0]["lower"] = str(float(rows[0]["upper"]) + 1e-6)
        with open(path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            w.writeheader()
            w.writerows(rows)
        with self.assertRaises(CheckFailed):
            workloads.check_sandwich(path, 6)

    def test_failure_kind(self):
        self.assertEqual(
            workloads.failure_kind(InconsistentObservationError("x")), "inconsistent_observation"
        )
        self.assertEqual(workloads.failure_kind(MemoryError()), "memory")


class TraceRingKeyTest(unittest.TestCase):
    def test_mix_and_replays(self):
        wl = workloads.TraceRing(0, 1, Path("."))
        keys = [wl.key(k) for k in range(48)]
        for k in range(workloads.REPLAY_EVERY - 1, 48, workloads.REPLAY_EVERY):
            self.assertEqual(keys[k], keys[k - 1])
        fresh = [key for k, key in enumerate(keys) if k % workloads.REPLAY_EVERY != 7]
        self.assertEqual(len(set(fresh)), len(fresh))
        self.assertEqual({p for p, _ in keys}, {"improved"})
        self.assertEqual({p for p, _ in wl.probe_keys()}, {"lookahead"})


class TracerTest(Scratch):
    def test_every_binding_wrapped_and_restored(self):
        from epitest import beliefs, cli, harness, policies

        original = beliefs.predict_belief
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIs(policies.predict_belief, beliefs.predict_belief)
            self.assertIsNot(beliefs.predict_belief, original)
            self.assertIs(cli.make_policy, harness.make_policy)
            self.assertEqual(tracer.missing, [])

            cfg = load_scenario(workloads.MonteCarloSmall.scenario)
            for name, needs in (("never", False), ("lookahead", True)):
                self.assertIs(cli.make_policy(name, cfg).needs_belief, needs)
            out = self.dir / "out"
            _, code, exc, _ = workloads.run_op(
                ["bench", "--scenario", str(workloads.MonteCarloSmall.scenario),
                 "--policies", "lookahead", "--n-runs", "5", "--out-dir", str(out)],
                tracer,
            )
            self.assertEqual((code, exc), (0, None))
        finally:
            tracer.uninstall()
        self.assertIs(beliefs.predict_belief, original)
        self.assertIs(policies.predict_belief, original)

        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        metrics = tracer.per_layer(1, cfg.n, Counter())
        # the runner adds the op times and the known-defect count
        added = {"trace.op_s", "trace.overhead_s", "known_defect.inconsistent_observation"}
        self.assertEqual(set(metrics) | added, {m["name"] for m in spec["per_layer"]})
        self.assertEqual(metrics["policies.decide.lookahead.calls"], 20)
        self.assertEqual(metrics["simulate.run_episode.calls"], 5)
        self.assertGreater(metrics["beliefs.predict_belief.calls"], 0)


if __name__ == "__main__":
    unittest.main()

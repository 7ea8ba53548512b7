import csv
import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from epitest import approx, cli
from epitest.cli import main
from epitest.exact import load_value_function, solve
from epitest import harness
from epitest.approx import GapRow, nested_grid_ladder
from epitest.harness import run_sandwich_report
from epitest.oracle import oracle_value
from epitest.presets import probe_beliefs, scenario_a, scenario_c
from epitest.scenario import dump_scenario

from _child import exit_status
from _scenarios import ring_scenario


def scenario_path(scenario_dir, name="scenario_a.yaml"):
    return str(scenario_dir / name)


class TestValidate:
    def test_ok(self, scenario_dir, capsys):
        assert main(["validate", "--scenario", scenario_path(scenario_dir)]) == 0
        out = capsys.readouterr().out
        assert "N=3" in out and "digest=" in out

    def test_bad_file(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("n: 3\nhorizon: 2\np: 1.5\nlambda: 0\nseed: 0\n"
                       "initial_belief: '000'\ngraphs: {edges: []}\n")
        assert main(["validate", "--scenario", str(bad)]) == 2

    def test_missing_file(self, tmp_path, capsys):
        path = str(tmp_path / "nope.yaml")
        assert main(["validate", "--scenario", path]) == 2
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_path_exits_2_naming_it(self, kind, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"n: 3\nhorizon: \xc3\x28\n")
        assert main(["validate", "--scenario", str(path)]) == 2
        assert str(path) in capsys.readouterr().err


class TestSolveExact:
    def test_writes_loadable_value_function(self, scenario_dir, tmp_path):
        rc = main(["solve-exact", "--scenario", scenario_path(scenario_dir),
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        vf = load_value_function(tmp_path / "value_function.npz")
        want = solve(scenario_a())
        b0 = scenario_a().initial_belief
        assert vf.value(1, b0) == pytest.approx(want.value(1, b0), abs=1e-12)

    def test_cap_exit_code(self, tmp_path):
        doc = {
            "n": 7, "horizon": 3, "p": 0.5, "lambda": 0.5, "seed": 0,
            "initial_belief": "0000000",
            "graphs": {"edges": [[1, 2, 1.0]]},
        }
        path = tmp_path / "big.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert main(["solve-exact", "--scenario", str(path),
                     "--out-dir", str(tmp_path)]) == 3


class TestBench:
    def test_outputs_and_determinism(self, scenario_dir, tmp_path):
        args = ["bench", "--scenario", scenario_path(scenario_dir),
                "--policies", "never,open_loop,greedy", "--n-runs", "60"]
        assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
        assert main(args + ["--out-dir", str(tmp_path / "b"), "--workers", "4"]) == 0
        for name in ("results.csv", "per_run.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b
        header = (tmp_path / "a" / "results.csv").read_text().splitlines()[0]
        assert header == ("policy,status,mean_cost,std_error,mean_tests_used,"
                          "mean_final_infections,n_runs,base_seed,scenario_digest")

    def test_never_test_row_uses_no_tests(self, scenario_dir, tmp_path):
        assert main(["bench", "--scenario", scenario_path(scenario_dir),
                     "--policies", "never", "--n-runs", "30",
                     "--out-dir", str(tmp_path)]) == 0
        rows = (tmp_path / "results.csv").read_text().splitlines()[1:]
        policy, status, _, _, tests = rows[0].split(",")[:5]
        assert policy == "never" and status == "ok" and float(tests) == 0.0

    def test_seed_override_changes_runs(self, scenario_dir, tmp_path):
        base = ["bench", "--scenario", scenario_path(scenario_dir),
                "--policies", "greedy", "--n-runs", "40"]
        main(base + ["--out-dir", str(tmp_path / "x")])
        main(base + ["--out-dir", str(tmp_path / "y"), "--seed-override", "99"])
        assert ((tmp_path / "x" / "per_run.csv").read_bytes()
                != (tmp_path / "y" / "per_run.csv").read_bytes())

    @pytest.mark.parametrize("policies, plan, named", [
        ("bogus,never", None, "unknown policy 'bogus'"),
        ("lookahead,bogus", None, "unknown policy 'bogus'"),
        ("lookahead,open_loop", "9,9,9,9", "plan action 9 outside"),
        ("never", "9,9,9,9", "plan action 9 outside"),
    ], ids=["unknown-first", "unknown-after-lookahead", "bad-plan", "bad-plan-no-reader"])
    def test_bad_entry_exits_2_before_any_run(self, policies, plan, named, scenario_dir,
                                              tmp_path, monkeypatch, capsys):
        def no_runs(*args, **kwargs):
            raise AssertionError("a Monte Carlo run started")

        monkeypatch.setattr(harness, "monte_carlo_eval", no_runs)
        argv = ["bench", "--scenario", scenario_path(scenario_dir), "--policies", policies,
                "--n-runs", "2000", "--out-dir", str(tmp_path)]
        assert main(argv + (["--plan", plan] if plan else [])) == cli.EXIT_VALIDATION
        assert named in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()

    def test_output_bytes_pinned(self, scenario_dir, tmp_path):
        # criterion 8 compares reruns of one tree; these digests hold the
        # files fixed across code changes, down to number formatting
        assert main(["bench", "--scenario", scenario_path(scenario_dir),
                     "--policies", "never,random,open_loop,improved,greedy,lookahead,exact",
                     "--n-runs", "200", "--seed-override", "601",
                     "--out-dir", str(tmp_path)]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("results.csv", "per_run.csv")}
        assert digests == {
            "results.csv": "cda1cbed423ecfef36109508703ba32e49c44b2b0184cb920e455539d0ae5c93",
            "per_run.csv": "9d350a88279f75c5e0525140528870bf1848cf539427ed4e009836e893c26f8f",
        }


class TestSandwich:
    def test_report(self, scenario_dir, tmp_path):
        rc = main(["sandwich", "--scenario", scenario_path(scenario_dir, "scenario_c.yaml"),
                   "--grid-sizes", "2,4", "--probes", "4",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "sandwich.csv").read_text().splitlines()
        assert lines[0].startswith("R,stage,probe,lower,upper,gap,oracle,status")
        body = [ln.split(",") for ln in lines[1:]]
        assert all(row[7] == "ok" for row in body)
        # oracle column filled on this tiny instance
        assert all(row[6] != "" for row in body)

    @pytest.mark.parametrize("name, digest", [
        ("scenario_a.yaml", "2be7c197635060304ce6294f63c29c98d4deaa33fda19325c728f02afed7cbe4"),
        ("scenario_d.yaml", "ca3eb48e812a20fc943a1aeaa604d60b5ec4452594bc5f572dd5b6819b856be9"),
    ], ids=["scenario-a", "scenario-d"])
    def test_output_bytes_pinned(self, name, digest, scenario_dir, tmp_path):
        # the bounds and the oracle column, held fixed across code changes
        # down to number formatting
        assert main(["sandwich", "--scenario", scenario_path(scenario_dir, name),
                     "--seed-override", "601", "--out-dir", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "sandwich.csv").read_bytes()).hexdigest() == digest

    def test_inconsistency_names_the_first_bad_row(self, scenario_dir, tmp_path, capsys,
                                                   monkeypatch):
        rows = [GapRow(2, 1, 0, 1.0, 2.0, 1.5),
                GapRow(4, 3, 7, 1.25, 1.5, 1.75),
                GapRow(8, 2, 1, 2.0, 1.0)]
        monkeypatch.setattr(cli, "run_sandwich_report", lambda cfg, sizes, probes: rows)
        assert main(["sandwich", "--scenario", scenario_path(scenario_dir),
                     "--out-dir", str(tmp_path)]) == cli.EXIT_INCONSISTENT
        assert ("2 rows violate the bound ordering (see sandwich.csv), first "
                "GapRow(R=4, t=3, probe=7, lower=1.25, upper=1.5, oracle=1.75): "
                "oracle_outside" in capsys.readouterr().err)
        statuses = [ln.split(",")[7] for ln in (tmp_path / "sandwich.csv").read_text().splitlines()]
        assert statuses == ["status", "ok", "oracle_outside", "sandwich_violation"]

    def test_report_rows_carry_R_and_the_oracle(self):
        cfg = scenario_c()
        rows = run_sandwich_report(cfg, [2, 4], 3)
        grids = nested_grid_ladder(cfg.n, [2, 4], seed=cfg.seed)
        probes = probe_beliefs(cfg.n, 3, np.random.SeedSequence(entropy=cfg.seed,
                                                                 spawn_key=(0xB111,)))
        assert len(rows) == 2 * cfg.horizon * 3
        assert [row.R for row in rows] == [len(g.points) for g in grids for _ in range(9)]
        for row in rows:
            assert row.oracle == oracle_value(cfg, probes[row.probe], t=row.t)
            assert row.status == "ok"

    def test_ring5_output_bytes_pinned(self, tmp_path):
        # the benchmark's sandwich-ring op: ring-5 T=4 with chords from
        # fixture seed 1, base seed 601, grid sizes 2,4,8 and 10 probes
        scenario = tmp_path / "ring5.yaml"
        dump_scenario(ring_scenario(5, 0.3, chord_seed=1, horizon=4).with_seed(601), scenario)
        assert main(["sandwich", "--scenario", str(scenario), "--grid-sizes", "2,4,8",
                     "--probes", "10", "--out-dir", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "sandwich.csv").read_bytes()).hexdigest() == (
            "b0121a681b08c35ee613a656f659223689c161a5b5ca9bffe25a7ea99a36c845")


class TestSolveApprox:
    def test_prints_the_stage_1_row(self, scenario_dir, capsys):
        assert main(["solve-approx", "--scenario", scenario_path(scenario_dir)]) == 0
        assert capsys.readouterr().out == (
            "bounds at initial belief: [3.375, 4.2421875] gap=0.8671875 "
            "grid=corner+uniform-random(8,seed=20260810)\n")

    def test_crossed_bracket_exits_4_naming_the_first_row(self, scenario_dir, monkeypatch,
                                                           capsys):
        monkeypatch.setattr(approx.LowerBound, "value", lambda self, t, b: 100.0)
        assert main(["solve-approx", "--scenario", scenario_path(scenario_dir)]) == (
            cli.EXIT_INCONSISTENT)
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("internal inconsistency: 4 rows violate the bound ordering, "
                              "first GapRow(R=8, t=1, probe=0, lower=100.0, upper=4.2421875, "
                              "oracle=None): sandwich_violation"), err


@pytest.mark.parametrize("verb", ["sandwich", "solve-approx"])
def test_failed_hull_lp_exits_4_naming_status_and_support(verb, scenario_dir, tmp_path,
                                                          monkeypatch, capsys):
    # every grid spans the simplex, so a failed LP is the solver failing,
    # not a belief outside the hull: no verb reports it as anything else
    monkeypatch.setattr(approx, "linprog", lambda c, **kwargs: SimpleNamespace(
        status=4, message="Numerical difficulties encountered", x=None))
    assert main([verb, "--scenario", scenario_path(scenario_dir, "scenario_c.yaml"),
                 "--out-dir", str(tmp_path)]) == cli.EXIT_INCONSISTENT
    err = capsys.readouterr().err
    assert err.startswith("internal inconsistency: hull LP over "), err
    assert "status 4, Numerical difficulties" in err and "support 4 of 4 states" in err, err
    assert not (tmp_path / "sandwich.csv").exists()


@pytest.mark.parametrize("verb", ["sandwich", "solve-approx"])
def test_oversize_bounds_exit_3_at_once(verb, tmp_path):
    # ring-16 is past approx.DEFAULT_MAX_N: refused before any 2**N-sized
    # probe or grid point is drawn, in a child limited to 3 GB of address space
    scenario = tmp_path / "ring16.yaml"
    dump_scenario(ring_scenario(16, 0.3, chord_seed=1, horizon=4), scenario)
    status, seconds = exit_status("import sys\nfrom epitest.cli import main\n",
                                  "main(sys.argv[1:])", verb, "--scenario", scenario,
                                  "--out-dir", tmp_path)
    assert status == cli.EXIT_CAP and seconds < 1.0, (status, seconds)


class TestTrace:
    def test_trace_replay(self, scenario_dir, tmp_path):
        args = ["trace", "--scenario", scenario_path(scenario_dir),
                "--policy", "greedy", "--run-index", "3"]
        assert main(args + ["--out-dir", str(tmp_path / "t1")]) == 0
        assert main(args + ["--out-dir", str(tmp_path / "t2")]) == 0
        a = (tmp_path / "t1" / "trace.jsonl").read_bytes()
        assert a == (tmp_path / "t2" / "trace.jsonl").read_bytes()
        lines = a.decode().strip().split("\n")
        head = json.loads(lines[0])
        assert head["config_digest"] == scenario_a().digest()
        assert len(lines) == scenario_a().horizon + 1
        for ln in lines[1:]:
            rec = json.loads(ln)
            assert set(rec) == {"t", "active_edge", "action", "observation",
                                "quarantine_after", "true_state", "stage_cost"}


    @pytest.mark.parametrize("policy", ["greedy", "improved", "random"])
    def test_trace_replays_per_run_row(self, policy, scenario_dir, tmp_path):
        # the README's promise: trace --run-index i replays row i of per_run.csv
        scenario = scenario_path(scenario_dir)
        assert main(["bench", "--scenario", scenario, "--policies", policy,
                     "--n-runs", "12", "--out-dir", str(tmp_path / "bench")]) == 0
        with open(tmp_path / "bench" / "per_run.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for i in (0, 5, 11):
            out = tmp_path / f"trace{i}"
            assert main(["trace", "--scenario", scenario, "--policy", policy,
                         "--run-index", str(i), "--out-dir", str(out)]) == 0
            lines = (out / "trace.jsonl").read_text().splitlines()
            head, last = json.loads(lines[0]), json.loads(lines[-1])
            row = rows[i]
            assert row["run_index"] == str(i)
            assert format(head["total_cost"], ".12g") == row["cost"]
            assert head["tests_used"] == int(row["tests_used"])
            assert last["true_state"].count("1") == int(row["final_infections"])


class TestMalformedInput:
    """Malformed flag values and scenario fields exit 2 and name the bad
    value on stderr instead of escaping as a traceback."""

    @pytest.mark.parametrize("argv, named", [
        (["bench", "--policies", "open_loop", "--plan", "1,x"], ("--plan", "'x'")),
        (["sandwich", "--grid-sizes", "2,,4"], ("--grid-sizes", "''")),
        (["trace", "--run-index", "-1"], ("--run-index", "-1")),
        (["validate", "--negative-seed"], ("seed", "-5")),
        (["bench", "--negative-seed", "--n-runs", "5"], ("seed", "-5")),
        (["bench", "--seed-override", "-5", "--n-runs", "5"], ("seed", "-5")),
        (["bench", "--policies", "open_loop", "--plan", "1,2"], ("plan length 2",)),
        (["bench", "--policies", "open_loop", "--plan", "1,2,9,0"], ("plan action 9",)),
        (["solve-approx", "--grid-size", "-3"], ("--grid-size", "-3")),
        (["bench", "--policies", ""], ("--policies", "''")),
        (["bench", "--policies", " , ,"], ("--policies", "' , ,'")),
        (["sandwich", "--probes", "0"], ("--probes must be >= 1, got 0",)),
        (["bench", "--workers", "-3", "--n-runs", "5"], ("--workers must be >= 1, got -3",)),
        (["bench", "--n-runs", "0"], ("--n-runs must be >= 1, got 0",)),
        (["bench", "--policies", "never,greedy,never", "--n-runs", "5"],
         ("--policies", "'never' more than once")),
        (["sandwich", "--grid-sizes", "4,4"], ("--grid-sizes names 4 more than once: '4,4'",)),
    ], ids=["plan-token", "grid-sizes-token", "run-index", "scenario-seed-validate",
            "scenario-seed-bench", "seed-override", "plan-length", "plan-action",
            "grid-size", "policies-empty", "policies-only-commas", "probes-zero",
            "workers-negative", "n-runs-zero", "policies-repeated", "grid-sizes-repeated"])
    def test_exit_2_names_the_value(self, argv, named, scenario_dir, tmp_path, capsys):
        scenario = scenario_path(scenario_dir)
        if "--negative-seed" in argv:
            argv = [tok for tok in argv if tok != "--negative-seed"]
            doc = yaml.safe_load((scenario_dir / "scenario_a.yaml").read_text())
            doc["seed"] = -5
            scenario = tmp_path / "negative_seed.yaml"
            scenario.write_text(yaml.safe_dump(doc))
        rc = main(argv[:1] + ["--scenario", str(scenario), "--out-dir", str(tmp_path / "out")]
                  + argv[1:])
        err = capsys.readouterr().err
        assert rc == 2, err
        for text in named:
            assert text in err

    @pytest.mark.parametrize("key, path, bad, named", [
        ("seed", (), "abc", ("seed", "'abc'")),
        ("n", (), "three", ("n", "'three'")),
        ("horizon", (), [4], ("horizon", "[4]")),
        ("p", (), "half", ("p", "'half'")),
        ("lambda", (), None, ("lambda", "None")),
        ("seed", (), float("inf"), ("seed", "inf")),
        ("graphs", ("edges", 0, 2), "heavy", ("edge [1, 2, 'heavy']", "'heavy'")),
        ("graphs", ("edges", 1, 0), "two", ("edge ['two', 3, 1.0]", "'two'")),
        ("initial_belief", (2, 1), "quarter", ("'010'", "'quarter'")),
        ("lambda", (), float("nan"), ("lambda", "nan")),
        ("lambda", (), float("inf"), ("lambda", "inf")),
        ("graphs", ("edges", 0, 2), float("nan"), ("edge (1,2)", "nan")),
        ("graphs", ("edges", 1, 2), float("inf"), ("edge (2,3)", "inf")),
        ("initial_belief", (0, 1), float("nan"), ("000", "nan")),
        ("initial_belief", (3, 1), float("inf"), ("001", "inf")),
    ], ids=["seed", "n", "horizon", "p", "lambda", "seed-inf", "edge-weight",
            "edge-endpoint", "belief-probability", "lambda-nan", "lambda-inf",
            "edge-weight-nan", "edge-weight-inf", "belief-probability-nan",
            "belief-probability-inf"])
    def test_non_numeric_scenario_field(self, key, path, bad, named, scenario_dir,
                                        tmp_path, capsys):
        doc = yaml.safe_load((scenario_dir / "scenario_a.yaml").read_text())
        if path:
            target = doc[key]
            for step in path[:-1]:
                target = target[step]
            target[path[-1]] = bad
        else:
            doc[key] = bad
        scenario = tmp_path / "bad_field.yaml"
        scenario.write_text(yaml.safe_dump(doc))
        rc = main(["validate", "--scenario", str(scenario)])
        err = capsys.readouterr().err
        assert rc == 2, err
        for text in named:
            assert text in err

import pytest
import yaml

from epitest.beliefs import Belief
from epitest.errors import ValidationError
from epitest.model import ContactGraph, ContactSchedule
from epitest.presets import scenario_a, tiny_scenarios
from epitest.scenario import (
    ScenarioConfig,
    dump_scenario,
    load_scenario,
    scenario_from_dict,
    state_from_bitstring,
)

from _scenarios import ring_scenario


def base_doc():
    return {
        "n": 3,
        "horizon": 4,
        "p": 0.5,
        "lambda": 0.5,
        "seed": 20260810,
        "initial_belief": [["000", 0.25], ["100", 0.25], ["010", 0.25], ["001", 0.25]],
        "graphs": {"edges": [[1, 2, 1.0], [2, 3, 1.0]]},
    }


class TestParsing:
    def test_bundled_scenario_a(self, scenario_dir):
        cfg = load_scenario(scenario_dir / "scenario_a.yaml")
        assert cfg.n == 3 and cfg.horizon == 4
        assert cfg.digest() == scenario_a().digest()

    def test_bitstring_orientation(self):
        # leftmost character is individual 1
        assert state_from_bitstring("100").mask == 0b001
        assert state_from_bitstring("001").mask == 0b100
        with pytest.raises(ValidationError):
            state_from_bitstring("10x")

    def test_p_out_of_range(self):
        doc = base_doc()
        doc["p"] = 1.5
        with pytest.raises(ValidationError, match="p out of range"):
            scenario_from_dict(doc)

    def test_self_loop_rejected(self):
        doc = base_doc()
        doc["graphs"] = {"edges": [[1, 1, 1.0]]}
        with pytest.raises(ValidationError, match="self-loop"):
            scenario_from_dict(doc)

    def test_missing_and_unknown_keys(self):
        doc = base_doc()
        del doc["seed"]
        with pytest.raises(ValidationError, match="missing"):
            scenario_from_dict(doc)
        doc = base_doc()
        doc["extra"] = 1
        with pytest.raises(ValidationError, match="unknown"):
            scenario_from_dict(doc)

    def test_belief_must_sum_to_one(self):
        doc = base_doc()
        doc["initial_belief"] = [["000", 0.5], ["100", 0.4]]
        with pytest.raises(ValidationError, match="sums to"):
            scenario_from_dict(doc)

    def test_point_state_belief(self):
        doc = base_doc()
        doc["initial_belief"] = "010"
        cfg = scenario_from_dict(doc)
        assert cfg.initial_belief.probs == {0b010: 1.0}

    def test_per_step_graphs(self):
        doc = base_doc()
        doc["graphs"] = [{"edges": [[1, 2, 1.0]]} for _ in range(4)]
        cfg = scenario_from_dict(doc)
        assert cfg.schedule.horizon == 4
        doc["graphs"] = doc["graphs"][:2]
        with pytest.raises(ValidationError, match="per-step"):
            scenario_from_dict(doc)


class TestConfig:
    def test_digest_is_stable_and_seed_sensitive(self):
        a, b = scenario_a(), scenario_a()
        assert a.digest() == b.digest()
        assert a.with_seed(1).digest() != a.digest()

    def test_equal_configs_hash_equal_and_key_a_dict(self):
        a, b = scenario_a(), scenario_a()
        assert a == b and hash(a) == hash(b)
        assert {a: "A"}[b] == "A"
        assert a.with_seed(1) not in {a: "A"}

    def test_dimension_consistency_enforced(self):
        g = ContactGraph.from_edges(2, [(1, 2, 1.0)])
        with pytest.raises(ValidationError):
            ScenarioConfig(3, 2, 0.5, 0.5, ContactSchedule.static(2, g),
                           Belief.uniform(3), 0)
        with pytest.raises(ValidationError):
            ScenarioConfig(2, 3, 0.5, 0.5, ContactSchedule.static(2, g),
                           Belief.uniform(2), 0)
        with pytest.raises(ValidationError):
            ScenarioConfig(2, 2, 0.5, -0.5, ContactSchedule.static(2, g),
                           Belief.uniform(2), 0)

    def test_round_trip_all_presets(self, tmp_path):
        for name, cfg in tiny_scenarios().items():
            path = tmp_path / f"{name}.yaml"
            dump_scenario(cfg, path)
            assert load_scenario(path).digest() == cfg.digest()

    def test_bundled_files_match_presets(self, scenario_dir):
        for name, cfg in tiny_scenarios().items():
            assert load_scenario(scenario_dir / f"{name}.yaml").digest() == cfg.digest()

    def test_libyaml_loader_reads_what_the_python_loader_reads(self, scenario_dir, tmp_path):
        ring9 = tmp_path / "ring9.yaml"
        dump_scenario(ring_scenario(9, 0.01), ring9)
        paths = sorted(scenario_dir.iterdir()) + [ring9]
        loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)  # as load_scenario picks it
        for path in paths:
            text = path.read_bytes()
            assert yaml.load(text, Loader=loader) == yaml.safe_load(text), path

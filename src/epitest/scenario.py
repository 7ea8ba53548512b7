"""Scenario configuration: the unit of reproducible experiments.

A scenario fixes the population size, horizon, transmission probability,
test cost, contact schedule, initial belief and base seed. Scenarios load
from a small YAML schema::

    n: 3
    horizon: 4
    p: 0.5
    lambda: 0.5
    seed: 20260810
    initial_belief: "000"            # point state, or a list of [bits, prob]
    graphs:                          # one static graph, or a list of length T
      edges: [[1, 2, 1.0], [2, 3, 1.0]]

Bitstrings read left to right as individuals 1..N ("010" means only
individual 2 infected). A canonical digest of the parsed content is attached
to every exported result row so any single run can be replayed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
import yaml

from .beliefs import Belief
from .errors import ValidationError
from .model import MAX_ENUMERATION_N, ContactGraph, ContactSchedule, SystemState


def state_from_bitstring(s: str) -> SystemState:
    if not s or any(c not in "01" for c in s):
        raise ValidationError(f"bad state bitstring {s!r}")
    return SystemState.from_bits(int(c) for c in s)


@dataclass(frozen=True)
class ScenarioConfig:
    """Immutable description of one experiment instance."""

    n: int
    horizon: int
    p: float
    lam: float
    schedule: ContactSchedule
    initial_belief: Belief
    seed: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_ENUMERATION_N:
            raise ValidationError(
                f"population size {self.n} outside [1, {MAX_ENUMERATION_N}]"
            )
        if self.horizon < 1:
            raise ValidationError(f"horizon {self.horizon} must be >= 1")
        if not 0.0 <= self.p <= 1.0:
            raise ValidationError(f"p out of range: {self.p}")
        if not 0.0 <= self.lam < math.inf:
            raise ValidationError(f"lambda (test cost) must be a finite number >= 0, got {self.lam}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.schedule.horizon != self.horizon:
            raise ValidationError(
                f"schedule covers {self.schedule.horizon} steps, horizon is {self.horizon}"
            )
        if self.schedule.n != self.n:
            raise ValidationError(
                f"schedule population {self.schedule.n} does not match n={self.n}"
            )
        if self.initial_belief.n != self.n:
            raise ValidationError(
                f"initial belief over {self.initial_belief.n} individuals, n={self.n}"
            )

    def graph_at(self, t: int) -> ContactGraph:
        return self.schedule.graph_at(t)

    def canonical_dict(self) -> dict:
        return {
            "n": self.n,
            "horizon": self.horizon,
            "p": self.p,
            "lambda": self.lam,
            "seed": self.seed,
            "initial_belief": [
                [str(SystemState(m, self.n)), pr]
                for m, pr in self.initial_belief.probs.items()
            ],
            "graphs": [
                [[i, j, w] for i, j, w in g.edges] for g in self.schedule.graphs
            ],
        }

    def digest(self) -> str:
        """Canonical-JSON SHA-256 prefix of the content. It is computed once
        per instance and kept in the instance dict, outside the fields, so
        equality and the constructor do not see it."""
        cached = self.__dict__.get("_digest")
        if cached is None:
            blob = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
            cached = hashlib.sha256(blob.encode()).hexdigest()[:16]
            object.__setattr__(self, "_digest", cached)
        return cached

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return replace(self, seed=seed)

    def with_initial_belief(self, belief: Belief) -> "ScenarioConfig":
        return replace(self, initial_belief=belief)


def _number(kind, raw, what: str):
    """``kind(raw)``, or a ValidationError naming ``what`` and the value."""
    try:
        return kind(raw)
    except (TypeError, ValueError, OverflowError):
        noun = "an integer" if kind is int else "a number"
        raise ValidationError(f"{what} must be {noun}, got {raw!r}") from None


def _parse_belief(n: int, raw) -> Belief:
    if isinstance(raw, str):
        raw = [[raw, 1.0]]  # a point state
    if not isinstance(raw, (list, tuple)):
        raise ValidationError(f"cannot parse initial_belief from {type(raw).__name__}")
    pairs = []
    for entry in raw:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ValidationError(f"belief entry {entry!r} is not [bitstring, prob]")
        bits, pr = entry
        state = state_from_bitstring(str(bits))
        if state.n != n:
            raise ValidationError(f"belief state {bits!r} has length {state.n}, n={n}")
        pairs.append((state, _number(float, pr, f"probability of belief state {bits!r}")))
    return Belief.from_pairs(n, pairs)


def _parse_graph(n: int, raw) -> ContactGraph:
    if not isinstance(raw, dict) or "edges" not in raw:
        raise ValidationError("each graph must be a mapping with an 'edges' list")
    edges = []
    for e in raw["edges"]:
        if not isinstance(e, (list, tuple)) or len(e) != 3:
            raise ValidationError(f"edge {e!r} is not [i, j, w]")
        edges.append(tuple(_number(k, v, f"edge {e!r}") for k, v in zip((int, int, float), e)))
    return ContactGraph.from_edges(n, edges)


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    """Build and fully validate a ScenarioConfig from parsed YAML/JSON."""
    if not isinstance(doc, dict):
        raise ValidationError("scenario document must be a mapping")
    required = {"n", "horizon", "p", "lambda", "seed", "initial_belief", "graphs"}
    missing = required - doc.keys()
    if missing:
        raise ValidationError(f"scenario missing keys: {sorted(missing)}")
    unknown = doc.keys() - required
    if unknown:
        raise ValidationError(f"scenario has unknown keys: {sorted(unknown)}")

    n, horizon, seed = (_number(int, doc[k], k) for k in ("n", "horizon", "seed"))
    p, lam = (_number(float, doc[k], k) for k in ("p", "lambda"))

    raw_graphs = doc["graphs"]
    if isinstance(raw_graphs, dict):
        schedule = ContactSchedule.static(horizon, _parse_graph(n, raw_graphs))
    elif isinstance(raw_graphs, list):
        if len(raw_graphs) != horizon:
            raise ValidationError(
                f"per-step graph list has {len(raw_graphs)} entries, horizon is {horizon}"
            )
        schedule = ContactSchedule(horizon, tuple(_parse_graph(n, g) for g in raw_graphs))
    else:
        raise ValidationError("graphs must be a mapping (static) or a list (per step)")

    belief = _parse_belief(n, doc["initial_belief"])
    return ScenarioConfig(n, horizon, p, lam, schedule, belief, seed)


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate a scenario file; raises ValidationError on a path
    that cannot be read and on any schema or invariant violation."""
    try:
        with open(path, "rb") as fh:  # bytes: PyYAML reports a bad encoding itself
            doc = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except OSError as exc:
        raise ValidationError(f"cannot read scenario file {path}: {exc.strerror}") from exc
    except yaml.YAMLError as exc:
        raise ValidationError(f"cannot parse scenario file {path}: {exc}") from exc
    return scenario_from_dict(doc)


def dump_scenario(cfg: ScenarioConfig, path) -> None:
    """Write a scenario back out in the canonical file schema."""
    doc = cfg.canonical_dict()
    graphs = doc.pop("graphs")
    if all(g == graphs[0] for g in graphs):
        doc["graphs"] = {"edges": graphs[0]}
    else:
        doc["graphs"] = [{"edges": g} for g in graphs]
    doc["initial_belief"] = [[bits, pr] for bits, pr in doc["initial_belief"]]
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)

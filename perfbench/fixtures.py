"""Seeded scenario fixtures for the benchmark: path-N-T and ring-N.

Both fixtures are plain scenario documents in the schema that
``epitest.scenario.load_scenario`` reads, built here without importing the
package, so the CLI under test loads them like any user file.

- path-N-T: the path 1-...-N, each edge weight drawn from {0.5, 1, 2}.
- ring-N: the ring 1-2-...-N-1 at weight 1 plus up to N chords of weight
  0.5 (draws that land on an existing edge are skipped).

Both start from the same belief: 0.5 on all-healthy plus 0.5/N on each
single index case. The fixture seed draws the weights and chords, so it fixes
the instance and its size; ``seed`` is only the scenario's base seed.
"""

from __future__ import annotations

import numpy as np
import yaml

PATH_WEIGHTS = (0.5, 1.0, 2.0)
CHORD_WEIGHT = 0.5


def spread_prior(n: int) -> list:
    """[bitstring, probability] pairs: 0.5 all-healthy, 0.5/n per single case."""
    healthy = "0" * n
    pairs = [[healthy, 0.5]]
    for i in range(n):
        pairs.append([healthy[:i] + "1" + healthy[i + 1:], 0.5 / n])
    return pairs


def _document(n, horizon, p, lam, seed, edges) -> dict:
    edges = sorted([min(i, j), max(i, j), float(w)] for i, j, w in edges)
    return {
        "n": n,
        "horizon": horizon,
        "p": p,
        "lambda": lam,
        "seed": int(seed),
        "initial_belief": spread_prior(n),
        "graphs": {"edges": edges},
    }


def path_scenario(n, horizon, fixture_seed, p=0.5, lam=0.5, seed=0) -> dict:
    """path-N-T with seeded edge weights."""
    weights = np.random.default_rng(fixture_seed).choice(PATH_WEIGHTS, size=n - 1)
    return _document(n, horizon, p, lam, seed, [(k, k + 1, w) for k, w in enumerate(weights, 1)])


def ring_scenario(n, horizon, fixture_seed, p=0.5, lam=0.3, seed=0) -> dict:
    """ring-N with seeded chords of weight 0.5."""
    rng = np.random.default_rng(fixture_seed)
    edges = {tuple(sorted((i, i % n + 1))): 1.0 for i in range(1, n + 1)}
    for _ in range(n):
        a, b = sorted(int(v) for v in rng.choice(np.arange(1, n + 1), size=2, replace=False))
        edges.setdefault((a, b), CHORD_WEIGHT)
    return _document(n, horizon, p, lam, seed, [(a, b, w) for (a, b), w in edges.items()])


def write_scenario(doc: dict, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)

"""The one-step primitive against the independent references at N = 4-6,
its byte-bounded cache, and a memory guard for a policy episode at N = 10."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from epitest.model import ContactGraph, Dynamics, _DynamicsCache
from epitest.oracle import predict_dense

from _reference import step_distribution

TOL = 1e-12


def random_case(n, p, seed):
    """A seeded graph with zero-weight edges, and q_edges strictly inside
    q_active (the step on which someone is quarantined)."""
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = [
        (i, j, float(rng.choice([0.0, 0.5, 1.0, 3.0])))
        for i, j in pairs
        if rng.random() < 0.7
    ]
    order = [int(u) for u in rng.permutation(n) + 1]
    k = int(rng.integers(1, n))
    q_active = frozenset(order[:k])
    q_edges = frozenset(order[: int(rng.integers(0, k))])
    dyn = Dynamics(ContactGraph.from_edges(n, edges), q_edges, q_active, p)
    ref = np.zeros((1 << n, 1 << n))  # row = current state
    for x in range(1 << n):
        for y, pr in step_distribution(n, edges, q_edges, q_active, p, x).items():
            ref[x, y] += pr
    return dyn, ref, rng, (edges, q_edges, q_active)


CASES = [(n, p, seed) for n in (4, 5, 6) for p in (0.0, 1.0, 0.37) for seed in range(3)]


@pytest.mark.parametrize("n,p,seed", CASES)
class TestAgainstReference:
    def test_flows(self, n, p, seed):
        dyn, ref, _, _ = random_case(n, p, seed)
        P = dyn.back(np.eye(1 << n))
        for x in range(1 << n):
            flows = dyn.flows(x)
            row = np.zeros(1 << n)
            for k, fp in flows.items():
                assert not (x >> (k - 1)) & 1
                row[x | (1 << (k - 1))] = fp
                assert P[x, x | (1 << (k - 1))] == fp  # dense tables add the same terms
            row[x] = 1.0 - sum(flows.values())
            np.testing.assert_allclose(row, ref[x], rtol=0, atol=TOL)

    def test_predict(self, n, p, seed):
        dyn, ref, rng, _ = random_case(n, p, seed)
        support = rng.choice(1 << n, size=1 << (n - 1), replace=False)
        probs = dict(zip(sorted(int(m) for m in support), rng.dirichlet(np.ones(len(support)))))
        dense = np.zeros(1 << n)
        for m, pr in dyn.predict(probs).items():
            dense[m] += pr
        start = np.zeros(1 << n)
        start[list(probs)] = list(probs.values())
        np.testing.assert_allclose(dense, ref.T @ start, rtol=0, atol=TOL)

    def test_back(self, n, p, seed):
        dyn, ref, rng, _ = random_case(n, p, seed)
        V = rng.normal(size=(1 << n, 3))
        np.testing.assert_allclose(dyn.back(V), ref @ V, rtol=0, atol=TOL)
        np.testing.assert_allclose(dyn.back(V[:, 0]), ref @ V[:, 0], rtol=0, atol=TOL)

    def test_push(self, n, p, seed):
        dyn, ref, rng, (edges, q_edges, q_active) = random_case(n, p, seed)
        b = rng.dirichlet(np.ones(1 << n))
        np.testing.assert_allclose(dyn.push(b), ref.T @ b, rtol=0, atol=TOL)
        g = ContactGraph.from_edges(n, edges)
        oracle = predict_dense(b, g, q_edges, q_active, p)
        np.testing.assert_allclose(dyn.push(b), oracle, rtol=0, atol=TOL)


def test_cache_stays_under_its_byte_bound():
    g = ContactGraph.from_edges(6, [(i, i % 6 + 1, 1.0) for i in range(1, 7)])
    keys = [(g, frozenset(), frozenset(), p) for p in (0.1, 0.2, 0.3, 0.4)]
    per_entry = Dynamics(*keys[0]).nbytes
    assert per_entry >= 8 * 7 * 64  # charged for its flow and stay tables
    cache = _DynamicsCache(limit=int(2.5 * per_entry))
    first = cache.get(keys[0])
    for key in keys:
        cache.get(key).back(np.ones(64))
        assert cache.nbytes <= cache.limit
    assert cache.get(keys[-1]) is cache.get(keys[-1])
    assert cache.get(keys[0]) is not first  # evicted, then built again
    np.testing.assert_allclose(first.back(np.ones(64)), np.ones(64), rtol=0, atol=TOL)


GUARD = textwrap.dedent(
    """
    import resource
    limit = 3 * 10**9
    resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))

    import numpy as np
    from epitest.beliefs import Belief
    from epitest.model import ContactGraph, ContactSchedule
    from epitest.policies import make_policy
    from epitest.scenario import ScenarioConfig
    from epitest.simulate import run_episode

    n = 10
    edges = {(i, i % n + 1): 1.0 for i in range(1, n)}
    edges[(1, n)] = 1.0
    rng = np.random.default_rng(3)
    for _ in range(n):
        a, b = sorted(int(v) for v in rng.choice(np.arange(1, n + 1), size=2, replace=False))
        edges.setdefault((a, b), 0.5)
    g = ContactGraph.from_edges(n, [(a, b, w) for (a, b), w in edges.items()])
    prior = {0: 0.5, **{1 << k: 0.5 / n for k in range(n)}}
    cfg = ScenarioConfig(n, n, 0.5, 0.3, ContactSchedule.static(n, g), Belief(n, prior), 0)
    run_episode(cfg, make_policy("improved", cfg), 0)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    """
)


def test_ring10_improved_episode_memory():
    """At N = 10 dense 2**N x 2**N kernels would need gigabytes; the policy
    episode must run in a fraction of that, in a child limited to 3 GB."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", GUARD], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr[-2000:]
    peak_mib = int(out.stdout.split()[-1]) / 1024  # ru_maxrss is in KiB on Linux
    assert peak_mib < 512, peak_mib

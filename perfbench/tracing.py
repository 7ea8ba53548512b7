"""Span tracing of epitest's layers, installed from outside the package.

The tracer replaces public functions of the package's modules with wrappers
that record a span (op, id, parent id, name, start, end) per call. Spans stay
in memory and are written out when the run ends; the per-name aggregates
(calls, inclusive and self time) are kept for every call. Self time is a
span's duration minus the time covered by its child spans.

A function imported with ``from .x import f`` is bound in several modules;
the wrapper replaces every binding of the same object, so calls through any
of them are seen.
"""

from __future__ import annotations

import csv
import functools
import statistics
from collections import Counter, defaultdict
from time import perf_counter_ns

from workloads import is_wrong_output

MAX_SPANS = 100_000  # spans beyond this are aggregated but not kept

POLICY_NAMES = ("never", "random", "open_loop", "improved", "greedy", "lookahead", "exact")
WRITE_SPANS = (
    "harness.write_result_table",
    "harness.write_sandwich_report",
    "exact.save_value_function",
    "simulate.EpisodeTrace.to_jsonl",
)


class TracedPolicy:
    """A policy whose decisions are spans named policies.decide.<name>."""

    def __init__(self, tracer, name, policy):
        self.name = name
        self.needs_belief = getattr(policy, "needs_belief", True)
        self._decide = tracer.wrap(f"policies.decide.{name}", policy, sample=True)

    def __call__(self, ctx):
        return self._decide(ctx)


class Tracer:
    def __init__(self):
        self.op = None  # op number stamped on every span
        self.stack = []  # open spans: [span id, nanoseconds covered by children]
        self.next_id = 0
        self.spans = []
        self.dropped = 0
        self.stats = {}  # span name -> [calls, inclusive ns, self ns]
        self.samples = defaultdict(list)  # span name -> durations in seconds
        self.counts = Counter()  # quantities observed at the boundaries
        self.histories = defaultdict(set)  # policy -> distinct (action, observation) histories
        self.episodes = Counter()  # policy -> completed episodes
        self.missing = []  # targets this version of the package does not have
        self._patches = []

    # -- spans ----------------------------------------------------------------

    def wrap(self, name, fn, after=None, sample=False):
        """fn inside a span; ``after(args, kwargs, result)``, if given,
        returns what the caller receives."""
        stats = self.stats.setdefault(name, [0, 0, 0])
        samples = self.samples[name] if sample else None
        stack, spans = self.stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [self.next_id, 0]
            self.next_id += 1
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if len(spans) < MAX_SPANS:
                    spans.append((self.op, frame[0], parent[0] if parent else "", name, start, end))
                else:
                    self.dropped += 1
                if samples is not None:
                    samples.append(duration / 1e9)
            return result if after is None else after(args, kwargs, result)

        return traced

    def call(self, name, fn, args, kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    # -- installation ---------------------------------------------------------

    def install(self):
        import epitest
        from epitest import approx, beliefs, cli, exact, harness, model, oracle, policies, simulate

        targets = [
            (model, "infection_flows", None),
            (model, "active_subgraph", None),
            (beliefs, "predict_belief", self._after_predict),
            (exact, "solve", None),
            (exact, "exact_backup", self._after_backup),
            (exact, "_canonical_prune", None),
            (exact, "save_value_function", None),
            (approx, "approx_solve_upper", None),
            (approx, "approx_solve_lower", None),
            (approx, "linprog", None),
            (oracle, "tree_value", None),
            (oracle, "predict_dense", None),
            (policies, "make_policy", self._after_make_policy),
            (simulate, "run_episode", self._after_episode),
            (simulate, "monte_carlo_eval", None),
            (harness, "run_benchmark", None),
            (harness, "run_sandwich_report", None),
            (harness, "write_result_table", None),
            (harness, "write_sandwich_report", None),
        ]
        modules = [epitest, approx, beliefs, cli, exact, harness, model, oracle, policies, simulate]
        for module, attr, after in targets:
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            short = module.__name__.rsplit(".", 1)[-1]
            wrapper = self.wrap(f"{short}.{attr}", original, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        trace_cls = getattr(simulate, "EpisodeTrace", None)
        if trace_cls is not None and hasattr(trace_cls, "to_jsonl"):
            self._patch(
                trace_cls, "to_jsonl",
                self.wrap("simulate.EpisodeTrace.to_jsonl", trace_cls.to_jsonl),
            )
        self.kernel_cache = getattr(getattr(model, "kernel_matrix", None), "cache_info", None)
        self.kernel_start = self.kernel_cache() if self.kernel_cache else None

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- observations at the boundaries ----------------------------------------

    def _after_predict(self, args, kwargs, result):
        support = len(args[0].probs)
        self.counts["support_total"] += support
        self.counts["support_max"] = max(self.counts["support_max"], support)
        return result

    def _after_backup(self, args, kwargs, result):
        next_sets, graph, q = args[:3]

        def size(qq):  # a single AlphaSet may stand for every branch
            return len(next_sets if hasattr(next_sets, "vectors") else next_sets[qq])

        base = size(q)
        rows = base + sum(
            size(q | {u}) * base for u in range(1, graph.n_vertices + 1) if u not in q
        )
        self.counts["cross_sum_rows"] += rows
        self.counts["survivors"] += len(result)
        if result.t == 1 and not result.quarantine:
            self.counts["stage1_vectors"] += len(result)
        return result

    def _after_make_policy(self, args, kwargs, result):
        name = args[0] if args else kwargs["name"]
        return TracedPolicy(self, name, result)

    def _after_episode(self, args, kwargs, result):
        policy = args[1] if len(args) > 1 else kwargs["policy"]
        name = getattr(policy, "name", type(policy).__name__)
        self.episodes[name] += 1
        self.histories[name].add(tuple((r.action, r.observation) for r in result.records))
        return result

    # -- results ----------------------------------------------------------------

    def per_layer(self, n_ops: int, n_vertices: int, failures: Counter) -> dict:
        """Per-layer metrics: calls, counts and seconds per traced op; ratios
        and maxima over the traced ops; failed.* count every op of the run."""
        calls = lambda name: self.stats.get(name, (0, 0, 0))[0] / n_ops  # noqa: E731
        secs = lambda name: self.stats.get(name, (0, 0, 0))[1] / 1e9 / n_ops  # noqa: E731
        c = self.counts
        hits = misses = cache_mib = 0.0
        if self.kernel_cache is not None:
            end = self.kernel_cache()
            hits = (end.hits - self.kernel_start.hits) / n_ops
            misses = (end.misses - self.kernel_start.misses) / n_ops
            cache_mib = end.currsize * 8 * 4**n_vertices / 2**20  # dense 2^N x 2^N floats
        m = {
            "model.infection_flows.calls": calls("model.infection_flows"),
            "model.infection_flows.s": secs("model.infection_flows"),
            "model.active_subgraph.calls": calls("model.active_subgraph"),
            "model.kernel_matrix.hits": hits,
            "model.kernel_matrix.misses": misses,
            "model.kernel_matrix.cache_mib": cache_mib,
        }
        predicts = self.stats.get("beliefs.predict_belief", (0,))[0]
        m.update({
            "beliefs.predict_belief.calls": calls("beliefs.predict_belief"),
            "beliefs.predict_belief.s": secs("beliefs.predict_belief"),
            "beliefs.support_mean": c["support_total"] / predicts if predicts else 0.0,
            "beliefs.support_max": c["support_max"],
            "exact.exact_backup.calls": calls("exact.exact_backup"),
            "exact.exact_backup.s": secs("exact.exact_backup"),
            "exact.canonical_prune.s": secs("exact._canonical_prune"),
            "exact.cross_sum_rows": c["cross_sum_rows"] / n_ops,
            "exact.survivors": c["survivors"] / n_ops,
            "exact.prune_keep_ratio": (
                c["survivors"] / c["cross_sum_rows"] if c["cross_sum_rows"] else 0.0
            ),
            "exact.stage1_vectors": c["stage1_vectors"] / n_ops,
            "exact.save_value_function.s": secs("exact.save_value_function"),
            "approx.lp_solves": calls("approx.linprog"),
            "approx.lp_s": secs("approx.linprog"),
            "approx.approx_solve_lower.s": secs("approx.approx_solve_lower"),
            "approx.approx_solve_upper.s": secs("approx.approx_solve_upper"),
            "oracle.tree_value.calls": calls("oracle.tree_value"),
            "oracle.tree_value.s": secs("oracle.tree_value"),
            "oracle.predict_dense.calls": calls("oracle.predict_dense"),
        })
        for name in POLICY_NAMES:
            span = f"policies.decide.{name}"
            samples = self.samples.get(span)
            m[f"{span}.calls"] = calls(span)
            m[f"{span}.p50_s"] = statistics.median(samples) if samples else 0.0
        episodes = sum(self.episodes.values())
        distinct = sum(len(h) for h in self.histories.values())
        m.update({
            "simulate.run_episode.calls": calls("simulate.run_episode"),
            "simulate.run_episode.s": secs("simulate.run_episode"),
            "simulate.history_repeat_ratio": 1.0 - distinct / episodes if episodes else 0.0,
            "harness.write.s": sum(secs(name) for name in WRITE_SPANS),
        })
        wrong = sum(n for kind, n in failures.items() if is_wrong_output(kind))
        crashed = failures["inconsistent_observation"]
        m.update({
            "failed.inconsistent_observation": crashed,
            "failed.output_check": wrong,
            "failed.other": sum(failures.values()) - wrong - crashed,
        })
        return m

    def layer_table(self, n_ops: int) -> dict:
        """Every span name: calls, inclusive and self seconds per op, and both
        as shares of all op time."""
        op_ns = sum(st[1] for name, st in self.stats.items() if name.startswith("op.")) or 1
        return {
            name: {
                "calls_per_op": calls / n_ops,
                "s_per_op": total / 1e9 / n_ops,
                "self_s_per_op": own / 1e9 / n_ops,
                "share": total / op_ns,
                "self_share": own / op_ns,
            }
            for name, (calls, total, own) in sorted(self.stats.items())
            if calls
        }

    def history_table(self) -> dict:
        return {
            name: {"episodes": n, "distinct_histories": len(self.histories[name])}
            for name, n in sorted(self.episodes.items())
        }

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(("op", "span", "parent", "name", "start_ns", "end_ns"))
            w.writerows(self.spans)

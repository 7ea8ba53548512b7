"""Exact finite-horizon solver for the belief-space testing problem.

The value function at each stage is piecewise linear and concave over the
belief simplex, so it is represented by a finite set of cost vectors (one
value per hidden state); evaluating means taking the minimum inner product.
Backups enumerate, per action, every assignment of a next-stage vector to
each observation branch, producing cross-sum vectors that are then pruned by
exact pointwise domination.

Quarantine makes the transition structure action-history dependent, so the
solver carries one vector set per (stage, reachable quarantine set). The
empty-quarantine slice is the value function of a fresh episode and is what
the plain per-stage accessors expose.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Optional, Union

import numpy as np

from .beliefs import Belief
from .errors import ContractViolation, DimensionError, SizeCapError, ValidationError
from .model import (
    ContactGraph,
    EMPTY_QUARANTINE,
    Quarantine,
    branches,
    candidate_actions,
    infection_counts,
    outcome_indicator,
)
from .scenario import ScenarioConfig

DEFAULT_MAX_N = 6
DEFAULT_MAX_T = 8


@dataclass(eq=False)
class AlphaVector:
    """One linear piece of a value function, tagged with the action that
    generated it."""

    values: np.ndarray
    action: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValidationError("alpha vector must be one-dimensional")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("alpha vector has non-finite entries")


@dataclass(eq=False)
class AlphaSet:
    """A stage's vector set; the represented function is the pointwise min."""

    vectors: list
    t: int
    quarantine: Quarantine = EMPTY_QUARANTINE
    _matrix: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not self.vectors:
            raise ContractViolation("alpha set must be nonempty")
        dims = {len(v.values) for v in self.vectors}
        if len(dims) != 1:
            raise DimensionError(f"alpha vectors disagree on dimension: {sorted(dims)}")

    @property
    def dim(self) -> int:
        return len(self.vectors[0].values)

    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = np.stack([v.values for v in self.vectors])
        return self._matrix

    def __len__(self):
        return len(self.vectors)


class Evaluation(NamedTuple):
    value: float
    argmin_vector: int


def _belief_dense(b, dim: int) -> np.ndarray:
    if isinstance(b, Belief):
        vec = b.dense()
    else:
        vec = np.asarray(b, dtype=np.float64)
    if len(vec) != dim:
        raise DimensionError(f"belief dimension {len(vec)} != alpha dimension {dim}")
    return vec


def evaluate(aset: AlphaSet, b) -> Evaluation:
    """Minimum inner product over the set; ties go to the lowest index."""
    vec = _belief_dense(b, aset.dim)
    dots = aset.matrix() @ vec
    idx = int(np.argmin(dots))
    return Evaluation(float(dots[idx]), idx)


# ---------------------------------------------------------------------------
# backup
# ---------------------------------------------------------------------------


def _canonical_prune(stacked: np.ndarray, actions: np.ndarray):
    """Sort by (action, lexicographic values), dedupe, then drop every vector
    weakly dominated componentwise by an earlier survivor.

    Pointwise domination is exact: it never changes the represented min at
    any belief on the simplex.
    """
    keys = tuple(stacked[:, c] for c in range(stacked.shape[1] - 1, -1, -1)) + (actions,)
    order = np.lexsort(keys)
    stacked, actions = stacked[order], actions[order]

    kept_rows = []
    kept_actions = []
    kept_mat = None
    for row, act in zip(stacked, actions):
        if kept_mat is not None:
            if np.any(np.all(kept_mat <= row, axis=1)):
                continue
        kept_rows.append(row)
        kept_actions.append(int(act))
        kept_mat = np.vstack([kept_mat, row[None, :]]) if kept_mat is not None else row[None, :]
    return kept_rows, kept_actions


def exact_backup(
    next_sets: Union[AlphaSet, Mapping],
    g: ContactGraph,
    q: Quarantine,
    p: float,
    lam: float,
) -> AlphaSet:
    """One stage of value iteration at quarantine set q.

    ``next_sets`` is either a mapping {quarantine set -> AlphaSet} for stage
    t+1, or a single AlphaSet used for every observation branch (sufficient
    for quarantine-free reasoning and the degenerate examples). Each action
    contributes the cross-sum, over its observation branches (see
    :func:`branches`), of the branch's next-stage vectors pulled back one
    step and restricted to the states that give its outcome.
    """
    n = g.n_vertices

    def next_for(qq: Quarantine) -> AlphaSet:
        if isinstance(next_sets, AlphaSet):
            return next_sets
        return next_sets[qq]

    stage_t = next_for(q).t - 1
    c = infection_counts(n)

    backs = {}  # next quarantine (which fixes the branch's step) -> pulled-back set
    stacked = []
    actions = []
    for u in candidate_actions(n, q):
        rows = (c + lam if u else c)[None, :]
        for y, q_next, step in branches(g, q, u, p):
            if q_next not in backs:
                backs[q_next] = step.back(next_for(q_next).matrix().T).T
            back = backs[q_next]
            if y is not None:
                back = outcome_indicator(n, u, y) * back
            rows = (rows[:, None, :] + back[None, :, :]).reshape(-1, len(c))
        stacked.append(rows)
        actions.append(np.full(len(rows), u))

    kept_rows, kept_actions = _canonical_prune(
        np.concatenate(stacked), np.concatenate(actions)
    )
    vectors = [AlphaVector(r, a) for r, a in zip(kept_rows, kept_actions)]
    return AlphaSet(vectors, t=stage_t, quarantine=q)


# ---------------------------------------------------------------------------
# full solve
# ---------------------------------------------------------------------------


@dataclass
class ValueFunction:
    """Per-(stage, quarantine set) alpha sets for t = 1..horizon.

    The terminal stage holds the single terminal cost vector. ``stage_sets``
    exposes the empty-quarantine slice, one AlphaSet per stage.
    """

    n: int
    horizon: int
    table: dict  # (t, frozenset) -> AlphaSet

    def alpha_set(self, t: int, q: Quarantine = EMPTY_QUARANTINE) -> AlphaSet:
        return self.table[(t, frozenset(q))]

    @property
    def stage_sets(self):
        return [self.alpha_set(t) for t in range(1, self.horizon + 1)]

    def value(self, t: int, b, q: Quarantine = EMPTY_QUARANTINE) -> float:
        return evaluate(self.alpha_set(t, q), b).value


def _reachable_quarantines(n: int, max_size: int):
    """All subsets of [1, n] of size <= max_size, smallest first."""
    from itertools import combinations

    out = []
    for k in range(0, min(n, max_size) + 1):
        for combo in combinations(range(1, n + 1), k):
            out.append(frozenset(combo))
    return out


def solve(
    cfg: ScenarioConfig,
    max_n: int = DEFAULT_MAX_N,
    max_t: int = DEFAULT_MAX_T,
) -> ValueFunction:
    """Backward value iteration over every reachable (stage, quarantine) pair.

    At most one individual is quarantined per step, so stage t only needs
    quarantine sets of size < t. Raises SizeCapError beyond the enumeration
    caps; larger instances belong to the bounded approximate solver.
    """
    if cfg.n > max_n or cfg.horizon > max_t:
        raise SizeCapError(
            f"exact solve capped at N <= {max_n}, T <= {max_t} "
            f"(got N={cfg.n}, T={cfg.horizon}); use the approximate solver "
            "for larger instances"
        )
    return _backward_induction(cfg)


def _backward_induction(
    cfg: ScenarioConfig, prune: Optional[Callable[[AlphaSet], AlphaSet]] = None
) -> ValueFunction:
    """The loop behind :func:`solve`; ``prune``, when given, is applied to
    every backed-up set before the next stage uses it."""
    T = cfg.horizon
    c = infection_counts(cfg.n)
    table = {}
    for q in _reachable_quarantines(cfg.n, T - 1):
        table[(T, q)] = AlphaSet([AlphaVector(c.copy(), 0)], t=T, quarantine=q)
    for t in range(T - 1, 0, -1):
        g = cfg.graph_at(t)
        nxt = {q: aset for (tt, q), aset in table.items() if tt == t + 1}
        for q in _reachable_quarantines(cfg.n, t - 1):
            aset = exact_backup(nxt, g, q, cfg.p, cfg.lam)
            table[(t, q)] = aset if prune is None else prune(aset)
    return ValueFunction(cfg.n, T, table)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_FORMAT_VERSION = 1


def save_value_function(vf: ValueFunction, path) -> None:
    """Write a solved value function to a structured npz file.

    Layout: a json header {version, n, horizon, entries} where each entry is
    [stage, sorted quarantine list], plus one stacked vector array and one
    action-tag array per entry.
    """
    entries = sorted(vf.table.keys(), key=lambda k: (k[0], sorted(k[1])))
    header = {
        "version": _FORMAT_VERSION,
        "n": vf.n,
        "horizon": vf.horizon,
        "entries": [[t, sorted(q)] for t, q in entries],
    }
    arrays = {"header": np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)}
    for k, (t, q) in enumerate(entries):
        aset = vf.table[(t, q)]
        arrays[f"values_{k}"] = aset.matrix()
        arrays[f"actions_{k}"] = np.array([v.action for v in aset.vectors], dtype=np.int64)
    np.savez_compressed(path, **arrays)


def load_value_function(path) -> ValueFunction:
    with np.load(path) as data:
        header = json.loads(bytes(data["header"]).decode())
        if header.get("version") != _FORMAT_VERSION:
            raise ValidationError(
                f"unsupported value-function file version {header.get('version')}"
            )
        table = {}
        for k, (t, qlist) in enumerate(header["entries"]):
            values = data[f"values_{k}"]
            acts = data[f"actions_{k}"]
            vectors = [AlphaVector(values[i], int(acts[i])) for i in range(len(acts))]
            table[(int(t), frozenset(int(u) for u in qlist))] = AlphaSet(
                vectors, t=int(t), quarantine=frozenset(int(u) for u in qlist)
            )
    return ValueFunction(int(header["n"]), int(header["horizon"]), table)

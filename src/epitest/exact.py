"""Exact finite-horizon solver for the belief-space testing problem.

The value function at each stage is piecewise linear and concave over the
belief simplex, so it is represented by a finite set of cost vectors (one
value per hidden state); evaluating means taking the minimum inner product.
Backups build, per action, the cross-sum over observation branches of the
next-stage vectors and prune by exact pointwise domination before each sum
(incremental pruning, Cassandra, Littman & Zhang, UAI 1997). A last prune
over all actions keeps a vector exactly when no earlier vector in (action,
lexicographic values) order dominates it.

Quarantine makes the transition structure action-history dependent, so the
solver carries one vector set per (stage, reachable quarantine set). The
empty-quarantine slice is the value function of a fresh episode and is what
the plain per-stage accessors expose.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .beliefs import as_dense
from .errors import ContractViolation, SizeCapError, ValidationError
from .model import (
    ContactGraph,
    EMPTY_QUARANTINE,
    Quarantine,
    branches,
    candidate_actions,
    infection_counts,
    outcome_indicator,
)
from .scenario import ScenarioConfig, _number

DEFAULT_MAX_N = 6
DEFAULT_MAX_T = 8


@dataclass(eq=False)
class AlphaSet:
    """One (stage, quarantine) slice of a value function: the pointwise min
    over the rows of ``values``, k cost vectors over the 2**n states, each
    tagged in ``actions`` with the action that generated it. Construction
    checks once that there is one tag per row and that the matrix is
    nonempty and finite; the arrays are shared, not copied.
    """

    values: np.ndarray
    actions: np.ndarray
    t: int
    quarantine: Quarantine = EMPTY_QUARANTINE

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        self.actions = np.asarray(self.actions, dtype=np.int64)
        where = f"alpha set at stage {self.t}, quarantine {sorted(self.quarantine)}"
        if self.values.ndim != 2 or self.actions.shape != self.values.shape[:1]:
            raise ValidationError(f"{where}: vectors of shape {self.values.shape} "
                                  f"with tags of shape {self.actions.shape}")
        if not len(self.values):
            raise ContractViolation(f"{where} is empty")
        bad = ~np.isfinite(self.values)
        if bad.any():
            raise ValidationError(f"{where}: {int(bad.sum())} non-finite entries, "
                                  f"first in vector {int(np.argmax(bad.any(axis=1)))}")

    def __len__(self):
        return len(self.values)


class Evaluation(NamedTuple):
    value: float
    argmin_vector: int


def evaluate(aset: AlphaSet, b) -> Evaluation:
    """Minimum inner product over the set; ties go to the lowest index."""
    vec = as_dense(b, aset.values.shape[1])
    dots = aset.values @ vec
    idx = int(np.argmin(dots))
    return Evaluation(float(dots[idx]), idx)


# ---------------------------------------------------------------------------
# backup
# ---------------------------------------------------------------------------


_PRUNE_BLOCK = 256  # candidates tested together
_PRUNE_CHUNK = 1 << 18  # (earlier row, candidate) pairs compared at once
_DENSE_COORDS = 4  # coordinates compared for every pair before the rest are listed
_BEFORE = np.triu(np.ones((_PRUNE_BLOCK, _PRUNE_BLOCK), dtype=bool), 1)  # [j, i]: j < i


def _dominated(earlier: np.ndarray, block: np.ndarray, in_block: bool = False):
    """Per column of ``block``: does a column of ``earlier`` weakly dominate
    it? Both hold one row per coordinate. With ``in_block``, ``earlier`` is
    ``block`` and only the columns before a candidate count. The first
    coordinates are compared for every pair, then the pairs left are listed."""
    hit = np.zeros(block.shape[1], dtype=bool)
    step = max(1, _PRUNE_CHUNK // block.shape[1])
    for lo in range(0, earlier.shape[1], step):
        part = earlier[:, lo : lo + step]
        le = _BEFORE[lo : lo + part.shape[1], : block.shape[1]] if in_block else True
        for a, b in zip(part[:_DENSE_COORDS], block):
            le = le & (a[:, None] <= b)
        j, i = np.nonzero(le)
        for a, b in zip(part[_DENSE_COORDS:], block[_DENSE_COORDS:]):
            ok = a[j] <= b[i]
            j, i = j[ok], i[ok]
        hit[i] = True
    return hit


def _canonical_prune(stacked: np.ndarray, actions: np.ndarray):
    """Sort by (action, lexicographic values) and keep a vector exactly when
    no earlier vector in that order weakly dominates it componentwise, so one
    copy of exact duplicates survives.

    The sorted candidates go a block at a time against the rows before them
    in the block, then against a preallocated buffer of the survivors so far
    (enough, as domination is transitive), in chunks of a few megabytes; with
    several blocks, the widest-range coordinates are compared first. Pointwise
    domination is exact: it never changes the represented min at any belief
    on the simplex. Returns the survivor matrix and their actions.
    """
    order = np.lexsort((*stacked.T[::-1], actions))
    stacked, actions = stacked[order], actions[order]
    cols = stacked.T
    if cols.shape[1] > _PRUNE_BLOCK:
        cols = cols[np.argsort(cols.min(axis=1) - cols.max(axis=1), kind="stable")]
    kept = np.empty(cols.shape)
    kept_idx = []
    for lo in range(0, cols.shape[1], _PRUNE_BLOCK):
        block = cols[:, lo : lo + _PRUNE_BLOCK]
        idx = np.flatnonzero(~_dominated(block, block, in_block=True))
        if kept_idx:
            idx = idx[~_dominated(kept[:, : len(kept_idx)], block[:, idx])]
        kept[:, len(kept_idx) : len(kept_idx) + len(idx)] = block[:, idx]
        kept_idx.extend((idx + lo).tolist())
    return stacked[kept_idx], actions[kept_idx]


def _prune_one_action(rows: np.ndarray, u: int) -> np.ndarray:
    return rows if len(rows) < 2 else _canonical_prune(rows, np.full(len(rows), u))[0]


def pulled_back(next_sets: Mapping[Quarantine, AlphaSet], g: ContactGraph, q: Quarantine,
                p: float):
    """(u, [one matrix per branch]) per candidate action u: the branch's next
    vectors pulled back one step, on the states that give its outcome."""
    n = g.n_vertices
    backs = {}  # next quarantine (which fixes the branch's step) -> pulled-back set
    for u in candidate_actions(n, q):
        out = []
        for y, q_next, step in branches(g, q, u, p):
            if q_next not in backs:
                backs[q_next] = step.back(next_sets[q_next].values.T).T
            out.append(backs[q_next] if y is None else outcome_indicator(n, u, y) * backs[q_next])
        yield u, out


def exact_backup(
    next_sets: Mapping[Quarantine, AlphaSet],
    g: ContactGraph,
    q: Quarantine,
    p: float,
    lam: float,
) -> AlphaSet:
    """One stage of value iteration at quarantine set q.

    ``next_sets`` maps every quarantine set a branch can reach to its stage
    t+1 AlphaSet. Each action contributes the cross-sum, over its observation
    branches, of the :func:`pulled_back` sets.

    Each branch's set, and each partial cross-sum before the next branch,
    drops the rows another row of the same action dominates. Addition is
    monotone, so a dropped row's completions are dominated by ones that sort
    earlier, and the final prune keeps what it would keep of the full sum.
    """
    c = infection_counts(g.n_vertices)
    stacked, actions = [], []
    for u, backs in pulled_back(next_sets, g, q, p):
        rows = (c + lam if u else c)[None, :]
        for back in backs:
            rows, back = _prune_one_action(rows, u), _prune_one_action(back, u)
            rows = (rows[:, None, :] + back[None, :, :]).reshape(-1, len(c))
        stacked.append(rows)
        actions.append(np.full(len(rows), u))

    values, tags = _canonical_prune(np.concatenate(stacked), np.concatenate(actions))
    return AlphaSet(values, tags, t=next_sets[q].t - 1, quarantine=q)


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
        return stage_slice(self.table, self.n, self.horizon, t, q)

    @property
    def stage_sets(self):
        return [self.alpha_set(t) for t in range(1, self.horizon + 1)]

    def value(self, t: int, b, q: Quarantine = EMPTY_QUARANTINE) -> float:
        return evaluate(self.alpha_set(t, q), b).value


def check_stage(t: int, q: Quarantine, horizon: int) -> None:
    """A ValidationError naming t and q unless 1 <= t <= horizon."""
    if not 1 <= t <= horizon:
        raise ValidationError(f"stage t = {t} (quarantine {sorted(q)}) is outside [1, {horizon}]")


def stage_slice(table: dict, n: int, horizon: int, t: int, q: Quarantine):
    """``table[(t, q)]`` of a backward sweep, or a ValidationError naming t, q
    and the slices held."""
    try:
        return table[(t, frozenset(q))]
    except KeyError:
        check_stage(t, q, horizon)
        held = sum(tt == t for tt, _ in table)
        raise ValidationError(f"no slice for quarantine {sorted(q)} at stage t = {t}: it holds "
                              f"the {held} sets of at most {t - 1} of individuals 1..{n}") from None


def _reachable_quarantines(n: int, max_size: int):
    """All subsets of [1, n] of size <= max_size, smallest first."""
    return [frozenset(combo) for k in range(min(n, max_size) + 1)
            for combo in combinations(range(1, n + 1), k)]


def _backward_induction(
    cfg: ScenarioConfig,
    terminal: Callable[[Quarantine], object],
    backup: Callable[[Mapping, ContactGraph, Quarantine], object],
) -> dict:
    """The one sweep behind the exact solver and both bounds: returns
    {(t, q): value} with ``terminal(q)`` at the horizon, then, stage by stage
    down to 1, ``backup({q': stage t+1 value}, stage t's graph, q)``. At most
    one individual is quarantined per step, so stage t only needs quarantine
    sets of size < t; they are visited smallest first.
    """
    T = cfg.horizon
    table = {(T, q): terminal(q) for q in _reachable_quarantines(cfg.n, T - 1)}
    for t in range(T - 1, 0, -1):
        g = cfg.graph_at(t)
        nxt = {q: value for (tt, q), value in table.items() if tt == t + 1}
        for q in _reachable_quarantines(cfg.n, t - 1):
            table[(t, q)] = backup(nxt, g, q)
    return table


def _terminal_set(cfg: ScenarioConfig, q: Quarantine) -> AlphaSet:
    """The last stage costs its infections only: one vector, tagged 0."""
    return AlphaSet(infection_counts(cfg.n)[None, :], [0], t=cfg.horizon, quarantine=q)


def solve(cfg: ScenarioConfig) -> ValueFunction:
    """Backward value iteration over every reachable (stage, quarantine) pair.

    Raises SizeCapError beyond N = DEFAULT_MAX_N or T = DEFAULT_MAX_T,
    before any backup; larger instances belong to the bounded approximate
    solver.
    """
    if cfg.n > DEFAULT_MAX_N or cfg.horizon > DEFAULT_MAX_T:
        raise SizeCapError(
            f"exact solve capped at N <= {DEFAULT_MAX_N}, T <= {DEFAULT_MAX_T} "
            f"(got N={cfg.n}, T={cfg.horizon}); use the approximate solver "
            "for larger instances"
        )
    table = _backward_induction(
        cfg,
        lambda q: _terminal_set(cfg, q),
        lambda nxt, g, q: exact_backup(nxt, g, q, cfg.p, cfg.lam),
    )
    return ValueFunction(cfg.n, cfg.horizon, table)


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
    for k, key in enumerate(entries):
        arrays[f"values_{k}"] = vf.table[key].values
        arrays[f"actions_{k}"] = vf.table[key].actions
    np.savez_compressed(path, **arrays)


def load_value_function(path) -> ValueFunction:
    """Read a file written by :func:`save_value_function`. Raises
    ValidationError, naming the member, key, entry and numbers, for a header
    that is not a JSON object, a missing member or header key, an ``n``,
    ``horizon``, stage or vertex that is not an integer, ``entries`` that
    is not a list, an entry that is not a [stage, quarantine] pair, a stage
    outside [1, horizon], a quarantine with a vertex outside [1, n] or more
    than t - 1 members, a repeated (stage, quarantine) pair, an empty set,
    vectors not 2**n wide, a tag count that is not the vector count, tags
    outside [0, n], non-finite values, or a missing reachable slice.
    """
    with np.load(path) as data:
        def member(name):
            if name not in data.files:
                raise ValidationError(f"value-function file has no {name!r} member")
            return data[name]

        raw = bytes(member("header"))
        try:
            header = json.loads(raw.decode())
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ValidationError(f"value-function header is not JSON: {exc}") from None
        key = next((k for k in ("version", "n", "horizon", "entries")
                    if not isinstance(header, dict) or k not in header), None)
        if key is not None:
            raise ValidationError(f"value-function header has no {key!r} key")
        if header["version"] != _FORMAT_VERSION:
            raise ValidationError(f"unsupported value-function file version {header['version']}")
        n, horizon = (_number(int, header[k], f"value-function header {k!r}")
                      for k in ("n", "horizon"))
        if not isinstance(header["entries"], list):
            raise ValidationError(f"value-function header 'entries' is "
                                  f"{header['entries']!r}, not a list")
        table = {}
        first = {}  # (stage, quarantine) -> index of the entry that holds it
        for k, entry in enumerate(header["entries"]):
            if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[1], list)):
                raise ValidationError(f"value-function header entry {k} is {entry!r}, "
                                      f"not [stage, quarantine]")
            field = f"value-function header entry {k}"
            t = _number(int, entry[0], f"{field}'s stage")
            q = frozenset(_number(int, u, f"{field}'s quarantined vertex") for u in entry[1])
            values = member(f"values_{k}")
            where = f"value-function entry {k} (stage {t}, quarantine {sorted(q)})"
            if not 1 <= t <= horizon:
                raise ValidationError(f"{where}: stage outside [1, {horizon}]")
            if not q <= frozenset(range(1, n + 1)):
                raise ValidationError(f"{where}: quarantined vertex outside [1, {n}]")
            if len(q) > t - 1:
                raise ValidationError(f"{where}: {len(q)} quarantined, but at most "
                                      f"{t - 1} can be by stage {t}")
            if (t, q) in first:
                raise ValidationError(f"{where}: repeats entry {first[(t, q)]}")
            first[(t, q)] = k
            if values.shape[1:] != (1 << n,) or not len(values):
                raise ValidationError(f"{where}: vectors of shape {values.shape}, "
                                      f"expected one or more rows of width 2**{n} = {1 << n}")
            aset = AlphaSet(values, member(f"actions_{k}"), t=t, quarantine=q)
            if not 0 <= aset.actions.min() <= aset.actions.max() <= n:
                raise ValidationError(f"{where}: action tags span [{aset.actions.min()}, "
                                      f"{aset.actions.max()}], outside [0, {n}]")
            table[(t, q)] = aset
    reachable = [(t, q) for t in range(1, horizon + 1) for q in _reachable_quarantines(n, t - 1)]
    gap = next((key for key in reachable if key not in table), None)
    if gap:
        raise ValidationError(f"value-function file lacks stage {gap[0]}, quarantine "
                              f"{sorted(gap[1])}: it has {len(table)} of the "
                              f"{len(reachable)} reachable slices")
    return ValueFunction(n, horizon, table)

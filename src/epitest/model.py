"""Core domain types and the controlled transition structure.

The population is a fixed set of N individuals, each either healthy (0) or
infected (1). Social contacts form a weighted undirected graph that may change
every step. Per step exactly one contact edge becomes *active*, drawn from the
non-quarantined (induced) subgraph with probability proportional to its weight;
if exactly one endpoint of the active edge is infected, the infection crosses
with probability p. Quarantined individuals are cut out of the contact graph:
they neither transmit nor catch the disease, and remain quarantined forever.

States are packed as bitmasks: bit (i - 1) of ``SystemState.mask`` is the
infection indicator of individual i. Wherever the 2**N state space is
enumerated, it is ordered by that integer mask, and argmin ties anywhere in
the toolkit break toward the lowest index.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

import numpy as np

from .errors import ContractViolation, DimensionError, SizeCapError, ValidationError

# 2**N enumeration (dense kernels, exhaustive beliefs) is refused beyond this.
MAX_ENUMERATION_N = 20

Quarantine = frozenset  # set of quarantined vertex ids, subset of [1, N]

EMPTY_QUARANTINE: Quarantine = frozenset()


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemState:
    """Infection pattern of the whole population, packed as a bitmask.

    ``mask`` bit (i - 1) holds individual i's indicator; ``n`` is the
    population size. Instances are immutable value objects.
    """

    mask: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"population size must be >= 1, got {self.n}")
        if not 0 <= self.mask < (1 << self.n):
            raise ValidationError(
                f"state mask {self.mask} out of range for n={self.n}"
            )

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "SystemState":
        bits = tuple(bits)
        mask = 0
        for i, b in enumerate(bits):
            if b not in (0, 1):
                raise ValidationError(f"state bits must be 0/1, got {b}")
            mask |= b << i
        return cls(mask, len(bits))

    @property
    def bits(self) -> tuple:
        return tuple((self.mask >> i) & 1 for i in range(self.n))

    def infected(self, i: int) -> bool:
        """Whether individual i (1-based) is infected."""
        self._check_vertex(i)
        return bool((self.mask >> (i - 1)) & 1)

    def infect(self, i: int) -> "SystemState":
        self._check_vertex(i)
        return SystemState(self.mask | (1 << (i - 1)), self.n)

    def count(self) -> int:
        """Number of infected individuals (the L1 norm of the bit vector)."""
        return self.mask.bit_count()

    def _check_vertex(self, i: int):
        if not 1 <= i <= self.n:
            raise ValidationError(f"vertex id {i} out of range [1, {self.n}]")

    def __str__(self):
        return "".join(str(b) for b in self.bits)


# ---------------------------------------------------------------------------
# contact graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContactGraph:
    """Weighted undirected contact graph over vertices 1..n_vertices.

    Edges are stored canonically as (i, j, w) with i < j, sorted, at most one
    entry per unordered pair, weights nonnegative.
    """

    n_vertices: int
    edges: tuple

    def __post_init__(self):
        if self.n_vertices < 1:
            raise ValidationError("graph needs at least one vertex")
        canonical = []
        seen = set()
        for e in self.edges:
            i, j, w = e
            if i == j:
                raise ValidationError(f"self-loop ({i},{j}) not allowed")
            if not (1 <= i <= self.n_vertices and 1 <= j <= self.n_vertices):
                raise ValidationError(f"edge ({i},{j}) has vertex outside [1,{self.n_vertices}]")
            if not 0 <= w < math.inf:
                raise ValidationError(f"edge ({i},{j}) weight must be a finite number >= 0, got {w}")
            a, b = (i, j) if i < j else (j, i)
            if (a, b) in seen:
                raise ValidationError(f"duplicate edge for pair ({a},{b})")
            seen.add((a, b))
            canonical.append((a, b, float(w)))
        canonical.sort()
        object.__setattr__(self, "edges", tuple(canonical))

    @classmethod
    def from_edges(cls, n_vertices: int, edges: Iterable) -> "ContactGraph":
        return cls(n_vertices, tuple(tuple(e) for e in edges))

    def total_weight(self) -> float:
        return sum(w for _, _, w in self.edges)

    def incident_weight(self, u: int) -> float:
        return sum(w for i, j, w in self.edges if u in (i, j))


def active_subgraph(g: ContactGraph, q: Quarantine) -> ContactGraph:
    """Vertex-induced subgraph on the non-quarantined population.

    Keeps exactly the edges with both endpoints outside q.
    """
    _check_quarantine(g.n_vertices, q)
    kept = tuple(e for e in g.edges if e[0] not in q and e[1] not in q)
    return ContactGraph(g.n_vertices, kept)


def _check_quarantine(n: int, q: Quarantine):
    for u in q:
        if not 1 <= u <= n:
            raise ValidationError(f"quarantined vertex {u} outside [1, {n}]")


@dataclass(frozen=True)
class ContactSchedule:
    """One contact graph per step t = 1..horizon, all over the same vertices."""

    horizon: int
    graphs: tuple

    def __post_init__(self):
        if self.horizon < 1:
            raise ValidationError("horizon must be >= 1")
        if len(self.graphs) != self.horizon:
            raise ValidationError(
                f"schedule length {len(self.graphs)} does not match horizon {self.horizon}"
            )
        sizes = {g.n_vertices for g in self.graphs}
        if len(sizes) > 1:
            raise ValidationError(f"graphs disagree on population size: {sorted(sizes)}")

    @classmethod
    def static(cls, horizon: int, graph: ContactGraph) -> "ContactSchedule":
        return cls(horizon, tuple([graph] * horizon))

    @property
    def n(self) -> int:
        return self.graphs[0].n_vertices

    def graph_at(self, t: int) -> ContactGraph:
        if not 1 <= t <= self.horizon:
            raise ValidationError(f"step {t} outside [1, {self.horizon}]")
        return self.graphs[t - 1]


# ---------------------------------------------------------------------------
# transition structure
# ---------------------------------------------------------------------------

# The Dynamics cache drops its least recently used entries beyond this many
# bytes (the newest entry always stays).
DYNAMICS_CACHE_BYTES = 64 << 20
_EDGE_BYTES = 256  # generous size of one edge's Python objects in a Dynamics


@lru_cache(maxsize=None)
def _up_index(n: int) -> np.ndarray:
    """(n, 2**n) array: row k holds x | bit k for every state mask x."""
    _enumeration_cap(n)
    return np.arange(1 << n) | (1 << np.arange(n))[:, None]


class Dynamics:
    """One step of the epidemic under a fixed (graph, q_edges, q_active, p).

    The active edge is drawn from the subgraph induced by dropping
    ``q_edges`` (weights renormalized by that subgraph's total weight);
    transmission additionally requires both endpoints outside ``q_active``.
    Passing the same set twice gives the plain single-quarantine step;
    ``q_edges`` strictly inside ``q_active`` models an individual quarantined
    mid-step, after the edge was already drawn but before transmission.

    Every one-step quantity of the toolkit comes from here: per-state
    crossings (:meth:`flows`), the sparse belief push-forward
    (:meth:`predict`), and the dense operators ``P @ V`` (:meth:`back`) and
    ``P.T @ b`` (:meth:`push`), which go through ``x | bit_k`` with index
    arrays built once per n and never form the 2**n x 2**n matrix. Get
    instances from :func:`dynamics`.
    """

    def __init__(self, g: ContactGraph, q_edges: Quarantine, q_active: Quarantine, p: float):
        if not 0.0 <= p <= 1.0:
            raise ValidationError(f"transmission probability {p} outside [0, 1]")
        if not q_edges <= q_active:
            raise ValidationError("q_edges must be a subset of q_active")
        _check_quarantine(g.n_vertices, q_active)
        self.n = g.n_vertices
        self.active = active_subgraph(g, q_edges)  # the edges the draw can pick
        self.total = self.active.total_weight()
        # (bit_i, bit_j, i, j, p * w / total) per edge that can carry a
        # crossing, in sorted-edge order
        self._crossings = tuple(
            (1 << (i - 1), 1 << (j - 1), i, j, p * w / self.total)
            for i, j, w in self.active.edges
            if w != 0.0 and i not in q_active and j not in q_active
        ) if self.total > 0.0 else ()
        self._tables = None

    @property
    def nbytes(self) -> int:
        """The most this instance holds: its edges, and its dense tables
        whether or not they are built yet."""
        return _EDGE_BYTES * (1 + len(self.active.edges)) + 8 * (self.n + 1) * (1 << self.n)

    def flows(self, mask: int) -> dict:
        """{vertex k: P(k becomes infected)} out of state ``mask``, each
        edge's p*w/total term added in sorted-edge order."""
        out = {}
        for bi, bj, i, j, coef in self._crossings:
            if bool(mask & bi) == bool(mask & bj):
                continue  # both infected or both healthy: nothing crosses
            target = j if mask & bi else i
            out[target] = out.get(target, 0.0) + coef
        return out

    def predict(self, probs: dict) -> dict:
        """One-step push-forward of a sparse {mask: probability} map."""
        out: dict = {}
        for mask, pr in probs.items():
            moved = 0.0
            for k, fp in self.flows(mask).items():
                if fp <= 0.0:
                    continue
                nxt = mask | (1 << (k - 1))
                out[nxt] = out.get(nxt, 0.0) + pr * fp
                moved += fp
            out[mask] = out.get(mask, 0.0) + pr * (1.0 - moved)
        return out

    def _flow_tables(self):
        """(flow, stay): flow[k, x] = P(x -> x | bit k), stay[x] = P(x -> x).

        Entries add up the same per-edge terms, in the same order, as
        :meth:`flows`."""
        if self._tables is None:
            _enumeration_cap(self.n)
            masks = np.arange(1 << self.n)
            flow = np.zeros((self.n, 1 << self.n))
            for bi, bj, i, j, coef in self._crossings:
                has_i, has_j = (masks & bi) != 0, (masks & bj) != 0
                flow[j - 1] += coef * (has_i & ~has_j)
                flow[i - 1] += coef * (has_j & ~has_i)
            self._tables = (flow, 1.0 - flow.sum(axis=0))
        return self._tables

    def back(self, V: np.ndarray) -> np.ndarray:
        """P @ V for V of shape (2**n,) or (2**n, m): expected next-stage
        values, row = current state."""
        flow, stay = self._flow_tables()
        V = np.asarray(V, dtype=np.float64)
        col = (Ellipsis,) + (None,) * (V.ndim - 1)
        out = stay[col] * V
        for k, up in enumerate(_up_index(self.n)):
            out += flow[k][col] * V[up]  # flow is 0 where bit k is already set
        return out

    def push(self, b: np.ndarray) -> np.ndarray:
        """P.T @ b: the one-step push-forward of a dense belief."""
        flow, stay = self._flow_tables()
        moved = np.bincount(_up_index(self.n).ravel(), (flow * b).ravel(), minlength=len(b))
        return stay * b + moved


class _DynamicsCache:
    """LRU map from (graph, q_edges, q_active, p) to its Dynamics. Each entry
    is charged its :attr:`Dynamics.nbytes`; entries stay within ``limit``
    bytes in all, or one entry when that one alone is larger."""

    def __init__(self, limit: int):
        self.limit = limit
        self.nbytes = 0
        self._entries = OrderedDict()

    def get(self, key) -> Dynamics:
        dyn = self._entries.get(key)
        if dyn is not None:
            self._entries.move_to_end(key)
            return dyn
        dyn = self._entries[key] = Dynamics(*key)
        self.nbytes += dyn.nbytes
        while self.nbytes > self.limit and len(self._entries) > 1:
            self.nbytes -= self._entries.popitem(last=False)[1].nbytes
        return dyn


_DYNAMICS = _DynamicsCache(DYNAMICS_CACHE_BYTES)


def dynamics(g: ContactGraph, q_edges: Quarantine, q_active: Quarantine, p: float) -> Dynamics:
    """The cached :class:`Dynamics` of one step (see its docstring)."""
    return _DYNAMICS.get((g, frozenset(q_edges), frozenset(q_active), p))


def candidate_actions(n: int, q: Quarantine) -> list:
    """Actions worth weighing: no test (0), then every non-quarantined
    individual in increasing order, so argmin ties go to the lowest."""
    return [0] + [u for u in range(1, n + 1) if u not in q]


def branches(g: ContactGraph, q: Quarantine, u: int, p: float) -> list:
    """(outcome, next quarantine, Dynamics) per observation branch of action u.

    Testing nobody observes nothing: one branch, (None, q). Testing u reveals
    its bit: a positive quarantines u at once, (1, q | {u}); a negative keeps
    q, (0, q). The step's contact was drawn before the test, so each branch
    steps with ``dynamics(g, q, q_next, p)``: a new quarantine only blocks
    the crossing.
    """
    if u == 0:
        return [(None, q, dynamics(g, q, q, p))]
    q1 = q | {u}
    return [(1, q1, dynamics(g, q, q1, p)), (0, q, dynamics(g, q, q, p))]


def one_step_min(n: int, q: Quarantine, lam: float, children, value) -> tuple:
    """Minimize test cost plus expected next-stage value over the
    :func:`candidate_actions` of quarantine q.

    ``children(u)`` gives (probability, next belief, next quarantine) per
    observation branch of action u, in any belief representation that
    ``value(next belief, next quarantine)`` accepts. Returns (action, cost),
    the cost excluding the current stage; an exact tie goes to the lower
    action, so no-test wins every tie it is in.
    """
    best_u, best_cost = 0, None
    for u in candidate_actions(n, q):
        cost = lam if u else 0.0
        for prob, nxt, q_next in children(u):
            cost += prob * value(nxt, q_next)
        if best_cost is None or cost < best_cost:
            best_u, best_cost = u, cost
    return best_u, best_cost


# Kept for perfbench/tracing.py, which wraps this name; no package code calls it.
def infection_flows(
    x: SystemState,
    g: ContactGraph,
    q_edges: Quarantine,
    q_active: Quarantine,
    p: float,
) -> dict:
    """Per-target one-step infection probabilities out of state x:
    {vertex k: P(k becomes infected)} (see :class:`Dynamics`)."""
    if g.n_vertices != x.n:
        raise DimensionError(f"graph has {g.n_vertices} vertices, state has {x.n}")
    return dynamics(g, q_edges, q_active, p).flows(x.mask)


def _enumeration_cap(n: int):
    if n > MAX_ENUMERATION_N:
        raise SizeCapError(
            f"2**{n} state enumeration exceeds the cap of 2**{MAX_ENUMERATION_N}"
        )


@lru_cache(maxsize=None)
def _bits_matrix(n: int) -> np.ndarray:
    """(2**n, n) matrix of state bits; row index is the state mask."""
    _enumeration_cap(n)
    masks = np.arange(1 << n, dtype=np.uint32)
    return ((masks[:, None] >> np.arange(n)) & 1).astype(np.float64)


@lru_cache(maxsize=None)
def infection_counts(n: int) -> np.ndarray:
    """Dense terminal-cost vector: infected count per state mask."""
    return _bits_matrix(n).sum(axis=1)


def outcome_indicator(n: int, u: int, y: int) -> np.ndarray:
    """Dense 0/1 vector over state masks: 1 where testing u gives outcome y."""
    hot = _bits_matrix(n)[:, u - 1]
    return hot if y else 1.0 - hot


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def sample_active_edge(g: ContactGraph, q: Quarantine, rng) -> Optional[tuple]:
    """Draw one edge of the active subgraph, proportional to weight.

    Returns the (i, j, w) tuple, or None when the active subgraph carries no
    weight. Consumes exactly one uniform variate either way, so parallel
    policy evaluations sharing a seed stay aligned.
    """
    dyn = dynamics(g, q, q, 0.0)  # the draw does not depend on p
    r = rng.random()
    if dyn.total <= 0.0:
        return None
    r *= dyn.total
    acc = 0.0
    for e in dyn.active.edges:
        acc += e[2]
        if r < acc:
            return e
    # rounding left r at or above the running sum: the last drawable edge
    return next(e for e in reversed(dyn.active.edges) if e[2] > 0.0)


def transmit_with_uniform(
    x: SystemState, edge: Optional[tuple], p: float, q_active: Quarantine, u: float
) -> SystemState:
    """Transmission step driven by a pre-drawn uniform variate.

    Used by the simulator so the transmission stream is consumed once per
    step regardless of whether a crossing was possible, keeping paired-seed
    runs of different policies on common randomness. Endpoints quarantined by
    the current step's test block the crossing.
    """
    if edge is None:
        return x
    i, j, _ = edge
    if i in q_active or j in q_active:
        return x
    xi, xj = x.infected(i), x.infected(j)
    if xi == xj:
        return x
    if u < p:
        return x.infect(j if xi else i)
    return x


def validate_action(u: int, n: int) -> int:
    """Check a test decision: 0 (no test) or a vertex id in [1, n]."""
    if not isinstance(u, (int, np.integer)) or not 0 <= int(u) <= n:
        raise ContractViolation(f"action {u!r} outside [0, {n}]")
    return int(u)

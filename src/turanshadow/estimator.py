"""Weighted-sampling clique estimator over a shadow.

Each shadow entry (S, ell) gets weight C(|S|, ell). A trial draws an entry
from the weight distribution via an alias table, draws a uniform ell-subset
of it, and tests cliqueness; the success fraction times the total weight is
an unbiased estimate of the clique count covered by the sampled entries.
Entries with ell <= 2 carry no density guarantee and are counted exactly
instead of sampled.

All trials run in one array engine. It draws every trial's entry first,
then the subset keys (max_ell uniforms per trial) block by block,
_TRIAL_BLOCK trials at a time. A numpy Generator fills arrays in row-major
order from one stream, so the block draws are exactly the rows of a single
(t, max_ell) draw: the result is a pure function of (seed, t), whatever the
block size. Each partial Fisher-Yates pick is found by undoing the earlier
swaps, with no permutation array. Pairs are tested in the shadow's own
adjacency table, without touching the graph: pick b is adjacent to an
earlier pick a when bit labels[b] of table row rowbase + labels[a] is set,
so each of the C(ell, 2) pairs costs one word gather and one AND.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .graph import Graph, degeneracy_order
from .shadow import MAX_K, TuranShadow, shadow_finder

DEFAULT_SAMPLES = 50_000

_TRIAL_BLOCK = 8192


def f_of(ell: int) -> float:
    """ell**(ell-2) / ell!, by iterated product to stay in double range.

    Strictly increasing over the supported range 3..MAX_K.
    """
    if not 3 <= ell <= MAX_K:
        raise ValueError(f"ell must be in [3, {MAX_K}]")
    acc = 1.0
    for i in range(1, ell + 1):
        acc *= ell / i
    return acc / (ell * ell)


def gamma_of(sh: TuranShadow) -> float:
    """Guaranteed clique-density floor of the sampled part of a shadow.

    1 / max over entries with ell >= 3 of f(ell) * |S|**2; 1 when no such
    entries exist (the sampling phase is then vacuous).
    """
    worst = 0.0
    sizes = sh.sizes
    for ell in np.unique(sh.ells[sh.ells >= 3]).tolist():
        size = int(sizes[sh.ells == ell].max())
        worst = max(worst, f_of(ell) * size * size)
    return 1.0 / worst if worst > 0.0 else 1.0


def required_samples(gamma: float, eps: float, delta: float) -> int:
    """Trial count sufficient for (1 + eps)-accuracy with confidence 1 - delta.

    ceil((20 / (gamma * eps^2)) * ln(1/delta)).
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    return math.ceil(20.0 / (gamma * eps * eps) * math.log(1.0 / delta))


@dataclass(eq=False)
class SamplerState:
    """Frozen draw structure for one shadow: weights, alias table, offset.

    Sampled entry i (an ell >= 3 entry of the shadow) holds the sorted global
    ids vertices[starts[i]:starts[i] + sizes[i]] and clique budget ells[i];
    their root-local labels sit at the same positions of labels, and their
    adjacency rows start at row rowbase[i] of table. vertices, labels and
    table are the shadow's own arrays, not copies. exact_offset is the
    exact clique count contributed by ell <= 2 entries.
    """

    vertices: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    ells: np.ndarray
    labels: np.ndarray
    rowbase: np.ndarray
    table: np.ndarray
    weights: np.ndarray
    total_weight: float
    alias_prob: np.ndarray
    alias_index: np.ndarray
    exact_offset: int
    max_ell: int

    @property
    def entry_count(self) -> int:
        return len(self.ells)


def _build_alias(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose alias table: O(1) draws with probabilities weights / sum."""
    n = len(weights)
    prob = np.empty(n, dtype=np.float64)
    alias = np.zeros(n, dtype=np.int64)
    scaled = weights * (n / weights.sum())
    small = np.flatnonzero(scaled < 1.0).tolist()
    large = np.flatnonzero(scaled >= 1.0).tolist()
    scaled = scaled.tolist()
    while small and large:
        s = small.pop()
        l = large.pop()
        prob[s] = scaled[s]
        alias[s] = l
        scaled[l] = scaled[l] - (1.0 - scaled[s])
        if scaled[l] < 1.0:
            small.append(l)
        else:
            large.append(l)
    for i in large:
        prob[i] = 1.0
    for i in small:
        prob[i] = 1.0  # numerical leftovers: alias stays 0, never taken
    return prob, alias


def build_sampler(sh: TuranShadow, g: Graph) -> SamplerState:
    """Split a shadow into sampled entries plus an exactly-counted offset.

    Weights are C(|S|, ell) as doubles. Entries with ell = 2 contribute
    their induced edge count to the offset (ell = 1 would contribute |S|);
    only ell >= 3 entries enter the alias table.
    """
    sizes, ells = sh.sizes, sh.ells
    sampled = np.flatnonzero(ells >= 3)
    offset = int(sh.edges[ells == 2].sum()) + int(sizes[ells == 1].sum())
    # one exact binomial per distinct (size, ell), the same doubles as per entry
    pairs, inverse = np.unique(sizes[sampled] * (MAX_K + 1) + ells[sampled],
                               return_inverse=True)
    w = np.array([float(math.comb(*divmod(p, MAX_K + 1)))
                  for p in pairs.tolist()])[inverse]
    if sampled.size:
        prob, alias = _build_alias(w)
    else:
        prob, alias = np.empty(0), np.empty(0, dtype=np.int64)
    return SamplerState(
        vertices=sh.vertices,
        starts=sh.offsets[sampled],
        sizes=sizes[sampled],
        ells=ells[sampled],
        labels=sh.labels,
        rowbase=sh.rowbase[sampled],
        table=sh.table,
        weights=w,
        total_weight=float(w.sum()),
        alias_prob=prob,
        alias_index=alias,
        exact_offset=offset,
        max_ell=int(ells[sampled].max(initial=0)),
    )


def _count_cliques(steps: np.ndarray, starts: np.ndarray,
                   rowbase: np.ndarray, labels: np.ndarray,
                   table: np.ndarray) -> int:
    """Rows of steps whose partial Fisher-Yates picks form a clique.

    Step i swaps slot i with slot steps[:, i] of the set whose labels start
    at labels[starts]; its adjacency rows start at row rowbase of the
    (rows, nw) table.
    """
    nw = table.shape[1]
    words = table.reshape(-1)
    heads: list[np.ndarray] = []  # word offset of each earlier pick's row
    for b in range(steps.shape[1]):
        # later steps leave slot b alone: undo steps b-1..0 on steps[:, b]
        pos = steps[:, b]
        for i in range(b - 1, -1, -1):
            j = steps[:, i]
            pos = np.where(pos == i, j, np.where(pos == j, i, pos))
        lb = labels[starts + pos]
        if heads:
            word = lb >> 6
            hit = np.left_shift(np.uint64(1), (lb & 63).astype(np.uint64))
            for head in heads:
                hit &= words[head + word]
            live = np.flatnonzero(hit)  # rows missing an edge are done
            steps, starts, rowbase, lb = (steps[live], starts[live],
                                          rowbase[live], lb[live])
            heads = [h[live] for h in heads]
        heads.append((rowbase + lb) * nw)
    return int(starts.size)


def run_trials(st: SamplerState, g: Graph, t: int,
               seed: int) -> tuple[int, int]:
    """Run t Bernoulli trials; returns (successes, trials run).

    Skips (returning (0, 0)) when the sampler has no sampled entries. The
    outcome is a pure function of (seed, t): trial r always gets the r-th
    entry draw and the r-th row of subset keys from the seeded stream. The
    pair tests read only the sampler's table, never g.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if st.entry_count == 0:
        return 0, 0
    rng = np.random.default_rng(seed)
    raw_idx = rng.integers(0, st.entry_count, size=t)
    raw_u = rng.random(t)
    chosen = np.where(raw_u < st.alias_prob[raw_idx], raw_idx,
                      st.alias_index[raw_idx])
    del raw_idx, raw_u
    successes = 0
    for lo in range(0, t, _TRIAL_BLOCK):
        block = chosen[lo:lo + _TRIAL_BLOCK]
        u = rng.random((block.size, st.max_ell))
        block_ells = st.ells[block]
        for ell in np.flatnonzero(np.bincount(block_ells)).tolist():
            rows = np.flatnonzero(block_ells == ell)
            idx = block[rows]
            # step i swaps slot i with a uniform slot in [i, s)
            i = np.arange(ell)
            span = st.sizes[idx, None] - i
            steps = i + (u[rows, :ell] * span).astype(np.int64)
            successes += _count_cliques(steps, st.starts[idx],
                                        st.rowbase[idx], st.labels, st.table)
    return successes, t


def estimate_from_trials(st: SamplerState, successes: int, t: int) -> float:
    """(successes / t) * total_weight + exact_offset."""
    if st.entry_count == 0:
        return float(st.exact_offset)
    if t < 1:
        raise ValueError("t must be >= 1 when sampled entries exist")
    return successes / t * st.total_weight + st.exact_offset


@dataclass(frozen=True)
class EstimateReport:
    """Estimate plus the diagnostics needed to judge it."""

    k: int
    estimate: float
    samples_run: int
    successes: int
    success_ratio: float
    gamma: float
    total_weight: float
    exact_offset: int
    shadow_set_count: int
    representation_size: int
    alpha: int  # degeneracy of the input graph
    time_shadow: float
    time_sample: float
    seed: int


def turan_shadow_count(g: Graph, k: int, *, samples: int | None = None,
                       eps: float | None = None, delta: float | None = None,
                       seed: int = 0) -> EstimateReport:
    """End-to-end k-clique estimate: build the shadow, then sample it.

    k = 1 and k = 2 return the exact vertex and edge counts without building
    a shadow. For k >= 3 the trial count is `samples` (default 50000), or
    derived from (eps, delta) when both are given.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if (eps is None) != (delta is None):
        raise ValueError("eps and delta must be given together")
    if eps is not None and samples is not None:
        raise ValueError("choose either a fixed sample count or (eps, delta)")
    if samples is not None and samples < 1:
        raise ValueError("samples must be >= 1")
    if k <= 2:
        exact = g.vertex_count if k == 1 else g.edge_count
        return EstimateReport(
            k=k, estimate=float(exact), samples_run=0, successes=0,
            success_ratio=0.0, gamma=1.0, total_weight=0.0,
            exact_offset=exact, shadow_set_count=0, representation_size=0,
            alpha=degeneracy_order(g).alpha, time_shadow=0.0,
            time_sample=0.0, seed=seed)
    t0 = time.perf_counter()
    sh = shadow_finder(g, k)
    st = build_sampler(sh, g)
    gamma = gamma_of(sh)
    t1 = time.perf_counter()
    if eps is not None:
        t = required_samples(gamma, eps, delta)
    else:
        t = samples if samples is not None else DEFAULT_SAMPLES
    successes, t_run = run_trials(st, g, t, seed)
    estimate = estimate_from_trials(st, successes, t_run)
    t2 = time.perf_counter()
    return EstimateReport(
        k=k,
        estimate=estimate,
        samples_run=t_run,
        successes=successes,
        success_ratio=successes / t_run if t_run else 0.0,
        gamma=gamma,
        total_weight=st.total_weight,
        exact_offset=st.exact_offset,
        shadow_set_count=len(sh.ells),
        representation_size=sh.representation_size,
        alpha=sh.alpha,
        time_shadow=t1 - t0,
        time_sample=t2 - t1,
        seed=seed,
    )

"""Weighted-sampling clique estimator over a shadow.

Each shadow entry (S, ell) gets weight C(|S|, ell). A trial draws an entry
from the weight distribution, draws a uniform ell-subset of it, and tests
cliqueness; the success fraction times the total weight is an unbiased
estimate of the clique count covered by the sampled entries. Entries with
ell <= 2 carry no density guarantee and are counted exactly instead of
sampled.

The weight depends only on (size, ell), so entries are drawn by class: one
multinomial draw splits the t trials over the (ell, size) weight classes,
and each trial then picks a uniform entry of its class. Per entry that is
probability exactly C(|S|, ell) / W, with no per-entry table. All trials
run in one array engine, ell by ell and _TRIAL_BLOCK trials at a time,
each with ell + 1 uniforms: one for the entry, ell for the subset. Each
partial Fisher-Yates pick is found by undoing the earlier swaps, with no
permutation array. Pairs are tested in the shadow's own adjacency table,
without touching the graph: pick b is adjacent to an earlier pick a when
bit labels[b] of table row rowbase + labels[a] is set, so each of the
C(ell, 2) pairs costs one word gather and one AND.
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
    """Frozen draw structure for one shadow: weight classes and an offset.

    Sampled entry i (an ell >= 3 entry of the shadow) holds clique budget
    ells[i] and the labels[starts[i]:starts[i] + sizes[i]] of its members,
    whose adjacency rows start at row rowbase[i] of table; labels and
    table are the shadow's own arrays, not copies. The entries are sorted
    by (ell, size), in shadow order within each weight class of equal
    (ell, size): class c holds entries first[c] .. first[c] + count[c] - 1
    and is drawn with probability p[c] = W_c / W, where
    W_c = count[c] * C(size, ell) and W, the total_weight, is the sum over
    classes; p[c] is the correctly rounded double of that ratio.
    exact_offset is the exact clique count contributed by ell <= 2 entries.
    """

    starts: np.ndarray
    sizes: np.ndarray
    ells: np.ndarray
    labels: np.ndarray
    rowbase: np.ndarray
    table: np.ndarray
    first: np.ndarray
    count: np.ndarray
    p: np.ndarray
    total_weight: float
    exact_offset: int

    @property
    def entry_count(self) -> int:
        return len(self.ells)


def build_sampler(sh: TuranShadow, g: Graph) -> SamplerState:
    """Split a shadow into sampled entries plus an exactly-counted offset.

    Entries with ell = 2 contribute their induced edge count to the offset;
    the ell >= 3 entries are grouped into weight classes of equal
    (ell, size), with class weights summed in exact integers.
    """
    sizes, ells = sh.sizes, sh.ells
    sampled = np.flatnonzero(ells >= 3)
    sampled = sampled[np.lexsort((sizes[sampled], ells[sampled]))]
    sizes, ells = sizes[sampled], ells[sampled]
    first = np.flatnonzero(np.diff(ells, prepend=0)
                           | np.diff(sizes, prepend=0))
    count = np.diff(first, append=len(ells))
    wc = [c * math.comb(s, e) for c, s, e in
          zip(count.tolist(), sizes[first].tolist(), ells[first].tolist())]
    w = sum(wc)
    return SamplerState(
        starts=sh.offsets[sampled],
        sizes=sizes,
        ells=ells,
        labels=sh.labels,
        rowbase=sh.rowbase[sampled],
        table=sh.table,
        first=first,
        count=count,
        p=np.array([x / w for x in wc]),  # int / int rounds correctly
        total_weight=float(w),
        exact_offset=int(sh.edges[sh.ells == 2].sum()),
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
    stream is one multinomial(t, p) draw of trials per weight class, then,
    for each ell in ascending order, one (n_ell, ell + 1) matrix of
    uniforms, whose rows are that ell's n_ell trials in class order. In a
    row, column 0 picks a uniform entry of the row's class and columns
    1..ell are the Fisher-Yates keys of its ell-subset. The matrix is drawn
    _TRIAL_BLOCK rows at a time, and a Generator fills arrays in row-major
    order from one stream, so the outcome is a pure function of (seed, t)
    whatever the block size, and memory is O(classes + block * ell) at any
    t. The pair tests read only the sampler's table, never g.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if st.entry_count == 0:
        return 0, 0
    rng = np.random.default_rng(seed)
    hits = rng.multinomial(t, st.p)
    class_ells = st.ells[st.first]
    successes = 0
    for ell in np.unique(class_ells).tolist():
        classes = np.flatnonzero(class_ells == ell)
        ends = np.cumsum(hits[classes])  # this ell's trials, class by class
        n = int(ends[-1])
        for lo in range(0, n, _TRIAL_BLOCK):
            u = rng.random((min(_TRIAL_BLOCK, n - lo), ell + 1))
            c = classes[np.searchsorted(ends, np.arange(lo, lo + len(u)),
                                        side="right")]
            idx = st.first[c] + (u[:, 0] * st.count[c]).astype(np.int64)
            # step i swaps slot i with a uniform slot in [i, s)
            i = np.arange(ell)
            span = st.sizes[idx, None] - i
            steps = i + (u[:, 1:] * span).astype(np.int64)
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
    if seed < 0:
        raise ValueError("seed must be >= 0")
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

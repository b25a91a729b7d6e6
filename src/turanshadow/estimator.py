"""Weighted-sampling clique estimator over a shadow.

Each shadow entry (S, ell) gets weight C(|S|, ell). A trial draws an entry
from the weight distribution, draws a uniform ell-subset of it, and tests
cliqueness; the success fraction times the total weight is an unbiased
estimate of the clique count covered by the sampled entries. Entries with
ell <= 2 carry no density guarantee and are counted exactly instead of
sampled.

The weight depends only on (ell, size), the shadow's class, so entries are
drawn by class: one multinomial draw splits the t trials over the classes,
and each trial then picks a uniform entry of its class. Per entry that is
probability exactly C(|S|, ell) / W, with no per-entry table. All trials
run in one array engine, ell by ell and _TRIAL_BLOCK trials at a time,
each with ell + 1 uniforms: one for the entry, ell for the subset. Each
partial Fisher-Yates pick is found by undoing the earlier swaps, with no
permutation array. Pairs are tested in place in the shadow's arrays,
without touching the graph: pick b is adjacent to an earlier pick a when
bit labels[b] of table row rowbase + labels[a] is set, so each of the
C(ell, 2) pairs costs one word gather and one AND. Every trial of a block
is tested at every pair, with no compaction of the survivors: a trial's
pair tests are ANDed into one flag, and the block counts its set flags.
Trial memory is O(classes + block * ell).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .shadow import MAX_K, TuranShadow, check_shadow_args, shadow_finder

DEFAULT_SAMPLES = 50_000

# the most trials one run takes: the multinomial split counts in int64
MAX_SAMPLES = 2**63 - 1

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
    worst = max((f_of(ell) * size * size for ell, size in zip(
        sh.class_ells.tolist(), sh.class_sizes.tolist()) if ell >= 3),
        default=0.0)
    return 1.0 / worst if worst > 0.0 else 1.0


def required_samples(gamma: float, eps: float, delta: float) -> int:
    """Trial count sufficient for (1 + eps)-accuracy with confidence 1 - delta.

    ceil((20 / (gamma * eps^2)) * ln(1/delta)), and at least 1: for a huge
    eps the bound falls below 1, or to 0 when eps * eps overflows. Refuses
    an eps so small that the bound passes MAX_SAMPLES, or is no finite
    number because gamma * eps * eps underflows to 0.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    scale = gamma * eps * eps
    bound = 20.0 / scale * math.log(1.0 / delta) if scale else math.inf
    if not (math.isfinite(bound) and math.ceil(bound) <= MAX_SAMPLES):
        raise ValueError(f"eps = {eps} needs more than 2**63 - 1 samples "
                         f"at gamma = {gamma} and delta = {delta}")
    return max(1, math.ceil(bound))


@dataclass(eq=False)
class SamplerState:
    """Frozen draw structure for one shadow: class weights and an offset.

    Sampled class j, the shadow's j-th class with ell >= 3, is drawn with
    probability p[j], the correctly rounded double of W_j / W, where W_j =
    count * C(size, ell) and W, the total_weight, is their sum. Nothing is
    kept per entry. exact_offset is the exact count of ell = 2 cliques.
    """

    shadow: TuranShadow
    p: np.ndarray
    total_weight: float
    exact_offset: int

    @property
    def entry_count(self) -> int:
        return int(self.shadow.class_counts[self.shadow.class_ells >= 3].sum())


def build_sampler(sh: TuranShadow, g: Graph) -> SamplerState:
    """Split a shadow into sampled classes plus an exactly-counted offset.

    Entries with ell = 2 contribute their induced edge count to the offset;
    the weights of the ell >= 3 classes are summed in exact integers.
    """
    wc = [count * math.comb(size, ell) for count, size, ell in zip(
        sh.class_counts.tolist(), sh.class_sizes.tolist(),
        sh.class_ells.tolist()) if ell >= 3]
    w = sum(wc)
    return SamplerState(
        shadow=sh,
        p=np.array([x / w for x in wc]),  # int / int rounds correctly
        total_weight=float(w),
        exact_offset=sh.exact_offset,
    )


def _count_cliques(keys: np.ndarray, sizes: np.ndarray, starts: np.ndarray,
                   rowbase: np.ndarray, sh: TuranShadow) -> int:
    """Rows of keys whose partial Fisher-Yates picks form a clique.

    Row r picks from the sizes[r] members of the entry of sh with labels
    from starts[r] and the rowbase rowbase[r]: step b swaps slot b with slot
    b + floor(keys[r, b] * (sizes[r] - b)). Every row is tested at every
    pair.
    """
    nw = sh.table.shape[1]
    words = sh.table.reshape(-1)
    steps: list[np.ndarray] = []
    heads: list[np.ndarray] = []  # word offset of each earlier pick's row
    ok = np.ones(len(keys), dtype=bool)
    for b in range(keys.shape[1]):
        step = b + (keys[:, b] * (sizes - b)).astype(np.int64)
        # later steps leave slot b alone: undo steps b-1..0 on step b. Step
        # i swapped slots i and steps[i] >= i, and the slot being traced is
        # above i when step i is undone, so it moves only if it is steps[i]
        pos = step.copy()
        for i in range(b - 1, -1, -1):
            np.copyto(pos, i, where=pos == steps[i])
        steps.append(step)
        lb = sh.labels[starts + pos]
        if heads:
            word = lb >> 6
            hit = np.left_shift(np.uint64(1), (lb & 63).astype(np.uint64))
            for head in heads:
                hit &= words[head + word]
            ok &= hit != 0
        heads.append((rowbase + lb) * nw)
    return int(np.count_nonzero(ok))


def run_trials(st: SamplerState, g: Graph, t: int,
               seed: int) -> tuple[int, int]:
    """Run t Bernoulli trials; returns (successes, trials run).

    Skips (returning (0, 0)) when the sampler has no sampled entries. The
    stream is one multinomial(t, p) draw of trials per sampled class, then,
    for each ell in ascending order, one (n_ell, ell + 1) matrix of
    uniforms, whose rows are that ell's n_ell trials in class order. In a
    row, column 0 picks a uniform rank in the row's class and columns
    1..ell are the Fisher-Yates keys of its ell-subset. The matrix is drawn
    _TRIAL_BLOCK rows at a time, and a Generator fills arrays in row-major
    order from one stream, so the outcome is a pure function of (seed, t)
    whatever the block size. Each block is tested with no compaction, so
    memory is O(classes + block * ell) at any t. The pair tests read only
    the shadow's table, never g.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if t > MAX_SAMPLES:
        raise ValueError(f"t = {t} samples exceed 2**63 - 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if st.entry_count == 0:
        return 0, 0
    sh = st.shadow
    first, start, sampled = sh.class_first, sh.class_start, sh.class_ells >= 3
    rng = np.random.default_rng(seed)
    hits = np.zeros(sampled.size, dtype=np.int64)  # by shadow class
    hits[sampled] = rng.multinomial(t, st.p)
    successes = 0
    for ell in sorted(set(sh.class_ells[sampled].tolist())):
        classes = np.flatnonzero(sh.class_ells == ell)
        ends = np.cumsum(hits[classes])  # this ell's trials, by class
        n = int(ends[-1])
        for lo in range(0, n, _TRIAL_BLOCK):
            u = rng.random((min(_TRIAL_BLOCK, n - lo), ell + 1))
            # the class of each of this ell's trials lo.., in class order
            c = np.repeat(classes, np.diff(np.clip(ends, lo, lo + len(u)),
                                           prepend=lo))
            size = sh.class_sizes[c]
            rank = (u[:, 0] * sh.class_counts[c]).astype(np.int64)
            successes += _count_cliques(u[:, 1:], size, start[c] + rank * size,
                                        sh.rowbase[first[c] + rank], sh)
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
    """Estimate plus the diagnostics needed to judge it. The degeneracy
    is degeneracy_order(g).alpha, which g keeps once the shadow is built."""

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
    time_shadow: float
    time_sample: float
    seed: int


def check_count_args(k: int, *, samples: int | None = None,
                     eps: float | None = None, delta: float | None = None,
                     seed: int = 0) -> None:
    """The checks of turan_shadow_count that need no graph."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if (eps is None) != (delta is None):
        raise ValueError("eps and delta must be given together")
    if eps is not None and samples is not None:
        raise ValueError("choose either a fixed sample count or (eps, delta)")
    if eps is not None:
        required_samples(1.0, eps, delta)  # checks eps and delta at any k
    if samples is not None and samples < 1:
        raise ValueError("samples must be >= 1")
    if samples is not None and samples > MAX_SAMPLES:
        raise ValueError(f"samples = {samples} exceed 2**63 - 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if k >= 3:
        check_shadow_args(k)


def turan_shadow_count(g: Graph, k: int, *, samples: int | None = None,
                       eps: float | None = None, delta: float | None = None,
                       seed: int = 0) -> EstimateReport:
    """End-to-end k-clique estimate: build the shadow, then sample it.

    k = 1 and k = 2 return the exact vertex and edge counts without building
    a shadow or the degeneracy order. For k >= 3 the trial count is
    `samples` (default 50000), or derived from (eps, delta) when both are
    given.
    """
    check_count_args(k, samples=samples, eps=eps, delta=delta, seed=seed)
    if k <= 2:
        exact = g.vertex_count if k == 1 else g.edge_count
        return EstimateReport(
            k=k, estimate=float(exact), samples_run=0, successes=0,
            success_ratio=0.0, gamma=1.0, total_weight=0.0,
            exact_offset=exact, shadow_set_count=0, representation_size=0,
            time_shadow=0.0, time_sample=0.0, seed=seed)
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
        shadow_set_count=len(sh.entries),
        representation_size=sh.representation_size,
        time_shadow=t1 - t0,
        time_sample=t2 - t1,
        seed=seed,
    )

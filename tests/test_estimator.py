import itertools
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from turanshadow import baseline, estimator, shadow
from turanshadow.estimator import (
    EstimateReport,
    build_sampler,
    estimate_from_trials,
    f_of,
    gamma_of,
    required_samples,
    run_trials,
    turan_shadow_count,
)
from turanshadow.graph import induced_subgraph
from turanshadow.oracle import exact_kclique_count
from turanshadow.shadow import dump_shadow, shadow_finder

from genutil import (
    complete_graph,
    cycle_graph,
    er_graph,
    turan_graph,
    validity_suite,
)

TRIAL_BLOCK = estimator._TRIAL_BLOCK


def test_f_small_values():
    assert f_of(3) == pytest.approx(0.5, rel=1e-15)
    assert f_of(4) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert f_of(10) == pytest.approx(1e8 / math.factorial(10), rel=1e-12)


def test_f_strictly_increasing():
    values = [f_of(ell) for ell in range(3, 65)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_f_rejects_out_of_range():
    for ell in (2, 0, 65, -1):
        with pytest.raises(ValueError):
            f_of(ell)


def test_gamma_single_dense_root():
    sh = shadow_finder(complete_graph(6), 4)
    assert gamma_of(sh) == pytest.approx(1.0 / 24.0, rel=1e-12)


def test_gamma_vacuous_when_nothing_sampled():
    assert gamma_of(shadow_finder(cycle_graph(5), 3)) == 1.0


def test_gamma_matches_per_entry_loop():
    # f(ell) * |S| * |S| in this order, maximised entry by entry
    for g, k in [(er_graph(60, 0.4, seed=1), 4), (er_graph(60, 0.5, seed=2), 5),
                 (turan_graph(24, 6), 5), (complete_graph(9), 6)]:
        sh = shadow_finder(g, k)
        worst = max(f_of(e.ell) * e.size * e.size
                    for e in sh.entries if e.ell >= 3)
        assert gamma_of(sh) == 1.0 / worst


def test_gamma_lower_bound_from_edge_count():
    # |S| <= alpha <= sqrt(2m) gives gamma >= 1 / (2 f(k) m)
    for seed in range(4):
        g = er_graph(60, 0.4, seed=seed)
        for k in (4, 5):
            sh = shadow_finder(g, k)
            assert gamma_of(sh) >= 1.0 / (2.0 * f_of(k) * g.edge_count) - 1e-15


def test_required_samples_values():
    assert required_samples(1.0, 1.0, 1.0 / math.e) == 20
    assert required_samples(0.5, 0.1, 0.01) == 18421


def test_required_samples_is_at_least_one():
    # eps * eps overflows to inf past about 1.3e154, which made the bound 0
    for eps in (1e3, 1e154, 1e200, sys.float_info.max):
        assert required_samples(1.0, eps, 0.5) == 1, eps
    assert required_samples(1e-3, 1e200, 1e-300) == 1


def test_required_samples_refuses_more_than_int64_trials():
    # eps * eps underflows to 0 at 1e-200 and to a subnormal whose bound is
    # inf at 1e-160; at 1e-9 the bound is a finite 1.4e19, above 2**63 - 1
    for eps in (1e-200, 1e-160, 1e-9, 5e-324):
        with pytest.raises(ValueError, match=f"eps = {eps} needs more"):
            required_samples(1.0, eps, 0.5)
    with pytest.raises(ValueError, match="eps = 0.001 needs more"):
        required_samples(1e-300, 1e-3, 0.5)
    # ten times that eps is taken, with a bound a hundred times smaller
    t = required_samples(1.0, 1e-8, 0.5)
    assert 2**56 < t <= estimator.MAX_SAMPLES


def test_trial_counts_above_int64_refused_before_any_work(monkeypatch):
    g = cycle_graph(5)
    st = build_sampler(shadow_finder(g, 3), g)
    with pytest.raises(ValueError, match="samples exceed 2"):
        run_trials(st, g, 2**63, seed=0)

    def no_shadow(*args):
        raise AssertionError("shadow built before samples were checked")

    monkeypatch.setattr(estimator, "shadow_finder", no_shadow)
    with pytest.raises(ValueError, match="samples = 10+ exceed 2"):
        turan_shadow_count(complete_graph(6), 4, samples=10**20)
    with pytest.raises(ValueError, match="eps = 1e-09 needs more"):
        turan_shadow_count(complete_graph(6), 4, eps=1e-9, delta=0.5)


def test_required_samples_domain_errors():
    with pytest.raises(ValueError):
        required_samples(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        required_samples(1.5, 1.0, 0.5)
    with pytest.raises(ValueError):
        required_samples(1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        required_samples(1.0, 1.0, 1.0)


def entry_cliques(g, e):
    sub, _ = induced_subgraph(g, e.vertices)
    return exact_kclique_count(sub, e.ell).count


def sampler_check_cases():
    yield from validity_suite()
    wide = er_graph(160, 0.6, seed=2)
    yield wide, 3  # one saturated whole-graph entry
    yield wide, 4
    yield er_graph(30, 0.5, seed=19), 4  # test_trial_level_unbiasedness


def test_weight_classes_draw_entries_with_exact_probabilities():
    # exact rational checks of the class table; numpy's multinomial takes
    # the last class's probability as 1 minus the others, which moves it by
    # at most one rounding error per class
    for g, k in sampler_check_cases():
        sh = shadow_finder(g, k)
        st = build_sampler(sh, g)
        sampled = [e for e in sh.entries if e.ell >= 3]
        if not sampled:
            assert st.entry_count == 0 and st.p.size == 0
            continue
        w = sum(math.comb(e.size, e.ell) for e in sampled)
        ends = (st.first + st.count).tolist()
        assert st.first[0] == 0 and ends[-1] == st.entry_count == len(sampled)
        assert st.first[1:].tolist() == ends[:-1] and min(st.count) >= 1
        keys = list(zip(st.ells.tolist(), st.sizes.tolist()))
        assert len(keys) == len(st.first) and keys == sorted(set(keys))
        wc = [n * math.comb(size, ell)
              for (ell, size), n in zip(keys, st.count.tolist())]
        assert sum(wc) == w and st.total_weight == float(w)
        assert st.p.tolist() == [float(Fraction(x, w)) for x in wc]
        tol = len(wc) * 2.0 ** -52
        last = 1 - sum(Fraction(x) for x in st.p.tolist()[:-1])
        assert abs(last - Fraction(wc[-1], w)) <= tol
        # per entry: class probability over class size is C(|S|, ell) / W
        unseen = set(np.flatnonzero(sh.ells >= 3).tolist())
        cliques = [0] * len(wc)
        for c, (a, n) in enumerate(zip(st.first, st.count)):
            for i in range(a, a + n):
                unseen.remove(int(st.entry[i]))  # each entry appears once
                e = sh.entries[int(st.entry[i])]
                assert (e.ell, e.size) == keys[c]  # every entry of class c
                assert Fraction(wc[c], w) / n == \
                    Fraction(math.comb(e.size, e.ell), w)
                cliques[c] += entry_cliques(g, e)
        assert not unseen  # every sampled entry drawn exactly once
        # expected success ratio of one trial, from the class table alone
        covered = sum(cliques)
        expected = sum(Fraction(x, w) * Fraction(cl, x)
                       for x, cl in zip(wc, cliques))
        assert expected == Fraction(covered, w)
        drawn = [Fraction(x) for x in st.p.tolist()[:-1]] + [last]
        ratio = sum(q * Fraction(cl, x)
                    for q, x, cl in zip(drawn, wc, cliques))
        assert abs(ratio - Fraction(covered, w)) <= tol


def test_build_sampler_complete_graph():
    g = complete_graph(6)
    st = build_sampler(shadow_finder(g, 4), g)
    assert st.entry_count == 1
    assert (st.first.tolist(), st.count.tolist(), st.p.tolist()) == \
        ([0], [1], [1.0])
    assert st.total_weight == 15.0
    assert st.exact_offset == 0


def test_build_sampler_cycle_is_all_offset():
    g = cycle_graph(5)
    st = build_sampler(shadow_finder(g, 3), g)
    assert st.entry_count == 0
    assert st.total_weight == 0.0
    assert st.exact_offset == 0


def test_total_weight_matches_recomputation_from_dump():
    g = er_graph(80, 0.4, seed=42)
    sh = shadow_finder(g, 5)
    st = build_sampler(sh, g)
    recomputed = 0
    for line in dump_shadow(sh).split("\n"):
        ell_s, size_s, _ = line.split("\t")
        if int(ell_s) >= 3:
            recomputed += math.comb(int(size_s), int(ell_s))
    assert st.total_weight == float(recomputed)
    # entries sorted by (ell, size), in shadow order within a class, as
    # narrow indices into the shadow itself
    sampled = sorted((i for i, e in enumerate(sh.entries) if e.ell >= 3),
                     key=lambda i: (sh.entries[i].ell, sh.entries[i].size))
    assert st.entry.tolist() == sampled
    assert st.entry.dtype == shadow._label_dtype(len(sh.ells))
    assert st.shadow is sh
    # (ell, size) are kept per class, and each entry has its class's
    ells, sizes = np.repeat(st.ells, st.count), np.repeat(st.sizes, st.count)
    starts = sh.offsets[st.entry]
    assert [(ells[i], sh.vertices[a:a + b].tolist())
            for i, (a, b) in enumerate(zip(starts, sizes))] == \
        [(sh.entries[i].ell, sh.entries[i].vertices.tolist())
         for i in sampled]
    # one class per distinct (ell, size), weights the exact binomials
    keys = sorted({(sh.entries[i].ell, sh.entries[i].size) for i in sampled})
    assert len(st.first) == len(keys) > 1
    assert [float(Fraction(n * math.comb(s, e), recomputed))
            for (e, s), n in zip(keys, st.count.tolist())] == st.p.tolist()


def test_build_sampler_keeps_one_narrow_index_per_entry():
    # the sampler copies no per-entry shadow array: what it retains is its
    # entry index plus the class table
    g = er_graph(120, 0.5, seed=1)
    sh = shadow_finder(g, 6)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        st = build_sampler(sh, g)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert st.entry_count > 5000 and st.entry.itemsize == 2
    assert retained <= (st.entry.itemsize * st.entry_count
                        + 64 * len(st.first) + 4096)


def test_run_trials_complete_graph_always_succeeds():
    g = complete_graph(6)
    st = build_sampler(shadow_finder(g, 4), g)
    successes, t = run_trials(st, g, 500, seed=3)
    assert (successes, t) == (500, 500)


def test_run_trials_skips_without_sampled_entries():
    g = cycle_graph(5)
    st = build_sampler(shadow_finder(g, 3), g)
    assert run_trials(st, g, 100, seed=0) == (0, 0)


def test_run_trials_rejects_nonpositive_t():
    g = complete_graph(6)
    st = build_sampler(shadow_finder(g, 4), g)
    with pytest.raises(ValueError):
        run_trials(st, g, 0, seed=0)


def test_sample_count_checked_before_any_work(monkeypatch):
    g = cycle_graph(5)
    st = build_sampler(shadow_finder(g, 3), g)
    with pytest.raises(ValueError, match="t must be >= 1"):
        run_trials(st, g, 0, seed=0)  # even with nothing to sample

    def no_shadow(*args):
        raise AssertionError("shadow built before samples were checked")

    monkeypatch.setattr(estimator, "shadow_finder", no_shadow)
    for graph in (g, complete_graph(4)):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            turan_shadow_count(graph, 3, samples=0)


def test_negative_seed_checked_before_any_work(monkeypatch):
    g = cycle_graph(5)
    st = build_sampler(shadow_finder(g, 3), g)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        run_trials(st, g, 10, seed=-1)  # even with nothing to sample

    def no_work(*args, **kwargs):
        raise AssertionError("work done before the seed was checked")

    monkeypatch.setattr(estimator, "shadow_finder", no_work)
    monkeypatch.setattr(estimator, "degeneracy_order", no_work)
    monkeypatch.setattr(baseline, "exact_kclique_count", no_work)
    for k in (1, 2, 3):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            turan_shadow_count(g, k, seed=-1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        baseline.edge_sampling_estimate(g, 3, 0.5, seed=-1)


def reference_successes(sh, g, t, seed):
    """One trial at a time: the same class draw, then for each ell in
    ascending order a row of ell + 1 uniforms per trial (the entry within
    its class, then the keys of a list shuffle), and has_edge tests."""
    classes = {}
    for e in sh.entries:
        if e.ell >= 3:
            classes.setdefault((e.ell, e.size), []).append(e.vertices.tolist())
    keys = sorted(classes)
    weights = [len(classes[key]) * math.comb(key[1], key[0]) for key in keys]
    rng = np.random.default_rng(seed)
    hits = rng.multinomial(t, [float(Fraction(w, sum(weights)))
                               for w in weights])
    successes = 0
    for (ell, s), h in zip(keys, hits.tolist()):
        for _ in range(h):
            u = rng.random(ell + 1)
            sets = classes[ell, s]
            verts = sets[int(u[0] * len(sets))]
            perm = list(range(s))
            for i in range(ell):
                j = i + int(u[1 + i] * (s - i))
                perm[i], perm[j] = perm[j], perm[i]
            picks = [verts[p] for p in perm[:ell]]
            successes += all(g.has_edge(a, b)
                             for a, b in itertools.combinations(picks, 2))
    return successes


TRIAL_GRAPHS = pytest.mark.parametrize("graph", [
    er_graph(40, 0.6, seed=3), turan_graph(24, 6), complete_graph(9),
    er_graph(160, 0.6, seed=2)],
    ids=["er", "turan", "complete", "er160"])


@TRIAL_GRAPHS
def test_run_trials_matches_per_trial_reference(monkeypatch, graph):
    # er160 reads past the first table word: at k = 3 its whole graph is
    # one saturated entry, at k >= 4 member labels reach 80
    monkeypatch.setattr(estimator, "_TRIAL_BLOCK", 97)
    t = 1000  # ten full blocks plus a partial one
    for k in range(3, 7):
        sh = shadow_finder(graph, k)
        st = build_sampler(sh, graph)
        assert st.entry_count > 0
        assert (graph.vertex_count < 64) == (int(sh.labels.max()) < 64)
        for seed in range(3):
            expected = reference_successes(sh, graph, t, seed)
            assert run_trials(st, graph, t, seed) == (expected, t)


@TRIAL_GRAPHS
def test_run_trials_independent_of_threads_and_blocks(monkeypatch, graph):
    # the trials draw each block's uniforms in stream order on the calling
    # thread, so neither the block size nor the host's CPUs move the stream
    t = 1000
    for k in range(3, 7):
        sh = shadow_finder(graph, k)
        st = build_sampler(sh, graph)
        expected = reference_successes(sh, graph, t, seed=k)
        for block in (1, 97, TRIAL_BLOCK):
            monkeypatch.setattr(estimator, "_TRIAL_BLOCK", block)
            assert run_trials(st, graph, t, seed=k) == (expected, t), \
                (k, block)


def test_run_trials_stream_is_pinned():
    # a literal from the class-draw stream: any change to the order or
    # number of draws changes it
    g = er_graph(70, 0.4, seed=11)
    st = build_sampler(shadow_finder(g, 5), g)
    assert run_trials(st, g, 30_000, seed=6) == (13965, 30_000)


def test_trial_memory_bounded_in_t(monkeypatch):
    # O(classes + block * ell) whatever t is: the draws of all t trials
    # (about 63 MiB at this t) are never held at once, and the trials hold
    # no more with more workers on the shadow's batch runner
    g = er_graph(40, 0.5, seed=3)
    st = build_sampler(shadow_finder(g, 5), g)
    monkeypatch.setattr(shadow, "_workers", lambda: 8)
    tracemalloc.start()
    try:
        run_trials(st, g, 2_000_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_trial_level_unbiasedness():
    # success probability must equal (sum of entry clique counts) / W
    g = er_graph(30, 0.5, seed=19)
    sh = shadow_finder(g, 4)
    st = build_sampler(sh, g)
    assert st.entry_count > 0
    covered = 0
    for e in sh.entries:
        if e.ell >= 3:
            sub, _ = induced_subgraph(g, e.vertices)
            covered += exact_kclique_count(sub, e.ell).count
    p_true = covered / st.total_weight
    t = 50_000
    successes, _ = run_trials(st, g, t, seed=5)
    se = math.sqrt(p_true * (1.0 - p_true) / t)
    assert abs(successes / t - p_true) <= 5.0 * se


def test_estimate_from_trials_arithmetic():
    g = complete_graph(6)
    st = build_sampler(shadow_finder(g, 4), g)
    assert estimate_from_trials(st, 500, 500) == 15.0
    assert estimate_from_trials(st, 0, 500) == 0.0
    st.total_weight = 2e6
    st.exact_offset = 10
    assert estimate_from_trials(st, 25_000, 50_000) == 1_000_010.0


def test_estimate_without_sampled_entries_is_offset():
    g = cycle_graph(5)
    st = build_sampler(shadow_finder(g, 3), g)
    assert estimate_from_trials(st, 0, 0) == 0.0


def test_full_pipeline_complete_graph_exact():
    rep = turan_shadow_count(complete_graph(30), 5, samples=2000, seed=1)
    assert rep.estimate == 142506.0
    assert rep.successes == rep.samples_run == 2000
    assert rep.success_ratio == 1.0


def test_full_pipeline_small_k():
    g = er_graph(40, 0.3, seed=2)
    assert turan_shadow_count(g, 1).estimate == 40.0
    assert turan_shadow_count(g, 2).estimate == float(g.edge_count)
    with pytest.raises(ValueError):
        turan_shadow_count(g, 0)


def test_turan_boundary_graph_estimates_zero():
    rep = turan_shadow_count(turan_graph(12, 4), 5, samples=50_000, seed=0)
    assert rep.estimate == 0.0
    assert rep.successes == 0


def test_sampling_mode_exclusivity():
    g = complete_graph(6)
    with pytest.raises(ValueError):
        turan_shadow_count(g, 4, samples=100, eps=0.5, delta=0.1)
    with pytest.raises(ValueError):
        turan_shadow_count(g, 4, eps=0.5)
    # k <= 2 is counted exactly, but bad eps and delta are still refused
    with pytest.raises(ValueError, match="eps must be positive"):
        turan_shadow_count(g, 2, eps=-1.0, delta=2.0)
    # a non-finite eps would give t = 0, or no t at all
    for eps in (math.inf, math.nan):
        for k in (2, 4):
            with pytest.raises(ValueError, match="eps must be positive"):
                turan_shadow_count(g, k, eps=eps, delta=0.5)


def test_eps_delta_mode_sets_t_from_gamma():
    g = er_graph(50, 0.4, seed=7)
    rep = turan_shadow_count(g, 4, eps=0.5, delta=0.1, seed=0)
    assert rep.samples_run == required_samples(rep.gamma, 0.5, 0.1)


def test_report_invariants():
    g = er_graph(60, 0.4, seed=9)
    rep = turan_shadow_count(g, 5, samples=20_000, seed=4)
    assert isinstance(rep, EstimateReport)
    assert rep.success_ratio == rep.successes / rep.samples_run
    expected = rep.successes / rep.samples_run * rep.total_weight \
        + rep.exact_offset
    assert rep.estimate == pytest.approx(expected, rel=1e-12)


def test_scale_identity_zero_offset():
    g = complete_graph(12)
    rep = turan_shadow_count(g, 5, samples=10_000, seed=2)
    assert rep.exact_offset == 0
    lhs = rep.estimate * (rep.samples_run / rep.total_weight) - rep.successes
    assert lhs == pytest.approx(0.0, abs=1e-9)


def test_determinism_same_seed_and_block_size_independence(monkeypatch):
    g = er_graph(70, 0.4, seed=11)
    a = turan_shadow_count(g, 5, samples=30_000, seed=6)
    others = [turan_shadow_count(g, 5, samples=30_000, seed=6)]
    for block in (1, 97):
        monkeypatch.setattr(estimator, "_TRIAL_BLOCK", block)
        others.append(turan_shadow_count(g, 5, samples=30_000, seed=6))
    for x in others:
        assert (a.estimate, a.successes, a.samples_run, a.gamma,
                a.total_weight, a.exact_offset) == \
               (x.estimate, x.successes, x.samples_run, x.gamma,
                x.total_weight, x.exact_offset)
    d = turan_shadow_count(g, 5, samples=30_000, seed=7)
    assert d.successes != a.successes or d.estimate != a.estimate


def test_success_ratio_at_least_gamma():
    g = er_graph(50, 0.4, seed=13)
    rep = turan_shadow_count(g, 4, samples=50_000, seed=1)
    assert rep.samples_run > 0
    assert rep.success_ratio >= rep.gamma


def test_estimator_mean_close_to_truth():
    g = er_graph(50, 0.4, seed=15)
    truth = exact_kclique_count(g, 4).count
    estimates = [turan_shadow_count(g, 4, samples=20_000, seed=s).estimate
                 for s in range(50)]
    assert abs(np.mean(estimates) - truth) <= 0.02 * truth


def test_concentration_at_required_samples():
    # with t = required_samples(gamma, eps, delta), the empirical share of
    # runs missing by more than eps must stay below delta
    eps, delta = 0.5, 0.1
    g = er_graph(25, 0.5, seed=18)
    truth = exact_kclique_count(g, 4).count
    assert truth > 0
    sh = shadow_finder(g, 4)
    st = build_sampler(sh, g)
    t = required_samples(gamma_of(sh), eps, delta)
    misses = 0
    for seed in range(100):
        successes, t_run = run_trials(st, g, t, seed=seed)
        est = estimate_from_trials(st, successes, t_run)
        if abs(est - truth) > eps * truth:
            misses += 1
    assert misses <= delta * 100

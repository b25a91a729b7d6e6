import itertools
import math

import numpy as np
import pytest

from turanshadow import estimator
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

from genutil import complete_graph, cycle_graph, er_graph, turan_graph


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


def test_required_samples_domain_errors():
    with pytest.raises(ValueError):
        required_samples(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        required_samples(1.5, 1.0, 0.5)
    with pytest.raises(ValueError):
        required_samples(1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        required_samples(1.0, 1.0, 1.0)


def test_alias_table_probabilities_match_weights():
    from turanshadow.estimator import _build_alias

    rng = np.random.default_rng(0)
    w = rng.random(57) * 10 + 0.01
    prob, alias = _build_alias(w)
    n = len(w)
    implied = prob.copy()
    for j in range(n):
        if prob[j] < 1.0:
            implied[int(alias[j])] += 1.0 - prob[j]
    np.testing.assert_allclose(implied / n, w / w.sum(), rtol=1e-9)


def test_build_sampler_complete_graph():
    g = complete_graph(6)
    st = build_sampler(shadow_finder(g, 4), g)
    assert st.entry_count == 1
    assert st.weights.tolist() == [15.0]
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
    recomputed = 0.0
    for line in dump_shadow(sh).split("\n"):
        ell_s, size_s, _ = line.split("\t")
        if int(ell_s) >= 3:
            recomputed += float(math.comb(int(size_s), int(ell_s)))
    assert st.total_weight == pytest.approx(recomputed, rel=1e-12)


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


def reference_successes(sh, g, t, seed):
    """One trial at a time: the same draws, a list shuffle, has_edge tests."""
    st = build_sampler(sh, g)
    sets = [e.vertices.tolist() for e in sh.entries if e.ell >= 3]
    rng = np.random.default_rng(seed)
    raw_idx = rng.integers(0, st.entry_count, size=t)
    raw_u = rng.random(t)
    keys = rng.random((t, st.max_ell))
    successes = 0
    for r in range(t):
        idx = int(raw_idx[r])
        if raw_u[r] >= st.alias_prob[idx]:
            idx = int(st.alias_index[idx])
        verts, ell = sets[idx], int(st.ells[idx])
        s = len(verts)
        perm = list(range(s))
        for i in range(ell):
            j = i + int(keys[r, i] * (s - i))
            perm[i], perm[j] = perm[j], perm[i]
        picks = [verts[p] for p in perm[:ell]]
        successes += all(g.has_edge(a, b)
                         for a, b in itertools.combinations(picks, 2))
    return successes


@pytest.mark.parametrize("graph", [
    er_graph(40, 0.6, seed=3), turan_graph(24, 6), complete_graph(9)],
    ids=["er", "turan", "complete"])
def test_run_trials_matches_per_trial_reference(monkeypatch, graph):
    monkeypatch.setattr(estimator, "_TRIAL_BLOCK", 97)
    t = 1000  # ten full blocks plus a partial one
    for k in range(3, 7):
        sh = shadow_finder(graph, k)
        st = build_sampler(sh, graph)
        assert st.entry_count > 0
        for seed in range(3):
            expected = reference_successes(sh, graph, t, seed)
            assert run_trials(st, graph, t, seed) == (expected, t)


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

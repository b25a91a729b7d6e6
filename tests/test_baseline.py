import numpy as np
import pytest

from turanshadow import baseline
from turanshadow.baseline import edge_sampling_estimate
from turanshadow.oracle import exact_kclique_count

from genutil import er_graph, path_graph


def test_p_one_reproduces_oracle_exactly():
    g = er_graph(40, 0.3, seed=1)
    truth = exact_kclique_count(g, 4).count
    rep = edge_sampling_estimate(g, 4, 1.0, seed=9)
    assert rep.estimate == float(truth)
    assert rep.sampled_edges == g.edge_count


def test_no_surviving_clique_gives_zero():
    rep = edge_sampling_estimate(path_graph(20), 3, 0.5, seed=2)
    assert rep.estimate == 0.0


def test_parameter_validation():
    g = er_graph(20, 0.3, seed=3)
    for p in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            edge_sampling_estimate(g, 4, p)
    with pytest.raises(ValueError):
        edge_sampling_estimate(g, 2, 0.5)


def test_scale_factor_out_of_double_range_refused_before_any_work(
        monkeypatch):
    # 0.001**190 and 1e-8**45 underflow to 0; 1e-7**45 is subnormal, so its
    # reciprocal is inf and any surviving clique would estimate inf
    g = er_graph(20, 0.3, seed=3)

    def no_work(*args, **kwargs):
        raise AssertionError("the sample was drawn or counted")

    with monkeypatch.context() as mp:
        mp.setattr(baseline, "_edge_array", no_work)
        mp.setattr(baseline, "exact_kclique_count", no_work)
        for k, p in ((20, 0.001), (10, 1e-8), (10, 1e-7)):
            with pytest.raises(ValueError, match=f"p = {p} .* k = {k}"):
                edge_sampling_estimate(g, k, p)
    # factors that are finite doubles, if barely, still run
    for k, p in ((10, 1e-6), (3, 1e-100)):
        assert edge_sampling_estimate(g, k, p).estimate == 0.0


def test_deterministic_per_seed():
    g = er_graph(50, 0.4, seed=4)
    a = edge_sampling_estimate(g, 4, 0.6, seed=11)
    b = edge_sampling_estimate(g, 4, 0.6, seed=11)
    assert a.estimate == b.estimate
    assert a.sampled_edges == b.sampled_edges
    c = edge_sampling_estimate(g, 4, 0.6, seed=12)
    assert (c.estimate, c.sampled_edges) != (a.estimate, a.sampled_edges)


def test_mean_over_seeds_is_unbiased():
    g = er_graph(50, 0.4, seed=5)
    truth = exact_kclique_count(g, 4).count
    estimates = [edge_sampling_estimate(g, 4, 0.7, seed=s).estimate
                 for s in range(150)]
    assert abs(np.mean(estimates) - truth) <= 0.05 * truth


def test_report_fields():
    g = er_graph(30, 0.3, seed=6)
    rep = edge_sampling_estimate(g, 3, 0.5, seed=7)
    assert rep.k == 3 and rep.p == 0.5 and rep.seed == 7
    assert 0 <= rep.sampled_edges <= g.edge_count
    assert rep.estimate >= 0.0
    assert rep.elapsed >= 0.0

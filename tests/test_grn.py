"""Tests for the regulatory-network prior and the expression simulator."""

from __future__ import annotations

import copy
import tracemalloc

import networkx as nx
import numpy as np
import pytest

from helpers import wrong_type_cases
from pertmap import grn as grnmod
from pertmap.errors import InvalidArgumentError
from pertmap.grn import Grn, GrnConfig, SergioConfig
from pertmap.seeding import mix_seed


def _manual_grn(genes, edges, basal, decay=None):
    """A network from (regulator, target, strength) triples and {gene: rate}."""
    triples = np.array(edges, dtype=float).reshape(-1, 3)
    basal_rates = np.zeros(genes)
    basal_rates[list(basal)] = list(basal.values())
    g = Grn(
        genes=genes,
        regulators=triples[:, 0].astype(np.intp),
        targets=triples[:, 1].astype(np.intp),
        strengths=triples[:, 2],
        basal=basal_rates,
        decay=np.full(genes, 0.5) if decay is None else np.asarray(decay, dtype=float),
        half_response=np.zeros(genes),
    )
    return grnmod.assign_half_responses(g)


def _edges(g):
    return list(zip(g.regulators.tolist(), g.targets.tolist(), g.strengths.tolist()))


def test_sampled_configs_stay_in_prior_ranges():
    rng = np.random.default_rng(0)
    for _ in range(200):
        c = grnmod.sample_grn_config(20, rng)
        assert c.k_groups in (1, 2, 3)
        assert 1.5 <= c.p_sparsity <= 3.0
        assert 10 <= c.delta_in <= 300
        assert 1 <= c.delta_out <= 30
        assert 1 <= c.w_modularity <= 900
        s = grnmod.sample_sergio_config(rng)
        assert 1.5 <= s.hill_gamma <= 2.5
        assert 0.5 <= s.zeta <= 1.5
        assert 0.8 <= s.mu_outlier <= 5.0
        assert 4.5 <= s.mu_lib <= 6.0
        assert 0.3 <= s.sigma_lib <= 0.7
        assert 45 <= s.xi_dropout <= 82


_OUT_OF_RANGE = [
    pytest.param(GrnConfig, {"genes": 5, "k_groups": 0}, id="k_groups"),
    pytest.param(GrnConfig, {"genes": 5, "p_sparsity": -0.5}, id="p_sparsity"),
    pytest.param(GrnConfig, {"genes": 5, "p_sparsity": 1e20}, id="p_sparsity_above_poisson_range"),
    pytest.param(GrnConfig, {"genes": 5, "p_sparsity": np.float64(1e308)}, id="p_sparsity_budget_overflows"),
    pytest.param(SergioConfig, {"burn_in_steps": 0}, id="burn_in_steps"),
    pytest.param(GrnConfig, {"genes": 5, "delta_in": 0.0}, id="delta_in_zero"),
    pytest.param(GrnConfig, {"genes": 5, "delta_in": -50.0}, id="delta_in_negative"),
    pytest.param(GrnConfig, {"genes": 5, "delta_out": 0.0}, id="delta_out_zero"),
    pytest.param(GrnConfig, {"genes": 5, "w_modularity": -1.0}, id="w_modularity_negative"),
    pytest.param(GrnConfig, {"genes": 5, "w_modularity": 0.0}, id="w_modularity_zero"),
    pytest.param(SergioConfig, {"sigma_lib": -0.5}, id="sigma_lib_negative"),
    pytest.param(SergioConfig, {"hill_gamma": -1.0}, id="hill_gamma_negative"),
    pytest.param(SergioConfig, {"hill_gamma": 0.0}, id="hill_gamma_zero"),
    pytest.param(SergioConfig, {"burn_in_steps": 2.5}, id="burn_in_steps_float"),
    pytest.param(SergioConfig, {"burn_in_steps": True}, id="burn_in_steps_bool"),
    pytest.param(SergioConfig, {"zeta": np.nan}, id="zeta_nan"),
    pytest.param(SergioConfig, {"hill_gamma": np.inf}, id="hill_gamma_inf"),
    pytest.param(SergioConfig, {"mu_lib": np.nan}, id="mu_lib_nan"),
    pytest.param(SergioConfig, {"xi_dropout": -np.inf}, id="xi_dropout_inf"),
]
# Every int and float field with each value of WRONG_TYPES not listed above.
_OUT_OF_RANGE += [
    pytest.param(cls, required | {field: value}, id=f"{field}={value}")
    for cls, required in ((GrnConfig, {"genes": 5}), (SergioConfig, {}))
    for field, value in wrong_type_cases(cls, [pair for case in _OUT_OF_RANGE for pair in case.values[1].items()])
]


@pytest.mark.parametrize("cls, kwargs", _OUT_OF_RANGE)
def test_configs_reject_out_of_range_values(cls, kwargs):
    with pytest.raises(InvalidArgumentError):
        cls(**kwargs)


def test_grn_config_accepts_every_edge_budget_numpy_can_draw():
    # The largest p_sparsity whose budget mean p_sparsity * genes NumPy's
    # Poisson still draws: accepted and drawn; the next float is rejected.
    p = grnmod._POISSON_LAM_MAX / 5
    while p * 5 > grnmod._POISSON_LAM_MAX:
        p = np.nextafter(p, 0.0)
    raw = grnmod.sample_grn(GrnConfig(genes=5, p_sparsity=p), np.random.default_rng(0))
    assert 0 < raw.targets.size <= 5 * 4  # the budget is capped at every possible edge
    with pytest.raises(InvalidArgumentError, match="p_sparsity"):
        GrnConfig(genes=5, p_sparsity=np.nextafter(p, np.inf))
    with pytest.raises(ValueError, match="lam value too large"):
        np.random.default_rng(0).poisson(np.nextafter(p, np.inf) * 5)


def test_production_rates_cover_both_intervals():
    rng = np.random.default_rng(1)
    rates = np.array([grnmod._sample_production_rate(rng) for _ in range(5000)])
    assert np.all(((rates >= 0.5) & (rates <= 2.0)) | ((rates >= 3.0) & (rates <= 5.0)))
    assert ((rates >= 0.5) & (rates <= 2.0)).mean() == pytest.approx(1.5 / 3.5, abs=0.03)


def test_sample_grn_mean_edge_count():
    # 500 draws at 50 genes, sparsity 1.5: mean edge count 75 +- 3.
    rng = np.random.default_rng(7)
    cfg = GrnConfig(genes=50, k_groups=1, p_sparsity=1.5, delta_in=100, delta_out=10, w_modularity=1)
    counts = [grnmod.sample_grn(cfg, rng).targets.size for _ in range(500)]
    assert abs(np.mean(counts) - 75.0) < 3.0


def test_sample_grn_modularity_dominates_at_high_weight():
    rng = np.random.default_rng(11)
    cfg = GrnConfig(genes=40, k_groups=2, p_sparsity=2.0, delta_in=50, delta_out=5, w_modularity=900)
    within = total = 0
    for _ in range(20):
        # The genes' groups are sample_grn's first draw.
        groups = copy.deepcopy(rng).integers(0, cfg.k_groups, size=cfg.genes)
        g = grnmod.sample_grn(cfg, rng)
        total += g.targets.size
        within += np.sum(groups[g.regulators] == groups[g.targets])
    assert within / total > 0.9


def test_sample_grn_huge_delta_out_approaches_uniform_selection():
    rng = np.random.default_rng(13)
    base = GrnConfig(genes=30, k_groups=1, p_sparsity=2.5, delta_in=50, delta_out=1.0, w_modularity=1)
    smooth = GrnConfig(genes=30, k_groups=1, p_sparsity=2.5, delta_in=50, delta_out=1e6, w_modularity=1)

    def out_degree_var(cfg):
        totals = []
        for _ in range(40):
            g = grnmod.sample_grn(cfg, rng)
            totals.append(np.var(g.out_degree()))
        return np.mean(totals)

    # Uniform regulator choice benchmark: multinomial variance of the same
    # edge budget spread over the genes.
    uniform_like = out_degree_var(smooth)
    preferential = out_degree_var(base)
    e_edges = 2.5 * 30
    multinomial_var = e_edges * (1 / 30) * (1 - 1 / 30)
    assert uniform_like == pytest.approx(multinomial_var, rel=0.25)
    assert preferential > uniform_like


def test_simulation_ready_grn_invariants_hold():
    rng = np.random.default_rng(17)
    for _ in range(10):
        cfg = grnmod.sample_grn_config(25, rng)
        g = grnmod.sample_simulation_ready_grn(cfg, rng)
        assert nx.is_directed_acyclic_graph(g.to_digraph())
        if g.targets.size:
            assert g.master_regulators(), "acyclic non-empty network must have an MR"
        assert np.all((np.abs(g.strengths) >= 1.0) & (np.abs(g.strengths) <= 5.0))
        assert np.all(g.half_response > 0)
        b = g.basal[g.basal > 0]
        assert np.all(((b >= 0.5) & (b <= 2.0)) | ((b >= 3.0) & (b <= 5.0)))
        assert np.all((g.decay >= 0.5) & (g.decay <= 1.0))
        # exactly the root genes carry a basal rate
        assert np.array_equal(g.basal > 0, g.in_degree() == 0)


def test_break_cycles_acyclic_input_unchanged():
    g = _manual_grn(3, [(0, 1, 2.0), (1, 2, -1.0)], {0: 1.0})
    assert _edges(grnmod.break_cycles(g)) == _edges(g)


def test_break_cycles_removes_weakest_edge_of_two_cycle():
    g = _manual_grn(2, [(0, 1, 0.3), (1, 0, -0.9)], {})
    out = grnmod.break_cycles(g)
    assert _edges(out) == [(1, 0, -0.9)]


def test_break_cycles_shared_minimum_edge_breaks_both():
    # Figure eight: cycles B->A->B and B->A->C->B share B->A, the weakest
    # edge of both; removing it alone must leave the graph acyclic.
    edges = [(1, 0, 0.1), (0, 1, 1.0), (0, 2, 1.0), (2, 1, 1.0)]
    g = _manual_grn(3, edges, {})
    cycles_before = list(nx.simple_cycles(g.to_digraph()))
    assert len(cycles_before) == 2
    out = grnmod.break_cycles(g)
    assert nx.is_directed_acyclic_graph(out.to_digraph())
    assert _edges(out) == [(0, 1, 1.0), (0, 2, 1.0), (2, 1, 1.0)]


def test_ensure_master_regulators_identity_when_mr_exists():
    g = _manual_grn(4, [(0, 1, 2.0), (1, 2, 2.0), (3, 0, 1.0)], {3: 1.0})
    # gene 3 has in-degree 0 and out-degree 1, so it is already an MR
    assert _edges(grnmod.ensure_master_regulators(g)) == _edges(g)


def test_ensure_master_regulators_promotes_lowest_in_degree():
    # Ring-free 4-node graph where every node has an incoming edge.
    g = _manual_grn(4, [(0, 1, 1.0), (1, 2, 3.0), (2, 3, 1.0), (3, 0, 0.2)], {})
    g = grnmod.break_cycles(g)  # removes 3->0, leaving 1,2,3 with in-degree 1
    promoted = grnmod.ensure_master_regulators(g)
    assert promoted.master_regulators() == {0}
    in_deg = promoted.in_degree()
    assert in_deg[0] == 0
    assert promoted.targets.size == 3


def test_ensure_master_regulators_requires_some_regulator():
    with pytest.raises(InvalidArgumentError):
        grnmod.ensure_master_regulators(_manual_grn(3, [], {}))


def test_hill_half_saturation_identity():
    # _hill takes the threshold already raised to the Hill coefficient.
    for gamma in (1.5, 2.0, 2.5):
        assert grnmod._hill(0.7, 0.7**gamma, gamma) == pytest.approx(0.5)


def test_simulate_single_mr_matches_analytic_fixed_point():
    # Isolated master regulator: mean -> b / lambda = 4.0 within 5%.
    g = _manual_grn(1, [], {0: 2.0}, decay=[0.5])
    cfg = SergioConfig(zeta=0.5)
    cells = grnmod.simulate_expression(g, cfg, 10_000, seed=123)
    assert cells.shape == (10_000, 1)
    assert cells.mean() == pytest.approx(4.0, rel=0.05)


def test_simulate_zero_noise_hits_fixed_point():
    g = _manual_grn(1, [], {0: 2.0}, decay=[0.5])
    cfg = SergioConfig(zeta=0.0)
    cells = grnmod.simulate_expression(g, cfg, 5, seed=0)
    assert np.allclose(cells, 4.0, atol=1e-3)


def test_zero_noise_simulation_settles_at_half_responses():
    # Each gene's half-response is its noise-free mean: with every regulator
    # at its own threshold each Hill term is 1/2, whatever the coefficient.
    rng = np.random.default_rng(31)
    for _ in range(3):
        g = grnmod.sample_simulation_ready_grn(GrnConfig(genes=12), rng)
        cfg = SergioConfig(hill_gamma=float(rng.uniform(1.5, 2.5)), zeta=0.0, burn_in_steps=3000)
        cells = grnmod.simulate_expression(g, cfg, 2, seed=0)
        np.testing.assert_allclose(cells, np.tile(g.half_response, (2, 1)), rtol=1e-3)


def test_noise_free_simulation_matches_the_per_edge_euler_reference():
    # The simulator sums production as base + h @ signed; this reference adds
    # each edge's Hill term, s*h for an activator and |s|*(1 - h) for a
    # repressor, in edge order.  Only the summation order differs.
    rng = np.random.default_rng(41)
    g = grnmod.sample_simulation_ready_grn(GrnConfig(genes=8, p_sparsity=3.0), rng)
    assert np.any(g.strengths > 0) and np.any(g.strengths < 0)
    cfg = SergioConfig(hill_gamma=2.2, zeta=0.0, burn_in_steps=300)
    x = np.zeros(g.genes)
    for _ in range(cfg.burn_in_steps):
        h = x**cfg.hill_gamma / (g.half_response**cfg.hill_gamma + x**cfg.hill_gamma)
        production = g.basal.copy()
        for r, t, s in zip(g.regulators, g.targets, g.strengths):
            production[t] += s * h[r] if s > 0 else -s * (1.0 - h[r])
        x = np.maximum(x + (production - g.decay * x) * grnmod._DT, 0.0)
    cells = grnmod.simulate_expression(g, cfg, 2, seed=0)
    np.testing.assert_allclose(cells, np.tile(x, (2, 1)), rtol=1e-12, atol=0)


def test_repeated_regulator_target_pair_sums_both_edges():
    # Two edges 0 -> 1 (+2.0 and -1.5) contribute both terms: with gene 0 at
    # its threshold, gene 1 makes 0.5 * 2.0 + 0.5 * 1.5 and settles at 3.5.
    g = _manual_grn(2, [(0, 1, 2.0), (0, 1, -1.5)], {0: 2.0})
    assert g.half_response.tolist() == [4.0, 3.5]
    cells = grnmod.simulate_expression(g, SergioConfig(zeta=0.0, burn_in_steps=3000), 2, seed=0)
    np.testing.assert_allclose(cells, [[4.0, 3.5]] * 2, rtol=1e-3)


@pytest.mark.parametrize("p_sparsity", [0.0, 2.0], ids=["edgeless", "with_edges"])
def test_simulate_rejects_a_network_without_half_responses(p_sparsity):
    raw = grnmod.sample_grn(GrnConfig(genes=5, p_sparsity=p_sparsity), np.random.default_rng(3))
    assert (raw.targets.size > 0) == (p_sparsity > 0)
    with pytest.raises(InvalidArgumentError, match="half-responses"):
        grnmod.simulate_expression(raw, SergioConfig(burn_in_steps=10), 2, seed=0)


@pytest.mark.parametrize("n_cells", [0, 2.5, True], ids=["zero", "float", "bool"])
def test_simulate_rejects_a_cell_count_that_is_not_a_positive_integer(n_cells):
    g = _manual_grn(2, [(0, 1, 2.0)], {0: 1.0})
    with pytest.raises(InvalidArgumentError, match="n_cells"):
        grnmod.simulate_expression(g, SergioConfig(burn_in_steps=10), n_cells, seed=0)


def test_simulate_deterministic_and_chunk_invariant():
    rng = np.random.default_rng(23)
    cfg_g = GrnConfig(genes=6, k_groups=1, p_sparsity=2.0, delta_in=50, delta_out=5, w_modularity=1)
    g = grnmod.sample_simulation_ready_grn(cfg_g, rng)
    cfg = SergioConfig(burn_in_steps=300)
    a = grnmod.simulate_expression(g, cfg, 8, seed=99)
    b = grnmod.simulate_expression(g, cfg, 8, seed=99)
    assert np.array_equal(a, b)
    # Cell streams are independent: simulating more cells leaves earlier ones unchanged.
    c = grnmod.simulate_expression(g, cfg, 12, seed=99)
    assert np.array_equal(c[:8], a)


def test_simulate_is_bit_identical_across_block_and_chunk_boundaries(monkeypatch):
    rng = np.random.default_rng(23)
    cfg_g = GrnConfig(genes=6, k_groups=1, p_sparsity=2.0, delta_in=50, delta_out=5, w_modularity=1)
    g = grnmod.sample_simulation_ready_grn(cfg_g, rng)
    cfg = SergioConfig(burn_in_steps=300)
    whole = grnmod.simulate_expression(g, cfg, 9, seed=99)
    monkeypatch.setattr(grnmod, "_CELL_BLOCK", 4)
    # Blocks of 4, 4 and 1 cells; the bound holds 1 or 7 steps of a full block.
    for chunk in (1, 7):
        monkeypatch.setattr(grnmod, "_NOISE_BYTES", chunk * 4 * 2 * g.genes * 8)
        assert np.array_equal(grnmod.simulate_expression(g, cfg, 9, seed=99), whole)


def test_simulate_holds_one_chunk_of_burn_in_noise():
    # Each chunk's draws go into one reused (cells, chunk, 2, genes) buffer
    # of at most _NOISE_BYTES: here 12 of the 30 steps.  A chunk of 500
    # steps would take 164 MB at this size.
    g = grnmod.sample_simulation_ready_grn(GrnConfig(genes=40), np.random.default_rng(4))
    cells, cfg = 512, SergioConfig(burn_in_steps=30)
    assert grnmod._NOISE_BYTES // (cells * 2 * g.genes * 8) < cfg.burn_in_steps
    tracemalloc.start()
    try:
        grnmod.simulate_expression(g, cfg, cells, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * grnmod._NOISE_BYTES, peak / grnmod._NOISE_BYTES


def test_monotone_regulation_strengthening_activator():
    # Deterministic chain 0 -> 1; a stronger activation cannot lower the target mean.
    cfg = SergioConfig(zeta=0.0)
    base = _manual_grn(2, [(0, 1, 2.0)], {0: 1.0})
    strong = _manual_grn(2, [(0, 1, 4.0)], {0: 1.0})
    weak_out = grnmod.simulate_expression(base, cfg, 3, seed=1)[:, 1].mean()
    strong_out = grnmod.simulate_expression(strong, cfg, 3, seed=1)[:, 1].mean()
    assert strong_out >= weak_out


def test_knockout_removes_incident_edges_and_production():
    g = _manual_grn(3, [(0, 1, 2.0), (1, 2, 2.0)], {0: 1.0, 1: 0.5})
    ko = grnmod.knockout(g, 1)
    assert _edges(ko) == []
    assert ko.genes == 3
    assert ko.basal.tolist() == [1.0, 0.0, 0.0]
    with pytest.raises(InvalidArgumentError):
        grnmod.knockout(g, 7)


@pytest.mark.parametrize("gene", [2.5, True], ids=["float", "bool"])
def test_knockout_rejects_a_gene_that_is_not_an_integer(gene):
    # Unchecked, 2.5 raised a raw IndexError and True knocked out gene 1.
    g = _manual_grn(3, [(0, 1, 2.0), (1, 2, 2.0)], {0: 1.0, 1: 0.5})
    with pytest.raises(InvalidArgumentError, match="gene"):
        grnmod.knockout(g, gene)


@pytest.mark.parametrize("step", ["simulate", "technical_noise"])
def test_prior_rejects_a_seed_that_is_not_an_integer(step):
    # Unchecked, the seed was truncated: seed 2.5 gave seed 2's cells.
    g = _manual_grn(2, [(0, 1, 2.0)], {0: 1.0})
    cfg = SergioConfig(burn_in_steps=10)
    with pytest.raises(InvalidArgumentError, match="seed"):
        if step == "simulate":
            grnmod.simulate_expression(g, cfg, 2, seed=2.5)
        else:
            grnmod.apply_technical_noise(np.ones((2, 2)), cfg, seed=2.5)


def test_knockout_of_sink_gene_leaves_other_columns_unchanged():
    g = _manual_grn(3, [(0, 1, 2.0), (0, 2, 2.0)], {0: 1.0})
    cfg = SergioConfig(burn_in_steps=400)
    control = grnmod.simulate_expression(g, cfg, 6, seed=5)
    ko = grnmod.simulate_expression(grnmod.knockout(g, 2), cfg, 6, seed=5)
    assert np.array_equal(control[:, :2], ko[:, :2])
    assert np.all(ko[:, 2] == 0.0)


def test_target_of_a_knocked_out_activator_stays_exactly_zero():
    # Gene 1's only regulator is gene 0; gene 2 is an unrelated basal gene.
    g = _manual_grn(3, [(0, 1, 3.0)], {0: 2.0, 2: 1.0})
    cfg = SergioConfig(burn_in_steps=400)
    control = grnmod.simulate_expression(g, cfg, 20, seed=4)
    ko = grnmod.simulate_expression(grnmod.knockout(g, 0), cfg, 20, seed=4)
    assert np.all(control[:, 1] > 0)
    assert np.all(ko[:, :2] == 0.0)
    assert np.all(ko[:, 2] > 0)


def test_knockout_of_activating_mr_lowers_target_mean():
    g = _manual_grn(2, [(0, 1, 3.0)], {0: 2.0})
    cfg = SergioConfig(zeta=0.5, burn_in_steps=800)
    control = grnmod.simulate_expression(g, cfg, 400, seed=9)
    ko = grnmod.simulate_expression(grnmod.knockout(g, 0), cfg, 400, seed=9)
    assert ko[:, 1].mean() < control[:, 1].mean()
    assert ko[:, 0].mean() < 0.01 * max(control[:, 0].mean(), 1e-12)


def test_technical_noise_zero_stays_zero():
    cfg = SergioConfig()
    clean = np.zeros((20, 5))
    counts = grnmod.apply_technical_noise(clean, cfg, seed=3)
    assert counts.dtype == np.int64
    assert np.all(counts == 0)


def test_technical_noise_library_scaling_preserves_proportions():
    # Cell totals follow LogNormal(mu_lib, sigma_lib) and gene shares stay
    # those of the clean matrix, up to Poisson noise (worst over 20 seeds:
    # 0.024 on the log-total moments, 0.003 on the shares).
    cfg = SergioConfig()
    rng = np.random.default_rng(8)
    clean = rng.uniform(0.5, 4.0, size=(2000, 6))
    noise = np.random.default_rng(mix_seed(3))  # apply_technical_noise's generator at seed 3
    counts = noise.poisson(grnmod._library_scaled(clean, cfg, noise))
    log_totals = np.log(counts.sum(axis=1))
    assert abs(log_totals.mean() - cfg.mu_lib) < 0.06
    assert abs(log_totals.std() - cfg.sigma_lib) < 0.06
    shares = counts.sum(axis=0) / counts.sum()
    assert np.allclose(shares, clean.sum(axis=0) / clean.sum(), atol=0.01)


def test_technical_noise_outlier_genes_are_about_one_percent_with_log_mean_mu_outlier():
    # Over 1e5 genes, the share scaled and the log-mean of their factors
    # (worst over 30 seeds: 0.0006 off 1%, 0.07 off mu_outlier); every cell
    # of a gene gets its factor.
    cfg = SergioConfig()
    scaled = grnmod._outlier_scaled(np.ones((2, 100_000)), cfg, np.random.default_rng(mix_seed(5)))
    assert np.array_equal(scaled[0], scaled[1])
    factors = scaled[0][scaled[0] != 1.0]
    assert abs(factors.size / 100_000 - 0.01) < 0.0015
    assert abs(np.log(factors).mean() - cfg.mu_outlier) < 0.15


def test_technical_noise_dropout_keeps_half_at_the_eighth_percentile():
    # log1p-expression is 1 in 5% of the entries, 2 in 10% and 3 in 85%, so
    # the logistic's midpoint is 2 and its slope of 60 keeps an entry one
    # unit above with probability 1 - 1e-26 and one unit below with 1e-26.
    # About half the entries at the midpoint are kept (worst over 30 seeds:
    # 0.030 off one half).
    cfg = SergioConfig()
    log_x = np.repeat([1.0, 2.0, 3.0], [1000, 2000, 17000]).reshape(200, 100)
    x = np.expm1(log_x)
    kept = grnmod._dropped_out(x, cfg, np.random.default_rng(mix_seed(5)))
    assert np.all(kept[log_x == 1.0] == 0.0)
    assert np.array_equal(kept[log_x == 3.0], x[log_x == 3.0])
    at_midpoint = kept[log_x == 2.0]
    assert np.all((at_midpoint == 0.0) | (at_midpoint == x[log_x == 2.0]))
    assert abs(np.mean(at_midpoint != 0.0) - 0.5) < 0.06


def test_technical_noise_rejects_negative_input():
    with pytest.raises(InvalidArgumentError):
        grnmod.apply_technical_noise(np.array([[-1.0]]), SergioConfig(), seed=0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_technical_noise_rejects_non_finite_input(value):
    # NaN passed the sign check and reached numpy's Poisson sampler.
    with pytest.raises(InvalidArgumentError, match="finite"):
        grnmod.apply_technical_noise(np.array([[1.0, value]]), SergioConfig(), seed=0)


@pytest.mark.parametrize("shape", [(4,), (2, 3, 4), (0, 3), (3, 0)], ids=["1-d", "3-d", "no_cells", "no_genes"])
def test_technical_noise_rejects_a_batch_that_is_not_a_cells_by_genes_matrix(shape):
    # A 1-D batch and an empty one raised numpy's raw IndexError, and a
    # 3-D one ran through the chain.
    with pytest.raises(InvalidArgumentError, match="matrix"):
        grnmod.apply_technical_noise(np.ones(shape), SergioConfig(), seed=0)


def test_technical_noise_deterministic():
    rng = np.random.default_rng(10)
    clean = rng.uniform(0.0, 5.0, size=(30, 4))
    a = grnmod.apply_technical_noise(clean, SergioConfig(), seed=21)
    b = grnmod.apply_technical_noise(clean, SergioConfig(), seed=21)
    assert np.array_equal(a, b)


def test_counts_are_nonnegative_integers():
    rng = np.random.default_rng(12)
    g = grnmod.sample_simulation_ready_grn(GrnConfig(genes=5, p_sparsity=1.5), rng)
    cfg = SergioConfig(burn_in_steps=200)
    clean = grnmod.simulate_expression(g, cfg, 40, seed=2)
    counts = grnmod.apply_technical_noise(clean, cfg, seed=2)
    assert np.issubdtype(counts.dtype, np.integer)
    assert np.all(counts >= 0)

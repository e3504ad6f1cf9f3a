"""Metric tests, each anchored to an independent oracle or closed form."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from pertmap import metrics
from pertmap.errors import (
    DegenerateEffectError,
    InvalidArgumentError,
    NumericalFailureError,
    UndefinedCorrelationError,
    UndefinedMetricError,
)
from pertmap.metrics import MetricConfig

RNG = np.random.default_rng(4242)


# -- oracles ----------------------------------------------------------------


def exact_assignment_divergence(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Unregularized OT between equal-size point sets by brute force.

    With uniform marginals and n == m the optimum is an assignment, so the
    value is the best average squared cost over all permutations.
    """
    n = y.shape[0]
    costs = ((y[:, None, :] - y_hat[None, :, :]) ** 2).sum(axis=2)
    best = min(
        sum(costs[i, p[i]] for i in range(n)) / n for p in itertools.permutations(range(n))
    )
    return math.sqrt(best)


def exact_rank_sum_p(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sided exact rank-sum p by enumerating all label assignments.

    Valid for equal sample sizes, where the permutation distribution of U
    is symmetric around nm/2 (mid-ranks for ties).
    """
    from scipy.stats import rankdata

    nx, ny = len(x), len(y)
    combined = np.concatenate([x, y])
    ranks = rankdata(combined)
    n = nx + ny
    u_obs = ranks[:nx].sum() - nx * (nx + 1) / 2.0
    u_lo = min(u_obs, nx * ny - u_obs)
    u_hi = nx * ny - u_lo
    hits = total = 0
    for subset in itertools.combinations(range(n), nx):
        u = ranks[list(subset)].sum() - nx * (nx + 1) / 2.0
        total += 1
        if u <= u_lo + 1e-9 or u >= u_hi - 1e-9:
            hits += 1
    return hits / total


# -- Sinkhorn divergence ------------------------------------------------------


def test_sinkhorn_identical_sets_is_zero():
    y = RNG.standard_normal((12, 4))
    assert metrics.sinkhorn_divergence(y, y.copy()) == pytest.approx(0.0, abs=1e-6)


def test_sinkhorn_singletons_unit_distance():
    val = metrics.sinkhorn_divergence(np.array([[0.0]]), np.array([[1.0]]))
    assert val == pytest.approx(1.0, abs=1e-9)


def test_sinkhorn_symmetry_and_nonnegativity():
    cfg = MetricConfig()
    a = RNG.standard_normal((9, 3))
    b = RNG.standard_normal((7, 3)) + 0.5
    ab = metrics.sinkhorn_divergence(a, b, cfg)
    ba = metrics.sinkhorn_divergence(b, a, cfg)
    assert ab >= 0.0
    assert ab == pytest.approx(ba, abs=1e-5)


def test_sinkhorn_matches_brute_force_assignment():
    cfg = MetricConfig(sinkhorn_epsilon=1e-3, sinkhorn_max_iters=200_000, sinkhorn_tol=1e-9)
    for trial in range(15):
        rng = np.random.default_rng(100 + trial)
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, 4))
        y = rng.standard_normal((n, d))
        y_hat = rng.standard_normal((n, d)) + rng.uniform(0.5, 1.5)
        approx = metrics.sinkhorn_divergence(y, y_hat, cfg)
        exact = exact_assignment_divergence(y, y_hat)
        assert approx == pytest.approx(exact, rel=0.02)


def _record_kernel_builds(monkeypatch) -> list[float]:
    """The epsilon of every kernel the Sinkhorn solver builds, in order."""
    built = []
    kernels = metrics._kernels

    def recording(f, g, cost, eps):
        built.append(eps)
        return kernels(f, g, cost, eps)

    monkeypatch.setattr(metrics, "_kernels", recording)
    return built


@pytest.mark.parametrize("bound", [1.0, 3.0])
def test_sinkhorn_absorption_keeps_the_value(monkeypatch, bound):
    # A low scaling bound forces absorptions in the middle of the epsilon
    # stages (at 1.0, before nearly every update); they must not change the
    # value beyond rounding, nor take the log of 0 or of an overflow.
    rng = np.random.default_rng(17)
    y = rng.standard_normal((32, 4))
    y_hat = rng.standard_normal((32, 4)) * 1.5 + 0.3
    built = _record_kernel_builds(monkeypatch)
    expected = metrics.sinkhorn_divergence(y, y_hat)
    unforced_builds = len(built)
    built.clear()
    monkeypatch.setattr(metrics, "_SCALING_BOUND", bound)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        forced = metrics.sinkhorn_divergence(y, y_hat)
    assert len(built) > unforced_builds
    assert math.isfinite(forced)
    assert forced == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sinkhorn_non_finite_input_raises(bad):
    y = np.zeros((3, 2))
    y_hat = np.ones((3, 2))
    y_hat[1, 0] = bad
    with pytest.raises(NumericalFailureError):
        metrics.sinkhorn_divergence(y, y_hat)


def test_sinkhorn_kernel_that_left_the_float_range_raises():
    with pytest.raises(NumericalFailureError):
        metrics._absorbed_sums(np.array([[0.0, 0.0], [1.0, 2.0]]), 0.1)


TWO_SAMPLE_METRICS = [metrics.sinkhorn_divergence, metrics.mmd_rbf, metrics.rmse_means]


@pytest.mark.parametrize("metric", TWO_SAMPLE_METRICS, ids=lambda f: f.__name__)
def test_two_sample_metrics_reject_mismatched_gene_counts(metric):
    with pytest.raises(InvalidArgumentError, match="same genes"):
        metric(RNG.standard_normal((5, 3)), RNG.standard_normal((5, 2)))


@pytest.mark.parametrize("metric", TWO_SAMPLE_METRICS, ids=lambda f: f.__name__)
def test_two_sample_metrics_reject_an_empty_sample(metric):
    for y, y_hat in ((np.zeros((0, 3)), np.ones((4, 3))), (np.ones((4, 3)), np.zeros((0, 3)))):
        with pytest.raises(InvalidArgumentError, match="non-empty"):
            metric(y, y_hat)


@pytest.mark.parametrize("cells", [(1, 1), (1, 5), (5, 1)])
def test_variance_correlation_needs_two_cells_per_sample(cells):
    with pytest.raises(InvalidArgumentError, match="two cells"):
        metrics.variance_correlation(RNG.standard_normal((cells[0], 3)), RNG.standard_normal((cells[1], 3)))


# -- MMD ---------------------------------------------------------------------


def test_mmd_identical_inputs_zero():
    y = RNG.standard_normal((20, 5))
    assert metrics.mmd_rbf(y, y.copy()) == pytest.approx(0.0, abs=1e-7)


def test_mmd_singletons_closed_form():
    cfg = MetricConfig()
    val = metrics.mmd_rbf(np.array([[0.0]]), np.array([[1.0]]), cfg)
    per_gamma = [2.0 - 2.0 * math.exp(-g) for g in cfg.mmd_gammas]
    assert val == pytest.approx(math.sqrt(np.mean(per_gamma)), rel=1e-12)


def test_mmd_symmetry_and_translation_invariance():
    a = RNG.standard_normal((15, 3))
    b = RNG.standard_normal((10, 3)) * 1.5
    assert metrics.mmd_rbf(a, b) == pytest.approx(metrics.mmd_rbf(b, a), rel=1e-12)
    shift = np.array([1.0, -2.0, 0.5])
    assert metrics.mmd_rbf(a + shift, b + shift) == pytest.approx(
        metrics.mmd_rbf(a, b), rel=1e-9
    )


# -- moment metrics ------------------------------------------------------------


def test_rmse_means_examples():
    y = RNG.standard_normal((50, 2))
    assert metrics.rmse_means(y, y.copy()) == 0.0
    a = np.zeros((4, 2))
    b = np.tile([3.0, 4.0], (4, 1))
    assert metrics.rmse_means(a, b) == pytest.approx(math.sqrt(25.0 / 2.0))


def test_rmse_invariant_to_consistent_gene_permutation():
    a = RNG.standard_normal((30, 5))
    b = RNG.standard_normal((40, 5))
    perm = RNG.permutation(5)
    assert metrics.rmse_means(a[:, perm], b[:, perm]) == pytest.approx(
        metrics.rmse_means(a, b), rel=1e-12
    )


def test_transposed_rank_perfect_match_is_zero():
    mus = RNG.standard_normal((6, 4)) * 3
    assert metrics.transposed_rank(mus, mus.copy()) == 0.0


def test_transposed_rank_two_condition_hand_case():
    obs = np.array([[0.0, 0.0], [10.0, 0.0]])
    pred = np.array([[9.0, 0.0], [10.0, 0.0]])  # pred 1 closer to mu_2; pred 2 matched
    assert metrics.transposed_rank(pred, obs) == pytest.approx(0.5)


def test_transposed_rank_collapse_with_ties():
    # All predictions collapse onto mu_1; mu_2 and mu_3 equidistant from it.
    obs = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, -1.0]])
    pred = np.tile(obs[0], (3, 1))
    assert metrics.transposed_rank(pred, obs) == pytest.approx(2.0 / 3.0)
    assert metrics.transposed_rank(pred, obs) >= 0.5


def test_transposed_rank_needs_two_conditions():
    with pytest.raises(InvalidArgumentError):
        metrics.transposed_rank(np.zeros((1, 3)), np.zeros((1, 3)))


def test_magnitude_ratio_identity_is_zero():
    y_obs = RNG.standard_normal((25, 3))
    y_int = y_obs + np.array([2.0, 0.0, 0.0])
    assert metrics.magnitude_ratio(y_obs, y_int, y_obs.copy()) == pytest.approx(0.0, abs=1e-6)


def test_magnitude_ratio_point_masses():
    obs = np.array([[0.0]])
    intv = np.array([[1.0]])
    pred = np.array([[2.0]])
    assert metrics.magnitude_ratio(obs, intv, pred) == pytest.approx(2.0, rel=1e-6)


def test_magnitude_ratio_degenerate_effect():
    y = RNG.standard_normal((10, 2))
    with pytest.raises(DegenerateEffectError):
        metrics.magnitude_ratio(y, y.copy(), y.copy())


def test_variance_correlation_identity_and_shift():
    y = RNG.standard_normal((40, 5)) * np.array([1.0, 2.0, 0.5, 3.0, 1.5])
    assert metrics.variance_correlation(y, y.copy()) == pytest.approx(1.0)
    shifted = y.copy()
    shifted[:, 2] += 7.0
    assert metrics.variance_correlation(y, shifted) == pytest.approx(1.0)


def test_variance_correlation_affine_decreasing_is_minus_one():
    y_int = RNG.standard_normal((30, 4)) * np.array([0.5, 1.0, 1.5, 2.0])
    v = y_int.var(axis=0, ddof=1)
    base = RNG.standard_normal(30)
    base = (base - base.mean()) / base.std(ddof=1)  # sample variance exactly 1
    c = v.max() + 1.0
    y_hat = base[:, None] * np.sqrt(c - v)[None, :]
    assert metrics.variance_correlation(y_int, y_hat) == pytest.approx(-1.0)


def test_variance_correlation_undefined_for_constant_vector():
    y_int = np.tile(RNG.standard_normal(20)[:, None], (1, 3))  # equal variances
    y_hat = RNG.standard_normal((20, 3))
    with pytest.raises(UndefinedCorrelationError):
        metrics.variance_correlation(y_int, y_hat)


# -- Wilcoxon / DEG -------------------------------------------------------------


def rank_sum_p(x: np.ndarray, y: np.ndarray) -> float:
    """The rank-sum p-value deg_stats uses, read off a single-gene call
    (with one gene the BH adjustment is the identity)."""
    stats = metrics.deg_stats(np.asarray(x, dtype=float)[:, None], np.asarray(y, dtype=float)[:, None])
    return float(10.0 ** -stats.neglog10_p[0])


def test_wilcoxon_identical_multisets():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    p = rank_sum_p(x, x.copy())
    assert p >= 0.99


def test_wilcoxon_full_separation_close_to_exact():
    x = np.array([1.0, 2.0, 3.0])
    y = np.array([4.0, 5.0, 6.0])
    exact = exact_rank_sum_p(x, y)
    assert exact == pytest.approx(0.1)
    approx = rank_sum_p(x, y)
    assert abs(approx - exact) < 0.05


def test_wilcoxon_with_ties_close_to_exact():
    x = np.array([1.0, 2.0, 2.0, 5.0])
    y = np.array([2.0, 3.0, 4.0, 6.0])
    exact = exact_rank_sum_p(x, y)
    approx = rank_sum_p(x, y)
    assert abs(approx - exact) < 0.05


def test_wilcoxon_single_tie_randomized_against_enumeration():
    # Single-tie instances can deviate up to ~0.09 from enumeration at
    # these sizes (discrete atoms no smooth approximation can track), so
    # the regression envelope is 0.1; most instances sit well below 0.05.
    for trial in range(60):
        rng = np.random.default_rng(900 + trial)
        n = int(rng.integers(3, 6))
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        y[0] = x[0]
        exact = exact_rank_sum_p(x, y)
        approx = rank_sum_p(x, y)
        assert abs(approx - exact) < 0.1, (x, y, exact, approx)


def test_wilcoxon_degenerate_ties_stay_valid():
    # Near-degenerate inputs (few distinct values) still produce a valid
    # two-sided p-value even where the normal approximation is coarse.
    for trial in range(40):
        rng = np.random.default_rng(1300 + trial)
        n = int(rng.integers(3, 6))
        x = rng.integers(0, 3, size=n).astype(float)
        y = rng.integers(0, 3, size=n).astype(float)
        p = rank_sum_p(x, y)
        assert 0.0 <= p <= 1.0


def test_wilcoxon_tie_free_randomized_within_bound():
    for trial in range(60):
        rng = np.random.default_rng(500 + trial)
        n = int(rng.integers(3, 6))
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        exact = exact_rank_sum_p(x, y)
        approx = rank_sum_p(x, y)
        assert abs(approx - exact) < 0.05, (x, y, exact, approx)


def test_wilcoxon_all_identical():
    assert rank_sum_p(np.ones(5), np.ones(4)) == 1.0


def test_deg_labels_threshold_rule():
    cfg = MetricConfig()
    # Directly exercise the joint threshold on synthetic stats.
    assert (3.0 > cfg.deg_tau_p) and (0.5 > cfg.deg_tau_l)
    assert not (0.1 > cfg.deg_tau_l)
    rng = np.random.default_rng(8)
    y_obs = rng.standard_normal((60, 4)) + 2.0
    y_int = y_obs.copy()
    y_int[:, 1] += 3.0  # strong shift in one gene only
    labels, stats = metrics.deg_labels(y_obs, y_int, cfg)
    assert labels[1] == 1
    assert stats.neglog10_p[1] > cfg.deg_tau_p


def test_deg_labels_identical_samples_all_zero():
    y = RNG.standard_normal((30, 5))
    labels, _ = metrics.deg_labels(y, y.copy())
    assert np.all(labels == 0)


def test_auprc_perfect_ordering():
    labels = np.array([1, 1, 0, 0, 1])
    scores = np.array([0.9, 0.8, 0.2, 0.1, 0.7])
    curve = metrics.auprc_curve(scores, labels)
    assert curve.auprc == pytest.approx(1.0)


def test_auprc_spec_hand_case():
    labels = np.array([1, 0, 1, 0])
    scores = np.array([0.9, 0.8, 0.1, 0.0])
    curve = metrics.auprc_curve(scores, labels)
    assert curve.auprc == pytest.approx(0.5 * 1.0 + 0.5 * (2.0 / 3.0))
    assert curve.baseline_rate == pytest.approx(0.5)


def test_auprc_all_scores_equal_gives_baseline():
    labels = np.array([1, 0, 0, 1, 0])
    scores = np.full(5, 0.3)
    curve = metrics.auprc_curve(scores, labels)
    assert curve.recalls.tolist() == [1.0]
    assert curve.precisions.tolist() == [0.4]
    assert curve.auprc == pytest.approx(0.4)


def test_auprc_bounds_on_random_instances():
    for trial in range(20):
        rng = np.random.default_rng(300 + trial)
        labels = rng.integers(0, 2, size=12)
        if labels.sum() == 0:
            labels[0] = 1
        scores = rng.uniform(size=12)
        curve = metrics.auprc_curve(scores, labels)
        assert 0.0 <= curve.auprc <= 1.0


def test_auprc_requires_positive_labels():
    with pytest.raises(UndefinedMetricError):
        metrics.auprc_curve(np.ones(4), np.zeros(4))


def test_target_only_scores():
    s = metrics.target_only_scores(5, 3)
    assert np.array_equal(s, np.array([0.0, 0.0, 0.0, 1.0, 0.0]))

"""Distributional evaluation metrics.

Two-sample metrics compare a predicted post-perturbation sample matrix
against the ground-truth one: entropic optimal transport (Sinkhorn
divergence on the squared-Euclidean cost, reported on the square-root
scale), multi-scale RBF maximum mean discrepancy, RMSE of the per-gene
means, the transposed rank across conditions, the magnitude ratio of
predicted to true effect sizes, and the Pearson correlation of per-gene
variances.  The transport solves behind the Sinkhorn divergence run in the
stabilized scaling domain: each iteration is two matrix-vector products on
a kernel with the dual potentials folded in, and the scalings are absorbed
back into the potentials at the end of each epsilon stage, or sooner when
one would leave a fixed safe range.  The differential-expression pipeline
combines per-gene Wilcoxon rank-sum tests and Benjamini-Hochberg correction
(both from scipy.stats), fold-change thresholds, and precision-recall
sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist
from scipy.stats import false_discovery_control, mannwhitneyu

from .errors import (
    DegenerateEffectError,
    InvalidArgumentError,
    NumericalFailureError,
    UndefinedCorrelationError,
    UndefinedMetricError,
)

_LOG_FC_PSEUDOCOUNT = 1e-6
_P_FLOOR = 1e-300


@dataclass(frozen=True)
class MetricConfig:
    sinkhorn_epsilon: float = 0.1
    mmd_gammas: tuple[float, ...] = (10.0, 1.0, 0.1, 0.01, 0.001)
    deg_tau_l: float = 0.2
    deg_tau_p: float = 2.0
    sinkhorn_max_iters: int = 20_000
    # Sup-norm bound on the relative marginal violation.  Overlapping clouds
    # at small epsilon stall near 1e-5, so the default stays above that.
    sinkhorn_tol: float = 1e-4

    def __post_init__(self):
        if self.sinkhorn_epsilon <= 0:
            raise InvalidArgumentError("sinkhorn_epsilon must be positive")
        if any(g <= 0 for g in self.mmd_gammas):
            raise InvalidArgumentError("mmd_gammas must be positive")


# -- entropic optimal transport -------------------------------------------


# Upper bound on the Sinkhorn scalings u and v: an update that would take
# one above it is preceded by an absorption.  That bounds them from below
# too.  A kernel is built from a plan with one exact marginal, so its entries
# are at most max(n, m) ** 4 (the power is the epsilon ratio, at most 4, at
# a stage start), and u = 1 / (K v / m) >= 1 / (max(K) max(v)), likewise v.
# The scalings right after a rebuild are checked in _absorbed_sums, so every
# log taken at an absorption is finite.
_SCALING_BOUND = 1e100


def _kernels(f: np.ndarray, g: np.ndarray, cost: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """K / m and a contiguous K^T / n for K = exp((f + g - C) / eps)."""
    n, m = cost.shape
    kernel = np.exp((f[:, None] + g[None, :] - cost) / eps)
    return kernel / m, np.ascontiguousarray(kernel.T) / n


def _absorbed_sums(k: np.ndarray, eps: float) -> np.ndarray:
    """Row sums of a freshly absorbed kernel, the next scalings' reciprocals."""
    sums = k.sum(axis=1)
    if not (np.all(np.isfinite(sums)) and sums.min() > 0.0):
        raise NumericalFailureError(f"Sinkhorn kernel left the floating-point range at epsilon {eps:.3e}")
    return sums


def _entropic_ot_value(cost: np.ndarray, epsilon: float, max_iters: int, tol: float) -> float:
    """Entropy-regularized transport value between uniform marginals.

    Runs Sinkhorn with an epsilon-scaling warm start (halving from a tenth
    of the cost range down to the target, 30 iterations per warm stage),
    then evaluates <P, C> + eps * (sum P log P + 1) at the optimum.

    The iterations run in the stabilized scaling form (Schmitzer 2019).  At
    the start of each stage the potentials f, g are folded into the kernel
    K = exp((f + g - C) / eps), and the plan is diag(u) K diag(v) / (n m).
    One iteration is two matrix-vector products, u = 1 / (K v / m) then
    v = 1 / (K^T u / n): the log-domain update of f and then of g.  The
    scalings are absorbed into the potentials (f += eps log u,
    g += eps log v, K rebuilt) at the end of every stage, and before an
    update that would take a scaling above ``_SCALING_BOUND``.
    The final stage stops once the row marginals, u * (K v / m) read off
    the product the next u-update needs, are within ``tol`` of uniform
    (sup norm, relative); it raises NumericalFailureError when the
    ``max_iters`` budget runs out first.
    """
    if not np.all(np.isfinite(cost)):
        raise NumericalFailureError("Sinkhorn cost matrix is not finite")
    n, m = cost.shape
    f = np.zeros(n)
    g = np.zeros(m)

    schedule = []
    eps_hi = float(cost.max()) / 10.0
    while eps_hi > epsilon * 2.0:
        schedule.append(eps_hi)
        eps_hi /= 2.0
    schedule.append(epsilon)

    iters_used = 0
    for eps_cur in schedule:
        final = eps_cur == epsilon
        budget = max_iters - iters_used if final else 30
        converged = not final
        residual = math.inf
        k_b, k_a_t = _kernels(f, g, cost, eps_cur)
        u = np.ones(n)
        v = np.ones(m)
        k_v = k_b @ v
        for _ in range(max(budget, 1)):
            iters_used += 1
            if not k_v.min() > 1.0 / _SCALING_BOUND:  # NaN absorbs too
                f, g = f + eps_cur * np.log(u), g + eps_cur * np.log(v)
                k_b, k_a_t = _kernels(f, g, cost, eps_cur)
                v = np.ones(m)
                k_v = _absorbed_sums(k_b, eps_cur)
            u = 1.0 / k_v
            k_u = k_a_t @ u
            if not k_u.min() > 1.0 / _SCALING_BOUND:
                f, g = f + eps_cur * np.log(u), g + eps_cur * np.log(v)
                k_b, k_a_t = _kernels(f, g, cost, eps_cur)
                u = np.ones(n)
                k_u = _absorbed_sums(k_a_t, eps_cur)
            v = 1.0 / k_u
            k_v = k_b @ v
            if final:
                # Column marginals are exact right after the v update; the
                # row marginals carry the remaining violation.
                residual = float(np.abs(u * k_v - 1.0).max())
                if residual < tol:
                    converged = True
                    break
        if final and not converged:
            raise NumericalFailureError(
                f"Sinkhorn did not converge in {max_iters} iterations (residual {residual:.3e})"
            )
        f, g = f + eps_cur * np.log(u), g + eps_cur * np.log(v)

    log_p = (f[:, None] + g[None, :] - cost) / epsilon - math.log(n) - math.log(m)
    p = np.exp(log_p)
    transport = float((p * cost).sum())
    entropy_term = float((p * np.where(p > 0, log_p, 0.0)).sum())
    return transport + epsilon * (entropy_term + 1.0)


def _two_samples(y: np.ndarray, y_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both samples as float (cells, genes) arrays; raises unless each has a
    cell and both have the same genes."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    y_hat = np.atleast_2d(np.asarray(y_hat, dtype=float))
    if y.shape[0] < 1 or y_hat.shape[0] < 1 or y.shape[1:] != y_hat.shape[1:]:
        raise InvalidArgumentError(f"samples must be non-empty over the same genes: {y.shape}, {y_hat.shape}")
    return y, y_hat


def sinkhorn_divergence(y: np.ndarray, y_hat: np.ndarray, cfg: MetricConfig = MetricConfig()) -> float:
    """Debiased entropic transport distance, square-root scale.

    Computes the divergence on the squared-cost scale,
    ot(Y, Yhat) - ot(Y, Y)/2 - ot(Yhat, Yhat)/2, then reports
    sqrt(max(., 0)) so magnitudes are comparable to a Euclidean distance.
    """
    y, y_hat = _two_samples(y, y_hat)
    eps, iters, tol = cfg.sinkhorn_epsilon, cfg.sinkhorn_max_iters, cfg.sinkhorn_tol
    cross = _entropic_ot_value(cdist(y, y_hat, "sqeuclidean"), eps, iters, tol)
    self_y = _entropic_ot_value(cdist(y, y, "sqeuclidean"), eps, iters, tol)
    self_h = _entropic_ot_value(cdist(y_hat, y_hat, "sqeuclidean"), eps, iters, tol)
    return math.sqrt(max(cross - 0.5 * self_y - 0.5 * self_h, 0.0))


# -- kernel two-sample distance --------------------------------------------


def mmd_rbf(y: np.ndarray, y_hat: np.ndarray, cfg: MetricConfig = MetricConfig()) -> float:
    """RBF-kernel MMD, biased V-statistic, averaged over the length scales.

    Returns sqrt(mean_gamma MMD^2(gamma)); the biased estimator is
    non-negative and exactly zero for identical inputs.
    """
    y, y_hat = _two_samples(y, y_hat)
    d_yy = cdist(y, y, "sqeuclidean")
    d_hh = cdist(y_hat, y_hat, "sqeuclidean")
    d_yh = cdist(y, y_hat, "sqeuclidean")
    total = 0.0
    for gamma in cfg.mmd_gammas:
        mmd2 = (
            np.exp(-gamma * d_yy).mean()
            + np.exp(-gamma * d_hh).mean()
            - 2.0 * np.exp(-gamma * d_yh).mean()
        )
        total += max(float(mmd2), 0.0)
    return math.sqrt(total / len(cfg.mmd_gammas))


# -- moment and ranking metrics --------------------------------------------


def rmse_means(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Root mean squared error between the per-gene means."""
    y, y_hat = _two_samples(y, y_hat)
    return float(np.sqrt(np.mean((y_hat.mean(axis=0) - y.mean(axis=0)) ** 2)))


def transposed_rank_contributions(
    predicted_means: np.ndarray, observed_means: np.ndarray
) -> np.ndarray:
    """Per-condition transposed-rank terms.

    Term i is the fraction of non-matching observed means at least as close
    (Euclidean, ties count) to prediction i as its matched observed mean.
    """
    pred = np.atleast_2d(np.asarray(predicted_means, dtype=float))
    obs = np.atleast_2d(np.asarray(observed_means, dtype=float))
    if pred.shape != obs.shape:
        raise InvalidArgumentError("prediction and observation lists must align")
    p = pred.shape[0]
    if p < 2:
        raise InvalidArgumentError("transposed rank needs at least two conditions")
    dists = np.sqrt(cdist(pred, obs, "sqeuclidean"))
    matched = np.diag(dists)
    closer = dists <= matched[:, None]
    np.fill_diagonal(closer, False)
    return closer.sum(axis=1) / (p - 1)


def transposed_rank(predicted_means: np.ndarray, observed_means: np.ndarray) -> float:
    return float(transposed_rank_contributions(predicted_means, observed_means).mean())


def magnitude_ratio(
    y_obs: np.ndarray,
    y_int: np.ndarray,
    y_hat: np.ndarray,
    cfg: MetricConfig = MetricConfig(),
) -> float:
    """Predicted effect size over true effect size, both measured as
    transport distances from the observational sample."""
    denominator = sinkhorn_divergence(y_obs, y_int, cfg)
    if denominator < 1e-9:
        raise DegenerateEffectError(
            "observational and interventional samples are indistinguishable"
        )
    return sinkhorn_divergence(y_obs, y_hat, cfg) / denominator


def variance_correlation(y_int: np.ndarray, y_hat: np.ndarray) -> float:
    """Pearson correlation between the per-gene sample variances."""
    y_int = np.asarray(y_int, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    if len(y_int) < 2 or len(y_hat) < 2:
        raise InvalidArgumentError("sample variances need at least two cells per sample")
    v_int = y_int.var(axis=0, ddof=1)
    v_hat = y_hat.var(axis=0, ddof=1)
    if v_int.shape != v_hat.shape or v_int.size < 2:
        raise InvalidArgumentError("variance vectors must align and have length >= 2")
    if np.ptp(v_int) == 0.0 or np.ptp(v_hat) == 0.0:
        raise UndefinedCorrelationError("a variance vector is constant")
    return float(np.corrcoef(v_int, v_hat)[0, 1])


# -- differential expression -------------------------------------------------


@dataclass(frozen=True)
class DegStats:
    neglog10_p: np.ndarray  # -log10 of BH-adjusted p-values, per gene
    log2_fold_change: np.ndarray


def deg_stats(y_ref: np.ndarray, y_alt: np.ndarray) -> DegStats:
    """Per-gene rank-sum significance (Benjamini-Hochberg adjusted) and
    log2 fold-change of the means.

    Means are clamped at zero before the pseudocount is added, so the
    fold-change stays defined for real-valued (not strictly positive) data.
    """
    y_ref = np.atleast_2d(np.asarray(y_ref, dtype=float))
    y_alt = np.atleast_2d(np.asarray(y_alt, dtype=float))
    if y_ref.shape[1] != y_alt.shape[1]:
        raise InvalidArgumentError("gene dimensions do not match")
    if y_ref.shape[0] < 1 or y_alt.shape[0] < 1:
        raise InvalidArgumentError("both batches must be non-empty")
    # Two-sided asymptotic test: mid-ranks, tie-corrected variance and a
    # continuity correction.  All-tied genes get p = 1.
    pvals = mannwhitneyu(y_ref, y_alt, axis=0, method="asymptotic").pvalue
    padj = false_discovery_control(pvals, method="bh")
    neglog = -np.log10(np.maximum(padj, _P_FLOOR))
    mu_ref = np.maximum(y_ref.mean(axis=0), 0.0) + _LOG_FC_PSEUDOCOUNT
    mu_alt = np.maximum(y_alt.mean(axis=0), 0.0) + _LOG_FC_PSEUDOCOUNT
    return DegStats(neglog10_p=neglog, log2_fold_change=np.log2(mu_alt / mu_ref))


def deg_labels(
    y_obs: np.ndarray, y_int: np.ndarray, cfg: MetricConfig = MetricConfig()
) -> tuple[np.ndarray, DegStats]:
    """Ground-truth differential-expression labels.

    A gene is differentially expressed when the adjusted significance
    exceeds tau_p and the absolute log2 fold-change exceeds tau_l.
    """
    stats = deg_stats(y_obs, y_int)
    labels = (stats.neglog10_p > cfg.deg_tau_p) & (
        np.abs(stats.log2_fold_change) > cfg.deg_tau_l
    )
    return labels.astype(int), stats


def deg_scores(
    y_obs: np.ndarray, y_hat: np.ndarray, cfg: MetricConfig = MetricConfig()
) -> np.ndarray:
    """Ranking scores |log2 fold-change| gated by predicted significance."""
    stats = deg_stats(y_obs, y_hat)
    return np.abs(stats.log2_fold_change) * (stats.neglog10_p > cfg.deg_tau_p)


def target_only_scores(d: int, target: int) -> np.ndarray:
    """Baseline score vector: positive only at the perturbed gene."""
    scores = np.zeros(d)
    scores[target] = 1.0
    return scores


@dataclass(frozen=True)
class PrCurve:
    recalls: np.ndarray
    precisions: np.ndarray
    auprc: float
    baseline_rate: float  # positives / total, the random-ranking AUPRC


def auprc_curve(scores: np.ndarray, labels: np.ndarray) -> PrCurve:
    """Precision-recall sweep over the distinct score values.

    Classifiers are score > r for every distinct score r (tied genes enter
    together) plus an include-everything block; empty prediction sets are
    skipped.  The area is the rectangular integral over recall.
    """
    scores = np.asarray(scores, dtype=float).ravel()
    labels = np.asarray(labels).astype(bool).ravel()
    if scores.shape != labels.shape:
        raise InvalidArgumentError("scores and labels must align")
    positives = int(labels.sum())
    if positives == 0:
        raise UndefinedMetricError("no positive labels; AUPRC is undefined")

    thresholds = np.concatenate([np.unique(scores)[::-1], [-np.inf]])
    recalls, precisions = [], []
    for r in thresholds:
        predicted = scores > r
        n_pred = int(predicted.sum())
        if n_pred == 0:
            continue
        tp = int((predicted & labels).sum())
        recalls.append(tp / positives)
        precisions.append(tp / n_pred)

    auprc = 0.0
    prev_recall = 0.0
    for rec, prec in zip(recalls, precisions):
        auprc += (rec - prev_recall) * prec
        prev_recall = rec
    return PrCurve(
        recalls=np.array(recalls),
        precisions=np.array(precisions),
        auprc=float(auprc),
        baseline_rate=positives / labels.size,
    )

"""Distributional evaluation metrics.

Two-sample metrics compare a predicted post-perturbation sample matrix
against the ground-truth one: entropic optimal transport (Sinkhorn
divergence on the squared-Euclidean cost, reported on the square-root
scale), multi-scale RBF maximum mean discrepancy, RMSE of the per-gene
means, the transposed rank across conditions, the magnitude ratio of
predicted to true effect sizes, and the Pearson correlation of per-gene
variances.  Every metric checks its samples through one gate: non-empty,
over the same genes, finite.  The Sinkhorn solver's settings are the module
constants ``SINKHORN_EPSILON``, ``SINKHORN_MAX_ITERS`` and ``SINKHORN_TOL``,
and its schedule is a list of (epsilon, iterations) stages.  It runs in the
stabilized scaling domain: each iteration is two matrix-vector products on
a kernel with the dual potentials folded in, and the scalings are absorbed
back into the potentials at the end of each stage, or sooner when one would
leave a fixed safe range.  The differential-expression pipeline
combines per-gene Wilcoxon rank-sum tests and Benjamini-Hochberg correction,
fold-change thresholds, and precision-recall sweeps.  The rank-sum test and
the correction are numpy ports of ``scipy.stats.mannwhitneyu`` (asymptotic,
two-sided) and ``scipy.stats.false_discovery_control`` that repeat scipy's
arithmetic step for step, except for the normal tail: the p-value is the
standard library's ``math.erfc(z / sqrt(2))``, within a few ulps of scipy's
``2 * ndtr(-z)`` (1e-14 relative).  With scipy's tail patched in, the
values equal scipy's bit for bit
(``tests/test_metrics.py::test_deg_port_equals_scipy_bit_for_bit``).  The
ports keep ``scipy.stats``, which costs about 20 MB and 0.7 s to import,
out of every process.

Every squared-Euclidean cost matrix is built as
``scipy.spatial.distance.cdist(..., "sqeuclidean")`` builds it, adding the
squared differences gene by gene in gene order
(``test_cost_port_equals_scipy_cdist_bit_for_bit``); numpy rounds each
multiply and add on its own on every platform.  That keeps
``scipy.spatial`` out too; ``test_metrics_leave_scipy_unimported`` checks
that no scipy module loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateEffectError,
    InvalidArgumentError,
    NumericalFailureError,
    UndefinedCorrelationError,
    UndefinedMetricError,
)

_LOG_FC_PSEUDOCOUNT = 1e-6
_P_FLOOR = 1e-300
_SQRT1_2 = math.sqrt(0.5)
# RBF kernel scales gamma of mmd_rbf, k(x, y) = exp(-gamma |x - y|^2).
MMD_GAMMAS = (10.0, 1.0, 0.1, 0.01, 0.001)
# A gene is differentially expressed above these -log10 adjusted p and
# |log2 fold-change| thresholds.
DEG_TAU_P = 2.0
DEG_TAU_L = 0.2


# Sinkhorn divergence settings: the target regularization, the iteration
# budget of all epsilon stages together, and the sup-norm bound on the
# relative marginal violation.  Overlapping clouds at small epsilon stall
# near 1e-5, so the tolerance stays above that.
SINKHORN_EPSILON = 0.1
SINKHORN_MAX_ITERS = 20_000
SINKHORN_TOL = 1e-4


# -- entropic optimal transport -------------------------------------------


# Upper bound on the Sinkhorn scalings u and v: an update that would take
# one above it is preceded by an absorption.  That bounds them from below
# too.  A kernel is built from a plan with one exact marginal, so its entries
# are at most max(n, m) ** 4 (the power is the epsilon ratio, at most 4, at
# a stage start), and u = 1 / (K v / m) >= 1 / (max(K) max(v)), likewise v.
# The scalings right after a rebuild are checked in _absorbed_sums, so every
# log taken at an absorption is finite.
_SCALING_BOUND = 1e100
_WARM_ITERS = 30  # iterations of each warm epsilon stage


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


def _absorb(f, g, u, v, cost, eps):
    """Scalings folded into the potentials, and the rebuilt kernels."""
    f, g = f + eps * np.log(u), g + eps * np.log(v)
    return (f, g) + _kernels(f, g, cost, eps)


def _entropic_ot_value(cost: np.ndarray, epsilon: float, max_iters: int, tol: float) -> float:
    """Entropy-regularized transport value between uniform marginals.

    Runs Sinkhorn over a schedule of (epsilon, iterations) stages, then
    evaluates <P, C> + eps * (sum P log P + 1) at the optimum.  The warm
    stages halve epsilon from a tenth of the cost maximum while it stays
    above twice the target, 30 iterations each; the final stage runs at the
    target with the rest of the budget, max(max_iters - 30 * warm stages, 1)
    iterations.

    The iterations run in the stabilized scaling form (Schmitzer 2019): the
    potentials f, g are folded into the kernel K = exp((f + g - C) / eps),
    the plan is diag(u) K diag(v) / (n m), and one iteration is
    u = 1 / (K v / m) then v = 1 / (K^T u / n), the log-domain updates of
    f and g.  The scalings are absorbed into the potentials (f += eps log u,
    g += eps log v) at the end of every stage, and, with K rebuilt, before
    an update that would take one above ``_SCALING_BOUND``.  The final
    stage stops once the row marginals u * (K v / m) are within ``tol`` of
    uniform (sup norm, relative); it raises NumericalFailureError when its
    budget runs out first.
    """
    if not np.all(np.isfinite(cost)):
        raise NumericalFailureError("Sinkhorn cost matrix is not finite")
    n, m = cost.shape
    f, g = np.zeros(n), np.zeros(m)

    stages = []
    eps_hi = float(cost.max()) / 10.0
    while eps_hi > epsilon * 2.0:
        stages.append((eps_hi, _WARM_ITERS))
        eps_hi /= 2.0
    stages.append((epsilon, max(max_iters - _WARM_ITERS * len(stages), 1)))

    for eps, iters in stages:
        k_b, k_a_t = _kernels(f, g, cost, eps)
        u, v = np.ones(n), np.ones(m)
        k_v = k_b @ v
        for _ in range(iters):
            if not k_v.min() > 1.0 / _SCALING_BOUND:  # NaN absorbs too
                f, g, k_b, k_a_t = _absorb(f, g, u, v, cost, eps)
                v = np.ones(m)
                k_v = _absorbed_sums(k_b, eps)
            u = 1.0 / k_v
            k_u = k_a_t @ u
            if not k_u.min() > 1.0 / _SCALING_BOUND:
                f, g, k_b, k_a_t = _absorb(f, g, u, v, cost, eps)
                u = np.ones(n)
                k_u = _absorbed_sums(k_a_t, eps)
            v = 1.0 / k_u
            k_v = k_b @ v
            # Final stage: after the v update only the row marginals are off.
            if eps == epsilon and (residual := float(np.abs(u * k_v - 1.0).max())) < tol:
                break
        else:
            if eps == epsilon:
                raise NumericalFailureError(
                    f"Sinkhorn did not converge in {max_iters} iterations (residual {residual:.3e})"
                )
        f, g = f + eps * np.log(u), g + eps * np.log(v)

    log_p = (f[:, None] + g[None, :] - cost) / epsilon - math.log(n) - math.log(m)
    p = np.exp(log_p)
    transport = float((p * cost).sum())
    entropy_term = float((p * np.where(p > 0, log_p, 0.0)).sum())
    return transport + epsilon * (entropy_term + 1.0)


def _two_samples(y: np.ndarray, y_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both samples as float (cells, genes) arrays; raises unless each has at
    most two axes, a cell and a gene, the other's genes and finite entries."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    y_hat = np.atleast_2d(np.asarray(y_hat, dtype=float))
    if y.ndim != 2 or y_hat.ndim != 2 or y.size == 0 or y_hat.size == 0 or y.shape[1] != y_hat.shape[1]:
        raise InvalidArgumentError(f"samples must be non-empty matrices over the same genes: {y.shape}, {y_hat.shape}")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(y_hat))):
        raise InvalidArgumentError("samples must be finite")
    return y, y_hat


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of a and of b, as
    ``scipy.spatial.distance.cdist(a, b, "sqeuclidean")`` computes them: each
    entry adds the squared differences one gene at a time, in gene order."""
    out = np.zeros((a.shape[0], b.shape[0]))
    # A cost that overflows stays inf; the transport solver rejects it.
    with np.errstate(over="ignore"):
        for j in range(a.shape[1]):
            d = a[:, j, None] - b[None, :, j]
            out += d * d
    return out


def sinkhorn_divergence(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Debiased entropic transport distance, square-root scale.

    Computes the divergence on the squared-cost scale,
    ot(Y, Yhat) - ot(Y, Y)/2 - ot(Yhat, Yhat)/2, then reports
    sqrt(max(., 0)) so magnitudes are comparable to a Euclidean distance.
    """
    y, y_hat = _two_samples(y, y_hat)
    eps, iters, tol = SINKHORN_EPSILON, SINKHORN_MAX_ITERS, SINKHORN_TOL
    cross = _entropic_ot_value(_sq_dists(y, y_hat), eps, iters, tol)
    self_y = _entropic_ot_value(_sq_dists(y, y), eps, iters, tol)
    self_h = _entropic_ot_value(_sq_dists(y_hat, y_hat), eps, iters, tol)
    return math.sqrt(max(cross - 0.5 * self_y - 0.5 * self_h, 0.0))


# -- kernel two-sample distance --------------------------------------------


def mmd_rbf(y: np.ndarray, y_hat: np.ndarray) -> float:
    """RBF-kernel MMD, biased V-statistic, averaged over the length scales.

    Returns sqrt(mean_gamma MMD^2(gamma)); the biased estimator is
    non-negative and exactly zero for identical inputs.
    """
    y, y_hat = _two_samples(y, y_hat)
    d_yy = _sq_dists(y, y)
    d_hh = _sq_dists(y_hat, y_hat)
    d_yh = _sq_dists(y, y_hat)
    total = 0.0
    for gamma in MMD_GAMMAS:
        mmd2 = (
            np.exp(-gamma * d_yy).mean()
            + np.exp(-gamma * d_hh).mean()
            - 2.0 * np.exp(-gamma * d_yh).mean()
        )
        total += max(float(mmd2), 0.0)
    return math.sqrt(total / len(MMD_GAMMAS))


# -- moment and ranking metrics --------------------------------------------


def rmse_means(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Root mean squared error between the per-gene means."""
    y, y_hat = _two_samples(y, y_hat)
    return float(np.sqrt(np.mean((y_hat.mean(axis=0) - y.mean(axis=0)) ** 2)))


def transposed_rank(predicted_means: np.ndarray, observed_means: np.ndarray) -> float:
    """Mean over conditions i of the fraction of non-matching observed means
    at least as close (Euclidean, ties count) to prediction i as its matched
    observed mean."""
    pred, obs = _two_samples(predicted_means, observed_means)
    p = pred.shape[0]
    if obs.shape[0] != p or p < 2:
        raise InvalidArgumentError("transposed rank needs two or more aligned conditions")
    dists = np.sqrt(_sq_dists(pred, obs))
    matched = np.diag(dists)
    closer = dists <= matched[:, None]
    np.fill_diagonal(closer, False)
    return float((closer.sum(axis=1) / (p - 1)).mean())


def magnitude_ratio(y_obs: np.ndarray, y_int: np.ndarray, y_hat: np.ndarray) -> float:
    """Predicted effect size over true effect size, both measured as
    transport distances from the observational sample."""
    denominator = sinkhorn_divergence(y_obs, y_int)
    if denominator < 1e-9:
        raise DegenerateEffectError(
            "observational and interventional samples are indistinguishable"
        )
    return sinkhorn_divergence(y_obs, y_hat) / denominator


def variance_correlation(y_int: np.ndarray, y_hat: np.ndarray) -> float:
    """Pearson correlation between the per-gene sample variances."""
    y_int, y_hat = _two_samples(y_int, y_hat)
    if len(y_int) < 2 or len(y_hat) < 2:
        raise InvalidArgumentError("sample variances need at least two cells per sample")
    if y_int.shape[1] < 2:
        raise InvalidArgumentError("variance correlation needs at least two genes")
    v_int = y_int.var(axis=0, ddof=1)
    v_hat = y_hat.var(axis=0, ddof=1)
    if np.ptp(v_int) == 0.0 or np.ptp(v_hat) == 0.0:
        raise UndefinedCorrelationError("a variance vector is constant")
    return float(np.corrcoef(v_int, v_hat)[0, 1])


# -- differential expression -------------------------------------------------

def _two_sided_p(z: np.ndarray) -> np.ndarray:
    """2 P(Z <= -z) per element, as ``math.erfc(z / sqrt(2))``: scipy's
    ``2 * ndtr(-z)`` within a few ulps.  z is scaled by sqrt(1/2), as cephes'
    ndtr scales it; dividing by sqrt(2) rounds differently, up to 1.5e-14
    relative off scipy's p instead of 3.8e-15."""
    return np.array([math.erfc(v * _SQRT1_2) for v in z.tolist()])


def _rank_sum_pvalues(y_ref: np.ndarray, y_alt: np.ndarray) -> np.ndarray:
    """Per-gene two-sided rank-sum p-values, as ``scipy.stats.mannwhitneyu(
    y_ref, y_alt, axis=0, method="asymptotic")`` computes them up to the
    normal tail (``_two_sided_p``): mid-ranks, tie-corrected variance and a
    continuity correction.  All-tied genes get p = 1.  Ranks and tie counts
    are half-integers and integers, so their sums are exact in any order."""
    n1, n2 = len(y_ref), len(y_alt)
    n = n1 + n2
    xy = np.concatenate((y_ref, y_alt)).T  # genes first
    order = np.argsort(xy, axis=-1, kind="stable")
    ys = np.take_along_axis(xy, order, axis=-1)
    first = np.ones(xy.shape, dtype=bool)  # each tie group's first sorted position
    first[:, 1:] = ys[:, :-1] != ys[:, 1:]
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=xy.size)
    mid_ranks = np.repeat(starts % n + (counts + 1) / 2, counts).reshape(xy.shape)
    t = np.zeros(xy.shape)
    t[first] = counts
    r1 = np.where(order < n1, mid_ranks, 0.0).sum(axis=-1)
    u1 = r1 - n1 * (n1 + 1) / 2
    u = np.maximum(u1, n1 * n2 - u1)
    tie_term = np.sum(t**3 - t, axis=-1)
    s = np.sqrt(n1 * n2 / 12 * ((n + 1) - tie_term / (n * (n - 1))))
    numerator = u - n1 * n2 / 2
    numerator -= 0.5
    with np.errstate(divide="ignore", invalid="ignore"):  # s = 0 gives z = -inf
        z = numerator / s
    return np.clip(_two_sided_p(z), 0.0, 1.0)


def _bh_adjust(p: np.ndarray) -> np.ndarray:
    """Benjamini-Hochberg adjusted p-values, as
    ``scipy.stats.false_discovery_control(p, method="bh")`` computes them."""
    m = len(p)
    if m <= 1:
        return p
    order = np.argsort(p)
    adjusted = p[order] * (m / np.arange(1, m + 1, dtype=float))
    np.minimum.accumulate(adjusted[::-1], out=adjusted[::-1])
    restored = np.empty_like(adjusted)
    restored[order] = adjusted
    return np.clip(restored, 0.0, 1.0)


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
    y_ref, y_alt = _two_samples(y_ref, y_alt)
    # scipy's two-sided asymptotic Mann-Whitney U test and BH correction,
    # ported (test_deg_port_equals_scipy_bit_for_bit).
    padj = _bh_adjust(_rank_sum_pvalues(y_ref, y_alt))
    neglog = -np.log10(np.maximum(padj, _P_FLOOR))
    mu_ref = np.maximum(y_ref.mean(axis=0), 0.0) + _LOG_FC_PSEUDOCOUNT
    mu_alt = np.maximum(y_alt.mean(axis=0), 0.0) + _LOG_FC_PSEUDOCOUNT
    return DegStats(neglog10_p=neglog, log2_fold_change=np.log2(mu_alt / mu_ref))


def deg_labels(y_obs: np.ndarray, y_int: np.ndarray) -> tuple[np.ndarray, DegStats]:
    """Ground-truth differential-expression labels.

    A gene is differentially expressed when the adjusted significance
    exceeds DEG_TAU_P and the absolute log2 fold-change exceeds DEG_TAU_L.
    """
    stats = deg_stats(y_obs, y_int)
    labels = (stats.neglog10_p > DEG_TAU_P) & (np.abs(stats.log2_fold_change) > DEG_TAU_L)
    return labels.astype(int), stats


def deg_scores(y_obs: np.ndarray, y_hat: np.ndarray) -> np.ndarray:
    """Ranking scores |log2 fold-change| gated by predicted significance."""
    stats = deg_stats(y_obs, y_hat)
    return np.abs(stats.log2_fold_change) * (stats.neglog10_p > DEG_TAU_P)


@dataclass(frozen=True)
class PrCurve:
    recalls: np.ndarray
    precisions: np.ndarray
    auprc: float
    baseline_rate: float  # positives / total, the random-ranking AUPRC


def auprc_curve(scores: np.ndarray, labels: np.ndarray) -> PrCurve:
    """Precision-recall sweep over the distinct score values.

    Genes enter in descending score order, tied genes together: one point
    per distinct score, predicting the genes that score at least that much.
    The area is the rectangular integral over recall, summed left to right.
    Labels are 0 or 1, as numbers or booleans.
    """
    scores = np.asarray(scores, dtype=float).ravel()
    labels = np.asarray(labels).ravel()
    if scores.shape != labels.shape:
        raise InvalidArgumentError("scores and labels must align")
    if not np.all((labels == 0) | (labels == 1)):
        raise InvalidArgumentError("labels must be 0 or 1")
    if not np.all(np.isfinite(scores)):
        raise InvalidArgumentError("scores must be finite")
    positives = int(labels.sum())
    if positives == 0:
        raise UndefinedMetricError("no positive labels; AUPRC is undefined")

    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    # The last rank of each tied block, where the next score is lower.
    ends = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    tp = np.cumsum(labels[order])[ends]
    recalls = tp / positives
    precisions = tp / (ends + 1)
    auprc = float(np.cumsum(np.diff(recalls, prepend=0.0) * precisions)[-1])
    return PrCurve(recalls=recalls, precisions=precisions, auprc=auprc, baseline_rate=positives / labels.size)

"""Differential-expression outputs pinned to a stored fixture.

``data/deg_fixture.json`` holds the outputs of ``deg_stats``, ``deg_labels``,
``deg_scores`` and ``auprc_curve`` on the inputs built by :func:`deg_cases`.
It was written by the hand-written rank-sum test and BH correction (commit
46b22aa), before both moved to scipy.  The current code is a numpy port of
scipy's arithmetic (``test_deg_port_equals_scipy_bit_for_bit`` in
``test_metrics.py`` pins it to scipy), so the fixture stays an independent
check and must not be regenerated from the current code.  Significances
and fold-changes must agree to 1e-12 and labels exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from pertmap import metrics

FIXTURE = Path(__file__).parent / "data" / "deg_fixture.json"
TOL = 1e-12


def deg_cases() -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Named (y_ref, y_alt, y_hat) triples.

    SCM-like cases are standardized continuous data with shifted genes, a
    clamped (constant) column and a rounded column full of ties.  GRN-like
    cases are log-normalized counts with all-zero genes, a knocked-out
    gene, many zeros and unequal batch sizes.
    """
    cases = {}
    for name, n_ref, n_alt, seed in (("scm_64", 64, 64, 1), ("scm_unequal", 30, 17, 2)):
        rng = np.random.default_rng(seed)
        shift = np.array([0.0, 0.3, 1.0, -2.0, 0.0, 0.1])
        y_ref = rng.standard_normal((n_ref, 6))
        y_alt = rng.standard_normal((n_alt, 6)) + shift
        y_alt[:, 4] = 0.9  # clamped intervention column
        y_ref[:, 5] = np.round(y_ref[:, 5], 1)
        y_alt[:, 5] = np.round(y_alt[:, 5], 1)
        y_hat = rng.standard_normal((n_alt, 6)) + 0.8 * shift
        cases[name] = (y_ref, y_alt, y_hat)
    for name, n_ref, n_alt, genes, seed in (("grn_20", 20, 20, 8, 3), ("grn_200", 200, 150, 10, 4)):
        rng = np.random.default_rng(seed)
        rates = rng.uniform(0.05, 4.0, size=genes)
        rates[0] = 0.0  # never expressed
        fold = np.ones(genes)
        fold[2:5] = (0.0, 0.2, 3.0)  # gene 2 knocked out
        y_ref = np.log2(1.0 + rng.poisson(rates, size=(n_ref, genes)))
        y_alt = np.log2(1.0 + rng.poisson(rates * fold, size=(n_alt, genes)))
        y_hat = np.log2(1.0 + rng.poisson(rates * np.sqrt(fold), size=(n_alt, genes)))
        cases[name] = (y_ref, y_alt, y_hat)
    return cases


def deg_outputs(y_ref: np.ndarray, y_alt: np.ndarray, y_hat: np.ndarray) -> dict[str, list]:
    stats = metrics.deg_stats(y_ref, y_alt)
    labels, _ = metrics.deg_labels(y_ref, y_alt)
    scores = metrics.deg_scores(y_ref, y_hat)
    curve = metrics.auprc_curve(scores, labels)
    return {
        "neglog10_p": stats.neglog10_p.tolist(),
        "log2_fold_change": stats.log2_fold_change.tolist(),
        "labels": labels.tolist(),
        "scores": scores.tolist(),
        "recalls": curve.recalls.tolist(),
        "precisions": curve.precisions.tolist(),
        "auprc": [curve.auprc],
        "baseline_rate": [curve.baseline_rate],
    }


@pytest.mark.parametrize("name", sorted(deg_cases()))
def test_deg_outputs_match_fixture(name):
    expected = json.loads(FIXTURE.read_text())[name]
    got = deg_outputs(*deg_cases()[name])
    assert got["labels"] == expected["labels"]
    assert sum(got["labels"]) > 0  # the AUPRC is defined and compared
    for key in expected:
        assert len(got[key]) == len(expected[key]), key
        np.testing.assert_allclose(got[key], expected[key], rtol=0, atol=TOL, err_msg=key)

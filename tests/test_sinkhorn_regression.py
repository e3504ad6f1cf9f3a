"""Sinkhorn divergence and magnitude ratio pinned to a stored fixture.

``data/sinkhorn_fixture.json`` holds the outputs of ``sinkhorn_divergence``
and ``magnitude_ratio`` on the inputs built by :func:`sinkhorn_cases`: the
value, or the name of the error class raised.  It was written by the
log-domain solver (commit 8a0aaa6), before the solver moved to the scaling
domain, so it must not be regenerated from the current code.  Values must
agree within 1e-12 relative, and the same inputs must raise the same class.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from pertmap import datasets, errors, metrics
from pertmap.metrics import MetricConfig

FIXTURE = Path(__file__).parent / "data" / "sinkhorn_fixture.json"
RTOL = 1e-12
CELLS = 32


def sinkhorn_cases() -> dict[str, tuple[str, tuple[np.ndarray, ...], dict]]:
    """Named (metric, inputs, MetricConfig overrides) triples.

    Each prior contributes observational, interventional and mixture pairs
    at 32 cells, the size the benchmark compares.  The mixture is the
    equal mixture of two other interventions, interleaved row by row.  The
    ``_small_eps`` cases are solved at a smaller regularization than the
    default.  The ``_budget`` cases leave the final epsilon stage a budget
    it cannot converge in.  The observational pair's cross term takes
    ``iters`` iterations in all (its self terms fewer), so ``_exact_budget``
    converges on its last allowed iteration and ``_one_short`` fails: the
    pair pins the iteration count, not only the value.
    """
    cases = {}
    for prefix, ds, iters in (
        ("scm", datasets.generate_scm_dataset(1, 6, CELLS, base_seed=11), 2074),
        ("grn", datasets.generate_grn_dataset(1, 6, CELLS, base_seed=5), 4455),
    ):
        y_obs = ds.observational[0]
        y_int = ds.interventional[(0, 0)]
        y_alt = ds.interventional[(0, 1)]
        y_mix = np.stack([ds.interventional[(0, 2)], ds.interventional[(0, 3)]], axis=1).reshape(-1, ds.d)[:CELLS]
        cases[f"{prefix}_obs_int"] = ("sinkhorn_divergence", (y_int, y_obs), {})
        cases[f"{prefix}_int_int"] = ("sinkhorn_divergence", (y_int, y_alt), {})
        cases[f"{prefix}_int_mix"] = ("sinkhorn_divergence", (y_int, y_mix), {})
        cases[f"{prefix}_obs_mix"] = ("sinkhorn_divergence", (y_mix, y_obs), {})
        cases[f"{prefix}_magnitude_mix"] = ("magnitude_ratio", (y_obs, y_int, y_mix), {})
        cases[f"{prefix}_magnitude_alt"] = ("magnitude_ratio", (y_obs, y_int, y_alt), {})
        cases[f"{prefix}_small_eps"] = ("sinkhorn_divergence", (y_int, y_mix), {"sinkhorn_epsilon": 0.05})
        cases[f"{prefix}_budget"] = ("sinkhorn_divergence", (y_int, y_obs), {"sinkhorn_max_iters": 100})
        cases[f"{prefix}_exact_budget"] = ("sinkhorn_divergence", (y_int, y_obs), {"sinkhorn_max_iters": iters})
        cases[f"{prefix}_one_short"] = ("sinkhorn_divergence", (y_int, y_obs), {"sinkhorn_max_iters": iters - 1})
    return cases


def run_case(metric: str, inputs: tuple[np.ndarray, ...], overrides: dict) -> dict:
    try:
        return {"value": getattr(metrics, metric)(*inputs, MetricConfig(**overrides))}
    except errors.PertmapError as exc:
        return {"error": type(exc).__name__}


@pytest.fixture(scope="module")
def cases():
    return sinkhorn_cases()


def test_fixture_covers_values_and_a_failure(cases):
    expected = json.loads(FIXTURE.read_text())
    assert sorted(expected) == sorted(cases)
    assert any("error" in out for out in expected.values())
    assert sum("value" in out for out in expected.values()) >= 12


@pytest.mark.parametrize("name", sorted(json.loads(FIXTURE.read_text())))
def test_sinkhorn_outputs_match_fixture(name, cases):
    expected = json.loads(FIXTURE.read_text())[name]
    got = run_case(*cases[name])
    if "error" in expected:
        assert got == expected
    else:
        assert "value" in got, got
        assert got["value"] == pytest.approx(expected["value"], rel=RTOL, abs=0)

"""The transformer's values pinned to a stored fixture.

``data/model_fixture.npz`` holds, under the keys of :func:`model_cases`, at
a micro width in float64: the velocity ``forward`` predicts with the
condition given and dropped, with 0 and 2 register tokens, and the loss of
``cfm_loss`` on a lone bundle and on a stack of 3, each with the whole
``params.grad`` buffer after its backward.  It was written by commit
7aa4f2c, where a lone bundle ran without a bundle axis and a dedicated tape
primitive repeated the registers and the null token once per bundle, before
a lone bundle became a stack of one, so it must not be regenerated from the
current code.  Every array must agree within 1e-10 relative, with an
absolute floor of 1e-12 times the array's largest magnitude; float64 keeps
that margin across BLAS builds and NumPy releases.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from pertmap import model as mdl
from pertmap import training as tr
from pertmap.model import ExperimentBundle, ModelConfig

FIXTURE = Path(__file__).parent / "data" / "model_fixture.npz"
RTOL = 1e-10
ATOL_SCALE = 1e-12
GENES, QUERIES, STACK = 4, 5, 3


def _config(register_tokens: int) -> ModelConfig:
    return ModelConfig(
        layers=2, embed_dim=8, ff_dim=16, heads=2, head_dim=4,
        register_tokens=register_tokens, max_genes=GENES, max_context=3,
    )


def _params(cfg: ModelConfig):
    """Nonzero float64 weights everywhere: the zero-initialized FiLM and
    readout projections would hide most of the graph."""
    params = mdl.build_model(cfg, seed=0, dtype=np.float64)
    params.values[...] = np.random.default_rng(41).standard_normal(params.values.size) * 0.3
    return params


def _bundle(rng: np.random.Generator) -> ExperimentBundle:
    context = tuple(
        (np.eye(GENES)[j] * rng.uniform(0.5, 1.5), rng.standard_normal((6, GENES))) for j in (2, 0)
    )
    return ExperimentBundle(
        y_obs=rng.standard_normal((7, GENES)),
        context=context,
        query_code=np.eye(GENES)[1] * 0.8,
        target=rng.standard_normal((QUERIES, GENES)),
        context_slots=(2, 0),
    )


def model_cases() -> dict[str, np.ndarray]:
    """Named outputs of ``forward`` and ``cfm_loss``, and the gradients."""
    out = {}
    for registers in (0, 2):
        cfg = _config(registers)
        params = _params(cfg)
        rng = np.random.default_rng(97 + registers)
        bundles = [_bundle(rng) for _ in range(STACK)]
        y_tau = rng.standard_normal((QUERIES, GENES))
        y0 = rng.standard_normal((STACK, QUERIES, GENES))
        taus = [0.37, 0.81, 0.05]
        for drop in (False, True):
            name = f"r{registers}_{'dropped' if drop else 'conditioned'}"
            out[f"{name}.forward"] = mdl.forward(params, cfg, y_tau, 0.62, bundles[0], drop).data
            params.zero_grads()
            loss = tr.cfm_loss(params, cfg, bundles[0], taus[0], y0[0], drop)
            loss.backward()
            out[f"{name}.lone_loss"] = loss.data
            out[f"{name}.lone_grad"] = params.grad.copy()
            params.zero_grads()
            loss = tr.cfm_loss(params, cfg, bundles, taus, y0, drop)
            loss.backward()
            out[f"{name}.stack_loss"] = loss.data
            out[f"{name}.stack_grad"] = params.grad.copy()
    return out


@pytest.fixture(scope="module")
def expected():
    with np.load(FIXTURE) as archive:
        return {key: archive[key] for key in archive.files}


def test_model_outputs_and_gradients_match_fixture(expected):
    got = model_cases()
    assert sorted(got) == sorted(expected)
    for key, value in got.items():
        want = expected[key]
        assert value.shape == want.shape, key
        np.testing.assert_allclose(
            value, want, rtol=RTOL, atol=ATOL_SCALE * float(np.abs(want).max()), err_msg=key
        )

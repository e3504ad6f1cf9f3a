"""Linear-SCM prior pinned to a stored fixture.

``data/scm_fixture.npz`` holds every batch and treatment code of the
datasets built by :func:`scm_cases`, under the keys of :func:`arrays`.  It
was written by commit 5f46a44, whose samplers took a ``WeightedDag``,
standardized inside ``pertmap.scm`` and paired treatments by passing a copy
of the observational noise matrix, before the model became a bare weight
array and pairing became reuse of the observational seed.  It must not be
regenerated from the current code.  Its paired datasets are no longer
generated (the generators lost pairing); every array of its unpaired ones
must agree within 1e-12 relative.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from pertmap import datasets

FIXTURE = Path(__file__).parent / "data" / "scm_fixture.npz"
RTOL = 1e-12
CASES = ((4, 10, 2, 5), (15, 7, 1, 21))  # (nodes, samples, contexts, base seed)


def scm_cases() -> dict[str, datasets.PerturbationDataset]:
    """Datasets at 4 and 15 nodes, named as the fixture's unpaired ones."""
    return {
        f"d{d}_unpaired": datasets.generate_scm_dataset(contexts, d, n, base_seed=seed)
        for d, n, contexts, seed in CASES
    }


def arrays(name: str, ds: datasets.PerturbationDataset) -> dict[str, np.ndarray]:
    out = {f"{name}.obs.{c}": y for c, y in ds.observational.items()}
    out.update({f"{name}.int.{c}.{t}": y for (c, t), y in ds.interventional.items()})
    out.update({f"{name}.code.{c}.{t}": code for (c, t), code in ds.treatment_codes.items()})
    return out


@pytest.fixture(scope="module")
def expected():
    with np.load(FIXTURE) as archive:
        return {key: archive[key] for key in archive.files if key.split(".")[0].endswith("_unpaired")}


def test_scm_datasets_match_fixture(expected):
    got = {}
    for name, ds in scm_cases().items():
        got.update(arrays(name, ds))
    assert sorted(got) == sorted(expected)
    for key, y in got.items():
        np.testing.assert_allclose(y, expected[key], rtol=RTOL, atol=0, err_msg=key)

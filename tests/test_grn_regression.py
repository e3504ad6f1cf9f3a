"""Regulatory-network prior pinned to a stored fixture.

``data/grn_fixture.npz`` holds every batch of the datasets built by
:func:`grn_cases`, under the keys of :func:`batches`.  It was written by
commit d38e5eb, which stored a network as a tuple of edge records and
computed half-responses by a recursion in topological order, before both
moved to edge arrays and a closed form, so it must not be regenerated from
the current code.  Its paired datasets are no longer generated (the
generators lost pairing); every batch of its unpaired ones must agree
within 1e-12 relative.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from pertmap import datasets
from pertmap import grn as grnmod
from pertmap.seeding import ROLE_STRUCTURE, mix_seed

FIXTURE = Path(__file__).parent / "data" / "grn_fixture.npz"
RTOL = 1e-12
CELLS = 8
CASES = ((6, 3), (25, 4))  # (genes, base seed), one context each


def grn_cases() -> dict[str, datasets.PerturbationDataset]:
    """Single-context datasets at 6 and 25 genes, named as the fixture's
    unpaired ones."""
    return {
        f"g{genes}_unpaired": datasets.generate_grn_dataset(1, genes, CELLS, base_seed=seed) for genes, seed in CASES
    }


def batches(name: str, ds: datasets.PerturbationDataset) -> dict[str, np.ndarray]:
    out = {f"{name}.obs.{c}": y for c, y in ds.observational.items()}
    out.update({f"{name}.int.{c}.{t}": y for (c, t), y in ds.interventional.items()})
    return out


@pytest.fixture(scope="module")
def expected():
    with np.load(FIXTURE) as archive:
        return {key: archive[key] for key in archive.files if key.split(".")[0].endswith("_unpaired")}


def test_grn_datasets_match_fixture(expected):
    got = {}
    for name, ds in grn_cases().items():
        got.update(batches(name, ds))
    assert sorted(got) == sorted(expected)
    for key, y in got.items():
        np.testing.assert_allclose(y, expected[key], rtol=RTOL, atol=0, err_msg=key)


def test_fixture_networks_exercise_cycle_breaking():
    # Both networks are drawn with cycles, so the fixture pins the edges
    # that break_cycles deletes and the order of those it keeps.
    for genes, seed in CASES:
        rng = np.random.default_rng(mix_seed(seed, 0, 0, ROLE_STRUCTURE))
        cfg = grnmod.sample_grn_config(genes, rng)
        grnmod.sample_sergio_config(rng)
        raw = grnmod.sample_grn(cfg, rng)
        assert grnmod.break_cycles(raw).targets.size < raw.targets.size

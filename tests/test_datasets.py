"""Dataset generation contracts: the worker count never changes the data."""

from __future__ import annotations

import numpy as np

from pertmap import datasets


def _assert_identical(a: datasets.PerturbationDataset, b: datasets.PerturbationDataset) -> None:
    assert sorted(a.observational) == sorted(b.observational)
    assert sorted(a.interventional) == sorted(b.interventional)
    for c in a.observational:
        assert np.array_equal(a.observational[c], b.observational[c])
    for key in a.interventional:
        assert np.array_equal(a.interventional[key], b.interventional[key])
        assert np.array_equal(a.treatment_codes[key], b.treatment_codes[key])


def test_scm_dataset_is_worker_count_invariant():
    for paired in (False, True):
        serial = datasets.generate_scm_dataset(5, 6, 32, paired=paired, base_seed=3, workers=1)
        parallel = datasets.generate_scm_dataset(5, 6, 32, paired=paired, base_seed=3, workers=2)
        _assert_identical(serial, parallel)


def test_grn_dataset_is_worker_count_invariant():
    serial = datasets.generate_grn_dataset(2, 4, 20, base_seed=5, workers=1)
    parallel = datasets.generate_grn_dataset(2, 4, 20, base_seed=5, workers=2)
    _assert_identical(serial, parallel)

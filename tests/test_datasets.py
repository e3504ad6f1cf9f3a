"""Dataset generation contracts: the worker count never changes the data,
and loading rejects a malformed dataset directory."""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from pertmap import datasets, scm
from pertmap.errors import InvalidArgumentError
from pertmap.seeding import ROLE_STRUCTURE, mix_seed


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


def _saved(tmp_path):
    """A saved 1-context SCM dataset and its manifest as a dict."""
    datasets.save_dataset(datasets.generate_scm_dataset(1, 3, 8, base_seed=4), tmp_path)
    return json.loads((tmp_path / "manifest.json").read_text())


def _rewrite(tmp_path, manifest):
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))


def test_manifest_that_is_not_json_is_rejected(tmp_path):
    _saved(tmp_path)
    (tmp_path / "manifest.json").write_text("{not json")
    with pytest.raises(InvalidArgumentError):
        datasets.load_dataset(tmp_path)


def test_manifest_with_another_format_is_rejected(tmp_path):
    manifest = _saved(tmp_path)
    manifest["format"] = 2
    _rewrite(tmp_path, manifest)
    with pytest.raises(InvalidArgumentError):
        datasets.load_dataset(tmp_path)


@pytest.mark.parametrize("key", ["kind", "conditions"])
def test_manifest_missing_a_key_is_rejected(tmp_path, key):
    manifest = _saved(tmp_path)
    del manifest[key]
    _rewrite(tmp_path, manifest)
    with pytest.raises(InvalidArgumentError):
        datasets.load_dataset(tmp_path)


def test_entry_missing_its_file_is_rejected(tmp_path):
    manifest = _saved(tmp_path)
    del manifest["conditions"][1]["file"]
    _rewrite(tmp_path, manifest)
    with pytest.raises(InvalidArgumentError):
        datasets.load_dataset(tmp_path)


def test_entry_with_an_unknown_kind_is_rejected(tmp_path):
    manifest = _saved(tmp_path)
    manifest["conditions"][1]["kind"] = "ctrl"
    _rewrite(tmp_path, manifest)
    with pytest.raises(InvalidArgumentError):
        datasets.load_dataset(tmp_path)


def test_interventional_file_listed_as_obs_is_rejected(tmp_path):
    manifest = _saved(tmp_path)
    entry = manifest["conditions"][1]
    assert entry["kind"] == "int"
    entry["kind"] = "obs"
    _rewrite(tmp_path, manifest)
    with pytest.raises(InvalidArgumentError):
        datasets.load_dataset(tmp_path)


@pytest.mark.parametrize("name", ["../ctx00000_obs.bin", "sub/ctx00000_obs.bin", "..", ""])
def test_entry_file_outside_the_directory_is_rejected(tmp_path, name):
    manifest = _saved(tmp_path / "ds")
    # Valid batch files wait at both escaped paths.
    (tmp_path / "ds" / "sub").mkdir()
    for copy in (tmp_path / "ctx00000_obs.bin", tmp_path / "ds" / "sub" / "ctx00000_obs.bin"):
        shutil.copy(tmp_path / "ds" / "ctx00000_obs.bin", copy)
    manifest["conditions"][0]["file"] = name
    _rewrite(tmp_path / "ds", manifest)
    with pytest.raises(InvalidArgumentError):
        datasets.load_dataset(tmp_path / "ds")


@pytest.mark.parametrize("key", ["d", "n"])
def test_manifest_size_that_disagrees_with_the_files_is_rejected(tmp_path, key):
    manifest = _saved(tmp_path)
    manifest[key] += 1
    _rewrite(tmp_path, manifest)
    with pytest.raises(InvalidArgumentError):
        datasets.load_dataset(tmp_path)


@pytest.mark.parametrize(
    "key, value",
    [("d", "abc"), ("d", None), ("n", 8.9), ("base_seed", [1]), ("base_seed", True), ("paired", "no")],
)
def test_manifest_value_of_the_wrong_type_is_rejected(tmp_path, key, value):
    manifest = _saved(tmp_path)
    manifest[key] = value
    _rewrite(tmp_path, manifest)
    with pytest.raises(InvalidArgumentError):
        datasets.load_dataset(tmp_path)


@pytest.mark.parametrize(
    "index, key, value",
    [(0, "context", [0]), (1, "context", True), (1, "treatment", [0]), (1, "treatment", "0"), (1, "treatment", None)],
)
def test_entry_value_of_the_wrong_type_is_rejected(tmp_path, index, key, value):
    manifest = _saved(tmp_path)
    manifest["conditions"][index][key] = value
    _rewrite(tmp_path, manifest)
    with pytest.raises(InvalidArgumentError):
        datasets.load_dataset(tmp_path)


@pytest.mark.parametrize("index", [0, 1])
def test_entry_listed_twice_is_rejected(tmp_path, index):
    manifest = _saved(tmp_path)
    manifest["conditions"].append(dict(manifest["conditions"][index]))
    _rewrite(tmp_path, manifest)
    with pytest.raises(InvalidArgumentError):
        datasets.load_dataset(tmp_path)


def test_context_without_an_observational_batch_is_rejected(tmp_path):
    manifest = _saved(tmp_path)
    assert manifest["conditions"][0]["kind"] == "obs"
    del manifest["conditions"][0]
    _rewrite(tmp_path, manifest)
    with pytest.raises(InvalidArgumentError):
        datasets.load_dataset(tmp_path)


def test_manifest_entries_with_a_seed_still_load(tmp_path):
    # Earlier versions wrote an unread per-entry "seed".
    manifest = _saved(tmp_path)
    expected = datasets.load_dataset(tmp_path)
    for i, entry in enumerate(manifest["conditions"]):
        entry["seed"] = 1000 + i
    _rewrite(tmp_path, manifest)
    _assert_identical(datasets.load_dataset(tmp_path), expected)


def test_paired_scm_dataset_changes_only_the_treated_gene_and_its_descendants():
    for base_seed in range(20):
        paired = datasets.generate_scm_dataset(3, 6, 40, paired=True, base_seed=base_seed)
        unpaired = datasets.generate_scm_dataset(3, 6, 40, paired=False, base_seed=base_seed)
        for (c, t), batch in paired.interventional.items():
            dag = scm.sample_dag(6, 0.5, np.random.default_rng(mix_seed(base_seed, c, 0, ROLE_STRUCTURE)))
            rest = sorted(set(range(6)) - {t} - scm.descendants(dag, t))
            assert np.array_equal(batch[:, rest], paired.observational[c][:, rest])
            diff = unpaired.interventional[(c, t)][:, rest] - unpaired.observational[c][:, rest]
            assert np.all(np.abs(diff).max(axis=0) > 0.5)

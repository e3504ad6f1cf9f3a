"""Dataset generation contracts: the worker count never changes GRN data,
loading rejects a malformed dataset archive, and the bundle sampler rejects
bad arguments."""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from helpers import edit_archive
from pertmap import datasets, grn, scm
from pertmap.errors import InvalidArgumentError, NumericalFailureError
from pertmap.seeding import ROLE_STRUCTURE, mix_seed


def _assert_identical(a: datasets.PerturbationDataset, b: datasets.PerturbationDataset) -> None:
    assert sorted(a.observational) == sorted(b.observational)
    assert sorted(a.interventional) == sorted(b.interventional)
    for c in a.observational:
        assert np.array_equal(a.observational[c], b.observational[c])
    for key in a.interventional:
        assert np.array_equal(a.interventional[key], b.interventional[key])
        assert np.array_equal(a.treatment_codes[key], b.treatment_codes[key])


def test_grn_dataset_is_worker_count_invariant():
    # None is one worker per usable core; one context over three workers
    # splits its conditions across processes; three contexts over two
    # workers do not split evenly by context.
    for paired in (False, True):
        serial = {n: datasets.generate_grn_dataset(n, 4, 20, paired=paired, base_seed=5, workers=1) for n in (1, 2, 3)}
        for n_contexts, workers in ((2, 2), (2, None), (1, 3), (3, 2)):
            parallel = datasets.generate_grn_dataset(n_contexts, 4, 20, paired=paired, base_seed=5, workers=workers)
            _assert_identical(serial[n_contexts], parallel)
    assert multiprocessing.active_children() == []


_SPAWN_SCRIPT = """
import multiprocessing
import pickle
import sys

from pertmap import datasets

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    ds = datasets.generate_grn_dataset(2, 4, 12, base_seed=5, workers=2)
    with open(sys.argv[1], "wb") as f:
        pickle.dump(ds, f)
"""


def test_grn_dataset_is_the_same_under_spawn(tmp_path):
    # The only test of a start method other than fork: spawned workers
    # import the package afresh and receive every job pickled.
    script, out = tmp_path / "spawn_grn.py", tmp_path / "ds.pkl"
    script.write_text(_SPAWN_SCRIPT)
    src = str(Path(datasets.__file__).parents[1])
    env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, str(script), str(out)], env=env, check=True, timeout=300)
    with open(out, "rb") as f:
        spawned = pickle.load(f)
    _assert_identical(datasets.generate_grn_dataset(2, 4, 12, base_seed=5, workers=1), spawned)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(genes=1),
        dict(n_cells=0),
        dict(n_cells=2.5),
        dict(n_contexts=0),
        dict(workers=0),
        dict(workers=2.5),
        dict(paired=1),
        dict(paired="yes"),
        dict(paired=None),
    ],
    ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()),
)
def test_grn_dataset_checks_arguments_before_starting_workers(monkeypatch, kwargs):
    # n_cells was checked only by simulate_expression and genes only by the
    # context job's GrnConfig, so under a pool both were raised in a worker.
    # A paired flag that is not a bool was generated and saved, and then
    # load_dataset rejected the file.
    def no_pool(*_, **__):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(datasets, "ProcessPoolExecutor", no_pool)
    (name,) = kwargs
    with pytest.raises(InvalidArgumentError, match=name):
        datasets.generate_grn_dataset(**(dict(n_contexts=1, genes=4, n_cells=5, workers=2) | kwargs))


def test_grn_dataset_raises_a_worker_failure_and_stops_its_workers(monkeypatch):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("a patch of the parent reaches only forked workers")

    def diverge(*_, **__):
        raise NumericalFailureError("non-finite expression state at step 7")

    monkeypatch.setattr(grn, "simulate_expression", diverge)
    with pytest.raises(NumericalFailureError, match="at step 7"):
        datasets.generate_grn_dataset(2, 4, 5, workers=2)
    assert multiprocessing.active_children() == []


def test_scm_dataset_needs_two_samples():
    # One sample has no sample variance to rescale its columns by.
    with pytest.raises(InvalidArgumentError, match="two samples"):
        datasets.generate_scm_dataset(1, 3, 1)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_median_count_log_normalize_rejects_non_finite_counts(value):
    with pytest.raises(InvalidArgumentError, match="finite"):
        datasets.median_count_log_normalize(np.array([[1.0, 2.0], [value, 0.0]]))


def test_grn_knockout_columns_are_exactly_zero():
    # A knocked-out gene has no production, so its column stays at the
    # zero start state through the burn-in, the noise chain and log-normalizing.
    for base_seed in (7, 8211):
        for paired in (False, True):
            ds = datasets.generate_grn_dataset(2, 6, 16, paired=paired, base_seed=base_seed)
            assert len(ds.interventional) == 2 * 6
            for (_, t), batch in ds.interventional.items():
                assert np.all(batch[:, t] == 0.0), (base_seed, paired, t)


# The manifest is the dataset archive's JSON header: it lists the contexts
# and the [context, treatment] conditions whose batches the members stack.


def _saved(tmp_path):
    """A saved 1-context SCM dataset and its manifest as a dict."""
    datasets.save_dataset(datasets.generate_scm_dataset(1, 3, 8, base_seed=4), tmp_path)
    with np.load(tmp_path / datasets.DATASET_FILE) as archive:
        return json.loads(str(archive["header"]))


def _edit_members(tmp_path, edit):
    edit_archive(tmp_path / datasets.DATASET_FILE, edit)


def _rewrite(tmp_path, manifest):
    _edit_members(tmp_path, lambda members: members.update(header=manifest))


def test_dataset_is_one_archive(tmp_path):
    manifest = _saved(tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == [datasets.DATASET_FILE]
    assert manifest == {
        "format": 2, "kind": "scm", "d": 3, "n": 8, "paired": False, "base_seed": 4,
        "contexts": [0], "conditions": [[0, 0], [0, 1], [0, 2]],
    }


@pytest.mark.parametrize("batches", ["observational", "interventional", "treatment_codes"])
def test_saving_a_batch_of_the_wrong_shape_is_rejected(tmp_path, batches):
    ds = datasets.generate_scm_dataset(1, 3, 8, base_seed=4)
    key = next(iter(getattr(ds, batches)))
    getattr(ds, batches)[key] = getattr(ds, batches)[key][:-1]
    with pytest.raises(InvalidArgumentError, match="shape"):
        datasets.save_dataset(ds, tmp_path)


def test_manifest_that_is_not_json_is_rejected(tmp_path):
    _saved(tmp_path)
    _edit_members(tmp_path, lambda members: members.update(header=np.array("{not json")))
    with pytest.raises(InvalidArgumentError):
        datasets.load_dataset(tmp_path)


def test_manifest_with_another_format_is_rejected(tmp_path):
    manifest = _saved(tmp_path)
    manifest["format"] = 1
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


@pytest.mark.parametrize("key", ["d", "n"])
def test_manifest_size_that_disagrees_with_the_files_is_rejected(tmp_path, key):
    manifest = _saved(tmp_path)
    manifest[key] += 1
    _rewrite(tmp_path, manifest)
    with pytest.raises(InvalidArgumentError):
        datasets.load_dataset(tmp_path)


def test_entry_missing_its_file_is_rejected(tmp_path):
    # Each member of the archive is a file in the zip.
    _saved(tmp_path)
    _edit_members(tmp_path, lambda members: members.pop("int"))
    with pytest.raises(InvalidArgumentError):
        datasets.load_dataset(tmp_path)


def test_entry_with_an_unknown_kind_is_rejected(tmp_path):
    _saved(tmp_path)
    _edit_members(tmp_path, lambda members: members.update(ctrl=members["obs"]))
    with pytest.raises(InvalidArgumentError):
        datasets.load_dataset(tmp_path)


def test_interventional_file_listed_as_obs_is_rejected(tmp_path):
    _saved(tmp_path)
    _edit_members(tmp_path, lambda members: members.update(obs=members["int"], int=members["obs"]))
    with pytest.raises(InvalidArgumentError):
        datasets.load_dataset(tmp_path)


@pytest.mark.parametrize("member", ["obs", "int", "codes"])
def test_member_missing_a_row_is_rejected(tmp_path, member):
    _saved(tmp_path)
    _edit_members(tmp_path, lambda members: members.update({member: members[member][:-1]}))
    with pytest.raises(InvalidArgumentError, match="implies"):
        datasets.load_dataset(tmp_path)


@pytest.mark.parametrize(
    "key, value",
    [
        ("d", "abc"), ("d", None), ("n", 8.9), ("base_seed", [1]), ("base_seed", True), ("paired", "no"),
        ("contexts", ["0"]),
    ],
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
    manifest["conditions"][index][("context", "treatment").index(key)] = value
    _rewrite(tmp_path, manifest)
    with pytest.raises(InvalidArgumentError):
        datasets.load_dataset(tmp_path)


@pytest.mark.parametrize("index", [0, 1])
def test_entry_listed_twice_is_rejected(tmp_path, index):
    # Entry 0 is the context, entry 1 a condition; its batch is stacked twice too.
    manifest = _saved(tmp_path)
    listed, stacked = ("contexts", ["obs"]) if index == 0 else ("conditions", ["int", "codes"])
    manifest[listed].append(manifest[listed][0])

    def twice(members):
        members.update({name: np.concatenate([members[name], members[name][:1]]) for name in stacked})
        members["header"] = manifest

    _edit_members(tmp_path, twice)
    with pytest.raises(InvalidArgumentError, match="distinct|twice"):
        datasets.load_dataset(tmp_path)


def test_context_without_an_observational_batch_is_rejected(tmp_path):
    manifest = _saved(tmp_path)
    manifest["conditions"][0][0] = 1
    _rewrite(tmp_path, manifest)
    with pytest.raises(InvalidArgumentError):
        datasets.load_dataset(tmp_path)


def test_paired_scm_dataset_changes_only_the_treated_gene_and_its_descendants():
    for base_seed in range(20):
        paired = datasets.generate_scm_dataset(3, 6, 40, paired=True, base_seed=base_seed)
        unpaired = datasets.generate_scm_dataset(3, 6, 40, paired=False, base_seed=base_seed)
        for (c, t), batch in paired.interventional.items():
            w = scm.sample_dag(6, 0.5, np.random.default_rng(mix_seed(base_seed, c, 0, ROLE_STRUCTURE)))
            graph = nx.from_numpy_array(w.T, create_using=nx.DiGraph)  # edge j -> k at [j, k]
            rest = sorted(set(range(6)) - {t} - nx.descendants(graph, t))
            assert np.array_equal(batch[:, rest], paired.observational[c][:, rest])
            diff = unpaired.interventional[(c, t)][:, rest] - unpaired.observational[c][:, rest]
            assert np.all(np.abs(diff).max(axis=0) > 0.5)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(k_context=-1),
        dict(max_context=-1),
        dict(n_obs_tokens=0),
        dict(m_tokens=0),
        pytest.param(dict(k_context=2.5), id="k_context=2.5"),
        pytest.param(dict(m_tokens=True), id="m_tokens=True"),
        pytest.param(dict(seed=-1), id="seed=-1"),
        pytest.param(dict(seed=2.5), id="seed=2.5"),
    ],
    ids=lambda kw: ",".join(kw),
)
def test_bundle_sampler_rejects_bad_sizes(kwargs):
    # Unchecked, max_context=-1 was accepted and the first draw raised
    # NumPy's raw ValueError from rng.choice.
    ds = datasets.generate_scm_dataset(1, 3, 8, base_seed=4)
    args = dict(k_context=1, max_context=2, seed=0, n_obs_tokens=4, m_tokens=4) | kwargs
    with pytest.raises(InvalidArgumentError):
        datasets.BundleSampler(ds, ds.conditions, **args)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_contexts=2.5),
        dict(n_samples=8.0),
        dict(d=3.0),
        dict(edge_prob=True),
        dict(base_seed=2.7),
        dict(paired=1),
        dict(paired="yes"),
        dict(paired=None),
    ],
    ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()),
)
def test_scm_dataset_rejects_a_malformed_count_or_seed(kwargs):
    # Unchecked, base_seed=2.7 and a paired flag that is not a bool generated
    # data under a header that load_dataset rejects, edge_prob=True drew
    # complete graphs, and the other values raised a raw TypeError or AxisError.
    (name,) = kwargs
    match = {"base_seed": "seed", "edge_prob": "edge probability"}.get(name, name)
    with pytest.raises(InvalidArgumentError, match=match):
        datasets.generate_scm_dataset(**(dict(n_contexts=1, d=3, n_samples=8) | kwargs))


def test_grn_dataset_rejects_a_gene_count_that_is_not_an_integer():
    # Unchecked, it raised a raw TypeError from NumPy.
    with pytest.raises(InvalidArgumentError, match="genes"):
        datasets.generate_grn_dataset(1, 4.0, 5)


def test_bundle_sampler_rejects_a_train_condition_the_dataset_lacks():
    # Unchecked, the first draw of it raised a raw KeyError.
    ds = datasets.generate_scm_dataset(1, 3, 8, base_seed=4)
    with pytest.raises(InvalidArgumentError, match="not in the dataset"):
        datasets.BundleSampler(ds, [*ds.conditions, datasets.ConditionKey(0, 9)], 1, 2, seed=0)


def test_build_eval_bundle_rejects_a_condition_the_dataset_lacks():
    ds = datasets.generate_scm_dataset(1, 3, 8, base_seed=4)
    with pytest.raises(InvalidArgumentError, match="not in the dataset"):
        datasets.build_eval_bundle(ds, datasets.ConditionKey(5, 0), [])


def test_build_eval_bundle_rejects_a_context_treatment_the_dataset_lacks():
    ds = datasets.generate_scm_dataset(1, 3, 8, base_seed=4)
    condition = ds.conditions[0]
    with pytest.raises(InvalidArgumentError, match="not in the dataset"):
        datasets.build_eval_bundle(ds, condition, [7])


@pytest.mark.parametrize("max_rows", [-1, 0, 2.5, True])
def test_build_eval_bundle_rejects_a_row_count_that_is_not_a_positive_integer(max_rows):
    # Unchecked, -1 dropped the last row through a negative slice, 0 gave
    # empty batches, True one row, and 2.5 a raw TypeError.
    ds = datasets.generate_scm_dataset(1, 3, 8, base_seed=4)
    with pytest.raises(InvalidArgumentError, match="max_rows"):
        datasets.build_eval_bundle(ds, ds.conditions[0], [], max_rows=max_rows)


@pytest.mark.parametrize("case", ["query", "repeat"])
def test_build_eval_bundle_rejects_the_query_or_a_repeat_in_its_context(case):
    # Unchecked, the held-out batch the model is scored against could sit
    # in its own context, and a context batch could count twice.
    ds = datasets.generate_scm_dataset(1, 3, 8, base_seed=4)
    condition = ds.conditions[0]
    other = next(c.treatment_id for c in ds.conditions if c != condition)
    context = [other, condition.treatment_id if case == "query" else other]
    with pytest.raises(InvalidArgumentError, match="distinct and exclude the query"):
        datasets.build_eval_bundle(ds, condition, context)

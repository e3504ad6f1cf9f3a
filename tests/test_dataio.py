"""Dataset and checkpoint archive round trips, and rejection of malformed
files: edited headers, cuts and flipped bytes."""

from __future__ import annotations

import dataclasses
import json
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import edit_archive
from pertmap import dataio, datasets
from pertmap.errors import InvalidArgumentError
from pertmap.model import ModelConfig, build_model, toy_config

MICRO_CFG = ModelConfig(
    layers=1, embed_dim=4, ff_dim=4, heads=1, head_dim=4, register_tokens=1, max_genes=2, max_context=1
)
FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _float32_rounded(x: np.ndarray) -> np.ndarray:
    return x.astype(np.float32).astype(np.float64)


def test_dataset_round_trip_is_float32_rounding(tmp_path):
    for ds in (
        datasets.generate_scm_dataset(2, 5, 16, base_seed=1),
        datasets.generate_grn_dataset(1, 3, 10, base_seed=2),
    ):
        out = tmp_path / ds.kind
        datasets.save_dataset(ds, out)
        loaded = datasets.load_dataset(out)
        assert (loaded.kind, loaded.d, loaded.n, loaded.paired, loaded.base_seed) == (
            ds.kind, ds.d, ds.n, ds.paired, ds.base_seed,
        )
        assert sorted(loaded.observational) == sorted(ds.observational)
        assert sorted(loaded.interventional) == sorted(ds.interventional)
        for c, values in ds.observational.items():
            assert np.array_equal(loaded.observational[c], _float32_rounded(values))
        for key, values in ds.interventional.items():
            assert np.array_equal(loaded.interventional[key], _float32_rounded(values))
            assert np.array_equal(loaded.treatment_codes[key], _float32_rounded(ds.treatment_codes[key]))


def _toy_checkpoint(path, cfg=None):
    cfg = cfg or toy_config(max_genes=3, max_context=2)
    params = build_model(cfg, seed=4)
    rng = np.random.default_rng(9)
    for _, t in params.items():  # no zero-initialized tensors left
        t.data[...] += rng.standard_normal(t.shape).astype(np.float32)
    dataio.save_checkpoint(path, params, cfg, extra={"step": 7})
    return params, cfg


@pytest.mark.parametrize(
    "extra", ["x", [1, 2], 0, {"a": object()}, {(1, 2): 3}], ids=["str", "list", "zero", "object", "tuple_key"]
)
def test_save_checkpoint_rejects_an_extra_that_load_checkpoint_would_not_read(tmp_path, extra):
    # "x" and [1, 2] were written and then rejected on load, 0 was written
    # as {}, and an unencodable value raised json's raw TypeError.
    with pytest.raises(InvalidArgumentError, match="extra|JSON"):
        dataio.save_checkpoint(tmp_path / "model.ckpt", build_model(MICRO_CFG, seed=0), MICRO_CFG, extra=extra)
    assert list(tmp_path.iterdir()) == []


def test_save_checkpoint_writes_no_extra_as_an_empty_object(tmp_path):
    dataio.save_checkpoint(tmp_path / "model.ckpt", build_model(MICRO_CFG, seed=0), MICRO_CFG)
    assert dataio.load_checkpoint(tmp_path / "model.ckpt")[2] == {}


def test_checkpoint_round_trip_through_restore_params_is_exact(tmp_path):
    params, cfg = _toy_checkpoint(tmp_path / "model.ckpt")
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
    with zipfile.ZipFile(tmp_path / "model.ckpt") as archive:
        assert archive.namelist() == ["header.npy", "params.npy"]
    values, loaded_cfg, extra = dataio.load_checkpoint(tmp_path / "model.ckpt")
    restored = dataio.restore_params(values, loaded_cfg)
    assert loaded_cfg == cfg and extra == {"step": 7}
    assert list(restored) == list(params)
    assert restored.values.dtype == np.float32 and np.array_equal(restored.values, params.values)
    for name, t in params.items():
        assert restored[name].data.dtype == t.data.dtype
        assert np.array_equal(restored[name].data, t.data)


def test_checkpoint_with_one_member_per_tensor_is_rejected(tmp_path):
    # The layout written before the parameters were held in one buffer.
    path = tmp_path / "model.ckpt"
    cfg = toy_config(max_genes=3, max_context=2)
    params = build_model(cfg, seed=4)
    header = {"model_config": dataclasses.asdict(cfg), "extra": {}}
    dataio.write_archive(path, header, {name: t.data for name, t in params.items()})
    with pytest.raises(InvalidArgumentError, match="params"):
        dataio.load_checkpoint(path)


def _edit_header(edit):
    return lambda members: edit(members["header"])


def test_checkpoint_header_with_unknown_config_key_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    _toy_checkpoint(path)
    edit_archive(path, _edit_header(lambda h: h["model_config"].update(bogus=1)))
    with pytest.raises(InvalidArgumentError, match="bogus"):
        dataio.load_checkpoint(path)


def test_checkpoint_header_with_a_non_integer_config_value_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    _toy_checkpoint(path)
    edit_archive(path, _edit_header(lambda h: h["model_config"].update(layers="2")))
    with pytest.raises(InvalidArgumentError, match="layers"):
        dataio.load_checkpoint(path)


@pytest.mark.parametrize(
    "sizes",
    [
        dict(embed_dim=0, heads=0, head_dim=0, ff_dim=0),
        dict(layers=0),
        dict(max_genes=0),
        dict(max_context=0),
        dict(register_tokens=-1),
    ],
    ids=lambda sizes: ",".join(sizes),
)
def test_checkpoint_header_with_a_size_below_one_is_rejected(tmp_path, sizes):
    path = tmp_path / "model.ckpt"
    _toy_checkpoint(path)
    edit_archive(path, _edit_header(lambda h: h["model_config"].update(sizes)))
    with pytest.raises(InvalidArgumentError, match="at least"):
        dataio.load_checkpoint(path)


@pytest.mark.parametrize("key", ["extra", "format"])
def test_checkpoint_header_without_a_key_is_rejected(tmp_path, key):
    path = tmp_path / "model.ckpt"
    _toy_checkpoint(path)
    edit_archive(path, _edit_header(lambda h: h.pop(key)))
    with pytest.raises(InvalidArgumentError, match=key):
        dataio.load_checkpoint(path)


def test_checkpoint_header_without_model_config_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    _toy_checkpoint(path)
    edit_archive(path, _edit_header(lambda h: h.pop("model_config")))
    with pytest.raises(InvalidArgumentError, match="model_config"):
        dataio.load_checkpoint(path)


def test_checkpoint_header_that_is_not_json_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    _toy_checkpoint(path)
    edit_archive(path, lambda members: members.update(header=np.array(json.dumps(members["header"])[:-1])))
    with pytest.raises(InvalidArgumentError, match="JSON"):
        dataio.load_checkpoint(path)


def test_checkpoint_header_that_is_not_utf8_is_rejected(tmp_path):
    # A byte-string header, let alone one that is not UTF-8, is not read.
    path = tmp_path / "model.ckpt"
    _toy_checkpoint(path)

    def byte_string_header(members):
        members["header"] = np.array(b"\xff" + json.dumps(members["header"]).encode())

    edit_archive(path, byte_string_header)
    with pytest.raises(InvalidArgumentError, match="header"):
        dataio.load_checkpoint(path)


def test_checkpoint_tensor_name_that_is_not_utf8_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    _toy_checkpoint(path)
    buf = path.read_bytes()
    assert buf.count(b"params.npy") == 2  # its local header and the central directory
    path.write_bytes(buf.replace(b"params.npy", b"\xffarams.npy"))
    with pytest.raises(InvalidArgumentError):
        dataio.load_checkpoint(path)


def test_checkpoint_tensor_that_is_not_float32_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    _toy_checkpoint(path)
    edit_archive(path, lambda members: members.update(params=members["params"].astype(np.float64)))
    with pytest.raises(InvalidArgumentError, match="float32"):
        dataio.load_checkpoint(path)


def test_checkpoint_header_with_inconsistent_heads_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    _toy_checkpoint(path)
    edit_archive(path, _edit_header(lambda h: h["model_config"].update(heads=3)))
    with pytest.raises(InvalidArgumentError, match="heads"):
        dataio.load_checkpoint(path)


def test_checkpoint_with_a_missing_or_extra_tensor_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    for edit in (lambda m: m.pop("params"), lambda m: m.update(spare=m["params"])):
        _toy_checkpoint(path)
        edit_archive(path, edit)
        with pytest.raises(InvalidArgumentError, match="members"):
            dataio.load_checkpoint(path)


@pytest.mark.parametrize(
    "edit",
    [lambda p: p[:-1], lambda p: np.append(p, p[:1]), lambda p: p.reshape(1, -1)],
    ids=["short", "long", "2-d"],
)
def test_checkpoint_params_of_the_wrong_shape_are_rejected(tmp_path, edit):
    path = tmp_path / "model.ckpt"
    _toy_checkpoint(path)
    edit_archive(path, lambda members: members.update(params=edit(members["params"])))
    with pytest.raises(InvalidArgumentError, match="shape"):
        dataio.load_checkpoint(path)


def test_restore_params_rejects_inconsistent_heads(tmp_path):
    path = tmp_path / "model.ckpt"
    _, cfg = _toy_checkpoint(path)
    values, _, _ = dataio.load_checkpoint(path)
    with pytest.raises(InvalidArgumentError, match="heads"):
        dataio.restore_params(values, dataclasses.replace(cfg, heads=cfg.heads + 1))


def test_restore_params_rejects_a_wrong_shape(tmp_path):
    path = tmp_path / "model.ckpt"
    _toy_checkpoint(path)
    values, cfg, _ = dataio.load_checkpoint(path)
    with pytest.raises(InvalidArgumentError):
        dataio.restore_params(values[:-1], cfg)


def _member_offsets(path) -> list[int]:
    """File offset of each member's local header, in archive order, then
    of the central directory that follows the last member."""
    with zipfile.ZipFile(path) as archive:
        return [info.header_offset for info in archive.infolist()] + [archive.start_dir]


def test_checkpoint_cut_at_end_of_header_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    _toy_checkpoint(path)
    with zipfile.ZipFile(path) as archive:
        assert archive.infolist()[0].filename == "header.npy"
    buf = path.read_bytes()
    path.write_bytes(buf[: _member_offsets(path)[1]])
    with pytest.raises(InvalidArgumentError):
        dataio.load_checkpoint(path)


def test_checkpoint_cut_at_tensor_boundary_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    _toy_checkpoint(path)
    buf = path.read_bytes()
    path.write_bytes(buf[: _member_offsets(path)[-1]])  # after the params member
    with pytest.raises(InvalidArgumentError):
        dataio.load_checkpoint(path)


def test_checkpoint_cut_inside_a_tensor_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    _toy_checkpoint(path)
    buf = path.read_bytes()
    start, end = _member_offsets(path)[1:]
    path.write_bytes(buf[: (start + end) // 2])
    with pytest.raises(InvalidArgumentError):
        dataio.load_checkpoint(path)


def test_archive_holding_a_single_array_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    with open(path, "wb") as fh:
        np.save(fh, np.zeros(3, dtype=np.float32))
    with pytest.raises(InvalidArgumentError, match="archive"):
        dataio.load_checkpoint(path)


# -- corrupted files ------------------------------------------------------------


def _save(kind: str, directory):
    """Save a 1-context dataset or a micro-width checkpoint in ``directory``;
    return a function loading it."""
    if kind == "dataset":
        datasets.save_dataset(datasets.generate_scm_dataset(1, 3, 8, base_seed=4), directory)
        return lambda: datasets.load_dataset(directory)
    _toy_checkpoint(directory / "model.ckpt", MICRO_CFG)
    return lambda: dataio.load_checkpoint(directory / "model.ckpt")


def _contents(loaded):
    """A loaded dataset or checkpoint as comparable plain values."""
    if isinstance(loaded, datasets.PerturbationDataset):
        meta = (loaded.kind, loaded.d, loaded.n, loaded.paired, loaded.base_seed)
        arrays = {("obs", c): a for c, a in loaded.observational.items()}
        arrays.update({("int", *key): a for key, a in loaded.interventional.items()})
        arrays.update({("code", *key): a for key, a in loaded.treatment_codes.items()})
    else:
        values, cfg, extra = loaded
        arrays, meta = {"params": values}, (cfg, extra)
    return meta, {key: (a.dtype.str, a.shape, a.tobytes()) for key, a in arrays.items()}


@pytest.mark.parametrize("kind", ["dataset", "checkpoint"])
def test_flipped_payload_byte_is_rejected(tmp_path, kind):
    load = _save(kind, tmp_path)
    loaded = load()
    first = loaded.observational[0] if kind == "dataset" else loaded[0]
    payload = first.astype("<f4").tobytes()
    (path,) = [p for p in tmp_path.iterdir() if payload in p.read_bytes()]
    buf = bytearray(path.read_bytes())
    buf[buf.index(payload) + len(payload) // 2] ^= 0x10
    path.write_bytes(bytes(buf))
    with pytest.raises(InvalidArgumentError):
        load()


@pytest.fixture(scope="module")
def saved_files(tmp_path_factory):
    """Both kinds of file, saved once: (path, its bytes, loader, contents)."""
    out = {}
    for kind in ("dataset", "checkpoint"):
        directory = tmp_path_factory.mktemp(kind)
        load = _save(kind, directory)
        (path,) = directory.iterdir()
        out[kind] = (path, path.read_bytes(), load, _contents(load()))
    return out


@pytest.mark.parametrize("kind", ["dataset", "checkpoint"])
@FUZZ
@given(data=st.data())
def test_cut_or_flipped_file_is_rejected_or_loads_unchanged(saved_files, kind, data):
    path, original, load, expected = saved_files[kind]
    offset = data.draw(st.integers(0, len(original) - 1), label="offset")
    if data.draw(st.booleans(), label="cut"):
        corrupted = original[:offset]
    else:
        flipped = bytearray(original)
        flipped[offset] ^= data.draw(st.integers(1, 255), label="xor")
        corrupted = bytes(flipped)
    path.write_bytes(corrupted)
    try:
        loaded = load()
    except InvalidArgumentError:
        return
    finally:
        path.write_bytes(original)
    assert _contents(loaded) == expected

"""Batch-file and checkpoint round trips, and rejection of malformed files."""

from __future__ import annotations

import dataclasses
import json
import struct

import numpy as np
import pytest

from pertmap import dataio, datasets
from pertmap.errors import InvalidArgumentError
from pertmap.model import build_model, toy_config


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


def _toy_checkpoint(path):
    cfg = toy_config(max_genes=3, max_context=2)
    params = build_model(cfg, seed=4)
    rng = np.random.default_rng(9)
    for _, t in params.items():  # no zero-initialized tensors left
        t.data = t.data + rng.standard_normal(t.shape).astype(np.float32)
    dataio.save_checkpoint(path, params, cfg, extra={"step": 7})
    return params, cfg


def test_checkpoint_round_trip_through_restore_params_is_exact(tmp_path):
    params, cfg = _toy_checkpoint(tmp_path / "model.ckpt")
    values, loaded_cfg, extra = dataio.load_checkpoint(tmp_path / "model.ckpt")
    restored = dataio.restore_params(values, loaded_cfg)
    assert loaded_cfg == cfg and extra == {"step": 7}
    assert restored.names() == params.names()
    for name, t in params.items():
        assert restored[name].data.dtype == t.data.dtype
        assert np.array_equal(restored[name].data, t.data)


def _header_end(buf: bytes) -> int:
    (header_len,) = struct.unpack_from("<I", buf, 8)
    return 12 + header_len


def _replace_header(path, edit) -> None:
    """Rewrite a checkpoint's header bytes with ``edit(header_bytes)``."""
    buf = path.read_bytes()
    header = edit(buf[12 : _header_end(buf)])
    path.write_bytes(buf[:8] + struct.pack("<I", len(header)) + header + buf[_header_end(buf) :])


def _edit_model_config(edit):
    def rewrite(header_bytes: bytes) -> bytes:
        header = json.loads(header_bytes)
        edit(header)
        return json.dumps(header, sort_keys=True).encode("utf-8")

    return rewrite


def test_checkpoint_header_with_condition_drop_prob_still_loads(tmp_path):
    path = tmp_path / "model.ckpt"
    params, cfg = _toy_checkpoint(path)
    _replace_header(path, _edit_model_config(lambda h: h["model_config"].update(condition_drop_prob=0.2)))
    values, loaded_cfg, _ = dataio.load_checkpoint(path)
    assert loaded_cfg == cfg
    assert sorted(values) == sorted(params.names())


def test_checkpoint_header_with_unknown_config_key_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    _toy_checkpoint(path)
    _replace_header(path, _edit_model_config(lambda h: h["model_config"].update(bogus=1)))
    with pytest.raises(InvalidArgumentError, match="bogus"):
        dataio.load_checkpoint(path)


def test_checkpoint_header_with_a_non_integer_config_value_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    _toy_checkpoint(path)
    _replace_header(path, _edit_model_config(lambda h: h["model_config"].update(layers="2")))
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
    _replace_header(path, _edit_model_config(lambda h: h["model_config"].update(sizes)))
    with pytest.raises(InvalidArgumentError, match="at least"):
        dataio.load_checkpoint(path)


def test_checkpoint_header_without_model_config_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    _toy_checkpoint(path)
    _replace_header(path, _edit_model_config(lambda h: h.pop("model_config")))
    with pytest.raises(InvalidArgumentError):
        dataio.load_checkpoint(path)


def test_checkpoint_header_that_is_not_json_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    _toy_checkpoint(path)
    _replace_header(path, lambda header_bytes: header_bytes[:-1])
    with pytest.raises(InvalidArgumentError):
        dataio.load_checkpoint(path)


def test_checkpoint_header_that_is_not_utf8_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    _toy_checkpoint(path)
    _replace_header(path, lambda header_bytes: b"\xff" + header_bytes)
    with pytest.raises(InvalidArgumentError):
        dataio.load_checkpoint(path)


def test_checkpoint_tensor_name_that_is_not_utf8_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    _toy_checkpoint(path)
    buf = bytearray(path.read_bytes())
    buf[_header_end(buf) + 4] = 0xFF  # first byte of the first tensor name
    path.write_bytes(bytes(buf))
    with pytest.raises(InvalidArgumentError):
        dataio.load_checkpoint(path)


def test_checkpoint_header_with_inconsistent_heads_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    _toy_checkpoint(path)
    _replace_header(path, _edit_model_config(lambda h: h["model_config"].update(heads=3)))
    with pytest.raises(InvalidArgumentError, match="heads"):
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
    name = next(iter(values))
    values[name] = values[name][..., :-1]
    with pytest.raises(InvalidArgumentError):
        dataio.restore_params(values, cfg)


def test_checkpoint_cut_at_end_of_header_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    _toy_checkpoint(path)
    buf = path.read_bytes()
    path.write_bytes(buf[: _header_end(buf)])
    with pytest.raises(InvalidArgumentError):
        dataio.load_checkpoint(path)


def test_checkpoint_cut_at_tensor_boundary_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    params, _ = _toy_checkpoint(path)
    buf = path.read_bytes()
    boundaries = [_header_end(buf)]
    for name, t in params.items():
        boundaries.append(boundaries[-1] + 8 + len(name.encode("utf-8")) + 4 * (t.ndim + t.data.size))
    assert boundaries[-1] == len(buf)
    for cut in (boundaries[1], boundaries[-2]):
        path.write_bytes(buf[:cut])
        with pytest.raises(InvalidArgumentError):
            dataio.load_checkpoint(path)


def test_checkpoint_cut_inside_a_tensor_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    _toy_checkpoint(path)
    path.write_bytes(path.read_bytes()[:-2])
    with pytest.raises(InvalidArgumentError):
        dataio.load_checkpoint(path)


def test_checkpoint_with_trailing_bytes_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    _toy_checkpoint(path)
    path.write_bytes(path.read_bytes() + b"\x00" * 4)
    with pytest.raises(InvalidArgumentError):
        dataio.load_checkpoint(path)


def _batch_file(path) -> bytes:
    values = np.arange(12, dtype=float).reshape(4, 3)
    dataio.write_batch_file(path, values, dataio.KIND_INTERVENTIONAL, np.array([0.0, 1.5, 0.0]))
    return path.read_bytes()


def test_batch_file_round_trip(tmp_path):
    _batch_file(tmp_path / "b.bin")
    values, kind, code = dataio.read_batch_file(tmp_path / "b.bin")
    assert kind == dataio.KIND_INTERVENTIONAL
    assert np.array_equal(values, np.arange(12, dtype=float).reshape(4, 3))
    assert np.array_equal(code, [0.0, 1.5, 0.0])


def test_batch_file_short_header_is_rejected(tmp_path):
    path = tmp_path / "b.bin"
    path.write_bytes(_batch_file(path)[:15])
    with pytest.raises(InvalidArgumentError):
        dataio.read_batch_file(path)


def test_batch_file_short_payload_is_rejected(tmp_path):
    path = tmp_path / "b.bin"
    path.write_bytes(_batch_file(path)[:-4])
    with pytest.raises(InvalidArgumentError):
        dataio.read_batch_file(path)


def test_batch_file_trailing_bytes_are_rejected(tmp_path):
    path = tmp_path / "b.bin"
    path.write_bytes(_batch_file(path) + b"\x00" * 4)
    with pytest.raises(InvalidArgumentError):
        dataio.read_batch_file(path)


def test_batch_file_write_rejects_an_unknown_kind(tmp_path):
    with pytest.raises(InvalidArgumentError):
        dataio.write_batch_file(tmp_path / "b.bin", np.zeros((2, 3)), 7, np.zeros(3))


def test_batch_file_read_rejects_an_unknown_kind(tmp_path):
    path = tmp_path / "b.bin"
    buf = bytearray(_batch_file(path))
    struct.pack_into("<I", buf, 16, 7)
    path.write_bytes(bytes(buf))
    with pytest.raises(InvalidArgumentError):
        dataio.read_batch_file(path)

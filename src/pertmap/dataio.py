"""Binary file formats: dataset batches and model checkpoints.

Batch files are little-endian: an 8-byte magic, u32 gene count d, u32 row
count n, u32 kind (0 observational, 1 interventional), the d-float32
treatment code, then n*d float32 values in row-major order.  A dataset
directory holds one file per condition plus ``manifest.json``.

Checkpoints are a single file: magic, u32 header length, a JSON header
(format version plus the model configuration), then name-length-prefixed
entries of shape-prefixed float32 tensors in parameter order.

Readers and writers raise InvalidArgumentError on a batch kind other than 0
or 1, and readers on a file that is shorter or longer than its header
implies, whose checkpoint header is not a valid configuration, or, for the
manifest, that is not a UTF-8 JSON object.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, fields
from pathlib import Path
from typing import Any

import numpy as np

from .autodiff import ParameterSet
from .errors import InvalidArgumentError
from .model import ModelConfig, parameter_layout

DATASET_MAGIC = b"PMAPDS1\x00"
CHECKPOINT_MAGIC = b"PMAPCK1\x00"
KIND_OBSERVATIONAL = 0
KIND_INTERVENTIONAL = 1
_KINDS = (KIND_OBSERVATIONAL, KIND_INTERVENTIONAL)
_BATCH_HEADER = 20  # magic, then u32 d, n, kind


def write_batch_file(path: Path, values: np.ndarray, kind: int, treatment_code: np.ndarray) -> None:
    values = np.ascontiguousarray(values, dtype="<f4")
    code = np.ascontiguousarray(treatment_code, dtype="<f4")
    n, d = values.shape
    if kind not in _KINDS:
        raise InvalidArgumentError(f"batch kind must be one of {_KINDS}, got {kind}")
    if code.shape != (d,):
        raise InvalidArgumentError("treatment code length must equal the gene count")
    with open(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<III", d, n, kind))
        fh.write(code.tobytes())
        fh.write(values.tobytes())


def read_batch_file(path: Path) -> tuple[np.ndarray, int, np.ndarray]:
    buf = Path(path).read_bytes()
    if buf[:8] != DATASET_MAGIC:
        raise InvalidArgumentError(f"{path}: not a dataset batch file")
    if len(buf) < _BATCH_HEADER:
        raise InvalidArgumentError(f"{path}: truncated batch header")
    d, n, kind = struct.unpack_from("<III", buf, 8)
    if kind not in _KINDS:
        raise InvalidArgumentError(f"{path}: batch kind {kind} is not one of {_KINDS}")
    expected = _BATCH_HEADER + 4 * d * (1 + n)
    if len(buf) != expected:
        raise InvalidArgumentError(f"{path}: {len(buf)} bytes, but its header implies {expected}")
    code = np.frombuffer(buf, dtype="<f4", count=d, offset=_BATCH_HEADER).astype(np.float64)
    values = np.frombuffer(buf, dtype="<f4", offset=_BATCH_HEADER + 4 * d).reshape(n, d).astype(np.float64)
    return values, kind, code


def write_manifest(path: Path, manifest: dict[str, Any]) -> None:
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def read_manifest(path: Path) -> dict[str, Any]:
    try:
        manifest = json.loads(path.read_bytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidArgumentError(f"{path}: manifest is not UTF-8 JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise InvalidArgumentError(f"{path}: manifest is not a JSON object")
    return manifest


def save_checkpoint(path: Path, params: ParameterSet, model_cfg: ModelConfig, extra: dict | None = None) -> None:
    header = {"format": 1, "model_config": asdict(model_cfg)}
    if extra:
        header["extra"] = extra
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for name, tensor in params.items():
            encoded = name.encode("utf-8")
            data = np.ascontiguousarray(tensor.data, dtype="<f4")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", data.ndim))
            fh.write(struct.pack(f"<{data.ndim}I", *data.shape))
            fh.write(data.tobytes())


def load_checkpoint(path: Path) -> tuple[dict[str, np.ndarray], ModelConfig, dict]:
    """Read a checkpoint; its tensors must be exactly those of the model
    configuration in its header, with nothing missing, cut or trailing."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def take(count: int) -> bytes:
            if count > size - fh.tell():
                raise InvalidArgumentError(f"{path}: truncated checkpoint")
            return fh.read(count)

        if fh.read(8) != CHECKPOINT_MAGIC:
            raise InvalidArgumentError(f"{path}: not a checkpoint file")
        (header_len,) = struct.unpack("<I", take(4))
        try:
            header = json.loads(take(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InvalidArgumentError(f"{path}: checkpoint header is not UTF-8 JSON: {exc}") from exc
        if not isinstance(header, dict):
            raise InvalidArgumentError(f"{path}: checkpoint header is not a JSON object")
        if header.get("format") != 1:
            raise InvalidArgumentError(f"unsupported checkpoint format {header.get('format')}")
        cfg = _model_config(path, header.get("model_config"))
        values: dict[str, np.ndarray] = {}
        while fh.tell() < size:
            (name_len,) = struct.unpack("<I", take(4))
            try:
                name = take(name_len).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise InvalidArgumentError(f"{path}: tensor name is not UTF-8") from exc
            (ndim,) = struct.unpack("<I", take(4))
            shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
            values[name] = np.frombuffer(take(4 * math.prod(shape)), dtype="<f4").reshape(shape).astype(np.float32)
    if not _matches_layout(values, cfg):
        raise InvalidArgumentError(f"{path}: tensors do not match the model configuration in its header")
    return values, cfg, header.get("extra", {})


def _model_config(path: Path, config: Any) -> ModelConfig:
    if not isinstance(config, dict):
        raise InvalidArgumentError(f"{path}: checkpoint header has no model_config object")
    config = dict(config)
    # Written by versions whose ModelConfig still carried this unread
    # field; the training module owns the value.
    config.pop("condition_drop_prob", None)
    unknown = sorted(set(config) - {f.name for f in fields(ModelConfig)})
    if unknown:
        raise InvalidArgumentError(f"{path}: unknown model_config keys {unknown}")
    not_int = sorted(key for key, value in config.items() if type(value) is not int)
    if not_int:
        raise InvalidArgumentError(f"{path}: model_config values {not_int} are not integers")
    cfg = ModelConfig(**config)
    cfg.validate()
    return cfg


def _matches_layout(values: dict[str, np.ndarray], cfg: ModelConfig) -> bool:
    expected = {name: shape for name, shape, _ in parameter_layout(cfg)}
    return {name: np.shape(v) for name, v in values.items()} == expected


def restore_params(values: dict[str, np.ndarray], model_cfg: ModelConfig) -> ParameterSet:
    """A float32 ParameterSet holding the checkpoint's tensor values, in
    parameter order."""
    model_cfg.validate()
    if not _matches_layout(values, model_cfg):
        raise InvalidArgumentError("checkpoint parameters do not match the model configuration")
    params = ParameterSet()
    for name, _, _ in parameter_layout(model_cfg):
        params.add(name, np.asarray(values[name], dtype=np.float32))
    return params

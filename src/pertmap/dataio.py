"""Archive files: datasets and model checkpoints.

Both are uncompressed NumPy ``.npz`` archives, zip files of ``.npy``
members.  Every archive has a ``header`` member, a 0-d unicode array
holding a JSON object with ``"format": 2``; every other member is a
little-endian float32 array.

- A dataset is ``<dir>/dataset.npz``.  Its header is ``{format, kind, d, n,
  paired, base_seed, contexts, conditions}``: ``contexts`` lists the C
  context ids and ``conditions`` the K ``[context, treatment]`` pairs, in
  the order of the members ``obs`` (C, n, d), the observational batch of
  each context, ``int`` (K, n, d), the interventional batch of each
  condition, and ``codes`` (K, d), its treatment code.
- A checkpoint is one archive at any path.  Its header is ``{format,
  model_config, extra}``, ``model_config`` the fields of a ModelConfig and
  ``extra`` a JSON object.  Its one other member, ``params``, is the
  model's flat parameter buffer (``ParameterSet.values``): a 1-D array of
  ``num_values(model_config)`` values, the tensors of ``parameter_layout``
  one after another, each in row-major order.

zip stores a CRC-32 of every member, checked when the member is read, so a
corrupted payload is rejected rather than loaded.  Readers raise
InvalidArgumentError on any file that is not such an archive.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, fields
from pathlib import Path
from typing import Any

import numpy as np

from .autodiff import ParameterSet
from .errors import InvalidArgumentError
from .model import ModelConfig, num_values, parameter_layout

_FORMAT = 2
_FLOAT32 = np.dtype("<f4")
# What np.load and zipfile raise on a malformed archive: numpy's format
# errors are ValueError, a cut file ends in EOFError or BadZipFile, and a
# bad member CRC or local header is BadZipFile.  A corrupted compression
# method or flag word selects a bzip2 decoder that fails with OSError, or
# a method or encryption that zipfile does not implement (RuntimeError,
# NotImplementedError among them).
_MALFORMED = (ValueError, EOFError, OSError, RuntimeError, zipfile.BadZipFile)


def write_archive(path: Path, header: dict[str, Any], arrays: dict[str, np.ndarray]) -> None:
    """Write ``header`` (plus the format number) and float32 copies of ``arrays``."""
    try:
        text = json.dumps({**header, "format": _FORMAT}, sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"{path}: header is not JSON-encodable: {exc}") from exc
    members = {name: np.asarray(a, dtype=_FLOAT32) for name, a in arrays.items()}
    # np.savez appends ".npz" to a path without that suffix, but not to a file.
    with open(path, "wb") as fh:
        np.savez(fh, header=np.array(text), **members)


def read_archive(path: Path, header_types: dict[str, type]) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    """The header and the float32 members of an archive whose header has
    a value of exactly the given type at each key of ``header_types``.

    Raises InvalidArgumentError when the file is not an ``.npz`` archive,
    fails its zip checks (a member CRC among them), has no ``header``
    member, a 0-d unicode array, holding a JSON object of this format with
    those typed keys, or has a member that is not a little-endian float32
    array.
    """
    with open(path, "rb") as fh:
        try:
            archive = np.load(fh, allow_pickle=False)
            if isinstance(archive, np.lib.npyio.NpzFile):
                with archive:
                    members = {name: archive[name] for name in archive.files}
        except _MALFORMED as exc:
            raise InvalidArgumentError(f"{path}: not a readable archive: {exc!r}") from exc
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise InvalidArgumentError(f"{path}: holds one array, not an archive")
    try:
        # Of all members, only a 0-d unicode array prints as the text it holds.
        header = json.loads(str(members.pop("header", None)))
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(f"{path}: header member is not JSON text: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != _FORMAT:
        raise InvalidArgumentError(f"{path}: header is not a format {_FORMAT} JSON object")
    # bool is a subclass of int, so compare the types exactly.
    wrong = sorted(key for key, kind in header_types.items() if type(header.get(key)) is not kind)
    if wrong:
        raise InvalidArgumentError(f"{path}: header keys {wrong} are missing or of the wrong type")
    wrong = sorted(name for name, a in members.items() if not isinstance(a, np.ndarray) or a.dtype != _FLOAT32)
    if wrong:
        raise InvalidArgumentError(f"{path}: members {wrong} are not float32 arrays")
    return header, members


def save_checkpoint(path: Path, params: ParameterSet, model_cfg: ModelConfig, extra: dict | None = None) -> None:
    """Raises InvalidArgumentError unless ``extra`` is None or a dict that JSON can encode."""
    if not isinstance(extra, (dict, type(None))):
        raise InvalidArgumentError(f"extra must be a dict, got {type(extra).__name__}")
    write_archive(path, {"model_config": asdict(model_cfg), "extra": extra or {}}, {"params": params.values})


def load_checkpoint(path: Path) -> tuple[np.ndarray, ModelConfig, dict]:
    """Read a checkpoint: its flat float32 parameter buffer, model
    configuration and extra.

    Raises InvalidArgumentError when the file is not an archive as
    ``read_archive`` requires (an ``.npz`` file that passes the zip checks,
    member CRCs included, with a 0-d unicode JSON header of format 2 and
    only float32 members), when the header's ``model_config`` or ``extra``
    is missing or not an object, when ``model_config`` has a key that is
    not a ModelConfig field or is not a valid ModelConfig (a size that is
    not an integer or is below one, heads * head_dim not embed_dim),
    or when the archive's members other than the header are not exactly
    ``params`` of shape ``(num_values(model_config),)``.  A missing file
    raises FileNotFoundError.
    """
    header, members = read_archive(path, {"model_config": dict, "extra": dict})
    config, names = header["model_config"], {f.name for f in fields(ModelConfig)}
    bad = sorted(set(config) - names)
    if bad:
        raise InvalidArgumentError(f"{path}: model_config entries {bad} are not ModelConfig fields")
    cfg = ModelConfig(**config)
    if list(members) != ["params"]:
        raise InvalidArgumentError(f"{path}: members {sorted(members)} besides the header are not exactly ['params']")
    values, size = members["params"], num_values(cfg)
    if values.shape != (size,):
        raise InvalidArgumentError(f"{path}: params of shape {values.shape} do not hold the {size} values of its model")
    return values, cfg, header["extra"]


def restore_params(values: np.ndarray, model_cfg: ModelConfig) -> ParameterSet:
    """A float32 ParameterSet wrapping a checkpoint's flat parameter buffer."""
    return ParameterSet(parameter_layout(model_cfg), np.asarray(values, dtype=np.float32))

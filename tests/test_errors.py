"""The scalar checks of ``pertmap.errors`` and the configs built on them."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from pertmap.errors import InvalidArgumentError, require_integer, require_real
from pertmap.grn import GrnConfig, SergioConfig
from pertmap.model import ModelConfig
from pertmap.training import GuidanceConfig, TrainConfig


def test_bounds_are_inclusive_unless_strict():
    require_integer("n", 1, 1, 1)
    require_real("x", 0.0, 0.0, high=0.0)
    for check in (
        lambda: require_integer("n", 0, 1),
        lambda: require_integer("n", 2, 1, 1),
        lambda: require_real("x", 0.0, 0.0, strict=True),
        lambda: require_real("x", 1.5, high=1.0),
    ):
        with pytest.raises(InvalidArgumentError, match="at least|above|at most"):
            check()


_REQUIRED = {GrnConfig: dict(genes=5), TrainConfig: dict(total_steps=1)}


@pytest.mark.parametrize(
    "cls", [GrnConfig, SergioConfig, ModelConfig, TrainConfig, GuidanceConfig], ids=lambda cls: cls.__name__
)
def test_configs_accept_numpy_scalars(cls):
    # The checks rely on NumPy scalars registering as numbers.Integral and
    # numbers.Real; the oldest-supported CI job runs this on NumPy 1.24.
    default = cls(**_REQUIRED.get(cls, {}))
    scalars = {
        f.name: (np.int64 if f.type == "int" else np.float32)(getattr(default, f.name))
        for f in dataclasses.fields(cls)
    }
    assert dataclasses.asdict(cls(**scalars)) == scalars

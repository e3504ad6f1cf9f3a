"""The cores this process may run on: the process count of
``training.train`` and the default worker count of
``datasets.generate_grn_dataset``."""

from __future__ import annotations

import os


def usable_cores() -> int:
    """The CPUs in this process's affinity mask where the platform reports
    one, else the machine's CPU count (1 when that is unknown)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

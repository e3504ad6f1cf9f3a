"""Deterministic 64-bit seed derivation.

Every batch in a generated dataset gets its own seed derived from
(base_seed, context_index, treatment_index, role).  Workers producing
different subsets of the conditions therefore draw from identical streams,
which makes generation embarrassingly parallel and bit-reproducible
regardless of the worker count.

The mixer chains the splitmix64 finalizer over the input words.  splitmix64
is a well-studied avalanche function; distinct input tuples map to
effectively independent seeds.
"""

from __future__ import annotations

from .errors import require_integer

_MASK64 = (1 << 64) - 1

# Stream roles, used as the final word of the mix.  A role's number is part
# of every seed derived for it, so renumbering a role changes its data.
# Paired data reuses the observational streams.
ROLE_STRUCTURE = 0  # graph / SCM / GRN topology and weights
ROLE_TREATMENT = 1  # intervention values
ROLE_OBS_NOISE = 2  # observational sampling noise
ROLE_INT_NOISE = 3  # interventional sampling noise
ROLE_TECH_NOISE = 5  # measurement / technical noise


def _splitmix64(h: int) -> int:
    h = (h + 0x9E3779B97F4A7C15) & _MASK64
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK64
    return h ^ (h >> 31)


def mix_seed(*words: int) -> int:
    """Mix integer words into a single 64-bit seed.

    Order-sensitive: mix_seed(a, b) != mix_seed(b, a) in general.
    """
    h = 0
    for w in words:
        require_integer("seed", w)
        h = _splitmix64((h ^ (int(w) & _MASK64)) & _MASK64)
    return h

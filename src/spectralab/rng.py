"""Seeded random streams: one master seed, one child generator per task key."""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["derived_rng"]


def derived_rng(master_seed: int, *key) -> np.random.Generator:
    """Child generator for task `key` under `master_seed` (deterministic).

    String key parts are hashed with crc32 so that the derived stream is
    stable across processes (builtin hash() is salted per interpreter run).
    """
    hashed = tuple(
        zlib.crc32(k.encode()) if isinstance(k, str) else int(k) & 0xFFFFFFFF for k in key
    )
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=hashed))

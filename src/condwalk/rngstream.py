"""Deterministic stream derivation for parallel Monte Carlo.

Every simulation partitions its paths into fixed chunks of ``CHUNK_SIZE``.
Chunk ``i`` of a run with master seed ``s`` draws from a counter-based
Philox generator keyed by ``stream_key(s, i)``.  The key is built from two
SplitMix64 finalizer passes, so distinct (seed, chunk) pairs map to
distinct 128-bit keys with no measurable correlation, and results are
independent of how chunks are scheduled across worker threads.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import DomainError

CHUNK_SIZE = 1 << 16

_MASK64 = (1 << 64) - 1


def mix64(z: int) -> int:
    """SplitMix64 finalizer; bijective on 64-bit integers."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def stream_key(seed: int, stream: int) -> int:
    """128-bit Philox key for (seed, stream)."""
    lo = mix64((seed & _MASK64) ^ mix64(stream & _MASK64))
    hi = mix64(lo ^ ((stream >> 64) & _MASK64) ^ 0xD6E8FEB86659FD93)
    return (hi << 64) | lo


def chunk_generator(seed: int, chunk_index: int) -> np.random.Generator:
    """Generator owning the draw stream of one chunk."""
    return np.random.Generator(np.random.Philox(key=stream_key(seed, chunk_index)))


def resolve_threads(threads: int | None = None) -> int:
    """Worker count: explicit argument, else CONDWALK_THREADS, else 1."""
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("CONDWALK_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise DomainError(f"CONDWALK_THREADS must be an integer, got "
                              f"{env!r}") from None
    return 1

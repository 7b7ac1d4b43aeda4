"""Deterministic stream derivation for parallel Monte Carlo.

Every simulation partitions its paths into fixed chunks of ``CHUNK_SIZE``.
Chunk ``i`` of a run with master seed ``s`` draws from its own SFC64
generator, whose ``SeedSequence`` hashes the 128-bit ``stream_key(s, i)``
into the generator state.  The key is built from two SplitMix64 finalizer
passes, so nearby (seed, chunk) pairs get unrelated keys (the per-(seed,
stream) keying of Salmon et al., SC'11), and results are independent of
how chunks are scheduled across worker threads.  This is random stream
version ``STREAM_VERSION``; version 2 drew from the slower Philox
generator under the same keys, and version 3 walked every step of a
gaussian free walk where version 4 draws S_n from its normal law.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import DomainError

CHUNK_SIZE = 1 << 16

# The random stream's version: the generator and its keys here, and the
# block schedule, samplers' transforms, summation order and closed-form
# free walks of ``walk``.
# Bumped with any change to them that changes an estimate, which also
# retires every estimate an experiment cached under the old stream.
STREAM_VERSION = 4

_MASK64 = (1 << 64) - 1


def mix64(z: int) -> int:
    """SplitMix64 finalizer; bijective on 64-bit integers."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def stream_key(seed: int, stream: int) -> int:
    """128-bit key for (seed, stream); the seed is taken modulo 2^64."""
    lo = mix64((seed & _MASK64) ^ mix64(stream & _MASK64))
    hi = mix64(lo ^ ((stream >> 64) & _MASK64) ^ 0xD6E8FEB86659FD93)
    return (hi << 64) | lo


def chunk_generator(seed: int, chunk_index: int) -> np.random.Generator:
    """Generator owning the draw stream of one chunk."""
    return np.random.Generator(np.random.SFC64(stream_key(seed, chunk_index)))


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

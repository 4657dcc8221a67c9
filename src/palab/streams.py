"""Reproducible random streams.

Every sampler in palab takes an explicit 64-bit seed.  Derived streams are
produced with a counter-based discipline: a Philox generator keyed by
``SeedSequence(seed, spawn_key=key)``, where ``key`` is a tuple of integers
identifying the consumer (pipeline stream, repetition chunk, bootstrap slot).
The derivation depends only on ``(seed, key)``.  A sampler that takes a seed
also takes a ``Generator``; ``generator`` reads that argument.
"""

from __future__ import annotations

import numpy as np


def derive(seed: int, *key: int) -> np.random.Generator:
    """Return the generator for stream ``key`` of root ``seed``."""
    ss = np.random.SeedSequence(entropy=int(seed) & 0xFFFFFFFFFFFFFFFF, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def generator(seed_or_rng) -> np.random.Generator:
    """A ``Generator`` as given, or the root stream ``derive(seed)`` of an integer seed."""
    return seed_or_rng if isinstance(seed_or_rng, np.random.Generator) else derive(int(seed_or_rng))


def chunk_sizes(total: int, chunks: int) -> list[int]:
    """Split ``total`` repetitions into at most ``chunks`` near-equal chunks;
    chunk c draws from its own stream, so the layout fixes the results."""
    chunks = max(1, min(chunks, total)) if total > 0 else 1
    base, extra = divmod(total, chunks)
    return [base + (1 if c < extra else 0) for c in range(chunks)]

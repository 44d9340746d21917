"""Random-number-generator plumbing.

Every stochastic component of the library accepts either an integer seed, a
:class:`numpy.random.Generator`, or ``None``.  Centralising the coercion in
one helper keeps experiment runs reproducible and avoids the classic bug of
mixing the legacy global ``numpy.random`` state with new-style generators.
"""

from __future__ import annotations

import zlib
from typing import List, Optional, Sequence, Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an integer seed, a ``SeedSequence`` or an
        existing ``Generator`` (returned unchanged).

    Returns
    -------
    numpy.random.Generator
        A generator suitable for all downstream sampling.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_generators(seed: SeedLike, count: int) -> List[np.random.Generator]:
    """Create ``count`` statistically independent child generators.

    Used by the experiment harness to give every repetition / worker its own
    stream so that changing the number of repetitions does not perturb the
    earlier ones.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive children from the generator's bit stream.
        seeds = seed.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(s)) for s in seeds]
    sequence = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in sequence.spawn(count)]


def _stable_token_hash(token: object) -> int:
    """Process-independent 32-bit hash of an arbitrary token.

    Python's built-in ``hash`` is randomised per process for strings, which
    would make dataset draws irreproducible across runs; a CRC of the
    token's repr is stable everywhere.
    """
    return zlib.crc32(repr(token).encode("utf-8")) & 0xFFFFFFFF


def derive_seed(seed: SeedLike, *tokens: object) -> int:
    """Derive a deterministic integer seed from a base seed and string tokens.

    The experiment runners use this to key repetitions by ``(dataset, method,
    repetition)`` so that every cell of a results table is independently
    reproducible — across processes and platforms.
    """
    base = seed if isinstance(seed, int) else (0 if seed is None else _stable_token_hash(seed))
    mixed = np.random.SeedSequence([base & 0xFFFFFFFF, *(_stable_token_hash(t) for t in tokens)])
    return int(mixed.generate_state(1)[0])


# --------------------------------------------------------------------- #
# Counter-based streams (the answer-simulation hot path)
# --------------------------------------------------------------------- #
# Answer simulation needs one independent uniform stream per (worker, round)
# so simulated answers are deterministic, order-independent and identical at
# any process count.  Creating a ``numpy`` Generator per worker costs ~30us
# each (SeedSequence entropy pooling), which would dominate the vectorized
# round simulation; instead the streams are counter-based: a splitmix64 mix
# of ``(root seed, worker token, round)`` yields a 64-bit stream seed, and
# the ``t``-th uniform of a stream is a pure function of ``(seed, t)``.
# Everything is elementwise, so drawing one stream at a time (the per-worker
# test oracle) and drawing a whole matrix (the platform) give bit-identical
# values.

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64 increment (odd, near 2^64/phi)


def _mix64(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer on ``uint64`` arrays (wraps silently)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def stream_seeds(base_seed: int, token_hashes: object, *salts: int) -> np.ndarray:
    """Vectorized counterpart of :func:`derive_seed` for hot paths.

    Derives one 64-bit stream seed per entry of ``token_hashes`` (e.g. one
    per worker) from an integer base seed plus integer salts (e.g. the round
    index).  Pure function of its inputs — no generator state — so streams
    are independent of evaluation order, process count and pool composition.
    """
    state = np.asarray([base_seed & _MASK64], dtype=np.uint64)
    for salt in salts:
        state = _mix64(state + np.asarray([salt & _MASK64], dtype=np.uint64) + np.uint64(_GAMMA))
    tokens = np.atleast_1d(np.asarray(token_hashes, dtype=np.uint64))
    return _mix64(state + _mix64(tokens + np.uint64(_GAMMA)) + np.uint64(_GAMMA))


def token_hashes(tokens: Sequence[object]) -> np.ndarray:
    """Stable 32-bit hashes of arbitrary tokens as a ``uint64`` array."""
    return np.asarray([_stable_token_hash(token) for token in tokens], dtype=np.uint64)


def counter_uniforms(seeds: object, n_draws: int, offset: int = 0) -> np.ndarray:
    """Uniform(0, 1) draws ``offset .. offset + n_draws - 1`` of each stream.

    Returns a ``(len(seeds), n_draws)`` float64 matrix whose row ``i``
    contains draws ``offset``-th through ``(offset + n_draws - 1)``-th of the
    stream seeded by ``seeds[i]``.  Because each draw is a pure function of
    ``(seed, index)``, requesting a stream in batches (the per-worker test
    oracle) or as one block (the platform) yields identical values.
    """
    if n_draws < 0:
        raise ValueError(f"n_draws must be non-negative, got {n_draws}")
    if offset < 0:
        raise ValueError(f"offset must be non-negative, got {offset}")
    seed_column = np.atleast_1d(np.asarray(seeds, dtype=np.uint64))[:, None]
    return counter_draws(seed_column, np.arange(offset, offset + n_draws, dtype=np.uint64)[None, :])


def counter_draws(seeds: object, counters: object) -> np.ndarray:
    """Draw ``counters[i]`` of the stream seeded by ``seeds[i]``, elementwise.

    The single definition of a counter-based uniform: :func:`counter_uniforms`
    is this over a ``(streams, draws)`` grid, and hot paths that need one
    draw from each of many streams (each at its own counter) call it with
    two equal-length vectors.  ``seeds`` and ``counters`` broadcast against
    each other and must be arrays, not scalars.
    """
    counters = np.asarray(counters, dtype=np.uint64)
    bits = _mix64(np.asarray(seeds, dtype=np.uint64) + (counters + np.uint64(1)) * np.uint64(_GAMMA))
    # Top 53 bits -> uniform in [0, 1), the standard double construction.
    return (bits >> np.uint64(11)).astype(np.float64) * (2.0**-53)


def work_unit_seed(
    base_seed: SeedLike,
    stream: str,
    *,
    dataset: str,
    repetition: int,
    k: int,
    q: int,
    method: Optional[str] = None,
) -> int:
    """Canonical seed for one random stream of an experiment work unit.

    A work unit is one ``(dataset, method, repetition, k, q)`` cell of the
    comparison grid.  Each cell consumes three independent streams:

    ``"instance"``
        The worker-pool / task-bank draw.  Shared by every method of the
        same ``(dataset, repetition, k, q)`` so the comparison is paired.
    ``"environment"``
        The answer noise of the annotation environment.  Also shared across
        methods (``method`` must be ``None``) — every method faces the same
        golden-question outcomes.
    ``"selector"``
        The method-private exploration stream (``method`` is required).

    Every stream mixes the *full* unit key — including ``k`` and ``q`` — so
    sweep points (Figures 6–7) never reuse each other's randomness, and no
    raw loop index ever reaches a generator.
    """
    if stream == "selector":
        if method is None:
            raise ValueError("the 'selector' stream requires a method name")
    elif stream in ("instance", "environment"):
        if method is not None:
            raise ValueError(f"the {stream!r} stream is shared across methods; method must be None")
    else:
        raise ValueError(f"unknown work-unit stream {stream!r}")
    tokens: List[object] = [dataset]
    if method is not None:
        tokens.append(method)
    tokens.extend([stream, repetition, int(k), int(q)])
    return derive_seed(base_seed, *tokens)


__all__ = [
    "SeedLike",
    "as_generator",
    "spawn_generators",
    "derive_seed",
    "work_unit_seed",
    "stream_seeds",
    "token_hashes",
    "counter_uniforms",
    "counter_draws",
]

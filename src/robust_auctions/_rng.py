"""Counter-based uniform streams for deterministic, partition-invariant sampling.

Everything random in this package flows through `uniform_stream(seed, start,
count)`: position i of the stream for a given seed always holds the same
float64 in [0, 1), no matter how the range is chunked across calls, chunks,
or worker threads.

numpy's Philox bit generator advances in 256-bit blocks that each yield four
float64 draws, so `advance(k)` skips 4k draws; arbitrary offsets discard the
remainder after a block-aligned advance.
"""

from __future__ import annotations

from contextlib import suppress

import numpy as np
from numpy.random import Generator, Philox

_DRAWS_PER_BLOCK = 4


def check_int(x, what: str) -> int:
    """x as an int if it is a whole number, as numpy ints and 1e6 are."""
    with suppress(TypeError, ValueError, OverflowError):
        if int(x) == x:     # int() raises on None, NaN and inf
            return int(x)
    raise ValueError(f"{what} must be a whole number, not {x!r}")


def check_seed(seed: int) -> int:
    """The one seed rule: a whole number in [0, 2**128), Philox's keys."""
    seed = check_int(seed, "seed")
    if not 0 <= seed < 1 << 128:
        raise ValueError(f"seed {seed} is not in [0, 2**128)")
    return seed


def uniform_stream(seed: int, start: int, count: int) -> np.ndarray:
    """float64 uniforms at stream positions [start, start + count)."""
    if start < 0 or count < 0:
        raise ValueError("start and count must be nonnegative")
    bg = Philox(key=check_seed(seed))
    blocks, skip = divmod(start, _DRAWS_PER_BLOCK)
    if blocks:
        bg.advance(blocks)
    u = Generator(bg).random(skip + count)
    return u[skip:]


def profile_uniforms(seed: int, first_profile: int, n_profiles: int,
                     n_bidders: int) -> np.ndarray:
    """Uniforms for valuation profiles, shaped (n_profiles, n_bidders).

    Profile i (globally indexed) consumes stream positions
    [i * n_bidders, (i+1) * n_bidders), so any partition of the profile range
    reproduces the same matrix rows.
    """
    flat = uniform_stream(seed, first_profile * n_bidders,
                          n_profiles * n_bidders)
    return flat.reshape(n_profiles, n_bidders)

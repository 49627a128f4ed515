"""Deterministic counter-based random streams.

Every random quantity in the package derives from a 64-bit key built by
absorbing integer labels into a splitmix-style finalizer:

    mix64(x):  x ^= x>>30; x *= 0xBF58476D1CE4E5B9;
               x ^= x>>27; x *= 0x94D049BB133111EB;
               x ^= x>>31                                (mod 2^64)

    absorb(h, p) = mix64(h ^ mix64(p + GOLDEN))
    key(seed, role, t, j, k) = absorb(absorb(absorb(absorb(absorb(H0, seed),
                               role), t), j), k)
    word(key, i) = mix64(key + (i+1)*GOLDEN)             (i = 0, 1, ...)

`role` separates independent sub-streams (entry values, sparsity mask,
smoothing scalar, ...), so the dense path never consumes mask randomness.
ROLE_PROBE feeds the Gaussian probes of `linalg.certified_log_det`, keyed by
(seed, ROLE_PROBE, trial, j, i) for row j of probe i; they are independent of
the matrix they probe, and reports that use them stay deterministic.
Draws are pure functions of (key, counter): any matrix entry can be
regenerated in isolation and generation order never matters, which makes
parallel generation bitwise reproducible.

Two implementations are kept in lockstep: a Python-int path (scalar draws)
and a vectorized numpy uint64 path (whole matrices); the test suite checks
they agree bit for bit.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_H0 = 0x6A09E667F3BCC909

# role tags for independent sub-streams
ROLE_VALUE = 1
ROLE_MASK = 2
ROLE_XI = 3
ROLE_MOMENT = 4
ROLE_SMALL_BALL = 5
ROLE_CONCENTRATION = 6
ROLE_PROBE = 7

_U53 = 2.0 ** -53


def mix64(x: int) -> int:
    x &= MASK64
    x ^= x >> 30
    x = (x * _M1) & MASK64
    x ^= x >> 27
    x = (x * _M2) & MASK64
    x ^= x >> 31
    return x


def mix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorized mix64 on a uint64 array (returns a new array)."""
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(_M1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_M2)
    x ^= x >> np.uint64(31)
    return x


def absorb(h: int, part: int) -> int:
    return mix64(h ^ mix64((part + GOLDEN) & MASK64))


def derive_key(*parts: int) -> int:
    h = _H0
    for p in parts:
        h = absorb(h, int(p) & MASK64)
    return h


def _row_col_hashes(master_seed: int, role: int, aux: int, nrows: int, ncols: int):
    """(hr, inner_c): derive_key(seed, role, aux, j, k) == mix64(hr[j] ^ inner_c[k])."""
    h0 = derive_key(master_seed, role, aux)
    inner_r = mix64_array((np.arange(nrows, dtype=np.uint64) + np.uint64(GOLDEN)))
    inner_c = (
        inner_r
        if ncols == nrows
        else mix64_array((np.arange(ncols, dtype=np.uint64) + np.uint64(GOLDEN)))
    )
    return mix64_array(np.uint64(h0) ^ inner_r), inner_c


def grid_keys(master_seed: int, role: int, aux: int, nrows: int, ncols: int) -> np.ndarray:
    """(nrows, ncols) array of keys, keys[j, k] == derive_key(seed, role, aux, j, k)."""
    hr, inner_c = _row_col_hashes(master_seed, role, aux, nrows, ncols)
    return mix64_array(hr[:, None] ^ inner_c[None, :])


def keys_at(master_seed: int, role: int, aux: int, rows: np.ndarray, cols: np.ndarray,
            nrows: int, ncols: int) -> np.ndarray:
    """`grid_keys(seed, role, aux, nrows, ncols)[rows, cols]`, computing only those keys;
    `rows` and `cols` broadcast together like numpy index arrays."""
    hr, inner_c = _row_col_hashes(master_seed, role, aux, nrows, ncols)
    return mix64_array(hr[rows] ^ inner_c[cols])


def word_grid(keys: np.ndarray, index: int) -> np.ndarray:
    """index-th 64-bit word of each key's stream."""
    step = np.uint64(((index + 1) * GOLDEN) & MASK64)
    return mix64_array(keys + step)


def uniform_from_words(words: np.ndarray) -> np.ndarray:
    """Map 64-bit words to doubles in the open interval (0, 1)."""
    return ((words >> np.uint64(11)).astype(np.float64) + 0.5) * _U53


class Stream:
    """Sequential view of one key's word stream (scalar draws)."""

    __slots__ = ("key", "counter")

    def __init__(self, key: int):
        self.key = int(key) & MASK64
        self.counter = 0

    @classmethod
    def from_labels(cls, *parts: int) -> "Stream":
        return cls(derive_key(*parts))

    def next_word(self) -> int:
        self.counter += 1
        return mix64((self.key + self.counter * GOLDEN) & MASK64)

    def uniform(self) -> float:
        return ((self.next_word() >> 11) + 0.5) * _U53

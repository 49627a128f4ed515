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

Two implementations are kept in lockstep: a Python-int path (`mix64`,
`derive_key`, `Stream`; scalar draws) and a numpy uint64 path, whose one
mixer `_mix64_inplace` runs every pass in place; the test suite checks they
agree bit for bit. The array path takes its row and column hashes from one
helper over a row range (`_row_col_hashes`), one index hash for both if the
range starts at row 0. `key_blocks` walks its rows, or its columns so that a
column-major array fills in contiguous blocks, in blocks of at most BLOCK_KEYS
keys on buffers reused from block to block, so a sample of n^2 entries needs
O(BLOCK_KEYS) scratch memory and its n row hashes beside its output, and
`keys_at` takes the keys at given (row, column) pairs of a grid, the whole grid
included (`grid_keys`). Keys are positional, so neither blocks nor walk change
a bit. A label outside [0, 2^64) raises DomainError: keeping its low 64 bits
would alias another label's stream. So does a bool or a non-integer label,
which `int()` would truncate onto another label's.
The buffers belong to one call, never to the module, so several threads may
sample at once. `uniform_below` tests `uniform < p` as one integer compare
on the words.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .errors import DomainError

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
# 6 is reserved: it keyed a retired concentration estimate
ROLE_PROBE = 7

_U53 = 2.0 ** -53

BLOCK_KEYS = 1 << 15  # keys per row block of the array path

_GOLDEN_64 = np.uint64(GOLDEN)
_M1_64 = np.uint64(_M1)
_M2_64 = np.uint64(_M2)
_S11, _S27, _S30, _S31 = (np.uint64(s) for s in (11, 27, 30, 31))


def mix64(x: int) -> int:
    x &= MASK64
    x ^= x >> 30
    x = (x * _M1) & MASK64
    x ^= x >> 27
    x = (x * _M2) & MASK64
    x ^= x >> 31
    return x


def _mix64_inplace(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """mix64 on the uint64 array `x` in place; `scratch` (same shape) holds each shift."""
    for shift, mult in ((_S30, _M1_64), (_S27, _M2_64)):
        np.right_shift(x, shift, out=scratch)
        x ^= scratch
        x *= mult
    np.right_shift(x, _S31, out=scratch)
    x ^= scratch
    return x


def absorb(h: int, part: int) -> int:
    return mix64(h ^ mix64((part + GOLDEN) & MASK64))


def derive_key(*parts: int) -> int:
    h = _H0
    for part in parts:
        if isinstance(part, (bool, np.bool_)) or not hasattr(part, "__index__"):
            raise DomainError(f"key label {part!r} is not an integer")
        p = operator.index(part)  # numpy integers included
        if not 0 <= p <= MASK64:
            raise DomainError(f"key label {p} is outside [0, 2^64)")
        h = absorb(h, p)
    return h


def _inner(parts: np.ndarray) -> np.ndarray:
    """mix64(p + GOLDEN) for each p of the uint64 array `parts`, in a new array."""
    x = parts + _GOLDEN_64
    return _mix64_inplace(x, np.empty_like(x))


def _row_col_hashes(master_seed: int, role: int, aux: int, rows: range, ncols: int):
    """(hr, inner_c): derive_key(seed, role, aux, rows[i], k) == mix64(hr[i] ^ inner_c[k]),
    from one index hash mix64(i + GOLDEN) if `rows` starts at 0. A row range reaching
    outside [0, 2^64) raises DomainError."""
    if len(rows) and not (0 <= rows.start and rows.stop - 1 <= MASK64):
        raise DomainError(f"row range {rows} is outside [0, 2^64)")
    h0 = np.uint64(derive_key(master_seed, role, aux))
    if rows.start == 0:
        inner = _inner(np.arange(max(len(rows), ncols), dtype=np.uint64))
        hr, inner_c = inner[: len(rows)] ^ h0, inner[:ncols]
    else:
        hr = _inner(np.arange(rows.start, rows.stop, dtype=np.uint64)) ^ h0
        inner_c = _inner(np.arange(ncols, dtype=np.uint64))
    return _mix64_inplace(hr, np.empty_like(hr)), inner_c


def key_blocks(master_seed: int, role: int, aux: int, rows: range, ncols: int,
               by_columns: bool = False):
    """Walk the keys derive_key(seed, role, aux, j, k), j in `rows`, 0 <= k < ncols, by row
    blocks, or by column blocks of the transposed grid if `by_columns`.

    Yields (block, keys, scratch) for blocks of at most BLOCK_KEYS keys (one
    row, or column, when it is longer): `block` is the range of j it covers,
    keys[i, k] is the key of (block[i], k) (by columns: of k, and (rows[j],
    block[i]) at keys[i, j]), and `scratch` is a uint64 array
    of the same shape the caller may overwrite. Both are views of buffers
    that every block reuses, so use them before the next step. The row
    hashes are absorbed once per call, O(len(rows)) words beside the
    O(BLOCK_KEYS) block buffers. A key does not depend on the grid's size
    or on the walk, so any row range gives the grid's bits.
    """
    hr, inner_c = _row_col_hashes(master_seed, role, aux, rows, ncols)
    lines, outer, across = (range(ncols), inner_c, hr) if by_columns else (rows, hr, inner_c)
    height = max(1, min(len(lines), BLOCK_KEYS // max(len(across), 1)))
    keys_buf = np.empty((height, len(across)), np.uint64)
    scratch_buf = np.empty_like(keys_buf)
    for start in range(0, len(lines), height):
        block = lines[start : start + height]
        keys, scratch = keys_buf[: len(block)], scratch_buf[: len(block)]
        np.bitwise_xor(outer[start : start + len(block), None], across, out=keys)
        yield block, _mix64_inplace(keys, scratch), scratch


def grid_keys(master_seed: int, role: int, aux: int, nrows: int, ncols: int) -> np.ndarray:
    """(nrows, ncols) array of keys, keys[j, k] == derive_key(seed, role, aux, j, k)."""
    rows, cols = np.arange(nrows)[:, None], np.arange(ncols)
    return keys_at(master_seed, role, aux, rows, cols, nrows, ncols)


def keys_at(master_seed: int, role: int, aux: int, rows: np.ndarray, cols: np.ndarray,
            nrows: int, ncols: int) -> np.ndarray:
    """derive_key(seed, role, aux, j, k) for the index pairs (j, k) of `rows` and
    `cols`, which broadcast together like numpy index arrays into an nrows x ncols
    grid; the row and column hashes are taken for the whole grid. An index
    outside the grid raises DomainError."""
    if np.any(rows < 0) or np.any(rows >= nrows) or np.any(cols < 0) or np.any(cols >= ncols):
        raise DomainError(f"a key index lies outside the {nrows} x {ncols} grid")
    hr, inner_c = _row_col_hashes(master_seed, role, aux, range(nrows), ncols)
    keys = hr[rows] ^ inner_c[cols]
    return _mix64_inplace(keys, np.empty_like(keys))


def word_into(keys: np.ndarray, index: int, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """`word_grid(keys, index)` written to `out` (which may be `keys`), with
    `scratch` (same shape) as the mix64 buffer."""
    np.add(keys, np.uint64(((index + 1) * GOLDEN) & MASK64), out=out)
    return _mix64_inplace(out, scratch)


def word_grid(keys: np.ndarray, index: int) -> np.ndarray:
    """index-th 64-bit word of each key's stream."""
    words = np.empty(np.shape(keys), np.uint64)
    return word_into(keys, index, words, np.empty_like(words))


def uniform_from_words(words: np.ndarray) -> np.ndarray:
    """Map 64-bit words to doubles in the open interval (0, 1)."""
    # w >> 11 < 2^53 converts to float64 exactly, straight into the result
    u = np.right_shift(words, _S11, out=np.empty(np.shape(words)), casting="unsafe")
    u += 0.5
    u *= _U53
    return u


@functools.lru_cache(maxsize=64)
def _uniform_count(p: float) -> int:
    """How many m in [0, 2^53) have (m + 0.5) * 2^-53 < p, with the rounding of
    `uniform_from_words`. That expression is monotone in m, so these m are a
    prefix and bisection finds its end. From m = 2^52 on, m + 0.5 rounds, so a
    closed form like ceil(p 2^53 - 0.5) is not exact for every p."""
    lo, hi = 0, 1 << 53
    while lo < hi:
        mid = (lo + hi) // 2
        if (float(mid) + 0.5) * _U53 < p:
            lo = mid + 1
        else:
            hi = mid
    return lo


def uniform_below(words: np.ndarray, p: float) -> np.ndarray:
    """`uniform_from_words(words) < p`, bit for bit, as one compare on the words:
    the uniform of w is below p iff w >> 11 < T, i.e. w < T << 11."""
    count = _uniform_count(float(p))
    if count == 1 << 53:  # p exceeds every uniform
        return np.ones(np.shape(words), bool)
    return words < np.uint64(count << 11)


class Stream:
    """Sequential view of one key's word stream (scalar draws)."""

    __slots__ = ("key", "counter")

    def __init__(self, key: int):
        self.key = int(key) & MASK64
        self.counter = 0

    def next_word(self) -> int:
        self.counter += 1
        return mix64((self.key + self.counter * GOLDEN) & MASK64)

    def uniform(self) -> float:
        return ((self.next_word() >> 11) + 0.5) * _U53

import math
import re

import numpy as np
import pytest

from circulaw import DomainError, EnsembleConfig, EntryDistribution, MatrixSample, rng
from circulaw.ensemble import draw_rows, log_moment_estimate, mask_rows, smoothing_stream
from circulaw.linalg import certified_log_det


class TestMixerLockstep:
    def test_scalar_and_array_mix_agree(self, oracle_rng):
        values = oracle_rng.integers(0, 2**63, size=200, dtype=np.uint64)
        values[:3] = [0, 1, rng.MASK64]
        array_out = rng._mix64_inplace(values.copy(), np.empty_like(values))
        for v, out in zip(values.tolist(), array_out.tolist()):
            assert rng.mix64(int(v)) == out

    def test_grid_keys_match_scalar_derivation(self):
        keys = rng.grid_keys(master_seed=99, role=rng.ROLE_VALUE, aux=4, nrows=5, ncols=7)
        for j in (0, 2, 4):
            for k in (0, 3, 6):
                assert int(keys[j, k]) == rng.derive_key(99, rng.ROLE_VALUE, 4, j, k)

    def test_keys_at_match_the_grid(self):
        rows, cols = np.array([0, 4, 2, 4]), np.array([6, 0, 3, 6])
        at = rng.keys_at(99, rng.ROLE_VALUE, 4, rows, cols, 5, 7)
        assert at.tolist() == [rng.derive_key(99, rng.ROLE_VALUE, 4, j, k)
                               for j, k in zip(rows, cols)]
        assert rng.keys_at(99, rng.ROLE_VALUE, 4, rows[:0], cols[:0], 5, 7).size == 0

    @pytest.mark.parametrize("rows, ncols", [(range(0, 9), 5), (range(3, 300), 200),
                                             (range(7, 10), 40_000), (range(0, 0), 4)])
    def test_key_blocks_walk_the_grid(self, rows, ncols, monkeypatch):
        # small blocks, so several walk each range and the row hashes are sliced
        monkeypatch.setattr(rng, "BLOCK_KEYS", 1 << 10)
        grid = rng.grid_keys(99, rng.ROLE_VALUE, 4, rows.stop, ncols)[rows.start :]
        walked, covered = [], []
        for block, keys, scratch in rng.key_blocks(99, rng.ROLE_VALUE, 4, rows, ncols):
            assert keys.shape == scratch.shape == (len(block), ncols)
            walked.append(keys.copy())
            covered.extend(block)
        assert covered == list(rows)
        if walked:
            assert np.concatenate(walked).tobytes() == grid.tobytes()

    @pytest.mark.parametrize("rows, ncols", [(range(0, 9), 5), (range(0, 300), 200),
                                             (range(3, 40_000), 3), (range(0, 0), 4)])
    def test_key_blocks_walk_the_columns(self, rows, ncols, monkeypatch):
        # the transposed walk: blocks of columns, each row of a block one column's keys
        monkeypatch.setattr(rng, "BLOCK_KEYS", 1 << 10)
        grid = rng.grid_keys(99, rng.ROLE_VALUE, 4, rows.stop, ncols)[rows.start :]
        walked, covered = [], []
        for block, keys, scratch in rng.key_blocks(99, rng.ROLE_VALUE, 4, rows, ncols,
                                                   by_columns=True):
            assert keys.shape == scratch.shape == (len(block), len(rows))
            walked.append(keys.copy())
            covered.extend(block)
        assert covered == list(range(ncols))
        assert np.concatenate(walked).tobytes() == np.ascontiguousarray(grid.T).tobytes()

    def test_word_grid_matches_stream(self):
        keys = rng.grid_keys(7, rng.ROLE_MASK, 0, 3, 3)
        stream = rng.Stream(rng.derive_key(7, rng.ROLE_MASK, 0, 1, 2))
        for i in range(4):
            assert int(rng.word_grid(keys, i)[1, 2]) == stream.next_word()

    def test_roles_are_independent_streams(self):
        a = rng.derive_key(1, rng.ROLE_VALUE, 0, 0, 0)
        b = rng.derive_key(1, rng.ROLE_MASK, 0, 0, 0)
        assert a != b

    def test_label_order_matters(self):
        assert rng.derive_key(0, 1, 2) != rng.derive_key(0, 2, 1)


class TestLabelRange:
    """Keys absorbed each label's low 64 bits, so -1 drew the stream of 2^64 - 1."""

    @pytest.mark.parametrize("label", [-1, 2**64])
    def test_a_label_outside_64_bits_raises(self, label):
        with pytest.raises(DomainError, match="outside"):
            rng.derive_key(1, 3, label)

    @pytest.mark.parametrize("label", [3.7, 3.0, np.float64(3.0), True, np.True_, "3"],
                             ids=["3.7", "3.0", "float64", "True", "bool_", "str"])
    def test_a_label_that_is_not_an_integer_raises(self, label):
        # int() read 3.7 as 3 and True as 1, so they drew another label's stream
        with pytest.raises(DomainError, match="not an integer"):
            rng.derive_key(label, 1, 0)

    @pytest.mark.parametrize("label", [np.uint64(3), np.int64(3), np.uint8(3)],
                             ids=["uint64", "int64", "uint8"])
    def test_a_numpy_integer_label_gives_the_int_key(self, label):
        assert rng.derive_key(label, 1, 0) == rng.derive_key(3, 1, 0)

    @pytest.mark.parametrize("draw", [
        lambda: smoothing_stream(EnsembleConfig(4, 1.0, EntryDistribution("RealGaussian"), 1), -1),
        lambda: certified_log_det(MatrixSample(np.eye(4)), 0.0, math.inf, 1, -1),
        lambda: log_moment_estimate(EntryDistribution("RealGaussian"), 10_000, 1.0, seed=-1),
    ], ids=["smoothing_stream", "certified_log_det", "log_moment_estimate"])
    def test_callers_reject_a_negative_label(self, draw):
        with pytest.raises(DomainError):
            draw()

    # numpy's uint64 cast raised a bare OverflowError for these rows
    @pytest.mark.parametrize("rows", [range(-1, 2), range(2**64 - 1, 2**64 + 1)],
                             ids=["negative", "past-2^64"])
    @pytest.mark.parametrize("draw", [
        lambda rows: draw_rows(EntryDistribution("RealGaussian"), 1, 1, 0, rows, 4),
        lambda rows: mask_rows(1, rng.ROLE_MASK, 0, rows, 4, 0.5),
        lambda rows: next(rng.key_blocks(1, 1, 0, rows, 4)),
    ], ids=["draw_rows", "mask_rows", "key_blocks"])
    def test_a_row_range_outside_64_bits_raises(self, draw, rows):
        with pytest.raises(DomainError, match=re.escape(f"row range {rows} is outside")):
            draw(rows)

    def test_the_last_rows_below_2_64_are_keyed(self):
        top = range(2**64 - 2, 2**64)
        keys = next(rng.key_blocks(1, 1, 0, top, 3))[1]
        assert keys.tolist() == [[rng.derive_key(1, 1, 0, j, k) for k in range(3)] for j in top]

    @pytest.mark.parametrize("rows, cols", [([-1], [0]), ([4], [0]), ([0], [-1]), ([0], [4])])
    def test_keys_at_rejects_an_index_off_the_grid(self, rows, cols):
        # a row of -1 took the key of row 3
        with pytest.raises(DomainError, match="outside the 4 x 4 grid"):
            rng.keys_at(1, 1, 0, np.array(rows), np.array(cols), 4, 4)


class TestUniformWords:
    def test_open_interval(self, oracle_rng):
        words = oracle_rng.integers(0, 2**63, size=10_000, dtype=np.uint64) * np.uint64(2)
        u = rng.uniform_from_words(words)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_equidistribution(self):
        keys = rng.grid_keys(0, rng.ROLE_VALUE, 0, 100_000, 1)
        u = rng.uniform_from_words(rng.word_grid(keys, 0))[:, 0]
        # mean 1/2 within 5 sigma, sd of mean = 1/sqrt(12 m)
        assert abs(u.mean() - 0.5) < 5.0 / np.sqrt(12.0 * len(u))

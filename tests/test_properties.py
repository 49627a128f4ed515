"""Property tests of the empirical-measure algebra and the two RNG paths."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from circulaw import EmpiricalCDF, rng  # noqa: E402

# duplicates are likely: small integers mixed with arbitrary finite floats
atom_values = st.lists(
    st.one_of(st.integers(-5, 5).map(float), st.floats(-1e6, 1e6, allow_nan=False)),
    min_size=1,
    max_size=50,
)
u64 = st.integers(0, rng.MASK64)


@settings(max_examples=300, deadline=None)
@given(atom_values, st.lists(st.floats(-2e6, 2e6, allow_nan=False), max_size=20))
def test_empirical_cdf_invariants(values, queries):
    f = EmpiricalCDF.from_values(values)
    assert np.all(np.diff(f.xs) > 0)
    assert abs(float(f.ws.sum()) - 1.0) <= 1e-12
    np.testing.assert_array_equal(f.xs, np.unique(values))
    for x, w in zip(f.xs, f.ws):
        assert w == pytest.approx(np.count_nonzero(np.asarray(values) == x) / len(values),
                                  rel=1e-12)
    points = np.sort(np.concatenate([queries, f.xs, f.xs - 0.5, f.xs + 0.5]))
    right, left = f.evaluate(points), f.evaluate_left(points)
    assert np.all(np.diff(right) >= 0) and np.all(np.diff(left) >= 0)
    assert np.all(left <= right)
    assert f.evaluate(f.xs[0] - 1.0) == 0.0
    assert f.evaluate(f.xs[-1]) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(u64, u64, u64, st.integers(1, 6), st.integers(1, 6), st.data())
def test_vector_and_scalar_rng_paths_agree(seed, role, aux, nrows, ncols, data):
    keys = rng.grid_keys(seed, role, aux, nrows, ncols)
    for j in range(nrows):
        for k in range(ncols):
            assert int(keys[j, k]) == rng.derive_key(seed, role, aux, j, k)
    j = data.draw(st.integers(0, nrows - 1))
    k = data.draw(st.integers(0, ncols - 1))
    words = rng.Stream(rng.derive_key(seed, role, aux, j, k))
    uniforms = rng.Stream(rng.derive_key(seed, role, aux, j, k))
    for index in range(4):
        word = rng.word_grid(keys, index)
        assert int(word[j, k]) == words.next_word()
        assert rng.uniform_from_words(word)[j, k] == uniforms.uniform()

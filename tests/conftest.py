import math

import numpy as np
import pytest

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    # property tests draw the same examples on every run and keep no example database
    settings.register_profile("circulaw", derandomize=True, database=None)
    settings.load_profile("circulaw")


def two_sample_ks(a, b) -> float:
    """Two-sample Kolmogorov statistic, evaluated over the pooled points."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    pooled = np.concatenate([a, b])
    fa = np.searchsorted(a, pooled, side="right") / len(a)
    fb = np.searchsorted(b, pooled, side="right") / len(b)
    return float(np.abs(fa - fb).max())


def ks_two_sample_critical(alpha: float, n1: int, n2: int) -> float:
    """Asymptotic two-sample rejection threshold at level alpha."""
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    return c * math.sqrt((n1 + n2) / (n1 * n2))


def ks_one_sample_critical(alpha: float, n: int) -> float:
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    return c / math.sqrt(n)


@pytest.fixture
def oracle_rng():
    """Independent numpy generator for test-side oracles (not the library RNG)."""
    return np.random.default_rng(20240817)

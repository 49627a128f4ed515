"""Matrix ensembles: scaled i.i.d. entries, Bernoulli sparsification, smoothing.

The sampled model is an n x n matrix with entry (j, k) equal to
eps_jk * X_jk / sqrt(n * p_n), where X_jk are i.i.d. mean-0 variance-1 draws
from a chosen entry law and eps_jk are i.i.d. Bernoulli(p_n) indicators.
p_n = 1 short-circuits the mask entirely, reproducing the dense 1/sqrt(n)
scaling without consuming mask randomness.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng
from .errors import ConfigError, DomainError

DIST_TAGS = (
    "ComplexGaussian",
    "RealGaussian",
    "Rademacher",
    "ComplexRademacher",
    "UniformSymmetric",
    "TwoPoint",
)

_SQRT3 = math.sqrt(3.0)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_TWO_PI = 2.0 * math.pi


def _whole(name: str, value) -> int:
    """`value` as an int; fractions, non-finite floats and non-numbers are errors."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _real(name: str, value) -> float:
    """`value` as a finite float; bool, None, strings and NaN/inf are errors."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return float(value)


def _json_object(what: str, d, required, optional=()):
    """Raise unless `d` is a JSON object with every `required` key and no others but `optional`."""
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be a JSON object, got {d!r}")
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown {what} fields: {sorted(unknown)}")
    missing = set(required) - set(d)
    if missing:
        raise ConfigError(f"{what} missing fields: {sorted(missing)}")


@dataclass(frozen=True)
class EntryDistribution:
    """One mean-0, variance-1 entry law.

    TwoPoint(a, p) takes the value +a with probability p and -a*p/(1-p)
    otherwise; mean 0 is automatic and unit variance forces
    a = sqrt((1-p)/p), which the constructor checks.
    """

    tag: str
    a: Optional[float] = None
    p: Optional[float] = None

    def __post_init__(self):
        if self.tag not in DIST_TAGS:
            raise ConfigError(f"unknown entry distribution tag {self.tag!r}")
        if self.tag == "TwoPoint":
            object.__setattr__(self, "a", _real("TwoPoint parameter a", self.a))
            object.__setattr__(self, "p", _real("TwoPoint parameter p", self.p))
            if not (0.0 < self.p < 1.0) or self.a <= 0.0:
                raise ConfigError("TwoPoint requires a > 0 and 0 < p < 1")
            variance = self.a * self.a * self.p / (1.0 - self.p)
            if abs(variance - 1.0) > 1e-9:
                raise ConfigError(
                    f"TwoPoint(a={self.a}, p={self.p}) has variance {variance:.6g}, not 1"
                )
        elif self.a is not None or self.p is not None:
            raise ConfigError(f"{self.tag} takes no parameters")

    @property
    def is_complex(self) -> bool:
        return self.tag in ("ComplexGaussian", "ComplexRademacher")

    @property
    def words_per_draw(self) -> int:
        return 2 if self.tag in ("ComplexGaussian", "RealGaussian") else 1

    def atoms(self):
        """(values, weights) for purely atomic laws, else None."""
        if self.tag == "Rademacher":
            return np.array([1.0, -1.0]), np.array([0.5, 0.5])
        if self.tag == "ComplexRademacher":
            vals = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) * _INV_SQRT2
            return vals, np.full(4, 0.25)
        if self.tag == "TwoPoint":
            b = -self.a * self.p / (1.0 - self.p)
            return np.array([self.a, b]), np.array([self.p, 1.0 - self.p])
        return None

    def to_json_dict(self) -> dict:
        params = {}
        if self.tag == "TwoPoint":
            params = {"a": self.a, "p": self.p}
        return {"tag": self.tag, "params": params}

    @classmethod
    def from_json_dict(cls, d: dict) -> "EntryDistribution":
        _json_object("distribution object", d, ("tag",), ("params",))
        params = d.get("params") or {}
        _json_object("distribution params", params, (), ("a", "p"))
        return cls(d["tag"], **params)


@dataclass(frozen=True)
class EnsembleConfig:
    """Full recipe for one random-matrix law."""

    n: int
    p_n: float
    dist: EntryDistribution
    master_seed: int
    theta: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "n", _whole("n", self.n))
        object.__setattr__(self, "p_n", _real("p_n", self.p_n))
        object.__setattr__(self, "master_seed", _whole("master_seed", self.master_seed))
        if self.theta is not None:
            object.__setattr__(self, "theta", _real("theta", self.theta))
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if not (0.0 < self.p_n <= 1.0):
            raise ConfigError(f"p_n must lie in (0, 1], got {self.p_n}")
        if not (0 <= self.master_seed <= rng.MASK64):
            raise ConfigError("master_seed must be a 64-bit unsigned integer")
        if self.theta is not None:
            if not (0.0 < self.theta <= 1.0):
                raise ConfigError(f"theta must lie in (0, 1], got {self.theta}")
            expected = float(self.n) ** (-(1.0 - self.theta))
            if abs(self.p_n - expected) > 1e-12 * expected:
                raise ConfigError(
                    f"p_n={self.p_n} inconsistent with theta={self.theta} "
                    f"(expected n^(theta-1) = {expected!r})"
                )

    @classmethod
    def from_theta(cls, n, theta, dist, master_seed) -> "EnsembleConfig":
        return cls(n, float(n) ** (-(1.0 - theta)), dist, master_seed, theta=theta)

    def to_json_dict(self) -> dict:
        d = {
            "n": self.n,
            "p_n": self.p_n,
            "dist": self.dist.to_json_dict(),
            "master_seed": self.master_seed,
        }
        if self.theta is not None:
            d["theta"] = self.theta
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "EnsembleConfig":
        _json_object("ensemble config", d, ("n", "p_n", "dist", "master_seed"), ("theta",))
        return cls(**dict(d, dist=EntryDistribution.from_json_dict(d["dist"])))


@dataclass
class MatrixSample:
    """One n x n matrix: a sample, possibly shifted on its diagonal by `linalg`.

    It holds only its entries; `sample_matrix(config, trial)` regenerates a
    sample bit for bit, so no provenance is kept alongside.
    """

    entries: np.ndarray

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_array(cls, a) -> "MatrixSample":
        a = np.asarray(a)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ConfigError(f"expected a square matrix, got shape {a.shape}")
        if not np.iscomplexobj(a):
            a = a.astype(np.float64)
        return cls(a)


def _values_from_words(dist: EntryDistribution, words: np.ndarray) -> np.ndarray:
    """Map word arrays of shape (..., words_per_draw) to entry values.

    The formulas here are the single source of truth for both the scalar
    and the vectorized sampling paths.
    """
    if dist.tag == "RealGaussian":
        u1 = rng.uniform_from_words(words[..., 0])
        u2 = rng.uniform_from_words(words[..., 1])
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(_TWO_PI * u2)
    if dist.tag == "ComplexGaussian":
        u1 = rng.uniform_from_words(words[..., 0])
        u2 = rng.uniform_from_words(words[..., 1])
        radius = np.sqrt(-2.0 * np.log(u1))
        z0 = radius * np.cos(_TWO_PI * u2)
        z1 = radius * np.sin(_TWO_PI * u2)
        return (z0 + 1j * z1) * _INV_SQRT2
    if dist.tag == "Rademacher":
        return np.where(words[..., 0] >> np.uint64(63) == 0, 1.0, -1.0)
    if dist.tag == "ComplexRademacher":
        re = np.where(words[..., 0] >> np.uint64(63) == 0, 1.0, -1.0)
        im = np.where((words[..., 0] >> np.uint64(62)) & np.uint64(1) == 0, 1.0, -1.0)
        return (re + 1j * im) * _INV_SQRT2
    if dist.tag == "UniformSymmetric":
        u = rng.uniform_from_words(words[..., 0])
        return (2.0 * u - 1.0) * _SQRT3
    # TwoPoint
    u = rng.uniform_from_words(words[..., 0])
    b = -dist.a * dist.p / (1.0 - dist.p)
    return np.where(u < dist.p, dist.a, b)


def draw_entry(dist: EntryDistribution, stream: rng.Stream):
    """One draw from `dist` using the next words of `stream`."""
    words = np.array(
        [stream.next_word() for _ in range(dist.words_per_draw)], dtype=np.uint64
    )
    value = _values_from_words(dist, words[None, :])[0]
    return complex(value) if dist.is_complex else float(value)


def draw_grid(dist, seed, role, aux, nrows, ncols) -> np.ndarray:
    """(nrows, ncols) draws from `dist`, entry (j, k) fed by the key (seed, role, aux, j, k)."""
    keys = rng.grid_keys(seed, role, aux, nrows, ncols)
    words = np.stack(
        [rng.word_grid(keys, i) for i in range(dist.words_per_draw)], axis=-1
    )
    return _values_from_words(dist, words)


def mask_grid(seed, role, aux, nrows, ncols, p_n) -> np.ndarray:
    """(nrows, ncols) Bernoulli(p_n) indicators from the first word of each key."""
    keys = rng.grid_keys(seed, role, aux, nrows, ncols)
    return rng.uniform_from_words(rng.word_grid(keys, 0)) < p_n


def sample_matrix(config: EnsembleConfig, trial_index: int) -> MatrixSample:
    """Draw the n x n matrix (eps_jk X_jk / sqrt(n p_n)) for one trial.

    Bit-identical across repeated calls and across processes for the same
    (config, trial_index).
    """
    if not isinstance(config, EnsembleConfig):
        raise ConfigError("sample_matrix expects an EnsembleConfig")
    n = config.n
    values = draw_grid(config.dist, config.master_seed, rng.ROLE_VALUE, trial_index, n, n)
    if config.p_n < 1.0:
        mask = mask_grid(config.master_seed, rng.ROLE_MASK, trial_index, n, n, config.p_n)
        entries = np.where(mask, values, 0.0) / math.sqrt(n * config.p_n)
    else:
        entries = values / math.sqrt(n)
    return MatrixSample(entries)


def smoothing_stream(config: EnsembleConfig, trial_index: int) -> rng.Stream:
    """Stream feeding the smoothing scalar of one trial."""
    return rng.Stream.from_labels(config.master_seed, rng.ROLE_XI, trial_index)


def draw_unit_disc(stream: rng.Stream) -> complex:
    """Uniform draw from the closed unit disc (radius sqrt(u), angle 2*pi*v)."""
    u = stream.uniform()
    theta = _TWO_PI * stream.uniform()
    return math.sqrt(u) * complex(math.cos(theta), math.sin(theta))


@dataclass(frozen=True)
class LogMomentEstimate:
    value: float
    stderr: float
    samples: int


def log_moment_phi(x, eta: float):
    """(ln(1+|x|))^(19+eta), the weight of the entry-law moment functional."""
    return np.log1p(np.abs(x)) ** (19.0 + eta)


def log_moment_estimate(
    dist: EntryDistribution, m: int, eta: float, seed: int = 0
) -> LogMomentEstimate:
    """Estimate E |X|^2 (ln(1+|X|))^(19+eta).

    Atomic laws are evaluated exactly (stderr 0); continuous laws by Monte
    Carlo over m draws with the plain sample standard error.
    """
    if m < 10_000:
        raise DomainError(f"need at least 10^4 samples, got {m}")
    if eta <= 0:
        raise DomainError(f"eta must be positive, got {eta}")
    atoms = dist.atoms()
    if atoms is not None:
        vals, weights = atoms
        exact = float(np.sum(weights * np.abs(vals) ** 2 * log_moment_phi(vals, eta)))
        return LogMomentEstimate(exact, 0.0, 0)
    draws = draw_grid(dist, seed, rng.ROLE_MOMENT, 0, m, 1)[:, 0]
    y = np.abs(draws) ** 2 * log_moment_phi(draws, eta)
    value = float(np.mean(y))
    stderr = float(np.std(y, ddof=1) / math.sqrt(m))
    return LogMomentEstimate(value, stderr, m)

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


def _dimension(name: str, value) -> int:
    """`value` as a matrix dimension: a whole number >= 1."""
    n = _whole(name, value)
    if n < 1:
        raise ConfigError(f"{name} must be >= 1, got {n}")
    return n


def _real(name: str, value) -> float:
    """`value` as a finite float; bool, None, strings and NaN/inf are errors."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return float(value)


def _theta(value) -> float:
    """The sparsity exponent theta as a float in (0, 1]."""
    theta = _real("theta", value)
    if not 0.0 < theta <= 1.0:
        raise ConfigError(f"theta must lie in (0, 1], got {theta}")
    return theta


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
        object.__setattr__(self, "n", _dimension("n", self.n))
        if self.theta is not None:  # before p_n, which a bad theta makes bad too
            object.__setattr__(self, "theta", _theta(self.theta))
        object.__setattr__(self, "p_n", _real("p_n", self.p_n))
        object.__setattr__(self, "master_seed", _whole("master_seed", self.master_seed))
        if not (0.0 < self.p_n <= 1.0):
            raise ConfigError(f"p_n must lie in (0, 1], got {self.p_n}")
        if not (0 <= self.master_seed <= rng.MASK64):
            raise ConfigError("master_seed must be a 64-bit unsigned integer")
        if self.theta is not None:
            expected = float(self.n) ** (-(1.0 - self.theta))
            if abs(self.p_n - expected) > 1e-12 * expected:
                raise ConfigError(
                    f"p_n={self.p_n} inconsistent with theta={self.theta} "
                    f"(expected n^(theta-1) = {expected!r})"
                )

    @classmethod
    def from_theta(cls, n, theta, dist, master_seed) -> "EnsembleConfig":
        n, theta = _dimension("n", n), _theta(theta)  # before the power, which either can break
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


@dataclass(frozen=True)
class MatrixSample:
    """One n x n matrix: a sample, possibly shifted on its diagonal by `linalg`.

    The constructor holds the contract every kernel assumes: the entries are a
    nonempty square 2-D numeric array, else DomainError, cast to a column-major
    float64 or complex128 array, the layout LAPACK reads: no copy if it is one,
    one copy otherwise. It is frozen, so no later binding bypasses the check. It
    holds only its entries; `sample_matrix(config, trial)` regenerates a sample
    bit for bit, so no provenance is kept alongside.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries)
        if not (a.ndim == 2 and a.shape[0] == a.shape[1] > 0 and a.dtype.kind in "biufc"):
            raise DomainError(f"need a nonempty square numeric matrix, got {a.dtype} {a.shape}")
        dtype = np.complex128 if np.iscomplexobj(a) else np.float64
        object.__setattr__(self, "entries", np.asfortranarray(a, dtype=dtype))

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _polar(words: np.ndarray):
    """Box-Muller radius sqrt(-2 ln u1) and angle 2 pi u2 from words[0] and words[1],
    formed in place to keep a row block's temporaries few."""
    radius = rng.uniform_from_words(words[0])
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = rng.uniform_from_words(words[1])
    angle *= _TWO_PI
    return radius, angle


def _signed(words: np.ndarray, bit: int, magnitude: float, out: np.ndarray) -> np.ndarray:
    """Write into the uint64 array `out` the float64 bits of +magnitude where bit `bit`
    of the word is 0 and of -magnitude where it is 1: that bit becomes the sign bit."""
    np.bitwise_and(words, np.uint64(1 << bit), out=out)
    if bit != 63:
        out <<= np.uint64(63 - bit)
    out |= np.float64(magnitude).view(np.uint64)
    return out


def _values_from_words(dist: EntryDistribution, words: np.ndarray, out=None,
                       divisor: float = 1.0) -> np.ndarray:
    """Map a word array of shape (words_per_draw, ...), word i of each draw at
    words[i], to entry values divided by `divisor`, written into `out` (a new
    array of shape words.shape[1:] if None) and returned.

    The formulas here are the single source of truth for both the scalar
    and the vectorized sampling paths. An atomic law writes its constants,
    divided once with the rounding of each value's division, into `out`.
    """
    if out is None:
        out = np.empty(words.shape[1:], np.complex128 if dist.is_complex else np.float64)
    if dist.tag == "RealGaussian":
        radius, angle = _polar(words)
        radius *= np.cos(angle, out=angle)
        return np.divide(radius, divisor, out=out)
    if dist.tag == "ComplexGaussian":
        # (z0 + i z1) / sqrt(2) of the pair z0 = radius cos(angle), z1 = radius sin(angle),
        # part by part: complex times real rounds each part as real times real, so these
        # are its bits without its complex temporaries
        radius, angle = _polar(words)
        re, im = out.real, out.imag
        np.multiply(radius, np.cos(angle, out=re), out=re)
        re *= _INV_SQRT2
        np.multiply(radius, np.sin(angle, out=angle), out=im)
        im *= _INV_SQRT2
        if divisor != 1.0:
            np.divide(out, divisor, out=out)
        return out
    if dist.tag == "Rademacher":
        _signed(words[0], 63, 1.0 / divisor, out.view(np.uint64))
        return out
    if dist.tag == "ComplexRademacher":
        # numpy divides a complex by a real c as a product with 1 / c, part by part
        magnitude = _INV_SQRT2 * (1.0 / divisor)
        _signed(words[0], 63, magnitude, out.real.view(np.uint64))
        _signed(words[0], 62, magnitude, out.imag.view(np.uint64))
        return out
    if dist.tag == "UniformSymmetric":
        u = rng.uniform_from_words(words[0])
        return np.divide((2.0 * u - 1.0) * _SQRT3, divisor, out=out)
    # TwoPoint: +a where the uniform lies below p, else b
    b = -dist.a * dist.p / (1.0 - dist.p)
    out[...] = b / divisor
    np.copyto(out, dist.a / divisor, where=rng.uniform_below(words[0], dist.p))
    return out


def draw_entry(dist: EntryDistribution, stream: rng.Stream):
    """One draw from `dist` using the next words of `stream`."""
    words = np.array(
        [stream.next_word() for _ in range(dist.words_per_draw)], dtype=np.uint64
    )
    value = _values_from_words(dist, words[:, None])[0]
    return complex(value) if dist.is_complex else float(value)


def _draws(dist: EntryDistribution, keys: np.ndarray, words: np.ndarray, scratch: np.ndarray,
           out=None, divisor: float = 1.0):
    """One draw per key, divided by `divisor`; `words` (word i of every key at
    words[i]) and `scratch` (keys' shape) are uint64 buffers the call overwrites,
    and `out` is passed on to `_values_from_words`, which reads `words` as filled."""
    for i in range(dist.words_per_draw):
        rng.word_into(keys, i, words[i], scratch)
    return _values_from_words(dist, words, out, divisor)


def _fill(dist: EntryDistribution, seed, role, aux, rows: range, out, divisor: float = 1.0):
    """Write into `out` (len(rows) x ncols) the draws keyed (seed, role, aux, j, k),
    j in `rows`, divided by `divisor`, by the blocks of `rng.key_blocks`: row
    blocks, or column blocks if `out` is column-major, so each block is contiguous."""
    by_columns = not out.flags.c_contiguous
    lines, first = (out.T, 0) if by_columns else (out, rows.start)
    words = None
    for block, keys, scratch in rng.key_blocks(seed, role, aux, rows, out.shape[1],
                                               by_columns=by_columns):
        if words is None:  # the first block is the tallest
            words = np.empty((dist.words_per_draw, *keys.shape), np.uint64)
        dest = lines[block.start - first : block.stop - first]
        _draws(dist, keys, words[:, : len(block)], scratch, dest, divisor)
    return out


def draw_rows(dist, seed, role, aux, rows: range, ncols) -> np.ndarray:
    """(len(rows), ncols) draws from `dist`, keyed (seed, role, aux, j, k) for j in `rows`."""
    out = np.empty((len(rows), ncols), np.complex128 if dist.is_complex else np.float64)
    return _fill(dist, seed, role, aux, rows, out)


def mask_rows(seed, role, aux, rows: range, ncols, p_n) -> np.ndarray:
    """Bernoulli(p_n) indicators keyed like `draw_rows`, from the first word of each key."""
    out = np.empty((len(rows), ncols), bool)
    for block, keys, scratch in rng.key_blocks(seed, role, aux, rows, ncols):
        words = rng.word_into(keys, 0, keys, scratch)
        out[block.start - rows.start : block.stop - rows.start] = rng.uniform_below(words, p_n)
    return out


def sample_matrix(config: EnsembleConfig, trial_index: int) -> MatrixSample:
    """Draw the n x n matrix (eps_jk X_jk / sqrt(n p_n)) for one trial, column-major.

    Bit-identical across repeated calls and across processes for the same
    (config, trial_index). The grid comes from the blocked kernel
    (`rng.key_blocks`), which writes each block straight into its columns, a
    ComplexGaussian block its real and imaginary parts too, an atomic law's
    block its scaled constants. For p_n < 1 the values are drawn only where
    the mask is set, BLOCK_KEYS kept entries at a time; keys are positional,
    so the entries equal those of the full value grid masked afterwards. A
    trial index outside [0, 2^64) raises ConfigError: keys keep 64 bits of
    each label, so it would alias another trial.
    """
    if not isinstance(config, EnsembleConfig):
        raise ConfigError("sample_matrix expects an EnsembleConfig")
    if not 0 <= _whole("trial_index", trial_index) <= rng.MASK64:
        raise ConfigError(f"trial index must be a 64-bit unsigned integer, got {trial_index}")
    n, seed, dist = config.n, config.master_seed, config.dist
    dtype = np.complex128 if dist.is_complex else np.float64
    divisor = math.sqrt(n * config.p_n)
    if config.p_n == 1.0:
        entries = np.empty((n, n), dtype, order="F")
        return MatrixSample(_fill(dist, seed, rng.ROLE_VALUE, trial_index, range(n), entries,
                                  divisor))
    entries = np.zeros((n, n), dtype, order="F")
    kept = np.flatnonzero(mask_rows(seed, rng.ROLE_MASK, trial_index, range(n), n, config.p_n))
    for start in range(0, len(kept), rng.BLOCK_KEYS):
        at = kept[start : start + rng.BLOCK_KEYS]
        keys = rng.keys_at(seed, rng.ROLE_VALUE, trial_index, at // n, at % n, n, n)
        words = np.empty((dist.words_per_draw, len(at)), np.uint64)
        entries.flat[at] = _draws(dist, keys, words, np.empty_like(keys), divisor=divisor)
    return MatrixSample(entries)


def smoothing_stream(config: EnsembleConfig, trial_index: int) -> rng.Stream:
    """Stream feeding the smoothing scalar of one trial."""
    return rng.Stream(rng.derive_key(config.master_seed, rng.ROLE_XI, trial_index))


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
    m = _whole("m", m)
    if m < 10_000:
        raise DomainError(f"need at least 10^4 samples, got {m}")
    if not 0 < eta < math.inf:
        raise DomainError(f"eta must be finite and > 0, got {eta}")
    atoms = dist.atoms()
    if atoms is not None:
        vals, weights = atoms
        exact = float(np.sum(weights * np.abs(vals) ** 2 * log_moment_phi(vals, eta)))
        return LogMomentEstimate(exact, 0.0, 0)
    draws = draw_rows(dist, seed, rng.ROLE_MOMENT, 0, range(m), 1)[:, 0]
    y = np.abs(draws) ** 2 * log_moment_phi(draws, eta)
    value = float(np.mean(y))
    stderr = float(np.std(y, ddof=1) / math.sqrt(m))
    return LogMomentEstimate(value, stderr, m)

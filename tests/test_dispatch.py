"""Cross-dispatch value fence: the golden reports and the limit-law grid keep
their values to 12 significant digits on numpy's AVX-512 and AVX2 code paths.

numpy picks each ufunc's SIMD loop at import, from the CPU's features less those
named in NPY_DISABLE_CPU_FEATURES. Disabling X86_V4, AVX512_ICL and AVX512_SPR
gives the loops an AVX2-only x86-64 host runs. There np.log, np.cbrt, np.exp,
np.log1p and np.power round differently (np.cos, np.sin and np.sqrt do not), so
the sampler's Gaussians and the law's density move in their last bits, and 20
of the sha256 digests of tests/test_golden.py fail: the sampler's Gaussian
matrices, the limit-law grid, the tabulation, and the SvLaw, Potential and
TailIndex reports. Those digests pin bits on one dispatch path. This fence pins
the values on every path: it hashes each float at 12 significant digits, in this
process, in a child with the AVX-512 loops disabled and in one child per OpenBLAS
core (OPENBLAS_CORETYPE set in the child's environment only), and each must give
the recorded digest.
"""

import ctypes
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import circulaw
from circulaw import linalg
from circulaw.experiments import run_experiment
from circulaw.limit_theory import law_for_shift

from test_golden import SPECS, golden_spec
from test_parallel import _CORES, skip_unless_this_cpu_runs

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as _umath

# numpy refuses to disable a feature it does not dispatch on, such as a baseline one
_AVX512 = [name for name in ("X86_V4", "AVX512_ICL", "AVX512_SPR")
           if name in _umath.__cpu_dispatch__ and _umath.__cpu_features__.get(name)]

TWELVE_DIGIT_DIGEST = "9dd1c243d4ffedfbb22d955c9611ad453615d6bcd9e849a44e0d2e256d73721e"


def _twelve_digits(value) -> str:
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def twelve_digit_digest() -> str:
    """sha256 of every golden report's rows and of the limit-law grid of
    test_golden.test_limit_law_bytes, each float at 12 significant digits."""
    digest = hashlib.sha256()
    for name in sorted(SPECS):
        for row in run_experiment(golden_spec(name)).rows:
            digest.update(",".join(map(_twelve_digits, row.values())).encode() + b"\n")
    x = np.linspace(0.0, 12.0, 1201)
    for z in (0j, 0.5 + 0.5j, 1 + 0j, 1.5 + 0j, 2 + 0j):
        law = law_for_shift(z)
        for values in (law.cdf_squared(x), law.density(x)):
            digest.update(",".join(map(_twelve_digits, values.tolist())).encode() + b"\n")
    return digest.hexdigest()


def log_bits() -> str:
    """sha256 of np.log's bits on 4096 points of [0.5, 2]."""
    return hashlib.sha256(np.log(np.linspace(0.5, 2.0, 4096)).tobytes()).hexdigest()


def core_name() -> str:
    """The name of the core OpenBLAS runs on, or "-" without a bundled library."""
    corename = linalg._symbol("openblas_get_corename64_")
    if corename is None:
        return "-"
    corename.restype = ctypes.c_char_p
    return corename().decode()


_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import test_dispatch
print(test_dispatch.twelve_digit_digest(), test_dispatch.log_bits(), test_dispatch.core_name())
"""


def _child(**env):
    """(twelve_digit_digest, log_bits, core_name) in a child process, with `env` on top
    of this one's."""
    env = dict(os.environ, PYTHONPATH=str(Path(circulaw.__file__).resolve().parents[1]), **env)
    done = subprocess.run([sys.executable, "-c", _CHILD, str(Path(__file__).parent)], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    return tuple(done.stdout.split())


def test_values_agree_at_twelve_digits_without_the_avx512_loops():
    digest, bits, _ = _child(NPY_DISABLE_CPU_FEATURES=" ".join(_AVX512))
    if "X86_V4" in _AVX512:  # the child ran other loops: np.log's bits moved
        assert bits != log_bits()
    assert (twelve_digit_digest(), digest) == (TWELVE_DIGIT_DIGEST, TWELVE_DIGIT_DIGEST)


@pytest.mark.parametrize("core", sorted(_CORES))
def test_values_agree_at_twelve_digits_on_each_openblas_core(core):
    names = skip_unless_this_cpu_runs(core)
    digest, _, name = _child(OPENBLAS_CORETYPE=core)
    assert name.lower() in names
    assert digest == TWELVE_DIGIT_DIGEST

"""circulaw: sampled random-matrix spectra against their exact limit laws."""

__version__ = "0.1.0"

from .ensemble import (
    EnsembleConfig,
    EntryDistribution,
    MatrixSample,
    sample_matrix,
)
from .errors import (
    CirculawError,
    ConfigError,
    DomainError,
    EstimationError,
    NumericError,
)
from .limit_theory import (
    LimitLaw,
    disc_potential,
    limit_stieltjes,
    potential_from_law,
    support_endpoints,
)
from .linalg import (
    Spectrum,
    eigenvalues,
    shift,
    singular_values,
    smoothing_shift,
)
from .spectral_measures import (
    EmpiricalCDF,
    PotentialEstimate,
    ks_distance,
    log_potential_empirical,
    radial_angular_cdfs,
)

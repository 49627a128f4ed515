"""circulaw: sampled random-matrix spectra against their exact limit laws."""

__version__ = "0.1.0"

from .ensemble import (
    EnsembleConfig,
    EntryDistribution,
    LogMomentEstimate,
    MatrixSample,
    draw_entry,
    log_moment_estimate,
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
    cubic_roots,
    disc_potential,
    g_field,
    limit_cdf,
    limit_density,
    limit_stieltjes,
    potential_from_law,
    support_endpoints,
)
from .linalg import (
    ComplexSpectrum,
    SingularSpectrum,
    distance_to_span,
    eigenvalues,
    hermitize,
    operator_norm,
    shift,
    singular_values,
    smallest_singular_value,
    smoothing_shift,
)
from .spectral_measures import (
    EmpiricalCDF,
    PotentialEstimate,
    ks_distance,
    log_potential_empirical,
    radial_angular_cdfs,
    stieltjes_empirical,
    sv_squared_cdf,
    symmetrize,
)

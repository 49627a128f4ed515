"""Exception hierarchy shared by all modules.

Bad input is a ConfigError (a configuration) or a DomainError (an argument
of an operation); the CLI exits 2 on either. A computation that cannot meet
its contract is a NumericError or an EstimationError; the CLI exits 3.
"""


class CirculawError(Exception):
    """Base class for all library errors."""


class ConfigError(CirculawError):
    """Invalid ensemble or experiment configuration."""


class DomainError(CirculawError):
    """Argument outside the mathematical domain of an operation."""


class NumericError(CirculawError):
    """A numerical routine failed to reach its accuracy contract."""


class EstimationError(CirculawError):
    """A Monte Carlo estimate could not be formed (e.g. every trial filtered out)."""

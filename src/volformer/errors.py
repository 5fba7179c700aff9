"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes (``cli.FAILURES``): ConfigError -> 2,
DataError -> 3, DivergenceError -> 4. It maps MemoryError, an OSError (an
output path under a regular file, a full disk), a dead fold worker and any
other VolformerError to 3 as well, each with one stderr line.
"""


class VolformerError(Exception):
    pass


class ConfigError(VolformerError):
    """Invalid configuration: bad shapes, bad hyperparameters, bad flags."""


class ShapeError(ConfigError):
    """Tensor shapes incompatible with the requested operation."""


class UsageError(VolformerError):
    """An API precondition was violated by the caller."""


class DataError(VolformerError):
    """Malformed or missing input data (files, CSV rows, volumes)."""


class CheckpointError(DataError):
    """Parameter checkpoint could not be read or does not match the model."""


class DivergenceError(VolformerError):
    """Training produced non-finite losses or gradients."""

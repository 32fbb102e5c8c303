"""Exception hierarchy for the eewsim package.

Everything raised on bad input derives from :class:`EewsimError`, so the
command-line layer can map "your input is wrong" to a single exit code.
"""


class EewsimError(Exception):
    """Base class for all errors raised by eewsim."""


# --- raster / geodesy -------------------------------------------------------

class MalformedHeader(EewsimError):
    """ASCII grid header block is missing, duplicated or unparseable."""


class DimensionMismatch(EewsimError):
    """Grid body does not contain nrows * ncols values."""


class NonFiniteValue(EewsimError):
    """A grid cell holds NaN/inf or an unparseable number."""


class IndexOutOfRange(EewsimError):
    """Row/column index outside the grid."""


class OutOfRangeCoordinate(EewsimError):
    """Latitude outside [-90, 90] or a non-finite coordinate."""


class EmptyBins(EewsimError):
    """An operation over intensity bins received no bins."""


# --- catalog / network ------------------------------------------------------

class MalformedRow(EewsimError):
    """Catalog CSV row cannot be parsed."""


class EmptyCatalog(EewsimError):
    """Catalog holds no points."""


class AllZeroPopulation(EewsimError):
    """Population raster has no cell with positive population."""


class NTooLarge(EewsimError):
    """Requested network size exceeds the catalog size."""


class NZero(EewsimError):
    """Requested network size is below one."""


# --- detection / statistics -------------------------------------------------

class UnsortedInput(EewsimError):
    """Trigger list passed to the detector is not sorted by time."""


class EmptyInput(EewsimError):
    """Statistic requested over an empty collection."""


class NoDetections(EewsimError):
    """No detected replica is available for the requested computation."""


class KernelUnderflow(EewsimError):
    """The density kernel is too narrow to leave any mass on the evaluation grid."""


# --- configuration ----------------------------------------------------------

class ConfigError(EewsimError):
    """Run configuration is missing, malformed or inconsistent."""

"""Exception types and the size cap shared across the package."""

# composable pairs, n³·|G|², of the largest gauge groupoid built: (32,D4) has
# 2.1·10⁶ and takes about 0.25 GB; (100,S3) with 3.6·10⁷ would take about 4 GB
MAX_GAUGE_PAIRS = 1 << 24


class GroupoidError(Exception):
    """Base class for all errors raised by groupoidalg."""


class PreconditionError(GroupoidError):
    """An operation was called with inputs violating its contract."""


class MalformedTableError(GroupoidError):
    """A structure table is not total on its declared domain or refers
    to unknown ids. Distinct from an axiom violation."""


class SizeCapError(GroupoidError):
    """An instance exceeded a configured size guard."""

"""Exception types shared across the package."""


class GroupoidError(Exception):
    """Base class for all errors raised by groupoidalg."""


class PreconditionError(GroupoidError):
    """An operation was called with inputs violating its contract."""


class MalformedTableError(GroupoidError):
    """A structure table is not total on its declared domain or refers
    to unknown ids. Distinct from an axiom violation."""


class QuotientUndefinedError(GroupoidError):
    """Quotient composition depends on the choice of representatives."""

    def __init__(self, message, witnesses=()):
        super().__init__(message)
        self.witnesses = tuple(witnesses)


class SizeCapError(GroupoidError):
    """An instance exceeded a configured size guard."""

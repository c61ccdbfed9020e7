"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: ExprError and bad type strings are
usage-level (exit 1), ResourceError is exit 3, and every other error, from
DomainError and its subclasses or ValidationError, is exit 2.
"""


class CoxtwError(Exception):
    """Base class for all library errors."""


class ExprError(CoxtwError):
    """Malformed biclosed-set expression or type string."""


class ValidationError(CoxtwError):
    """Bad Cartan data or symmetrizer."""


class DomainError(CoxtwError):
    """Input outside an operation's domain (non-root, wrong lattice, ...)."""


class OrderError(DomainError):
    """Order-dependent operation called on an incomparable pair."""


class NotReducedError(DomainError):
    """A prefix/period word failed the reducedness certificate."""

    def __init__(self, message: str, failing_power: int):
        super().__init__(message)
        self.failing_power = failing_power


class UnsupportedOracleError(DomainError):
    """Biclosed oracle form not supported by the requested operation."""


class ClassificationError(DomainError):
    """A set could not be matched against the known biclosed forms."""


class JoinSearchError(DomainError):
    """Bounded search for a least upper bound was inconclusive."""


class ResourceError(CoxtwError):
    """A size or radius guard was exceeded."""

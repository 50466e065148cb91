"""Shared exception types.

Every failure mode that a caller can reasonably branch on gets its own
class; anything else is a plain ValueError.  `verify` is the check used in
place of `assert`, so that verification survives `python -O`.
"""


class Sl2TateError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(Sl2TateError, ValueError):
    """A user-supplied value (polynomial, basis, prime, ell, degree window)
    is malformed or out of range."""


class ReduciblePolynomial(InvalidInput):
    pass


class BasisNotClosed(InvalidInput):
    pass


class IntegralBasisRequired(InvalidInput):
    """Degree >= 3 field outside the built-in families needs an explicit basis."""


class NotInvertible(Sl2TateError):
    pass


class SearchExhausted(Sl2TateError):
    """A bounded enumeration (relation search, principal generator search,
    module basis search) hit its cap without succeeding."""


class RelationSearchIncomplete(SearchExhausted):
    """Class-group relation lattice never reached full rank within the cap."""


class NeedsBackendData(Sl2TateError):
    """Invariants outside the built-in range and no ingested fixture matches."""


class SchemaViolation(Sl2TateError):
    pass


class ConsistencyFailure(Sl2TateError):
    """An exactly checkable invariant fails: an ingested fixture contradicts
    it, or an internal verification does."""


def verify(ok, message: str) -> None:
    if not ok:
        raise ConsistencyFailure(message)


class RegularityViolated(Sl2TateError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class UnsupportedCase(Sl2TateError):
    pass


class EmbeddingInvalid(InvalidInput):
    """Claimed field embedding does not satisfy the minimal polynomial."""

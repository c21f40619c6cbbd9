"""Shared exception types, mapped to CLI exit codes.

ValidationError: the request is well-formed but mathematically inadmissible
(bad index-set membership, wrong linkage, non-dominant weight).  CLI exit 2.

InternalInvariantError: a computation produced something the theory forbids
(non-unitriangular basis, negative coefficient, failed parity).  CLI exit 3.

CacheError: a persistent polynomial table could not be read, written or
trusted.  CLI exit 2.
"""

__all__ = ["ValidationError", "InternalInvariantError", "CacheError"]


class ValidationError(ValueError):
    """Inadmissible input for an otherwise well-formed request."""


class InternalInvariantError(AssertionError):
    """A mathematical invariant failed; results cannot be trusted."""


class CacheError(ValueError):
    """A persistent table file is unreadable, corrupt or mismatched."""

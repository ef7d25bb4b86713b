"""Exception types shared across the package.

Every error carries a stable machine-readable ``code`` so the CLI can map
failures to deterministic JSON reports and exit codes.
"""

from __future__ import annotations


class K3ChambersError(Exception):
    """Base class for all package errors."""

    code = "error"


class NotSymmetric(K3ChambersError):
    code = "not_symmetric"


class SingularMatrix(K3ChambersError):
    code = "singular_matrix"


class PreconditionViolated(K3ChambersError):
    code = "precondition_violated"


class ModeMismatch(K3ChambersError):
    code = "mode_mismatch"


class IndexOutOfRange(K3ChambersError):
    code = "index_out_of_range"


class InvalidModel(K3ChambersError):
    code = "invalid_model"


class NotBig(K3ChambersError):
    code = "not_big"


class ModeUnsupported(K3ChambersError):
    code = "mode_unsupported"


class NotNegativeDefinite(K3ChambersError):
    code = "not_negative_definite"


class UnrecognizedDiagram(K3ChambersError):
    """Raised when a connected negative definite graph is not a simply-laced
    Dynkin diagram.  Cannot fire on valid input; it documents that the
    A-D-E classification is relied upon rather than re-derived."""

    code = "unrecognized_diagram"


class DegenerateCorners(K3ChambersError):
    code = "degenerate_corners"


class SizeLimit(K3ChambersError):
    """An operation was refused because its input exceeds a documented size
    limit, beyond which the work would not finish in reasonable time."""

    code = "size_limit"


class InvariantViolated(K3ChambersError):
    """An internal invariant failed: a bug in the package, not bad input.
    Raised by explicit checks so that they also run under ``python -O``."""

    code = "internal_invariant"


def require(condition: bool, message: str) -> None:
    """Raise InvariantViolated with the message unless the condition holds."""
    if not condition:
        raise InvariantViolated(message)

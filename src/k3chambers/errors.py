"""Exception types shared across the package.

Every error carries a stable machine-readable ``code`` and the CLI's
``exit_code`` for it, so the CLI maps failures to deterministic JSON reports
and exit codes: 2 for invalid input or input over a size limit, 3 for a
mathematically infeasible query, 4 for a failure inside the package.
"""

from __future__ import annotations


class K3ChambersError(Exception):
    """Base class for all package errors.  An error without an exit code
    of its own, such as SingularMatrix, is not expected from any input the
    CLI accepts, so it exits 4."""

    code = "error"
    exit_code = 4


class NotSymmetric(K3ChambersError):
    code = "not_symmetric"
    exit_code = 2


class SingularMatrix(K3ChambersError):
    code = "singular_matrix"


class ModeMismatch(K3ChambersError):
    code = "mode_mismatch"
    exit_code = 2


class IndexOutOfRange(K3ChambersError):
    code = "index_out_of_range"
    exit_code = 2


class InvalidModel(K3ChambersError):
    code = "invalid_model"
    exit_code = 2


class NotBig(K3ChambersError):
    code = "not_big"
    exit_code = 3


class NotNegativeDefinite(K3ChambersError):
    code = "not_negative_definite"
    exit_code = 3


class UnrecognizedDiagram(K3ChambersError):
    """Raised when a connected negative definite graph is not a simply-laced
    Dynkin diagram.  Cannot fire on valid input; it documents that the
    A-D-E classification is relied upon rather than re-derived."""

    code = "unrecognized_diagram"
    exit_code = 2


class DegenerateCorners(K3ChambersError):
    code = "degenerate_corners"
    exit_code = 2


class SizeLimit(K3ChambersError):
    """An operation was refused because its input exceeds a documented size
    limit, beyond which the work would not finish in reasonable time."""

    code = "size_limit"
    exit_code = 2


class InvariantViolated(K3ChambersError):
    """An internal invariant failed: a bug in the package, not bad input.
    Raised by explicit checks so that they also run under ``python -O``."""

    code = "internal_invariant"
    exit_code = 4


def require(condition: bool, message: str) -> None:
    """Raise InvariantViolated with the message unless the condition holds."""
    if not condition:
        raise InvariantViolated(message)

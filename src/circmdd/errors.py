"""Domain error types shared across the package.

Every error carries a stable machine-readable ``code`` plus a ``details``
dict so the CLI can emit structured JSON on standard error.
"""

from __future__ import annotations


class CircmddError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details


class ZeroStepError(CircmddError):
    code = "zero-step"


class DuplicateStepError(CircmddError):
    code = "duplicate-step"


class DisconnectedError(CircmddError):
    code = "disconnected"


class ArityMismatchError(CircmddError):
    code = "arity-mismatch"


class WeightTieError(CircmddError):
    code = "weight-tie"


class NotMinimalError(CircmddError):
    code = "not-minimal"


class NotDownClosedError(CircmddError):
    code = "not-down-closed"


class WrongVertexError(CircmddError):
    code = "wrong-vertex"


class BudgetExceededError(CircmddError):
    code = "budget-exceeded"


class UnsupportedArityError(CircmddError):
    code = "unsupported-arity"


class BadLiftParamsError(CircmddError):
    code = "bad-lift-params"


class BadFamilyParamsError(CircmddError):
    code = "bad-family-params"


class BadRayError(CircmddError):
    code = "bad-ray"


class MalformedDocumentError(CircmddError):
    code = "malformed-document"


class TooLargeError(CircmddError):
    code = "too-large"


class InternalInconsistencyError(CircmddError):
    code = "internal-inconsistency"

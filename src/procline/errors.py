"""Error types and validation issue records shared across the package.

Exceptions signal hard failures (operations that cannot return a value).
:class:`Issue` records are the soft counterpart: validation walks collect
them so a caller sees every problem at once instead of the first one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class IssueCode(str, Enum):
    """Stable identifiers for everything validation can report."""

    DUPLICATE_ID = "DuplicateId"
    UNKNOWN_ID = "UnknownId"
    DANGLING_REFERENCE = "DanglingReference"
    KIND_CONSTRAINT_VIOLATION = "KindConstraintViolation"
    UNKNOWN_OPERATION_TYPE = "UnknownOperationType"
    UNKNOWN_TARGET_ID = "UnknownTargetId"
    TYPE_MISMATCH = "TypeMismatch"
    METAMODEL_GATE = "MetamodelGate"
    MISSING_ARGUMENT = "MissingArgument"
    FIELD_NOT_FOUND = "FieldNotFound"
    ILLEGAL_TARGET = "IllegalTarget"


@dataclass(frozen=True, slots=True)
class Issue:
    """One validation finding.

    ``subject`` is the id or name the finding is about (an element id, a
    reference id, an operation type name). ``variant_id`` is filled in when
    the finding was collected while processing a specific extension model.
    """

    code: IssueCode
    subject: str
    message: str
    variant_id: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "code", IssueCode(self.code))

    def __str__(self) -> str:
        prefix = f"[{self.variant_id}] " if self.variant_id else ""
        return f"{prefix}{self.code.value}({self.subject}): {self.message}"


class ProclineError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateIdError(ProclineError):
    pass


class UnknownIdError(ProclineError):
    pass


class MissingArgumentError(ProclineError):
    pass


class FieldNotFoundError(ProclineError):
    pass


class IllegalTargetError(ProclineError):
    pass


class UnknownOperationTypeError(ProclineError):
    pass


class DuplicateTypeNameError(ProclineError):
    pass


class ParseError(ProclineError):
    """Input that is not well-formed XML (or not readable at all)."""

    def __init__(self, message: str, *, source: str = "", line: int | None = None):
        self.source = source
        self.line = line
        where = f"{source or '<input>'}" + (f":{line}" if line is not None else "")
        super().__init__(f"{where}: {message}")


class IllegalCharacterError(ProclineError):
    """Text holding a character XML 1.0 cannot carry, found on serialization."""


class SchemaError(ProclineError):
    """Well-formed XML that does not match the expected document shape."""

    def __init__(self, message: str, *, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class MissingParentDeclarationError(SchemaError):
    """An extension model document without a parent declaration."""


class MergeError(ProclineError):
    """Base class for variant resolution and merge failures."""


class UnknownVariantError(MergeError):
    pass


class MissingParentError(MergeError):
    pass


class CycleError(MergeError):
    pass


class ValidationFailedError(MergeError):
    """A merge was abandoned; ``issues`` lists every collected finding."""

    def __init__(self, issues: list[Issue]):
        self.issues = list(issues)
        head = "; ".join(str(i) for i in self.issues[:3])
        more = f" (+{len(self.issues) - 3} more)" if len(self.issues) > 3 else ""
        super().__init__(f"merge validation failed with {len(self.issues)} issue(s): {head}{more}")


class ConflictError(MergeError):
    """Two operation exemplars of one extension rewrote the same text field."""

    def __init__(self, message: str, *, element_id: str = "", field: str = ""):
        self.element_id = element_id
        self.field = field
        super().__init__(message)

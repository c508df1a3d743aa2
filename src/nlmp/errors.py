"""Exception hierarchy shared by all nlmp modules."""


class NlmpError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(NlmpError, ValueError):
    """An argument is outside the operation's domain (unknown state or
    label, set not contained in the universe, set not measurable)."""


class PreconditionError(NlmpError, ValueError):
    """A stated precondition is violated (relation not symmetric, not a
    sub-sigma-algebra, model invalid or of the wrong shape)."""


class UnsupportedModelError(NlmpError):
    """The requested operation is only defined for a restricted class of
    models (e.g. formula synthesis needs a full powerset sigma-algebra)."""


class InternalCheckError(NlmpError, RuntimeError):
    """An invariant the implementation guarantees was observed to fail.
    Seeing this means a bug, never an expected outcome."""


class ModelSyntaxError(NlmpError, ValueError):
    """Parse error in the model or formula text, with source location."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}" if column is not None else "")
        elif column is not None:
            where = f" at column {column}"
        super().__init__(message + where)

"""Exception types shared across the package."""


class LtlseqError(Exception):
    """Base class for all errors raised by this package."""


class LtlfSyntaxError(LtlseqError, ValueError):
    """Formula text could not be parsed.

    Carries the 1-based line/column of the offending token and the set of
    token kinds that would have been accepted there.
    """

    def __init__(self, message, line, column, expected=()):
        self.line = line
        self.column = column
        self.expected = frozenset(expected)
        detail = f"{message} at line {line}, column {column}"
        if self.expected:
            detail += " (expected: " + ", ".join(sorted(self.expected)) + ")"
        super().__init__(detail)


class UnknownTokenError(LtlfSyntaxError):
    """Input contained a character no token can start with."""


class DomainError(LtlseqError, ValueError):
    """A value, atom, variable, or weight fell outside its declared domain."""


class ResourceLimitError(LtlseqError, RuntimeError):
    """A configurable size cap (states, variables) was exceeded."""


class UnsatisfiableLetterError(LtlseqError, ValueError):
    """A concrete assignment was requested for a letter with no solutions."""


class TaskCompileError(LtlseqError, ValueError):
    """A task spec cannot produce every requested (label, length) pair."""


class TaskFileError(LtlseqError, ValueError):
    """A task spec file or a sweep CSV is malformed; the message includes
    its location."""


class DatasetFormatError(LtlseqError, ValueError):
    """Serialized dataset files are missing columns or malformed."""


class IntegrityError(LtlseqError, ValueError):
    """Stored data contradicts itself: a spec hash or a DFA digest that does
    not match what it covers, or a replay that disagrees with the dataset."""


class DegenerateBeliefError(LtlseqError, ValueError):
    """All next-state scores are zero; the belief cannot be renormalized."""

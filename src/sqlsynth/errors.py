"""Exception types shared across the toolkit."""


class SqlsynthError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(SqlsynthError):
    """A pipeline configuration file is missing, malformed, or inconsistent."""


class DataFileError(SqlsynthError):
    """A data file is not JSON, or is not the kind of file a stage reads."""


class DdlSyntaxError(SqlsynthError):
    """DDL text could not be parsed.

    Carries the zero-based statement index and the character offset of the
    failure within the full DDL text.
    """

    def __init__(self, message, statement_index, position):
        super().__init__(f"statement {statement_index} at offset {position}: {message}")
        self.statement_index = statement_index
        self.position = position


class DuplicateObjectError(SqlsynthError):
    """Two schema objects share a name (case-insensitive)."""


class UnknownObjectError(SqlsynthError):
    """A referenced table or column does not exist in the catalog."""


class SqlSyntaxError(SqlsynthError):
    """A SQL statement failed to parse. Carries offset/line/column."""

    def __init__(self, message, position, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.position = position
        self.line = line
        self.column = column


class GraphTooLargeError(SqlsynthError):
    """Join graph exceeds the configured enumeration safety limit."""


class NotConnectedError(SqlsynthError):
    """A table set does not induce a connected subgraph of the join graph."""


class InsufficientPoolError(SqlsynthError):
    """Asked for more seed examples than the pool contains."""


class ArityError(SqlsynthError):
    """Seed example count does not match the prompt setting's shot count."""


class BackendError(SqlsynthError):
    """A text-generation backend call failed.

    ``retryable`` tells the caller whether retrying could help (network
    errors, 5xx) or not (4xx, malformed response).
    """

    def __init__(self, message, retryable=False):
        super().__init__(message)
        self.retryable = retryable


class DomainError(SqlsynthError):
    """A numeric argument is outside its valid domain (e.g. non-positive duration)."""


class EmptyInputError(SqlsynthError):
    """An aggregate was requested over an empty collection."""


class MismatchError(SqlsynthError):
    """Two results being compared do not cover the same query set."""


class EngineConnectionError(SqlsynthError):
    """A database engine was unreachable at batch start."""


class LoadError(SqlsynthError):
    """Loading table data into a test engine failed."""

"""Exception types shared across the package."""


class OmegaPRMError(Exception):
    """Base class for all package errors."""


class ConfigError(OmegaPRMError):
    """The config or the corpus is unreadable, ill-typed or out of range."""


class UpstreamError(OmegaPRMError):
    """An artifact an earlier pipeline command writes is unusable."""


class InvalidAction(OmegaPRMError):
    """A state transition was attempted with an empty action."""


class CompleterUnavailable(OmegaPRMError):
    """The remote completer could not be reached within the retry budget."""


class InvalidSearchTarget(OmegaPRMError):
    """locate_first_error was called on a target violating its preconditions."""


class PoolExhausted(OmegaPRMError):
    """Selection was requested from an empty rollout pool."""


class InvalidProbability(OmegaPRMError):
    """A probability argument fell outside [0, 1]."""


class ParseError(OmegaPRMError):
    """A serialized record could not be parsed.

    Carries the 1-based line number when reading JSONL files.
    """

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class EmptyDataset(OmegaPRMError):
    """Training was requested on an empty dataset."""


class EmptySolution(OmegaPRMError):
    """Aggregation was requested over an empty list of step scores."""

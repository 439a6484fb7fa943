"""The package's own exception types. A bad argument to a function is a
``ValueError``; these are the failures a command turns into an exit code."""


class OmegaPRMError(Exception):
    """Base class for all package errors."""


class CompleterUnavailable(OmegaPRMError):
    """The completer could not answer within the retry budget (exit 1)."""


class ConfigError(OmegaPRMError):
    """The config or the corpus is unreadable, ill-typed or out of range
    (exit 2)."""


class UpstreamError(OmegaPRMError):
    """An artifact an earlier pipeline command writes is unusable (exit 3)."""


class ParseError(OmegaPRMError):
    """A serialized record could not be parsed; a JSONL message starts with
    ``line N:``. ``cli`` reports it as a ConfigError or an UpstreamError,
    by the file that was read."""

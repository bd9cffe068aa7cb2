"""Exception hierarchy shared across the package.

Exit-code mapping for the CLI: usage problems exit 1, data problems exit 2.
"""


class DocalignError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class UsageError(DocalignError):
    """Caller misuse: bad flags, mismatched languages, missing config keys."""

    exit_code = 1


class ConfigError(UsageError):
    """A configuration value is missing or inconsistent."""


class ParseError(DocalignError):
    """A serialized record could not be decoded."""


class SchemaError(DocalignError):
    """A record decoded fine but is missing or duplicating required fields."""


class FormatError(DocalignError):
    """A resource file (table, embeddings, gold) violates its format."""

"""Exception types shared across the toolkit.

ValidationError covers semantic problems in models, profiles, and CLI
arguments (exit code 2); FormatError covers unreadable, corrupt or
inconsistent model and input files (exit code 1, alongside plain OSError).
"""


class UpaqError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(UpaqError):
    """A model, profile, or argument violates an invariant."""


class FormatError(UpaqError):
    """A container file is corrupt, truncated, or has the wrong version."""

"""Shared exception types."""


class KvcError(Exception):
    """Base class for all engine errors."""


class ConfigError(KvcError):
    """Invalid model, policy, or run configuration."""


class UsageError(KvcError):
    """An operation was called outside its contract."""

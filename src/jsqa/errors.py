"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A system configuration or experiment manifest is invalid."""


class RegimeMismatchError(ValueError):
    """A residual check was applied to samples from the wrong regime."""


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds the configured memory budget."""


class StateBudgetError(ValueError):
    """A truncated chain would exceed the exact oracle's memory budget."""


"""Exception types shared across the package."""

from contextlib import contextmanager


class ConfigError(ValueError):
    """A system configuration or experiment manifest is invalid."""


class RegimeMismatchError(ValueError):
    """A residual applied to the MGF of another regime."""


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds the configured memory budget."""


class StateBudgetError(ValueError):
    """A truncated chain would exceed the exact oracle's memory budget."""


def as_int(value) -> int:
    """The integer field `value` of a JSON input as an int. A bool or a
    number with a fractional part raises ValueError, so that, read inside
    `parsing`, it is reported instead of truncated."""
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


@contextmanager
def parsing(what: str):
    """Report a missing or malformed field of the JSON input `what` as a
    ConfigError; a ConfigError raised inside passes through unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{what} is missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} has a malformed field: {exc}") from exc

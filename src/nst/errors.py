from typing import Collection, Mapping


class NstError(Exception):
    """Base class for all errors raised by this package."""


def check_keys(
    record: object, allowed: Collection[str], error: type[NstError], what: str
) -> None:
    """Raise ``error`` unless ``record`` is a mapping with no key outside ``allowed``.

    A misspelt key would otherwise be dropped and its setting run at the
    default, so every config reader refuses one by name.
    """
    if not isinstance(record, Mapping):
        raise error(f"{what} must be a mapping, got {record!r}")
    unknown = sorted(str(key) for key in record if key not in allowed)
    if unknown:
        raise error(f"unknown {what}: {', '.join(unknown)}")

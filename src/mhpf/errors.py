"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """Raised when an argument violates an operation's preconditions."""


class GenerationError(RuntimeError):
    """Raised when a procedural generator exhausts its retry budget."""


def record_field(rec, key: str, convert, where: str):
    """`convert(rec[key])` of one parsed JSON record.

    A record that is not an object, or a missing or malformed field, raises
    InvalidInputError naming `where` (file, line or record) and the field.
    """
    if not isinstance(rec, dict):
        raise InvalidInputError(f"{where}: expected a JSON object, got {type(rec).__name__}")
    if key not in rec:
        raise InvalidInputError(f"{where}: missing field {key!r}")
    try:
        return convert(rec[key])
    except (TypeError, ValueError):
        raise InvalidInputError(f"{where}: malformed field {key!r}: {rec[key]!r}") from None

"""Exception types shared across the engine, and how their messages quote
user text."""

import math

ECHO_CHARS = 60  # an error message quotes at most this much of user text


def shown(text: str) -> str:
    """User text as an error message quotes it: at most ECHO_CHARS characters."""
    return text if len(text) <= ECHO_CHARS else text[:ECHO_CHARS] + "..."


def shown_int(value: int) -> str:
    """``shown(str(value))`` at any size: str() refuses an int past the
    interpreter's digit cap, so a long one first loses its trailing digits."""
    cut = max(0, int(abs(value).bit_length() * math.log10(2)) - ECHO_CHARS)
    text = str(value // 10 ** cut if value >= 0 else -(-value // 10 ** cut))
    return text[:ECHO_CHARS] + "..." if cut else shown(text)


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(EngineError):
    """Operands live in tori of different dimensions, or shapes disagree."""


class ComponentBudgetExceeded(EngineError):
    """A union has more coset components than the budget allows.

    The budget caps the components r; the work of counting a union is
    bounded by the distinct nonempty meets of its components, at most 2^r - 1.
    """


class CapExceeded(EngineError):
    """A brute-force enumeration would exceed the configured point cap."""


class MissingStratification(EngineError):
    """A fiber-dimension stratification is required but absent or incomplete."""


class MissingPluriData(EngineError):
    """Plurigenus data was requested from a model that does not carry it."""


class UnknownName(EngineError):
    """No catalog entry with the requested name."""


class BadParams(EngineError):
    """Catalog parameters outside their documented range."""


class ModelFormatError(EngineError):
    """A model file does not conform to the schema."""

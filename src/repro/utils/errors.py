"""Exception hierarchy for the repro library, and the integer-argument
check the public boundaries share."""

import operator

__all__ = [
    "ReproError",
    "UnsupportedRadixError",
    "ConstructionError",
    "whole",
    "nonnegative",
]


class ReproError(Exception):
    """Base class for all library-specific errors."""


class UnsupportedRadixError(ReproError, ValueError):
    """Raised when a construction is requested for a radix outside the
    regime the paper derives it for (e.g. the cluster layout and the
    low-depth trees of Section 7.1 are derived for odd prime powers only;
    see Section 6.1.1)."""


class ConstructionError(ReproError, RuntimeError):
    """Raised when a construction's internal invariant fails — indicates a
    bug or an unsupported input that slipped validation."""


def whole(name: str, x) -> int:
    """``x`` as an exact Python ``int`` (``operator.index``): NumPy
    integers pass, while floats, strings and other non-integers raise a
    ``TypeError`` naming the argument."""
    try:
        return operator.index(x)
    except TypeError:
        raise TypeError(f"{name} must be an integer; got {x!r}") from None


def nonnegative(name: str, x) -> int:
    """:func:`whole`, and a ``ValueError`` naming the argument when ``x``
    is negative (run budgets such as ``max_cycles``)."""
    x = whole(name, x)
    if x < 0:
        raise ValueError(f"{name} must be >= 0; got {x}")
    return x

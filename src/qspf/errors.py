"""Shared exception types, the one conditioning gate and the two rules every scalar argument is
checked by: an integer (_integer) equals an int (11.0, not 11.5 or "11"); a real number (_real)
is finite and bounded below by 0 (8000, not "8000"). No bool passes either rule."""

import numbers

import numpy as np

# a transform refuses any linear system whose condition number is not below this
COND_LIMIT = 1e8


class ConditioningError(RuntimeError):
    """A linear system involved in a transform is too ill-conditioned to solve.

    Carries the offending condition-number estimate in ``condition``.
    """

    def __init__(self, message: str, condition: float):
        super().__init__(f"{message} (condition estimate {condition:.3e})")
        self.condition = float(condition)


def _refuse_ill_conditioned(message: str, condition: float) -> None:
    """ConditioningError(message, condition) unless condition is below COND_LIMIT; NaN is not.

    Every transform refuses through this: the angular one in angular._analyse, and the radial
    collocation in multishell._radial_gate (forward_spf's and run_validation's) and
    radial_collocation_solve.
    """
    if not condition < COND_LIMIT:
        raise ConditioningError(message, condition)


def _as_int(value):
    """value as an int if it equals one and is not a bool, else None: 11.0 gives 11, 11.5 None."""
    # a bool dtype covers np.bool_ and 0-d bool arrays, which int() takes as 0 or 1 too
    if isinstance(value, bool) or getattr(value, "dtype", None) == bool:
        return None
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return number if number == value else None


def _integer(value, name: str, least: int | None = None) -> int:
    """value as an int (_as_int); ValueError naming it unless it is an integer, and >= least."""
    number = _as_int(value)
    if number is None:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and number < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return number


def _real(value, name: str, positive: bool = True) -> float:
    """value as a float; ValueError naming it unless real, finite and > 0 (>= 0 if not positive)."""
    # float and int first, as numbers.Real alone is an ABC check of six Python-level calls
    if (not isinstance(value, (float, int, numbers.Real)) or isinstance(value, (bool, np.bool_))
            or not (0 < value < np.inf if positive else 0 <= value < np.inf)):
        sign = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be a {sign}, finite real number, got {value!r}")
    return float(value)

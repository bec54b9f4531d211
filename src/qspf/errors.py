"""Shared exception types, the one conditioning gate and the integer-argument rule."""

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

    Every transform refuses through this: the angular one in angular._analyse, the dense
    oracle, and the radial collocation in multishell._radial_gate (forward_spf's and
    run_validation's) and radial_collocation_solve.
    """
    if not condition < COND_LIMIT:
        raise ConditioningError(message, condition)


def _as_int(value):
    """value as an int if it equals one, else None: 11.0 gives 11; 11.5, "11", NaN and inf None."""
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

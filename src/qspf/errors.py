"""Shared exception types and the conditioning policy."""

# a transform refuses any linear system whose condition number is not below this
COND_LIMIT = 1e8


class ConditioningError(RuntimeError):
    """A linear system involved in a transform is too ill-conditioned to solve.

    Carries the offending condition-number estimate in ``condition``.
    """

    def __init__(self, message: str, condition: float):
        super().__init__(f"{message} (condition estimate {condition:.3e})")
        self.condition = float(condition)

import pytest

from qspf import build_grid
from qspf.validate import run_validation


@pytest.mark.parametrize("n_draws", [0, -3])
def test_run_validation_needs_a_draw(n_draws):
    grid = build_grid(1, 1000.0, (1,))
    with pytest.raises(ValueError, match="n_draws"):
        run_validation(grid, n_draws=n_draws)

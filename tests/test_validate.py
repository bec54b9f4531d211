import pytest

from qspf import build_grid
from qspf.validate import run_validation


@pytest.mark.parametrize("n_draws", [0, -3])
def test_run_validation_needs_a_draw(n_draws):
    grid = build_grid(1, 1000.0, (1,))
    with pytest.raises(ValueError, match="n_draws"):
        run_validation(grid, n_draws=n_draws)


def test_run_validation_rejects_a_negative_seed():
    grid = build_grid(1, 1000.0, (1,))
    with pytest.raises(ValueError, match="seed"):
        run_validation(grid, seed=-1, n_draws=1)


def test_conditioning_report_lists_every_order_of_every_shell():
    grid = build_grid(4, 8000.0, (3, 5, 9, 11))
    check = run_validation(grid, n_draws=1)["checks"]["sht_conditioning"]
    assert len(check["per_shell"]) == grid.n_shells
    for conditions, scheme in zip(check["per_shell"], grid.angular):
        assert len(conditions) == scheme.bandlimit
        assert conditions == scheme.order_conditions.tolist()
    assert check["value"] == max(max(c) for c in check["per_shell"])

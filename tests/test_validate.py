import pytest

import qspf.signals
import qspf.validate
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


@pytest.mark.parametrize("argument", ["n_draws", "seed"])
def test_run_validation_refuses_a_count_that_is_not_an_integer(argument):
    grid = build_grid(1, 1000.0, (1,))
    with pytest.raises(ValueError, match=f"{argument} must be an integer, got 2.5"):
        run_validation(grid, **{argument: 2.5})
    assert run_validation(grid, **{argument: 2.0}) == run_validation(grid, **{argument: 2})


def test_conditioning_report_lists_every_order_of_every_shell():
    grid = build_grid(4, 8000.0, (3, 5, 9, 11))
    check = run_validation(grid, n_draws=1)["checks"]["sht_conditioning"]
    assert len(check["per_shell"]) == grid.n_shells
    for conditions, scheme in zip(check["per_shell"], grid.angular):
        assert len(conditions) == scheme.bandlimit
        assert conditions == scheme.order_conditions.tolist()
    assert check["value"] == max(max(c) for c in check["per_shell"])


def test_full_transform_draws_differ_across_seeds(monkeypatch):
    # seeds s and s + 1 once shared all but one of their draws
    drawn = []

    def recording(*args, **kwargs):
        coeffs = qspf.signals.random_staircase_signal(*args, **kwargs)
        drawn.append(coeffs.values)
        return coeffs

    monkeypatch.setattr(qspf.validate, "random_staircase_signal", recording)
    grid = build_grid(2, 1000.0, (3, 5))
    for seed in (0, 1):
        run_validation(grid, seed=seed, n_draws=3)
    assert len(drawn) == 6
    assert len({values.tobytes() for values in drawn}) == 6


def test_randomised_checks_name_how_they_draw():
    grid = build_grid(2, 1000.0, (3, 5))
    checks = run_validation(grid, seed=4, n_draws=2)["checks"]
    assert checks["sht_round_trip"]["draws"] == "default_rng(seed)"
    assert checks["spf_round_trip"]["draws"] == "SeedSequence(seed).spawn(n_draws)"
    assert [name for name, check in checks.items() if "draws" in check] == [
        "sht_round_trip", "spf_round_trip"]
    # checks the conditioning refuses still say how they draw
    latitudes = list(grid.angular[1].thetas)
    latitudes[1] = latitudes[0]
    degenerate = build_grid(2, 1000.0, (3, 5), ring_latitudes=[None, latitudes])
    checks = run_validation(degenerate, n_draws=1)["checks"]
    assert "error" in checks["sht_round_trip"] and "error" in checks["spf_round_trip"]
    assert checks["sht_round_trip"]["draws"] == "default_rng(seed)"
    assert checks["spf_round_trip"]["draws"] == "SeedSequence(seed).spawn(n_draws)"

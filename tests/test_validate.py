import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import qspf.signals
import qspf.validate
from qspf import build_grid, forward_spf
from qspf.angular import _analyse, _synthesise, _table, make_angular_scheme
from qspf.cli import descriptor_from_grid, grid_from_descriptor
from qspf.errors import ConditioningError
from qspf.multishell import _to_shells
from qspf.signals import random_staircase_signal
from qspf.validate import REPORT_THRESHOLDS, run_validation

LADDER = ((3, 5, 9, 11), (5, 9, 13, 17), (7, 11, 15, 21), (9, 15, 21, 31), (11, 19, 29, 41),
          (15, 25, 41, 63))


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

    def recording(seeds, layout):
        values = qspf.signals._staircase_values(seeds, layout)
        drawn.extend(values)
        return values

    monkeypatch.setattr(qspf.validate, "_staircase_values", recording)
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


def per_shell_sht_round_trip(grid, seed, n_draws):
    """The angular round trip shell by shell, one draw at a time: the report entry to match.

    Each shell runs on the column block run_validation sends it, its chunk's angular draws
    and then the full round trip's columns of that shell: from 16 unknowns on, a ring
    system's products round by the width of the block they are taken on.
    """
    rng, bound = np.random.default_rng(seed), REPORT_THRESHOLDS["sht_round_trip"]
    draws = [[rng.standard_normal(s.n_points) + 1j * rng.standard_normal(s.n_points)
              for _ in range(n_draws)] for s in grid.angular]
    spf = np.array([random_staircase_signal(child, grid).values
                    for child in np.random.SeedSequence(seed).spawn(n_draws)])
    step = qspf.validate._draws_per_chunk(grid)
    try:
        worst = 0.0
        for i, scheme in enumerate(grid.angular):
            for start in range(0, n_draws, step):
                coeffs = np.array(draws[i][start : start + step]).T
                harmonics = _to_shells(spf[start : start + step].T, grid.index, grid)
                table = _table(scheme._plan, (2 * coeffs.shape[1],))
                table[0, :-1] = np.hstack([coeffs, harmonics[i, : scheme.n_points]])
                back = _analyse(_synthesise(table, scheme._plan), scheme._plan)[0, :-1]
                worst = max(worst, np.max(np.abs(back[:, : coeffs.shape[1]] - coeffs)))
        check = {"value": float(worst), "threshold": bound, "passed": bool(worst <= bound)}
    except ConditioningError as exc:
        check = {"value": None, "threshold": bound, "passed": False, "error": str(exc)}
    return {**check, "draws": "default_rng(seed)"}


def _degenerate_grid():
    """(3, 5, 5) with the first two rings of the outer shells merged or 1e-13 apart."""
    merged, nearly = make_angular_scheme(5).thetas.copy(), make_angular_scheme(5).thetas.copy()
    merged[1], nearly[1] = merged[0], nearly[0] + 1e-13
    return build_grid(3, 1000.0, (3, 5, 5), ring_latitudes=[None, merged, nearly])


# a 13-shell staircase, whose staircase radial map is refused (condition 4.8e8)
REFUSED_RADIAL = tuple(range(1, 26, 2))


@pytest.mark.parametrize("layout", [*LADDER, (11, 9, 5, 3), (1,), (3, 3, 3), REFUSED_RADIAL,
                                    "degenerate"], ids=str)
def test_round_trip_across_shells_reports_what_the_per_shell_loop_did(layout):
    if layout == "degenerate":
        grid = _degenerate_grid()
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # (11, 9, 5, 3) decreases with b
            grid = build_grid(len(layout), 8000.0, layout)
    for n_draws in (1, 3):
        for seed in (0, 1):
            report = run_validation(grid, seed=seed, n_draws=n_draws)
            want = json.loads(json.dumps(report))
            want["checks"]["sht_round_trip"] = per_shell_sht_round_trip(grid, seed, n_draws)
            want["passed"] = all(c["passed"] for c in want["checks"].values())
            assert json.dumps(report) == json.dumps(want)
    if layout == REFUSED_RADIAL:
        # its chunks are those of every grid; only the full round trip's radial analysis is
        # skipped, and its check carries the refusal forward_spf raises
        with pytest.raises(ConditioningError) as refusal:
            forward_spf(grid, np.ones(grid.n_samples))
        assert report["checks"]["spf_round_trip"]["error"] == str(refusal.value)
        assert str(refusal.value).startswith("radial collocation matrix is ill-conditioned")
        assert report["checks"]["sht_round_trip"]["passed"]
    if layout == "degenerate":
        # the first ill-conditioned shell names the failure, as it did when it ran first
        first, second = (f"{s.condition:.3e}" for s in grid.angular[1:])
        assert first != second and first in report["checks"]["sht_round_trip"]["error"]


def count_fft_calls(monkeypatch):
    calls = {"fft": 0, "ifft": 0}
    for name in calls:
        def counted(*args, name=name, original=getattr(np.fft, name), **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls


def test_validation_takes_one_fft_call_per_ring_size_per_round_trip(monkeypatch):
    calls = count_fft_calls(monkeypatch)
    run_validation(build_grid(4, 8000.0, (3, 5, 9, 11)), n_draws=1)
    # 6 ring sizes, the one-point ring 0 taking no call, the angular and the full round trip's
    # columns in one block; 12 + 12 when the two round trips took a pass each and ring 0 a
    # call, 16 + 6 when the angular one went shell by shell
    assert calls == {"fft": 5, "ifft": 5}


@pytest.mark.parametrize("bandlimits", [(3, 5, 9, 11), (15, 25, 41, 63)], ids=str)
def test_validation_takes_one_fft_call_per_ring_size_per_chunk(bandlimits, monkeypatch):
    grid = build_grid(4, 8000.0, bandlimits)
    chunks = -(-100 // qspf.validate._draws_per_chunk(grid))
    assert chunks == (1 if bandlimits == (3, 5, 9, 11) else 10)
    calls = count_fft_calls(monkeypatch)
    run_validation(grid, n_draws=100)
    ring_sizes = max(bandlimits) // 2  # of more than one point
    assert calls == {"fft": ring_sizes * chunks, "ifft": ring_sizes * chunks}


def _memory_above_the_draws(grid, n_draws):
    """tracemalloc's peak over one report, less the angular round trip's held draws."""
    run_validation(grid, n_draws=1)  # memos
    held = n_draws * grid.n_samples * 16  # the angular round trip's draws
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_validation(grid, n_draws=n_draws)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak - held


@pytest.mark.parametrize("n_draws", [100, 400])
def test_validation_memory_above_the_draws_stays_within_the_chunk_budget(n_draws):
    grid = build_grid(4, 8000.0, (15, 25, 41, 63))
    assert _memory_above_the_draws(grid, n_draws) <= qspf.validate._CHUNK_BYTES


def test_default_grid_validation_memory_stays_within_the_chunk_budget():
    # the default grid's chunks are its widest, up to 316 draws, so 400 draws fill one
    grid = build_grid(4, 8000.0, (3, 5, 9, 11))
    assert _memory_above_the_draws(grid, 400) <= qspf.validate._CHUNK_BYTES


def _mutate(value):
    """Change every entry of value, a dict or list, and of every dict and list in it, in place."""
    for key, item in list(value.items() if isinstance(value, dict) else enumerate(value)):
        if isinstance(item, (dict, list)):
            _mutate(item)
        else:
            value[key] = "mutated"
    if isinstance(value, dict):
        value["added"] = True
    else:
        value.append("added")


@pytest.mark.parametrize("layout", [(3, 5, 9, 11), (1,), "degenerate"], ids=str)
def test_report_memo_hands_every_report_its_own_dicts_and_lists(layout):
    grid = _degenerate_grid() if layout == "degenerate" else build_grid(
        len(layout), 8000.0, layout)
    report = run_validation(grid, seed=3, n_draws=1)
    want = json.dumps(report)
    _mutate(report)
    assert report["checks"]["sht_conditioning"]["per_shell"][0][-1] == "added"
    assert json.dumps(run_validation(grid, seed=3, n_draws=1)) == want


def test_report_memo_gives_a_default_grid_and_its_rebuild_the_same_report():
    # the built-in layout and a descriptor's explicit ring placements make two grids, so two
    # memo entries, which must report the same bytes
    for bandlimits in LADDER:
        grid = build_grid(4, 8000.0, bandlimits)
        rebuilt = grid_from_descriptor(json.loads(json.dumps(descriptor_from_grid(grid))))
        assert rebuilt is not grid
        assert qspf.validate._grid_checks(rebuilt) is not qspf.validate._grid_checks(grid)
        for seed in (0, 1):
            assert (json.dumps(run_validation(rebuilt, seed=seed, n_draws=1))
                    == json.dumps(run_validation(grid, seed=seed, n_draws=1)))


@pytest.mark.parametrize("n_shells", [65, 86, 362])
def test_moment_checks_stay_finite_on_many_shells(n_shells):
    # x^j overflowed from 65 shells and Gamma(j + 3/2) from 86
    grid = build_grid(n_shells, 8000.0, (1,) * n_shells)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        checks = run_validation(grid, n_draws=1)["checks"]
    moments, sharpness = checks["gaussian_moments"], checks["quadrature_sharpness"]
    assert len(moments["residuals"]) == 2 * n_shells + 1
    assert np.all(np.isfinite(moments["residuals"]))
    assert moments["passed"] and moments["value"] <= 1e-11
    # on this many shells the degree-2N miss lies far below rounding, so the check fails, finitely
    assert not sharpness["passed"] and np.isfinite(sharpness["value"])


@pytest.mark.parametrize("n_shells", [1, 4, 12])
def test_quadrature_sharpness_matches_its_closed_form(n_shells):
    # the degree-2N moment misses by N! Gamma(N + 3/2) / Gamma(2N + 3/2): 0.4, 1.05e-2, 2.65e-7
    grid = build_grid(n_shells, 8000.0, (1,) * n_shells)
    sharpness = run_validation(grid, n_draws=1)["checks"]["quadrature_sharpness"]
    N = n_shells
    closed_form = math.factorial(N) * math.gamma(N + 1.5) / math.gamma(2 * N + 1.5)
    assert sharpness["value"] == pytest.approx(closed_form, rel=1e-6)
    assert sharpness["passed"] == (n_shells < 12)

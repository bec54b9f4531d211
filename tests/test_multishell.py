import contextlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import roots_genlaguerre, sph_harm_y

from qspf.multishell import (
    SpfCoefficients,
    build_grid,
    forward_spf,
    inverse_spf,
    staircase_index,
    synthesize_on_grid,
)
from qspf.angular import _scheme, _sh_position, make_angular_scheme
from qspf.cli import format_coefficients_csv
from qspf.errors import ConditioningError
from qspf.radial import BConvention, radial_basis_eval
from qspf.signals import random_staircase_signal
from qspf.specfun import spherical_harmonic

DEFAULTS = (3, 5, 9, 11)


@pytest.fixture(scope="module")
def grid():
    return build_grid(4, 8000.0, DEFAULTS)


@pytest.fixture(scope="module")
def uniform_grid():
    return build_grid(4, 8000.0, (11, 11, 11, 11))


@pytest.fixture(scope="module")
def high_grid():
    return build_grid(4, 8000.0, (15, 25, 41, 63))


def random_unit_vectors(rng, count):
    dirs = rng.standard_normal((count, 3))
    return dirs / np.linalg.norm(dirs, axis=1)[:, None]


def direct_sum(coeffs, dirs, q):
    """The triple sum of c_{n,l,m} R_n(q) Y_l^m with scipy's harmonics, term by term."""
    index = coeffs.index
    theta, phi = np.arccos(dirs[:, 2]), np.arctan2(dirs[:, 1], dirs[:, 0])
    radial = np.array([radial_basis_eval(n, q, coeffs.zeta) for n in range(len(index.bandlimits))])
    angular = sph_harm_y(index.degrees[:, None], index.orders[:, None], theta, phi)
    return coeffs.values @ (radial[index.radial_orders] * angular)


def test_staircase_default_counts():
    index = staircase_index(DEFAULTS)
    assert index.size == 132
    per_degree = {l: len({n for n, l2, _ in index.entries if l2 == l}) for l in range(0, 11, 2)}
    assert per_degree == {0: 4, 2: 4, 4: 3, 6: 2, 8: 2, 10: 1}
    block = {l: sum(1 for (_, l2, _) in index.entries if l2 == l) for l in range(0, 11, 2)}
    assert block == {0: 4, 2: 20, 4: 27, 6: 26, 8: 34, 10: 21}
    assert index.runs == (((0, 1, 2, 3), slice(0, 24), slice(0, 6)),
                          ((1, 2, 3), slice(24, 51), slice(6, 15)),
                          ((2, 3), slice(51, 111), slice(15, 45)),
                          ((3,), slice(111, 132), slice(45, 66)))


def test_staircase_ordering_and_lookup():
    index = staircase_index(DEFAULTS)
    keys = [(l, m, n) for (n, l, m) in index.entries]
    assert keys == sorted(keys)
    for pos, (n, l, m) in enumerate(index.entries):
        assert index.locate(n, l, m) == pos
    with pytest.raises(ValueError):
        index.locate(1, 10, 0)
    with pytest.raises(ValueError):
        index.locate(0, 12, 0)
    # negative n, odd l, |m| > l, n >= N_l (N_4 = 3), negative l, l >= max L
    for n, l, m in [(-1, 0, 0), (0, 3, 0), (0, 4, 5), (0, 4, -5), (3, 4, 0), (0, -2, 0),
                    (0, 11, 0), (0, 20, 0)]:
        with pytest.raises(ValueError):
            index.locate(n, l, m)


@pytest.mark.parametrize("bandlimits", [(3, 5, 9, 11), (11, 9, 5, 3), (3, 1, 7, 1, 9), (1,),
                                        (5, 5, 5), (15, 25, 41, 63), (133,)])
def test_locate_inverts_entries(bandlimits):
    index = staircase_index(bandlimits)
    entries = index.entries
    assert [index.locate(*entry) for entry in entries] == list(range(index.size))
    for shells, span, _ in index.runs:
        for l in sorted(set(index.degrees[span].tolist())):
            # a run carries exactly the shells whose band limit exceeds each of its degrees
            assert shells == tuple(i for i, L in enumerate(bandlimits) if L > l)
            with pytest.raises(ValueError):
                index.locate(len(shells), l, l)
    if index.size <= 264:  # every other triple is refused, checked exhaustively
        top, inside = max(bandlimits), set(entries)
        for triple in itertools.product(range(-1, len(bandlimits) + 1), range(-2, top + 2),
                                        range(-top - 2, top + 3)):
            if triple not in inside:
                with pytest.raises(ValueError):
                    index.locate(*triple)


def test_staircase_edge_cases():
    assert staircase_index((1,)).entries == ((0, 0, 0),)
    uniform = staircase_index((11,) * 4)
    assert uniform.size == 264
    assert uniform.runs == (((0, 1, 2, 3), slice(0, 264), slice(0, 66)),)
    with pytest.raises(ValueError):
        staircase_index((4, 5))
    with pytest.raises(ValueError):
        staircase_index(())
    with pytest.raises(ValueError):
        staircase_index((3.9,))
    with pytest.raises(ValueError, match="above 133"):
        staircase_index((10001,))


def test_staircase_index_is_memoised_and_read_only():
    index = staircase_index(DEFAULTS)
    assert staircase_index(list(DEFAULTS)) is index
    assert staircase_index(L for L in DEFAULTS) is index
    assert staircase_index((3.0, 5, 9, 11)) is index
    for array in (index.radial_orders, index.degrees, index.orders, index.partner):
        with pytest.raises(ValueError):
            array[...] = array
    # a refused input is not remembered: it raises again
    for _ in range(2):
        with pytest.raises(ValueError):
            staircase_index((3, 4))


def test_grids_share_memoised_schemes_and_indexes():
    first, second = build_grid(4, 8000.0, DEFAULTS), build_grid(4, 16000.0, list(DEFAULTS))
    assert second is not first
    assert second.index is first.index
    assert second.radial_maps["zero_padded"][0] is first.radial_maps["zero_padded"][0]
    assert all(a is b for a, b in zip(second.angular, first.angular))
    # shells with equal band limits share one scheme too
    uniform = build_grid(4, 8000.0, (11,) * 4)
    assert all(scheme is first.angular[3] for scheme in uniform.angular)


def _assert_read_only(grid):
    arrays = [value for part in (grid, grid.radial) for value in vars(part).values()
              if isinstance(value, np.ndarray)]
    arrays += [m for _, maps, _ in grid.radial_maps.values() for m in maps]
    assert len(arrays) == 5 + 4 + 5  # 4 staircase runs and 1 zero_padded run at the defaults
    for array in arrays:
        with pytest.raises(ValueError):
            array[...] = array
    with pytest.raises(TypeError):
        grid.radial_maps["staircase"] = grid.radial_maps["zero_padded"]


def test_default_grids_are_memoised_and_read_only():
    grid = build_grid(4, 8000.0, DEFAULTS)
    assert build_grid(4, 8000, list(DEFAULTS)) is grid
    assert build_grid(4, np.float64(8000), (3.0, 5, 9, 11.0)) is grid
    assert build_grid(4, 8000.0, DEFAULTS, BConvention()) is grid
    assert build_grid(4, 8001.0, DEFAULTS) is not grid
    assert build_grid(4, 8000.0, DEFAULTS, BConvention("physical", 0.02)) is not grid
    _assert_read_only(grid)


def test_explicit_placements_are_memoised_and_read_only():
    grid = build_grid(4, 8000.0, DEFAULTS)
    latitudes, offsets = [s.thetas for s in grid.angular], [s.phi_offsets for s in grid.angular]
    for kwargs in ({"ring_latitudes": latitudes}, {"ring_offsets": offsets},
                   {"ring_latitudes": latitudes, "ring_offsets": offsets}):
        first = build_grid(4, 8000.0, DEFAULTS, **kwargs)
        assert first is not grid
        as_lists = {key: [value.tolist() for value in values] for key, values in kwargs.items()}
        assert build_grid(4, 8000, list(DEFAULTS), **as_lists) is first
        assert build_grid(4, np.float64(8000), DEFAULTS, **kwargs) is first
        assert build_grid(4, 8001.0, DEFAULTS, **kwargs) is not first
        assert np.array_equal(first.points, grid.points)
        _assert_read_only(first)
    # -0.0 is not 0.0, and a latitude one ulp away is another layout
    rebuilt = build_grid(4, 8000.0, DEFAULTS, BConvention(), latitudes, offsets)
    signed = build_grid(4, 8000.0, DEFAULTS, BConvention(), latitudes,
                        offsets[:3] + [-offsets[3]])
    assert signed is not rebuilt and signed.angular[:3] == rebuilt.angular[:3]
    nudged = latitudes[:3] + [np.nextafter(latitudes[3], 0.0)]
    assert build_grid(4, 8000.0, DEFAULTS, BConvention(), nudged, offsets) is not rebuilt


def test_grid_memo_takes_the_schemes_the_scheme_memo_holds_now():
    grid = build_grid(4, 8000.0, DEFAULTS)
    _scheme.cache_clear()  # as if the scheme memo had dropped them
    again = build_grid(4, 8000.0, DEFAULTS)
    assert again is not grid
    assert all(s is make_angular_scheme(L) for s, L in zip(again.angular, DEFAULTS))
    assert build_grid(4, 8000.0, DEFAULTS) is again


def test_grid_arguments_are_checked_on_every_call():
    for _ in range(2):
        with pytest.warns(UserWarning, match="decrease"):
            build_grid(4, 8000.0, (11, 9, 5, 3))
    latitudes = [None, None, None, make_angular_scheme(11).thetas]
    refused = [(3, 8000.0, DEFAULTS), (4, -1.0, DEFAULTS), (4, float("inf"), DEFAULTS),
               (4, 8000.0, (3, 4, 9, 11)), (4.0, 8000.0, DEFAULTS), (4, 1e300, DEFAULTS),
               (4, 8000.0, DEFAULTS, BConvention(), latitudes[:3]),
               (4, 8000.0, DEFAULTS, BConvention(), latitudes[:3] + [latitudes[3].reshape(2, 3)]),
               (4, 8000.0, DEFAULTS, BConvention(), latitudes, [None] * 3 + [[np.nan] * 6])]
    for args in refused:
        for _ in range(2):
            with pytest.raises((TypeError, ValueError)):
                build_grid(*args)


def test_default_grid_shape(grid):
    assert grid.n_samples == 132
    counts = [grid.angular[i].n_points for i in range(4)]
    assert counts == [6, 15, 45, 66]
    assert np.max(np.abs(np.linalg.norm(grid.points, axis=1) - 1.0)) < 1e-14
    assert np.all(grid.points[:, 2] > 0)
    assert grid.n_samples == grid.index.size
    assert np.max(np.abs(np.unique(grid.bvalues) - np.sort(grid.radial.bvalues))) < 1e-9


def test_build_grid_validation():
    with pytest.raises(ValueError):
        build_grid(3, 8000.0, DEFAULTS)
    with pytest.raises(ValueError):
        build_grid(2, 8000.0, (3, 4))
    with pytest.warns(UserWarning):
        build_grid(4, 8000.0, (11, 9, 5, 3))


def test_grid_directions_survive_bmax_rescaling(grid):
    other = build_grid(4, 16000.0, DEFAULTS)
    assert np.max(np.abs(other.points - grid.points)) == 0.0
    assert np.max(np.abs(other.bvalues - 2.0 * grid.bvalues)) < 1e-8


def test_forward_of_pure_basis_element(grid):
    radial = grid.radial
    values = np.repeat(
        [radial_basis_eval(0, q, radial.zeta) for q in radial.radii],
        [s.n_points for s in grid.angular],
    ) / np.sqrt(4.0 * np.pi)
    coeffs = forward_spf(grid, values)
    assert coeffs.values[coeffs.index.locate(0, 0, 0)] == pytest.approx(1.0, abs=1e-12)
    others = np.abs(coeffs.values[coeffs.index.locate(0, 0, 0) != np.arange(coeffs.index.size)])
    assert np.max(others) < 1e-9


def test_staircase_round_trip(grid):
    worst = 0.0
    for draw in range(20):
        coeffs = random_staircase_signal(100 + draw, grid)
        samples = synthesize_on_grid(coeffs, grid)
        back = forward_spf(grid, samples)
        worst = max(worst, np.max(np.abs(back.values - coeffs.values)))
    assert worst < 1e-9


def test_uniform_grid_round_trip_uses_pure_quadrature(uniform_grid):
    for draw in range(10):
        coeffs = random_staircase_signal(200 + draw, uniform_grid)
        samples = synthesize_on_grid(coeffs, uniform_grid)
        back = forward_spf(uniform_grid, samples)
        assert np.max(np.abs(back.values - coeffs.values)) < 1e-9
        padded = forward_spf(uniform_grid, samples, radial_mode="zero_padded")
        assert np.max(np.abs(padded.values - coeffs.values)) < 1e-9


def test_forward_is_linear(grid):
    rng = np.random.default_rng(8)
    x = rng.standard_normal(132)
    y = rng.standard_normal(132)
    a, b = 2.5, -1.25
    combined = forward_spf(grid, a * x + b * y)
    separate = a * forward_spf(grid, x).values + b * forward_spf(grid, y).values
    # white-noise samples land far outside the band-limited model and get
    # amplified into O(1e4) coefficients, so linearity is relative to scale
    scale = max(np.max(np.abs(separate)), 1.0)
    assert np.max(np.abs(combined.values - separate)) / scale < 1e-12


@pytest.mark.parametrize("mode", ["staircase", "zero_padded"])
def test_synthesis_inverts_forward_on_white_noise(grid, mode):
    # white noise reaches every degree on every shell, so this pins the
    # per-shell truncation of both modes, not only their low degrees
    samples = np.random.default_rng(21).standard_normal(132)
    back = synthesize_on_grid(forward_spf(grid, samples, radial_mode=mode), grid)
    assert np.max(np.abs(back - samples)) / np.max(np.abs(samples)) < 1e-9


@pytest.mark.parametrize("bandlimits, n_runs", [((11, 9, 5, 3), 4), ((3, 3, 11, 11), 2)])
def test_synthesis_inverts_forward_run_by_run(bandlimits, n_runs):
    # runs other than the default's: decreasing limits, and two shells to each limit
    decreasing = bandlimits[0] > bandlimits[-1]
    with pytest.warns(UserWarning) if decreasing else contextlib.nullcontext():
        g = build_grid(4, 8000.0, bandlimits)
    index = g.index
    assert len(index.runs) == n_runs
    assert len(g.radial_maps["staircase"][1]) == n_runs
    assert len(g.radial_maps["zero_padded"][1]) == 1
    # a run's entries, read as (l, m) rows by n, are rows of one shell's angular coefficients
    for shells, entries, rows in index.runs:
        for k, (n, l, m) in enumerate(index.entries[entries]):
            assert (rows.start + k // len(shells), n) == (_sh_position(l, m), k % len(shells))
    samples = np.random.default_rng(23).standard_normal(g.n_samples)
    for mode in ("staircase", "zero_padded"):
        back = synthesize_on_grid(forward_spf(g, samples, radial_mode=mode), g)
        assert np.max(np.abs(back - samples)) / np.max(np.abs(samples)) <= 1e-12


def test_ill_conditioned_collocation_fails_only_in_staircase_mode():
    # build_grid stores the condition number without raising; only the
    # staircase transform, which would solve that system, refuses
    grid = build_grid(16, 8000.0, (1,) * 8 + (3,) * 8)
    samples = np.random.default_rng(22).standard_normal(grid.n_samples)
    with pytest.raises(ConditioningError) as excinfo:
        forward_spf(grid, samples)
    assert excinfo.value.condition > 1e8
    padded = forward_spf(grid, samples, radial_mode="zero_padded")
    assert np.all(np.isfinite(padded.values))


def test_grid_stores_each_modes_worst_collocation_condition():
    grid = build_grid(16, 8000.0, (1,) * 8 + (3,) * 8)
    radii, zeta = grid.radial.radii, grid.radial.zeta
    worst = max(
        np.linalg.cond([[radial_basis_eval(n, radii[j], zeta) for n in range(len(shells))]
                        for j in shells])
        for shells, _, _ in grid.index.runs
        if len(shells) < grid.n_shells
    )
    assert grid.radial_maps["staircase"][2] == pytest.approx(worst, rel=1e-6)
    assert grid.radial_maps["zero_padded"][2] == 1.0
    with pytest.raises(ConditioningError) as excinfo:
        forward_spf(grid, np.zeros(grid.n_samples))
    assert excinfo.value.condition == grid.radial_maps["staircase"][2]


def test_forward_validation(grid):
    with pytest.raises(ValueError):
        forward_spf(grid, np.ones(50))
    with pytest.raises(ValueError):
        forward_spf(grid, np.ones(132), radial_mode="bogus")
    for mode in ("staircase", "zero_padded"):
        for where in (0, 131):
            samples = np.ones(132)
            samples[where] = np.nan
            with pytest.raises(ValueError, match="finite"):
                forward_spf(grid, samples, radial_mode=mode)


def test_inverse_spf_basics(grid):
    index = grid.index
    coeffs = SpfCoefficients(index, grid.radial.zeta, grid.radial.convention,
                             np.zeros(index.size))
    assert inverse_spf(coeffs, np.array([0.0, 0.0, 1.0]), b=1000.0) == 0.0
    coeffs.values[index.locate(0, 0, 0)] = 1.0
    q0 = grid.radial.radii[0]
    expected = radial_basis_eval(0, q0, grid.radial.zeta) / np.sqrt(4.0 * np.pi)
    got = inverse_spf(coeffs, np.array([0.0, 0.0, 1.0]), q=q0)
    assert got == pytest.approx(expected, rel=1e-13)
    same = inverse_spf(coeffs, np.array([0.0, 0.0, 1.0]), b=float(q0 * q0))
    assert same == pytest.approx(got, rel=1e-13)


@pytest.mark.parametrize("mode", ["staircase", "zero_padded"])
def test_inverse_spf_matches_direct_sum(grid, high_grid, mode):
    # complex tables without the real-signal symmetry, so every signed
    # order, odd negative ones included, has to carry its own sign
    rng = np.random.default_rng(24)
    for g, sizes in ((grid, (1, 50)), (high_grid, (1, 4))):
        index = g.radial_maps[mode][0]
        values = rng.standard_normal(index.size) + 1j * rng.standard_normal(index.size)
        coeffs = SpfCoefficients(index, g.radial.zeta, g.radial.convention, values)
        for n_points in sizes:
            dirs = random_unit_vectors(rng, n_points)
            q = rng.uniform(0.0, 1.2 * g.radial.radii[-1], n_points)
            direct = direct_sum(coeffs, dirs, q)
            got = inverse_spf(coeffs, dirs, q=q)
            assert np.max(np.abs(got - direct)) < 1e-12 * np.max(np.abs(direct))


def test_inverse_spf_broadcasts_large_batches(grid):
    rng = np.random.default_rng(40)
    coeffs = random_staircase_signal(8, grid)
    dirs = random_unit_vectors(rng, 4096)
    q = rng.uniform(0.0, grid.radial.radii[-1], 4096)
    checked = slice(None, None, 512)
    one_direction = inverse_spf(coeffs, dirs[7], q=q)
    one_radius = inverse_spf(coeffs, dirs, q=q[7])
    assert one_direction.shape == one_radius.shape == (4096,)
    for got, d, r in ((one_direction, dirs[7:8], q), (one_radius, dirs, np.full(4096, q[7]))):
        direct = direct_sum(coeffs, np.broadcast_to(d, (4096, 3))[checked], r[checked])
        assert np.max(np.abs(got[checked] - direct)) < 1e-12 * np.max(np.abs(direct))
        assert np.array_equal(got, inverse_spf(coeffs, np.broadcast_to(d, (4096, 3)), q=r))


def test_inverse_spf_memory_is_linear_in_the_batch(grid):
    # a 4096-point call traced at 2.41 MB; the (11, 11, 4096) Legendre
    # table alone would be 3.96 MB
    rng = np.random.default_rng(41)
    coeffs = random_staircase_signal(9, grid)
    dirs, b = random_unit_vectors(rng, 4096), rng.uniform(0.0, 8000.0, 4096)
    inverse_spf(coeffs, dirs, b=b)
    tracemalloc.start()
    try:
        inverse_spf(coeffs, dirs, b=b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.0e6


def test_inverse_spf_antipodal_symmetry(grid):
    rng = np.random.default_rng(9)
    coeffs = random_staircase_signal(31, grid)
    dirs = rng.standard_normal((100, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    b = rng.uniform(0.0, 8000.0, 100)
    plus = inverse_spf(coeffs, dirs, b=b)
    minus = inverse_spf(coeffs, -dirs, b=b)
    assert np.max(np.abs(plus - minus)) < 1e-13


def test_inverse_spf_validation(grid):
    coeffs = random_staircase_signal(5, grid)
    u = np.array([0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        inverse_spf(coeffs, u)
    with pytest.raises(ValueError):
        inverse_spf(coeffs, u, q=1.0, b=1.0)
    with pytest.raises(ValueError):
        inverse_spf(coeffs, u, q=-1.0)
    with pytest.raises(ValueError):
        inverse_spf(coeffs, 2.0 * u, q=1.0)
    with pytest.raises(ValueError):
        inverse_spf(coeffs, np.tile(u, (3, 1)), q=np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="b-values must be non-negative"):
        inverse_spf(coeffs, u, b=-1.0)
    for bad in (dict(q=np.nan), dict(b=np.nan), dict(q=np.array([1.0, np.nan]))):
        with pytest.raises(ValueError, match="not NaN"):
            inverse_spf(coeffs, u, **bad)
    assert inverse_spf(coeffs, u, q=np.inf) == 0.0
    assert inverse_spf(coeffs, np.zeros((0, 3)), q=1.0).shape == (0,)
    assert inverse_spf(coeffs, u, b=np.zeros(0)).shape == (0,)


def test_synthesis_matches_pointwise_inverse_when_nothing_truncates(uniform_grid):
    coeffs = random_staircase_signal(77, uniform_grid)
    rendered = synthesize_on_grid(coeffs, uniform_grid)
    pointwise = inverse_spf(coeffs, uniform_grid.points, q=uniform_grid.radii)
    assert np.max(np.abs(rendered - pointwise)) < 1e-10


def test_synthesis_drops_degrees_above_the_grid(grid):
    # no shell of the default grid carries degree 12 of a (13,)*4 table
    coeffs = random_staircase_signal(31, build_grid(4, 8000.0, (13,) * 4))
    assert np.all(coeffs.values[coeffs.index.degrees == 12] != 0)
    index = staircase_index((11,) * 4)
    kept = [coeffs.index.locate(n, l, m) for n, l, m in index.entries]
    restricted = SpfCoefficients(index, coeffs.zeta, coeffs.convention, coeffs.values[kept])
    assert np.array_equal(synthesize_on_grid(coeffs, grid), synthesize_on_grid(restricted, grid))


def test_synthesis_rejects_mismatched_radial_scale(grid):
    coeffs = random_staircase_signal(5, build_grid(4, 16000.0, DEFAULTS))
    with pytest.raises(ValueError):
        synthesize_on_grid(coeffs, grid)


@pytest.mark.parametrize("zeta", [np.nan, np.inf, 0.0, -1.0])
def test_coefficient_table_refuses_a_bad_radial_scale(grid, zeta):
    # NaN once passed the scale check and synthesized NaN; inf gave zeros
    values = random_staircase_signal(5, grid).values
    with pytest.raises(ValueError, match="zeta"):
        SpfCoefficients(grid.index, zeta, grid.radial.convention, values)


def test_coefficient_table_refuses_non_finite_values(grid):
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        values = np.ones(grid.index.size, dtype=complex)
        values[7] = bad
        with pytest.raises(ValueError, match="finite"):
            SpfCoefficients(grid.index, grid.radial.zeta, grid.radial.convention, values)


def test_coefficient_tables_are_frozen_copies(grid):
    # a table changed after its checks once made inverse_spf return NaN without an error
    values = random_staircase_signal(5, grid).values.copy()
    coeffs = SpfCoefficients(grid.index, grid.radial.zeta, grid.radial.convention, values)
    values[3] = np.nan
    assert np.isfinite(coeffs.values).all()
    for name, value in (("zeta", np.nan), ("values", values), ("index", grid.index)):
        with pytest.raises(AttributeError):
            setattr(coeffs, name, value)
    assert np.isfinite(inverse_spf(coeffs, np.array([0.0, 0.0, 1.0]), b=1000.0))
    # the values array stays writable in place, so every reader checks it again
    coeffs.values[3] = np.nan
    for read in (lambda: inverse_spf(coeffs, np.array([0.0, 0.0, 1.0]), b=1000.0),
                 coeffs.to_real_basis, lambda: format_coefficients_csv(coeffs)):
        with pytest.raises(ValueError, match="coefficient values must be finite"):
            read()


def test_zero_padded_mode_on_default_grid(grid):
    # a signal with no content above degree 2 is seen whole by every
    # shell, so the padded quadrature recovers it and pads zeros above
    rng = np.random.default_rng(12)
    low = staircase_index((3,) * 4)
    coeffs = SpfCoefficients(low, grid.radial.zeta, grid.radial.convention,
                             rng.standard_normal(low.size))
    samples = inverse_spf(coeffs, grid.points, q=grid.radii)
    padded = forward_spf(grid, samples, radial_mode="zero_padded")
    assert padded.index.size == 264
    for k, (n, l, m) in enumerate(padded.index.entries):
        want = coeffs.values[low.locate(n, l, m)] if l < 3 else 0.0
        assert padded.values[k] == pytest.approx(want, abs=1e-10)


def test_energy_identity_against_dense_quadrature(uniform_grid):
    """Parseval check: coefficient energy equals the integral of |E|^2.

    The dense rule is an independent composition of textbook quadratures:
    generalized Gauss-Laguerre (x-space, 24 nodes) radially, Gauss-
    Legendre (24 nodes) in cos(theta), uniform 48-point rule in phi.
    """
    zeta = uniform_grid.radial.zeta
    coeffs = random_staircase_signal(55, uniform_grid)
    x_nodes, x_weights = roots_genlaguerre(24, 0.5)
    q_nodes = np.sqrt(zeta * x_nodes)
    q_weights = 0.5 * zeta**1.5 * np.exp(x_nodes) * x_weights
    ct_nodes, ct_weights = np.polynomial.legendre.leggauss(24)
    n_phi = 48
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi

    theta = np.arccos(ct_nodes)
    total = 0.0
    for qi, qw in zip(q_nodes, q_weights):
        st_, ct_ = np.sin(theta), ct_nodes
        dirs = np.stack(
            [
                np.outer(st_, np.cos(phi)).ravel(),
                np.outer(st_, np.sin(phi)).ravel(),
                np.outer(ct_, np.ones(n_phi)).ravel(),
            ],
            axis=1,
        )
        vals = inverse_spf(coeffs, dirs, q=qi)
        w_ang = np.outer(ct_weights, np.full(n_phi, 2.0 * np.pi / n_phi)).ravel()
        total += qw * np.sum(w_ang * np.abs(vals) ** 2)
    energy = np.sum(np.abs(coeffs.values) ** 2)
    assert abs(total - energy) / energy < 1e-6


def test_real_basis_export_reproduces_the_signal(grid):
    coeffs = random_staircase_signal(42, grid)
    real_coeffs = coeffs.to_real_basis()
    rng = np.random.default_rng(13)
    dirs = rng.standard_normal((30, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    b = rng.uniform(0.0, 8000.0, 30)
    q = np.sqrt(b)
    theta = np.arccos(dirs[:, 2])
    phi = np.arctan2(dirs[:, 1], dirs[:, 0])

    rebuilt = np.zeros(30)
    for pos, (n, l, m) in enumerate(coeffs.index.entries):
        radial = radial_basis_eval(n, q, coeffs.zeta)
        ylm = spherical_harmonic(l, abs(m), theta, phi)
        if m == 0:
            ang = ylm.real
        elif m > 0:
            ang = np.sqrt(2.0) * (-1.0) ** m * ylm.real
        else:
            ang = np.sqrt(2.0) * (-1.0) ** m * ylm.imag
        rebuilt += real_coeffs[pos] * radial * ang
    reference = inverse_spf(coeffs, dirs, b=b)
    assert np.max(np.abs(reference.imag)) < 1e-12
    assert np.max(np.abs(rebuilt - reference.real)) < 1e-10


@given(
    bandlimits=st.lists(st.sampled_from([1, 3, 5, 7]), min_size=1, max_size=4),
)
@settings(max_examples=20, deadline=None)
def test_sample_count_equals_coefficient_count(bandlimits):
    index = staircase_index(bandlimits)
    assert index.size == sum(L * (L + 1) // 2 for L in bandlimits)

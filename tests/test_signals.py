import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qspf.multishell import (
    build_grid,
    forward_spf,
    inverse_spf,
    staircase_index,
    synthesize_on_grid,
)
from qspf.signals import (
    TensorComponent,
    _draw_layout,
    _staircase_values,
    add_rician_noise,
    multi_tensor_eval,
    random_staircase_signal,
    two_tensor_crossing,
)
from qspf.radial import BConvention

WM_EIGENVALUES = (1.7e-3, 3e-4, 3e-4)


def test_attenuation_is_one_at_b_zero():
    mixture = two_tensor_crossing()
    for u in ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]):
        assert multi_tensor_eval(mixture, 0.0, np.array(u)) == pytest.approx(1.0, abs=1e-15)


def test_isotropic_tensor_closed_form():
    d = 0.7e-3
    mixture = [TensorComponent(d * np.eye(3), 1.0)]
    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((20, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    vals = multi_tensor_eval(mixture, 2500.0, dirs)
    assert np.max(np.abs(vals - np.exp(-2500.0 * d))) < 1e-14


def test_crossing_value_by_direct_matrix_arithmetic():
    # oracle: assemble the two tensors by hand and evaluate the exponents
    mixture = two_tensor_crossing()
    u = np.array([1.0, 0.0, 0.0])
    b = 1000.0
    d1 = np.diag(WM_EIGENVALUES)
    d2 = np.diag([WM_EIGENVALUES[1], WM_EIGENVALUES[0], WM_EIGENVALUES[2]])
    expected = 0.5 * np.exp(-b * (u @ d1 @ u)) + 0.5 * np.exp(-b * (u @ d2 @ u))
    assert multi_tensor_eval(mixture, b, u) == pytest.approx(expected, rel=1e-12)


def test_b_values_pair_with_directions_like_inverse_spf():
    mixture, u = two_tensor_crossing(), np.array([0.0, 0.6, 0.8])
    b = np.array([0.0, 1000.0, 2000.0])
    one_by_one = [multi_tensor_eval(mixture, value, u) for value in b]
    for dirs in (u, [u] * 3):
        assert np.allclose(multi_tensor_eval(mixture, b, dirs), one_by_one, rtol=1e-14, atol=0)
    with pytest.raises(ValueError, match="3 b-values do not pair with 2 directions"):
        multi_tensor_eval(mixture, b, [u, u])


def test_mixture_validation():
    good = 1e-3 * np.eye(3)
    with pytest.raises(ValueError):
        multi_tensor_eval([], 1000.0, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        multi_tensor_eval([TensorComponent(good, 0.4)], 1000.0, np.array([1.0, 0.0, 0.0]))
    for bad_b in (-5.0, np.nan, [1000.0, np.nan]):
        with pytest.raises(ValueError):
            multi_tensor_eval([TensorComponent(good, 1.0)], bad_b, np.array([1.0, 0.0, 0.0]))
    # b = inf is the limit of the decay, not an error
    assert multi_tensor_eval([TensorComponent(good, 1.0)], np.inf, np.array([1.0, 0.0, 0.0])) == 0.0
    with pytest.raises(ValueError):
        multi_tensor_eval([TensorComponent(good, 1.0)], 10.0, np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        TensorComponent(-1e-3 * np.eye(3), 1.0)
    with pytest.raises(ValueError):
        TensorComponent(np.array([[1e-3, 1e-4, 0.0], [0.0, 1e-3, 0.0], [0.0, 0.0, 1e-3]]), 1.0)
    with pytest.raises(ValueError):
        TensorComponent(good, 1.5)


@given(
    b1=st.floats(0.0, 8000.0),
    b2=st.floats(0.0, 8000.0),
    seed=st.integers(0, 1000),
)
@settings(max_examples=40, deadline=None)
def test_attenuation_monotone_in_b(b1, b2, seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(3)
    u /= np.linalg.norm(u)
    mixture = two_tensor_crossing(angle_deg=60.0)
    lo, hi = sorted([b1, b2])
    assert multi_tensor_eval(mixture, hi, u) <= multi_tensor_eval(mixture, lo, u) + 1e-12


def test_attenuation_antipodally_symmetric():
    mixture = two_tensor_crossing()
    rng = np.random.default_rng(1)
    dirs = rng.standard_normal((50, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    b = rng.uniform(0.0, 8000.0, 50)
    assert np.max(np.abs(multi_tensor_eval(mixture, b, dirs)
                         - multi_tensor_eval(mixture, b, -dirs))) == 0.0


def test_random_staircase_signal_reproducible():
    grid = build_grid(4, 8000.0, (3, 5, 9, 11))
    a = random_staircase_signal(99, grid)
    b = random_staircase_signal(99, grid)
    c = random_staircase_signal(98, grid)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_random_staircase_signal_is_real_on_grid():
    grid = build_grid(4, 8000.0, (3, 5, 9, 11))
    coeffs = random_staircase_signal(7, grid)
    for n, l, m in coeffs.index.entries:
        if m >= 0:
            continue
        partner = coeffs.values[coeffs.index.locate(n, l, -m)]
        assert coeffs.values[coeffs.index.locate(n, l, m)] == pytest.approx(
            (-1.0) ** m * np.conj(partner))
    samples = synthesize_on_grid(coeffs, grid)
    assert np.max(np.abs(samples.imag)) < 1e-12


def _per_entry_staircase_signal(seed, bandlimits):
    """Reference: the per-entry draw loop whose draw order random_staircase_signal keeps."""
    index = staircase_index(bandlimits)
    rng = np.random.default_rng(seed)
    values = np.zeros(index.size, dtype=complex)
    for n, l, m in index.entries:
        if m < 0:
            continue
        if m == 0:
            values[index.locate(n, l, 0)] = rng.standard_normal()
        else:
            value = rng.standard_normal() + 1j * rng.standard_normal()
            values[index.locate(n, l, m)] = value
            values[index.locate(n, l, -m)] = (-1.0) ** m * np.conj(value)
    return values


@pytest.mark.parametrize("bandlimits", [(1,), (9, 3), (3, 5, 9, 11), (7, 7, 15)])
def test_random_staircase_signal_matches_per_entry_draws(bandlimits):
    convention = BConvention("physical", tau=0.02)
    with pytest.warns(UserWarning) if bandlimits == (9, 3) else contextlib.nullcontext():
        grid = build_grid(len(bandlimits), 8000.0, bandlimits, convention)
    for seed in (0, 1, 17, 2024):
        coeffs = random_staircase_signal(seed, grid)
        assert coeffs.index is grid.index
        assert (coeffs.zeta, coeffs.convention) == (grid.radial.zeta, convention)
        assert np.array_equal(coeffs.values, _per_entry_staircase_signal(seed, bandlimits))
    # run_validation draws a chunk's tables for several seeds at once, SeedSequence children
    seeds = [0, 1, 17, 2024, *np.random.SeedSequence(7).spawn(3)]
    rows = _staircase_values(seeds, _draw_layout(grid.index))
    for row, seed in zip(rows, seeds, strict=True):
        assert np.array_equal(row, _per_entry_staircase_signal(seed, bandlimits))


def test_random_staircase_signal_validation():
    # seeds are whatever numpy's default_rng takes; others fail at the draw
    grid = build_grid(2, 1000.0, (3, 5))
    with pytest.raises(ValueError):
        random_staircase_signal(-1, grid)
    with pytest.raises(TypeError):
        random_staircase_signal(1.5, grid)


def test_rician_noise_zero_sigma_is_magnitude():
    values = np.array([0.5, 1.0, 0.0, 2.0])
    assert np.array_equal(add_rician_noise(values, 0.0, 3), values)


def test_rician_noise_deterministic_under_seed():
    values = np.linspace(0.1, 1.0, 50)
    assert np.array_equal(add_rician_noise(values, 0.1, 7), add_rician_noise(values, 0.1, 7))
    assert not np.array_equal(add_rician_noise(values, 0.1, 7), add_rician_noise(values, 0.1, 8))


def test_rician_noise_rayleigh_mean():
    # with v = 0 the magnitude is Rayleigh; its mean is sigma*sqrt(pi/2)
    sigma = 0.3
    draws = add_rician_noise(np.zeros(100_000), sigma, 11)
    expected = sigma * np.sqrt(np.pi / 2.0)
    assert abs(draws.mean() - expected) / expected < 0.02
    for sigma in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError):
            add_rician_noise(np.zeros(3), sigma, 0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            add_rician_noise(np.array([1.0, bad, 0.0]), 0.1, 0)


def test_crossing_phantom_reconstruction_quality():
    """Held-out accuracy of the fitted expansion for both radial paths.

    The padded quadrature path holds the phantom to a few percent. The
    staircase path is exact on its model space but anchors high-degree
    rows only at outer shells, and extrapolating the phantom's
    out-of-model angular energy back toward q = 0 inflates those rows;
    its held-out error is documented here as a regression guard, not a
    target.
    """
    grid = build_grid(4, 8000.0, (3, 5, 9, 11))
    mixture = two_tensor_crossing()
    samples = multi_tensor_eval(mixture, grid.bvalues, grid.points)
    rng = np.random.default_rng(7)
    held_b = rng.uniform(0.0, 8000.0, 500)
    held_u = rng.standard_normal((500, 3))
    held_u /= np.linalg.norm(held_u, axis=1)[:, None]
    truth = multi_tensor_eval(mixture, held_b, held_u)

    def rel_rms(mode):
        coeffs = forward_spf(grid, samples, radial_mode=mode)
        pred = inverse_spf(coeffs, held_u, b=held_b).real
        return np.sqrt(np.mean((pred - truth) ** 2) / np.mean(truth**2))

    assert rel_rms("zero_padded") <= 5e-2
    assert 0.1 < rel_rms("staircase") < 1.5

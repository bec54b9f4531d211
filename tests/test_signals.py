import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qspf.multishell import (
    SpfCoefficients,
    build_grid,
    forward_spf,
    inverse_spf,
    staircase_index,
    synthesize_on_grid,
)
from qspf.radial import BConvention
from qspf.signals import (
    TensorComponent,
    add_rician_noise,
    multi_tensor_eval,
    random_staircase_signal,
    two_tensor_crossing,
)

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


def test_mixture_validation():
    good = 1e-3 * np.eye(3)
    with pytest.raises(ValueError):
        multi_tensor_eval([], 1000.0, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        multi_tensor_eval([TensorComponent(good, 0.4)], 1000.0, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        multi_tensor_eval([TensorComponent(good, 1.0)], -5.0, np.array([1.0, 0.0, 0.0]))
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
    a = random_staircase_signal(99, (3, 5, 9, 11), 4, 700.0)
    b = random_staircase_signal(99, (3, 5, 9, 11), 4, 700.0)
    c = random_staircase_signal(98, (3, 5, 9, 11), 4, 700.0)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_random_staircase_signal_is_real_on_grid():
    grid = build_grid(4, 8000.0, (3, 5, 9, 11))
    coeffs = random_staircase_signal(7, grid.bandlimits, 4, grid.radial.zeta)
    for n, l, m in coeffs.index.entries:
        if m >= 0:
            continue
        partner = coeffs.get(n, l, -m)
        assert coeffs.get(n, l, m) == pytest.approx((-1.0) ** m * np.conj(partner))
    samples = synthesize_on_grid(coeffs, grid)
    assert np.max(np.abs(samples.imag)) < 1e-12


def _per_entry_staircase_signal(seed, bandlimits, zeta, decay):
    """Reference: the per-entry draw loop whose draw order random_staircase_signal keeps."""
    index = staircase_index(bandlimits)
    rng = np.random.default_rng(seed)
    coeffs = SpfCoefficients.zeros(index, zeta, BConvention())
    for n, l, m in index.entries:
        if m < 0:
            continue
        damp = np.exp(-decay * l)
        if m == 0:
            coeffs.set(n, l, 0, damp * rng.standard_normal())
        else:
            value = damp * (rng.standard_normal() + 1j * rng.standard_normal())
            coeffs.set(n, l, m, value)
            coeffs.set(n, l, -m, (-1.0) ** m * np.conj(value))
    return coeffs.values


@pytest.mark.parametrize("bandlimits", [(1,), (9, 3), (3, 5, 9, 11), (7, 7, 15)])
@pytest.mark.parametrize("decay", [0.0, 0.3])
def test_random_staircase_signal_matches_per_entry_draws(bandlimits, decay):
    for seed in (0, 1, 17, 2024):
        coeffs = random_staircase_signal(seed, bandlimits, len(bandlimits), 700.0, decay=decay)
        assert np.array_equal(coeffs.values, _per_entry_staircase_signal(seed, bandlimits, 700.0,
                                                                         decay))


def test_strong_decay_leaves_only_monopole_rows():
    coeffs = random_staircase_signal(5, (3, 5, 9, 11), 4, 700.0, decay=40.0)
    for pos, (n, l, m) in enumerate(coeffs.index.entries):
        if l == 0:
            continue
        assert abs(coeffs.values[pos]) < 1e-30


def test_random_staircase_signal_validation():
    with pytest.raises(ValueError):
        random_staircase_signal(1, (3, 5), 4, 700.0)
    with pytest.raises(ValueError):
        random_staircase_signal(1, (3, 5, 9, 11), 4, 700.0, decay=-1.0)


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
    with pytest.raises(ValueError):
        add_rician_noise(np.zeros(3), -0.1, 0)


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

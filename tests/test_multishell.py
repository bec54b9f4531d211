import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import roots_genlaguerre

from qspf.multishell import (
    SpfCoefficients,
    build_grid,
    forward_spf,
    inverse_spf,
    staircase_index,
    synthesize_on_grid,
)
from qspf.errors import ConditioningError
from qspf.radial import radial_basis_eval
from qspf.signals import random_staircase_signal
from qspf.specfun import spherical_harmonic

DEFAULTS = (3, 5, 9, 11)


@pytest.fixture(scope="module")
def grid():
    return build_grid(4, 8000.0, DEFAULTS)


@pytest.fixture(scope="module")
def uniform_grid():
    return build_grid(4, 8000.0, (11, 11, 11, 11))


def test_staircase_default_counts():
    index = staircase_index(DEFAULTS)
    assert index.size == 132
    per_degree = {l: index.n_per_degree(l) for l in range(0, 11, 2)}
    assert per_degree == {0: 4, 2: 4, 4: 3, 6: 2, 8: 2, 10: 1}
    block = {l: sum(1 for (_, l2, _) in index.entries if l2 == l) for l in range(0, 11, 2)}
    assert block == {0: 4, 2: 20, 4: 27, 6: 26, 8: 34, 10: 21}
    assert index.shells_for_degree(4) == (1, 2, 3)
    assert index.shells_for_degree(10) == (3,)


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


def test_staircase_edge_cases():
    assert staircase_index((1,)).entries == ((0, 0, 0),)
    uniform = staircase_index((11,) * 4)
    assert uniform.size == 264
    assert all(uniform.n_per_degree(l) == 4 for l in range(0, 11, 2))
    with pytest.raises(ValueError):
        staircase_index((4, 5))
    with pytest.raises(ValueError):
        staircase_index(())


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
    assert coeffs.get(0, 0, 0) == pytest.approx(1.0, abs=1e-12)
    others = np.abs(coeffs.values[coeffs.index.locate(0, 0, 0) != np.arange(coeffs.index.size)])
    assert np.max(others) < 1e-9


def test_staircase_round_trip(grid):
    worst = 0.0
    for draw in range(20):
        coeffs = random_staircase_signal(100 + draw, DEFAULTS, 4, grid.radial.zeta)
        samples = synthesize_on_grid(coeffs, grid)
        back = forward_spf(grid, samples)
        worst = max(worst, np.max(np.abs(back.values - coeffs.values)))
    assert worst < 1e-9


def test_uniform_grid_round_trip_uses_pure_quadrature(uniform_grid):
    for draw in range(10):
        coeffs = random_staircase_signal(
            200 + draw, (11,) * 4, 4, uniform_grid.radial.zeta
        )
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


def test_forward_validation(grid):
    with pytest.raises(ValueError):
        forward_spf(grid, np.ones(50))
    with pytest.raises(ValueError):
        forward_spf(grid, np.ones(132), radial_mode="bogus")


def test_inverse_spf_basics(grid):
    index = grid.index
    coeffs = SpfCoefficients.zeros(index, grid.radial.zeta, grid.radial.convention)
    assert inverse_spf(coeffs, np.array([0.0, 0.0, 1.0]), b=1000.0) == 0.0
    coeffs.set(0, 0, 0, 1.0)
    q0 = grid.radial.radii[0]
    expected = radial_basis_eval(0, q0, grid.radial.zeta) / np.sqrt(4.0 * np.pi)
    got = inverse_spf(coeffs, np.array([0.0, 0.0, 1.0]), q=q0)
    assert got == pytest.approx(expected, rel=1e-13)
    same = inverse_spf(coeffs, np.array([0.0, 0.0, 1.0]), b=float(q0 * q0))
    assert same == pytest.approx(got, rel=1e-13)


@pytest.mark.parametrize("mode", ["staircase", "zero_padded"])
def test_inverse_spf_matches_direct_sum(grid, mode):
    # complex tables without the real-signal symmetry, so every signed
    # order, odd negative ones included, has to carry its own sign
    index = forward_spf(grid, np.zeros(132), radial_mode=mode).index
    rng = np.random.default_rng(24)
    values = rng.standard_normal(index.size) + 1j * rng.standard_normal(index.size)
    coeffs = SpfCoefficients(index, grid.radial.zeta, grid.radial.convention, values)
    for n_points in (1, 50):
        dirs = rng.standard_normal((n_points, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        q = rng.uniform(0.0, 1.2 * grid.radial.radii[-1], n_points)
        theta, phi = np.arccos(dirs[:, 2]), np.arctan2(dirs[:, 1], dirs[:, 0])
        direct = sum(
            c * radial_basis_eval(n, q, coeffs.zeta) * spherical_harmonic(l, m, theta, phi)
            for c, (n, l, m) in zip(values, index.entries)
        )
        got = inverse_spf(coeffs, dirs, q=q)
        assert np.max(np.abs(got - direct)) < 1e-12 * np.max(np.abs(direct))


def test_inverse_spf_antipodal_symmetry(grid):
    rng = np.random.default_rng(9)
    coeffs = random_staircase_signal(31, DEFAULTS, 4, grid.radial.zeta)
    dirs = rng.standard_normal((100, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    b = rng.uniform(0.0, 8000.0, 100)
    plus = inverse_spf(coeffs, dirs, b=b)
    minus = inverse_spf(coeffs, -dirs, b=b)
    assert np.max(np.abs(plus - minus)) < 1e-13


def test_inverse_spf_validation(grid):
    coeffs = random_staircase_signal(5, DEFAULTS, 4, grid.radial.zeta)
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


def test_synthesis_matches_pointwise_inverse_when_nothing_truncates(uniform_grid):
    coeffs = random_staircase_signal(77, (11,) * 4, 4, uniform_grid.radial.zeta)
    rendered = synthesize_on_grid(coeffs, uniform_grid)
    pointwise = inverse_spf(coeffs, uniform_grid.points, q=uniform_grid.radii)
    assert np.max(np.abs(rendered - pointwise)) < 1e-10


def test_synthesis_rejects_mismatched_radial_scale(grid):
    coeffs = random_staircase_signal(5, DEFAULTS, 4, grid.radial.zeta * 2.0)
    with pytest.raises(ValueError):
        synthesize_on_grid(coeffs, grid)


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
    for n, l, m in padded.index.entries:
        want = coeffs.get(n, l, m) if l < 3 else 0.0
        assert padded.get(n, l, m) == pytest.approx(want, abs=1e-10)


def test_energy_identity_against_dense_quadrature(uniform_grid):
    """Parseval check: coefficient energy equals the integral of |E|^2.

    The dense rule is an independent composition of textbook quadratures:
    generalized Gauss-Laguerre (x-space, 24 nodes) radially, Gauss-
    Legendre (24 nodes) in cos(theta), uniform 48-point rule in phi.
    """
    zeta = uniform_grid.radial.zeta
    coeffs = random_staircase_signal(55, (11,) * 4, 4, zeta)
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
    coeffs = random_staircase_signal(42, DEFAULTS, 4, grid.radial.zeta)
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

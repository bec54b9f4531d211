import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_genlaguerre, roots_genlaguerre, roots_hermite, sph_harm_y

import qspf
from qspf.specfun import (
    _legendre_by_order,
    laguerre_deriv,
    laguerre_eval,
    laguerre_roots,
    normalized_legendre,
    spherical_harmonic,
)


def test_laguerre_eval_matches_scipy():
    x = np.linspace(0.0, 40.0, 200)
    for n in range(0, 12):
        for alpha in (0.0, 0.5, 1.5, 2.0):
            mine = laguerre_eval(n, alpha, x)
            ref = eval_genlaguerre(n, alpha, x)
            scale = np.maximum(np.abs(ref), 1.0)
            assert np.max(np.abs(mine - ref) / scale) < 1e-12


def test_laguerre_eval_scalar_and_validation():
    assert laguerre_eval(0, 0.5, 3.0) == 1.0
    assert isinstance(laguerre_eval(2, 0.5, 3.0), float)
    with pytest.raises(ValueError):
        laguerre_eval(-1, 0.5, 1.0)
    with pytest.raises(ValueError):
        laguerre_eval(2, 0.5, np.inf)


@given(n=st.integers(1, 10), x=st.floats(0.0, 50.0))
@settings(max_examples=60, deadline=None)
def test_laguerre_deriv_is_downward_shift(n, x):
    # d/dx L_n^a = -L_{n-1}^{a+1}; cross-check with a central difference
    h = 1e-6 * max(1.0, abs(x))
    numeric = (laguerre_eval(n, 0.5, x + h) - laguerre_eval(n, 0.5, x - h)) / (2 * h)
    exact = laguerre_deriv(n, 0.5, x)
    assert abs(numeric - exact) <= 1e-4 * max(1.0, abs(exact))


def test_laguerre_roots_against_scipy():
    for n in (1, 2, 4, 7, 12):
        mine = laguerre_roots(n, 0.5)
        ref, _ = roots_genlaguerre(n, 0.5)
        assert np.max(np.abs(mine - np.sort(ref))) < 1e-10 * max(ref)


def test_import_does_not_load_scipy():
    src = str(Path(qspf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, qspf; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout.strip() == "False"


def test_laguerre_roots_four_shell_values():
    """The order-4 half-integer roots, pinned to an independent identity.

    H_{2n+1}(t) is an odd polynomial proportional to t * L_n^{1/2}(t^2),
    so these roots are the squares of the positive H_9 roots.
    """
    roots = laguerre_roots(4, 0.5)
    hermite, _ = roots_hermite(9)
    expected = np.sort([t * t for t in hermite if t > 1e-12])
    assert np.max(np.abs(roots - expected)) < 1e-10
    assert roots[-1] == pytest.approx(10.182437613815926, abs=1e-9)


def test_laguerre_roots_are_actual_roots():
    for n in (3, 6, 9):
        roots = laguerre_roots(n, 0.5)
        residual = laguerre_eval(n, 0.5, roots)
        slope = laguerre_deriv(n, 0.5, roots)
        assert np.max(np.abs(residual / slope)) < 1e-13 * np.max(roots)
        assert np.all(np.diff(roots) > 0)


def test_laguerre_roots_validation():
    with pytest.raises(ValueError):
        laguerre_roots(0, 0.5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_laguerre_roots_refuse_orders_whose_newton_step_overflows():
    # from N = 363 the Newton step's recurrence overflows at the largest roots; it once
    # returned NaN roots with RuntimeWarnings, and the radial scheme failed downstream
    for n in (363, 400):
        with pytest.raises(ValueError, match=f"order-{n} Laguerre"):
            laguerre_roots(n)
    with pytest.raises(ValueError, match="order-400 Laguerre"):
        qspf.make_radial_scheme(400, 8000.0)
    scheme = qspf.make_radial_scheme(362, 8000.0)
    assert np.all(np.diff(scheme.roots) > 0) and np.all(np.isfinite(scheme.weights))


def test_normalized_legendre_against_scipy():
    theta = np.concatenate([[0.0, np.pi], np.linspace(0.05, np.pi - 0.05, 40)])  # x = 1, -1, ...
    for l_max in (10, 62):
        table = normalized_legendre(l_max, np.cos(theta))
        degree = np.arange(l_max + 1)
        # scipy gives 0 for m > l, where the table is zero too
        ref = sph_harm_y(degree[:, None, None], degree[None, :, None], theta, 0.0).real
        assert np.max(np.abs(table - ref)) < 1e-12


def test_normalized_legendre_shape_and_poles():
    table = normalized_legendre(4, np.array([1.0, -1.0]))
    assert table.shape == (5, 5, 2)
    # only m = 0 survives at the poles
    for l in range(1, 5):
        for m in range(1, l + 1):
            assert np.all(table[l, m, :] == pytest.approx(0.0))
    assert table[0, 0, 0] == pytest.approx(1.0 / np.sqrt(4.0 * np.pi))


@pytest.mark.parametrize("l_max", [0, 1, 2, 5, 10, 62, 80])
def test_legendre_by_order_equals_the_table(l_max):
    x = np.concatenate([[-1.0, 1.0], np.cos(np.linspace(0.01, np.pi - 0.01, 37))])
    table = normalized_legendre(l_max, x)
    orders = 0
    for m, rows in enumerate(_legendre_by_order(l_max, x)):
        assert np.array_equal(rows, table[m:, m])
        orders += 1
    assert orders == l_max + 1


def test_spherical_harmonic_against_scipy():
    rng = np.random.default_rng(11)
    theta = rng.uniform(0.1, np.pi - 0.1, 25)
    phi = rng.uniform(0.0, 2.0 * np.pi, 25)
    for l in range(0, 11, 2):
        for m in range(-l, l + 1):
            mine = spherical_harmonic(l, m, theta, phi)
            ref = sph_harm_y(l, m, theta, phi)
            assert np.max(np.abs(mine - ref)) < 1e-12


def test_spherical_harmonic_validation():
    with pytest.raises(ValueError):
        spherical_harmonic(2, 3, 0.3, 0.1)


@given(
    l=st.integers(0, 12),
    theta=st.floats(0.01, 3.13),
    phi=st.floats(0.0, 6.28),
)
@settings(max_examples=80, deadline=None)
def test_spherical_harmonic_conjugation(l, theta, phi):
    for m in range(0, l + 1):
        plus = spherical_harmonic(l, m, theta, phi)
        minus = spherical_harmonic(l, -m, theta, phi)
        assert abs(minus - (-1.0) ** m * np.conj(plus)) < 1e-12

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_genlaguerre, roots_genlaguerre, roots_hermite, sph_harm_y

import qspf
from qspf.angular import make_angular_scheme
from qspf.radial import radial_basis_eval
from qspf.specfun import (
    _laguerre_rows,
    _legendre_by_degree,
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


def textbook_laguerre_rows(n, alpha, x):
    """L_0^(alpha) .. L_n^(alpha) by (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1}.

    Starts from L_{-1} = 0 and L_0 = 1: the operation order _laguerre_rows must
    reproduce bit for bit.
    """
    older, old = 0.0, np.ones_like(x)
    rows = [old]
    for k in range(n):
        older, old = old, ((2 * k + 1 + alpha - x) * old - (k + alpha) * older) / (k + 1)
        rows.append(old)
    return rows


@pytest.mark.parametrize("alpha", [0.5, 1.5])
@pytest.mark.parametrize("n", [0, 1, 2, 362])
def test_laguerre_rows_are_bit_identical_to_the_textbook_recurrence(n, alpha):
    x = np.concatenate([[0.0, 1e-300, 700.0], laguerre_roots(362)])
    rows = list(_laguerre_rows(n, alpha, x))
    reference = textbook_laguerre_rows(n, alpha, x)
    assert len(rows) == len(reference) == n + 1
    for got, want in zip(rows, reference):
        assert np.array_equal(got, want)


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
    # no value continues past the poles, and NaN is not in [-1, 1]
    for x in (np.nan, np.inf, -np.inf, 2.0, -1.0 - 1e-15):
        with pytest.raises(ValueError, match=r"normalized_legendre requires x in \[-1, 1\]"):
            normalized_legendre(2, [0.5, x])


@pytest.mark.parametrize("l_max", [0, 1, 2, 5, 10, 62, 80])
def test_legendre_by_order_equals_the_table(l_max):
    x = np.concatenate([[-1.0, 1.0], np.cos(np.linspace(0.01, np.pi - 0.01, 37))])
    table = normalized_legendre(l_max, x)
    degrees = 0
    for l, rows in enumerate(_legendre_by_degree(l_max, x)):
        assert np.array_equal(rows, table[l, : l + 1])
        degrees += 1
    assert degrees == l_max + 1


def order_major_legendre(l_max, x):
    """Yield copies of P-tilde_l^m(x), l = m .. l_max, for m = 0 .. l_max, one order at a time.

    The recurrence and operation order the degree-by-degree generator must
    reproduce bit for bit.
    """
    l = np.arange(l_max + 1)[:, None]
    m = l.T
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = np.sqrt((2.0 * l + 1.0) / (2.0 * l - 3.0) * ((l - 1.0) ** 2 - m * m) / (l * l - m * m))
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    rows = np.empty((l_max + 1,) + x.shape)
    rows[0] = 1.0 / math.sqrt(4.0 * math.pi)
    for m in range(l_max + 1):
        if m:
            rows[m] = -math.sqrt((2.0 * m + 1.0) / (2.0 * m)) * s * rows[m - 1]
        if m < l_max:
            rows[m + 1] = math.sqrt(2.0 * m + 3.0) * x * rows[m]
        for k in range(m + 2, l_max + 1):
            rows[k] = a[k, m] * x * rows[k - 1] - b[k, m] * rows[k - 2]
        yield rows[m:].copy()


def order_major_table(l_max, x):
    table = np.zeros((l_max + 1, l_max + 1) + x.shape)
    for m, rows in enumerate(order_major_legendre(l_max, x)):
        table[m:, m] = rows
    return table


@pytest.mark.parametrize("l_max", [0, 1, 2, 5, 10, 62, 132])
def test_degree_rows_are_bit_identical_to_the_order_recurrence(l_max):
    latitudes = [make_angular_scheme(L).thetas for L in (3, 11, 63, 133)]
    x = np.cos(np.concatenate([[0.0, np.pi], np.linspace(0.01, np.pi - 0.01, 37), *latitudes]))
    reference = order_major_table(l_max, x)
    previous = None
    for l, rows in enumerate(_legendre_by_degree(l_max, x)):
        assert np.array_equal(rows, reference[l, : l + 1])
        # a degree's rows hold until the next degree has been made
        if previous is not None:
            assert np.array_equal(previous, reference[l - 1, :l])
        previous = rows
    assert l == l_max


@pytest.mark.parametrize("L", [1, 3, 11, 63, 133])
def test_scheme_rows_are_bit_identical_to_the_order_recurrence(L):
    scheme = make_angular_scheme(L)
    reference = order_major_table(L - 1, np.cos(scheme.thetas))
    # rows[mu, k, j] = P_{2j}^mu(cos theta_k); the table is 0 above the diagonal
    assert np.array_equal(scheme.rows, reference[::2, :, :].transpose(1, 2, 0))


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
    # these returned nan+nanj
    for theta, phi in ((np.nan, 0.0), (0.3, np.nan), (np.inf, 0.0), (0.3, -np.inf),
                       ([0.3, np.nan], [0.1, 0.2]), ([0.3, 0.4], [0.1, np.inf])):
        with pytest.raises(ValueError, match="spherical_harmonic requires finite theta and phi"):
            spherical_harmonic(2, 1, theta, phi)


# every public special function by its integer argument: an order, degree or count
INTEGER_ARGUMENTS = {
    "laguerre_eval": lambda n: laguerre_eval(n, 0.5, [0.3, 1.7]),
    "laguerre_deriv": lambda n: laguerre_deriv(n, 0.5, [0.3, 1.7]),
    "laguerre_roots": laguerre_roots,
    "normalized_legendre": lambda l_max: normalized_legendre(l_max, [0.2, -0.6]),
    "spherical_harmonic-l": lambda l: spherical_harmonic(l, 1, [0.4, 1.1], [0.3, 2.0]),
    "spherical_harmonic-m": lambda m: spherical_harmonic(3, m, [0.4, 1.1], [0.3, 2.0]),
    "radial_basis_eval": lambda n: radial_basis_eval(n, [0.5, 1.5], 2.0),
}


@pytest.mark.parametrize("call", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS.keys())
def test_an_integral_float_passes_as_its_integer(call):
    # these raised TypeError or IndexError where the rest of the package takes 2.0 as 2
    assert np.asarray(call(2.0)).tobytes() == np.asarray(call(2)).tobytes()


@pytest.mark.parametrize("value", [2.5, "2", float("nan")], ids=repr)
@pytest.mark.parametrize("call", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS.keys())
def test_an_integer_argument_that_is_not_an_integer_is_a_value_error(call, value):
    with pytest.raises(ValueError, match=f"must be an integer, got {re.escape(repr(value))}$"):
        call(value)


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

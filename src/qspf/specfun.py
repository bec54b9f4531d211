"""Stable evaluation of the special functions used across the package.

Provides generalized Laguerre polynomials and their roots, fully normalized
associated Legendre functions, and orthonormal complex spherical harmonics.

Conventions (fixed, documented here once):

* Spherical harmonics are orthonormal over the sphere, complex, and INCLUDE
  the Condon-Shortley phase, i.e. Y_1^1(pi/2, 0) = -sqrt(3/(8 pi)). This is
  the dominant convention in diffusion MRI software.
* ``normalized_legendre`` returns P-tilde_l^m such that
  Y_l^m(theta, phi) = P-tilde_l^m(cos theta) * exp(i m phi) for m >= 0,
  and Y_l^{-m} = (-1)^m conj(Y_l^m).

Each special function has one recurrence, and every value of it in the
package comes from there:

* ``_laguerre_rows`` yields L_0^(alpha) .. L_n^(alpha) at x in one upward
  pass. ``laguerre_eval`` returns its last row; the radial basis table
  (``radial._basis_table``, the one owner of the R_n formula) and the
  quadrature weights read all the rows they need from one pass.
* ``_legendre_by_order`` yields the rows P-tilde_l^m, l >= m, one order m
  at a time. ``normalized_legendre`` and ``spherical_harmonic`` read their
  values from it, as do the angular schemes' per-order rows and
  ``inverse_spf``. It reuses one buffer: the rows of order m are
  overwritten when order m + 1 is made, so a consumer that keeps rows past
  the next step must copy them.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

__all__ = [
    "laguerre_eval",
    "laguerre_deriv",
    "laguerre_roots",
    "normalized_legendre",
    "spherical_harmonic",
]


def laguerre_eval(n: int, alpha: float, x):
    """Evaluate the generalized Laguerre polynomial L_n^(alpha) at x.

    Uses the three-term upward recurrence
    (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1},
    which is stable for the orders used here (n <= a few hundred).

    Parameters
    ----------
    n : int
        Polynomial order, n >= 0.
    alpha : float
        Order parameter (fixed to 1/2 throughout the radial basis).
    x : float or ndarray
        Evaluation points; must be finite.

    Returns
    -------
    float or ndarray matching the shape of ``x``.
    """
    if n < 0:
        raise ValueError(f"polynomial order must be >= 0, got {n}")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("laguerre_eval requires finite x")
    for p in _laguerre_rows(n, alpha, x):
        pass
    return float(p) if x.ndim == 0 else p


def _laguerre_rows(n: int, alpha: float, x):
    """Yield L_0^(alpha)(x) .. L_n^(alpha)(x), the rows of laguerre_eval's recurrence."""
    p_prev, p = 0.0, np.ones_like(x)  # L_{-1} = 0, so step 0 gives L_1 = 1 + alpha - x
    yield p
    for k in range(n):
        p_prev, p = p, ((2 * k + 1 + alpha - x) * p - (k + alpha) * p_prev) / (k + 1)
        yield p


def laguerre_deriv(n: int, alpha: float, x):
    """Derivative d/dx L_n^(alpha)(x) = -L_{n-1}^(alpha+1)(x)."""
    if n == 0:
        x = np.asarray(x, dtype=float)
        return 0.0 if x.ndim == 0 else np.zeros_like(x)
    return -laguerre_eval(n - 1, alpha + 1.0, x)


def laguerre_roots(n_poly: int, alpha: float = 0.5) -> np.ndarray:
    """All roots of L_N^(alpha), strictly increasing.

    Roots are computed as eigenvalues of the symmetric tridiagonal Jacobi
    matrix of the Laguerre recurrence (Golub-Welsch), then polished with a
    single Newton step. The Jacobi matrix gives unconditionally stable
    starting values for every order in scope. From N = 363 on, the Newton
    step's recurrence overflows at the largest roots, so those orders
    raise ValueError.

    Parameters
    ----------
    n_poly : int
        Polynomial order N >= 1.
    alpha : float
        Order parameter, default 1/2.

    Returns
    -------
    ndarray of shape (N,), strictly increasing positive roots.
    """
    if n_poly < 1:
        raise ValueError(f"root count must be >= 1, got {n_poly}")
    if n_poly == 1:
        x = np.array([alpha + 1.0])
    else:
        diag = 2.0 * np.arange(n_poly) + alpha + 1.0
        k = np.arange(1.0, n_poly)
        off = np.sqrt(k * (k + alpha))
        x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        x = x - laguerre_eval(n_poly, alpha, x) / laguerre_deriv(n_poly, alpha, x)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"the roots of the order-{n_poly} Laguerre polynomial overflow; "
                         "orders up to 362 are supported")
    return np.sort(x)


@functools.lru_cache(maxsize=32)
def _recurrence_coefficients(l_max: int):
    """Read-only recurrence factors a[l, m], b[l, m] of the associated Legendre recurrence."""
    l = np.arange(l_max + 1)[:, None]
    m = l.T
    with np.errstate(divide="ignore", invalid="ignore"):  # only m <= l - 2 is read
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = np.sqrt((2.0 * l + 1.0) / (2.0 * l - 3.0) * ((l - 1.0) ** 2 - m * m) / (l * l - m * m))
    a.flags.writeable = b.flags.writeable = False
    return a, b


def normalized_legendre(l_max: int, x) -> np.ndarray:
    """Fully normalized associated Legendre functions P-tilde_l^m(x), m >= 0.

    Normalized so that Y_l^m = P-tilde_l^m(cos theta) exp(i m phi) is a unit
    norm spherical harmonic; the Condon-Shortley factor (-1)^m is built into
    the sectoral seed. The recurrence runs on normalized values throughout,
    so no factorials or overflow-prone intermediates appear; it is good far
    beyond the band-limits used here (l ~ 64 and beyond).

    Parameters
    ----------
    l_max : int
        Largest degree tabulated.
    x : float or ndarray
        cos(colatitude), in [-1, 1].

    Returns
    -------
    ndarray of shape (l_max+1, l_max+1) + shape(x); entry [l, m] holds
    P-tilde_l^m(x) for m <= l, zero above the diagonal.
    """
    if l_max < 0:
        raise ValueError(f"l_max must be >= 0, got {l_max}")
    x = np.asarray(x, dtype=float)
    table = np.zeros((l_max + 1, l_max + 1, x.size))
    for m, rows in enumerate(_legendre_by_order(l_max, x.ravel())):
        table[m:, m] = rows
    return table.reshape(table.shape[:2] + x.shape)


def _legendre_by_order(l_max: int, x):
    """Yield the rows P-tilde_l^m(x), l = m .. l_max, for m = 0 .. l_max, on 1-D x.

    Each order is seeded from the sectoral P-tilde_m^m and P-tilde_{m+1}^m, then
    runs P-tilde_k^m = a[k, m] x P-tilde_{k-1}^m - b[k, m] P-tilde_{k-2}^m. The
    rows yielded are a view of one (l_max+1, len(x)) buffer that the next order
    overwrites; copy what must outlive the step.
    """
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    a, b = _recurrence_coefficients(l_max)
    rows = np.empty((l_max + 1,) + x.shape)
    row = list(rows)
    rows[0] = 1.0 / math.sqrt(4.0 * math.pi)
    for m in range(l_max + 1):
        if m:
            rows[m] = -math.sqrt((2.0 * m + 1.0) / (2.0 * m)) * s * rows[m - 1]
        if m < l_max:
            rows[m + 1] = math.sqrt(2.0 * m + 3.0) * x * rows[m]
        # a x for all degrees at once, then two in-place steps each
        np.multiply(a[m + 2 :, m, None], x, out=rows[m + 2 :])
        for k in range(m + 2, l_max + 1):
            row[k] *= row[k - 1]
            row[k] -= b[k, m] * row[k - 2]
        yield rows[m:]


def spherical_harmonic(l: int, m: int, theta, phi):
    """Orthonormal complex spherical harmonic Y_l^m(theta, phi).

    theta is the colatitude in [0, pi], phi the longitude. Negative orders
    are produced exactly through Y_l^{-m} = (-1)^m conj(Y_l^m).
    """
    if abs(m) > l:
        raise ValueError(f"order |m|={abs(m)} exceeds degree l={l}")
    x = np.cos(np.asarray(theta, dtype=float))
    rows = next(itertools.islice(_legendre_by_order(l, x.ravel()), abs(m), None))
    leg = rows[l - abs(m)].reshape(x.shape)
    sign = -1.0 if m < 0 and m % 2 else 1.0
    out = sign * leg * np.exp(1j * m * np.asarray(phi, dtype=float))
    return complex(out) if out.ndim == 0 else out

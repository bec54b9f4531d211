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

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

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
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    p_prev = np.ones_like(x)
    if n == 0:
        return float(p_prev[0]) if scalar else p_prev
    p = 1.0 + alpha - x
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1 + alpha - x) * p - (k + alpha) * p_prev) / (k + 1)
    return float(p[0]) if scalar else p


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
    starting values for every order in scope.

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
    x = x - laguerre_eval(n_poly, alpha, x) / laguerre_deriv(n_poly, alpha, x)
    return np.sort(x)


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
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    table = np.zeros((l_max + 1, l_max + 1) + x.shape)
    table[0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    for m in range(1, l_max + 1):
        table[m, m] = -math.sqrt((2.0 * m + 1.0) / (2.0 * m)) * s * table[m - 1, m - 1]
    for m in range(l_max):
        table[m + 1, m] = math.sqrt(2.0 * m + 3.0) * x * table[m, m]
    # degree k fills all m <= k - 2 at once; a x goes into the rows, one temporary per step
    l = np.arange(l_max + 1).reshape((-1, 1) + (1,) * x.ndim)
    m = np.swapaxes(l, 0, 1)
    with np.errstate(divide="ignore", invalid="ignore"):  # only m <= l - 2 is read
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = np.sqrt((2.0 * l + 1.0) / (2.0 * l - 3.0) * ((l - 1.0) ** 2 - m * m) / (l * l - m * m))
    for k in range(2, l_max + 1):
        rows = np.multiply(a[k, : k - 1], x, out=table[k, : k - 1])
        rows *= table[k - 1, : k - 1]
        rows -= b[k, : k - 1] * table[k - 2, : k - 1]
    return table


def spherical_harmonic(l: int, m: int, theta, phi):
    """Orthonormal complex spherical harmonic Y_l^m(theta, phi).

    theta is the colatitude in [0, pi], phi the longitude. Negative orders
    are produced exactly through Y_l^{-m} = (-1)^m conj(Y_l^m).
    """
    if abs(m) > l:
        raise ValueError(f"order |m|={abs(m)} exceeds degree l={l}")
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    table = normalized_legendre(l, np.cos(theta))
    leg = table[l, abs(m)]
    if m < 0 and m % 2 != 0:
        leg = -leg
    out = leg * np.exp(1j * m * phi)
    return complex(out) if out.ndim == 0 else out

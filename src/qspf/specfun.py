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
  (``radial._basis_table``, the one owner of the R_n formula, which the
  quadrature weights are read from) takes all its rows from one pass.
* ``_legendre_by_degree`` yields the rows P-tilde_l^m, m = 0 .. l, one
  degree l at a time, every order in one step. ``normalized_legendre`` and
  ``spherical_harmonic`` read their values from it, as do the angular
  schemes' per-degree rows and ``inverse_spf``. Its per-degree coefficients
  live in ``_recurrence_coefficients``, made once per l_max (the most
  recent 32 kept) as one read-only (a, b) column pair per degree, so a
  call only applies them. It reuses two buffers in turn: degree l's rows
  are overwritten two steps later, when degree l + 2 is made, so a
  consumer that keeps rows past the next step must copy them.

The public functions refuse what has no value: ``laguerre_eval`` non-finite
x, ``normalized_legendre`` x outside [-1, 1] or NaN, and
``spherical_harmonic`` non-finite angles, each with ValueError. The
generators check nothing: ``inverse_spf`` and the angular schemes hand them
points already checked or made in range.

Orders, degrees and counts are integers by errors._integer, as everywhere in the package:
2.0 passes as 2, and 2.5, "2", NaN or True raise ValueError. All functions are pure
and safe for concurrent use.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import _integer

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
    n = _integer(n, "polynomial order", 0)
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("laguerre_eval requires finite x")
    for p in _laguerre_rows(n, alpha, x):
        pass
    return float(p) if x.ndim == 0 else p


def _laguerre_rows(n: int, alpha: float, x):
    """Yield L_0^(alpha)(x) .. L_n^(alpha)(x), the rows of laguerre_eval's recurrence."""
    # L_0 = 1 and L_1 = 1 + alpha - x, the recurrence's k = 0 step from L_{-1} = 0 bit for bit
    p_prev, p = np.ones_like(x), 1.0 + alpha - x
    yield p_prev
    if n:
        yield p
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1 + alpha - x) * p - (k + alpha) * p_prev) / (k + 1)
        yield p


def laguerre_deriv(n: int, alpha: float, x):
    """Derivative d/dx L_n^(alpha)(x) = -L_{n-1}^(alpha+1)(x)."""
    n = _integer(n, "polynomial order", 0)
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
    n_poly = _integer(n_poly, "root count", 1)
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
    """Read-only factors of the associated Legendre recurrence, up to degree l_max.

    Returns (columns, sectoral). columns[l] = (a[l, :l, None], b[l, :l, None]),
    views made once here so that each step only applies them: a[l, m] and
    b[l, m] step order m from degrees l - 1 and l - 2 to l; a[l, l - 1] =
    sqrt(2 l + 1) and b[l, l - 1] = 0 start order l - 1 off its sectoral value
    in the same step. P-tilde_l^l = sectoral[l] s P-tilde_{l-1}^{l-1} with
    s = sqrt(1 - x^2); sectoral[0] is unused.
    """
    l = np.arange(l_max + 1)[:, None]
    m = l.T
    with np.errstate(divide="ignore", invalid="ignore"):  # only m <= l - 1 is read
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = np.sqrt((2.0 * l + 1.0) / (2.0 * l - 3.0) * ((l - 1.0) ** 2 - m * m) / (l * l - m * m))
        sectoral = -np.sqrt((2.0 * l + 1.0) / (2.0 * l))
    k = np.arange(1, l_max + 1)
    a[k, k - 1], b[k, k - 1] = np.sqrt(2.0 * k + 1.0), 0.0
    for array in (a, b, sectoral):
        array.flags.writeable = False
    return tuple((a[l, :l, None], b[l, :l, None]) for l in range(l_max + 1)), sectoral


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
        cos(colatitude), in [-1, 1]; NaN, infinities and |x| > 1 raise
        ValueError.

    Returns
    -------
    ndarray of shape (l_max+1, l_max+1) + shape(x); entry [l, m] holds
    P-tilde_l^m(x) for m <= l, zero above the diagonal.
    """
    l_max = _integer(l_max, "l_max", 0)
    x = np.asarray(x, dtype=float)
    if not (np.abs(x) <= 1.0).all():  # written so that NaN fails too
        raise ValueError("normalized_legendre requires x in [-1, 1], not NaN")
    table = np.zeros((l_max + 1, l_max + 1, x.size))
    for l, rows in enumerate(_legendre_by_degree(l_max, x.ravel())):
        table[l, : l + 1] = rows
    return table.reshape(table.shape[:2] + x.shape)


def _legendre_by_degree(l_max: int, x, out=None):
    """Yield the rows P-tilde_l^m(x), m = 0 .. l, for l = 0 .. l_max, on 1-D x.

    Degree l comes from degrees l - 1 and l - 2 in one step over all orders
    m < l, P-tilde_l^m = a[l, m] x P-tilde_{l-1}^m - b[l, m] P-tilde_{l-2}^m,
    and the sectoral P-tilde_l^l from P-tilde_{l-1}^{l-1}. The rows yielded
    are a view of one of two (l_max+1, len(x)) buffers, overwritten when
    degree l + 2 is made; copy what must outlive the next step. out, when
    given, is a float (4, l_max+1, len(x)) array to work in, so that a caller
    running block after block of points keeps one buffer for all of them.
    """
    columns, sectoral = _recurrence_coefficients(l_max)
    if out is None:
        out = np.zeros((4, l_max + 1) + x.shape)
    else:
        out[:2] = 0.0
    # degrees l - 2 and l - 1, a scratch slab, and sectoral[l] s, which takes P-tilde_{l-1}^{l-1}
    # to P-tilde_l^l; rows above a buffer's degree stay 0, so b[l, l - 1] reads a 0
    older, old, step, diagonal = out
    np.multiply(sectoral[1:], np.sqrt(np.maximum(1.0 - x * x, 0.0)), out=diagonal[:l_max])
    old[0] = 1.0 / math.sqrt(4.0 * math.pi)
    yield old[:1]
    for l in range(1, l_max + 1):
        a, b = columns[l]
        ax = np.multiply(a, x, out=step[:l])
        ax *= old[:l]
        rows, lower = older[: l + 1], older[:l]
        lower *= b
        np.subtract(ax, lower, out=lower)
        np.multiply(diagonal[l - 1], old[l - 1], out=rows[l])
        older, old = old, older
        yield rows


def spherical_harmonic(l: int, m: int, theta, phi):
    """Orthonormal complex spherical harmonic Y_l^m(theta, phi).

    theta is the colatitude in [0, pi], phi the longitude; either one NaN or
    infinite raises ValueError. Negative orders are produced exactly through
    Y_l^{-m} = (-1)^m conj(Y_l^m).
    """
    l, m = _integer(l, "degree l", 0), _integer(m, "order m")
    if abs(m) > l:
        raise ValueError(f"order |m|={abs(m)} exceeds degree l={l}")
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    if not (np.isfinite(theta).all() and np.isfinite(phi).all()):
        raise ValueError("spherical_harmonic requires finite theta and phi")
    x = np.cos(theta)
    for rows in _legendre_by_degree(l, x.ravel()):
        pass
    leg = rows[abs(m)].reshape(x.shape)
    sign = -1.0 if m < 0 and m % 2 else 1.0
    out = sign * leg * np.exp(1j * m * phi)
    return complex(out) if out.ndim == 0 else out

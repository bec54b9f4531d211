"""Iso-latitude hemisphere sampling and exact spherical harmonic transforms.

The scheme targets antipodally symmetric signals, so only even-degree
harmonics appear and one hemisphere of samples is enough. For an odd band
limit L the grid has (L+1)/2 latitude rings; ring k carries 4k+1 equally
spaced azimuths, giving L(L+1)/2 points, exactly the number of even-degree
coefficients below L. Equal counts make the forward transform a sequence
of small square solves rather than a least-squares fit.

The forward transform runs per azimuthal order, highest |m| first. An FFT
along ring k separates orders modulo 4k+1; a ring resolves order m without
interference iff 4k+1 >= 2|m|+1, and any order aliased into the same bin
on such a ring has strictly larger |m|, so its contribution is already
known and can be subtracted. Each order then reduces to a square Legendre
system over its usable rings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConditioningError
from .specfun import normalized_legendre, spherical_harmonic

__all__ = [
    "AngularScheme",
    "ShCoefficients",
    "make_angular_scheme",
    "forward_sht",
    "inverse_sht",
    "dense_sht_oracle",
    "mirror_to_full_sphere",
]

SOLVE_COND_LIMIT = 1e8


def _even_degrees(bandlimit: int, order: int) -> np.ndarray:
    """Even degrees l with order <= l < bandlimit."""
    start = order if order % 2 == 0 else order + 1
    return np.arange(start, bandlimit, 2)


def _sh_position(l, m):
    """Flat index of (l, m) in ShCoefficients.values; l may be an array of even degrees."""
    return l * (l + 1) // 2 + m


@dataclass
class ShCoefficients:
    """Even-degree spherical harmonic coefficients below a band limit.

    values is a flat complex array ordered by ascending even degree l,
    then ascending order m from -l to l.
    """

    bandlimit: int
    values: np.ndarray

    def __post_init__(self):
        expected = self.bandlimit * (self.bandlimit + 1) // 2
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (expected,):
            raise ValueError(
                f"band limit {self.bandlimit} needs {expected} coefficients, "
                f"got shape {self.values.shape}"
            )

    def index(self, l: int, m: int) -> int:
        if l % 2 or not 0 <= l < self.bandlimit:
            raise ValueError(f"degree {l} outside the even band below {self.bandlimit}")
        if abs(m) > l:
            raise ValueError(f"|m| = {abs(m)} exceeds degree {l}")
        return _sh_position(l, m)

    def get(self, l: int, m: int) -> complex:
        return complex(self.values[self.index(l, m)])

    def set(self, l: int, m: int, value) -> None:
        self.values[self.index(l, m)] = value

    @classmethod
    def zeros(cls, bandlimit: int) -> "ShCoefficients":
        return cls(bandlimit, np.zeros(bandlimit * (bandlimit + 1) // 2, dtype=complex))


@dataclass(frozen=True)
class _OrderSystem:
    """Square solve data for one azimuthal order magnitude."""

    order: int
    degrees: np.ndarray
    rings: np.ndarray
    matrix: np.ndarray
    eval_all: np.ndarray
    condition: float


@dataclass(frozen=True, eq=False)
class AngularScheme:
    """Iso-latitude hemisphere sampling scheme with per-order solvers."""

    bandlimit: int
    thetas: np.ndarray
    phi_offsets: np.ndarray
    ring_sizes: np.ndarray
    ring_starts: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    points: np.ndarray
    condition: float
    order_systems: tuple = field(repr=False)

    @property
    def n_rings(self) -> int:
        return len(self.thetas)

    @property
    def n_points(self) -> int:
        return len(self.theta)

    def ring_slice(self, k: int) -> slice:
        return slice(self.ring_starts[k], self.ring_starts[k] + self.ring_sizes[k])


def _default_thetas(bandlimit: int) -> np.ndarray:
    k = np.arange((bandlimit + 1) // 2)
    return np.pi * (2 * k + 1) / (2 * (bandlimit + 1))


def _order_systems(bandlimit: int, thetas: np.ndarray):
    """Per-order Legendre systems; returns (systems, worst condition)."""
    n_rings = len(thetas)
    ptab = normalized_legendre(bandlimit - 1, np.cos(thetas))
    systems = []
    worst = 0.0
    for mu in range(bandlimit):
        degrees = _even_degrees(bandlimit, mu)
        rings = np.arange(math.ceil(mu / 2), n_rings)
        eval_all = ptab[degrees, mu, :].T
        matrix = eval_all[rings, :]
        cond = np.linalg.cond(matrix)
        worst = max(worst, cond)
        systems.append(
            _OrderSystem(
                order=mu,
                degrees=degrees,
                rings=rings,
                matrix=matrix,
                eval_all=eval_all,
                condition=cond,
            )
        )
    return tuple(systems), worst


def make_angular_scheme(
    bandlimit: int,
    thetas=None,
    phi_offsets=None,
    optimize: bool = True,
) -> AngularScheme:
    """Build the hemisphere sampling scheme for an odd band limit.

    With thetas omitted, ring colatitudes start from the uniform layout
    theta_k = pi (2k+1) / (2(L+1)) and, when optimize is set, a short
    deterministic sweep of uniform rescalings keeps whichever layout
    minimizes the worst per-order condition number. Explicit thetas skip
    the sweep entirely (custom layouts are taken as given, including
    poorly conditioned ones; the transform itself guards against those).
    """
    if bandlimit < 1 or bandlimit % 2 == 0:
        raise ValueError(f"band limit must be odd and positive, got {bandlimit}")
    n_rings = (bandlimit + 1) // 2

    if thetas is None:
        candidates = [_default_thetas(bandlimit)]
        if optimize:
            base = candidates[0]
            for scale in (0.96, 0.98, 1.02, 1.04):
                candidates.append(base * scale)
        best = None
        for cand in candidates:
            systems, worst = _order_systems(bandlimit, cand)
            if best is None or worst < best[2]:
                best = (cand, systems, worst)
        thetas, systems, worst = best
    else:
        thetas = np.asarray(thetas, dtype=float)
        if thetas.shape != (n_rings,):
            raise ValueError(f"band limit {bandlimit} needs {n_rings} ring latitudes")
        if np.any(thetas <= 0) or np.any(thetas >= np.pi):
            raise ValueError("ring latitudes must lie strictly inside (0, pi)")
        systems, worst = _order_systems(bandlimit, thetas)

    if phi_offsets is None:
        phi_offsets = np.zeros(n_rings)
    else:
        phi_offsets = np.asarray(phi_offsets, dtype=float)
        if phi_offsets.shape != (n_rings,):
            raise ValueError(f"band limit {bandlimit} needs {n_rings} azimuth offsets")

    ring_sizes = 4 * np.arange(n_rings) + 1
    ring_starts = np.concatenate([[0], np.cumsum(ring_sizes)[:-1]])
    theta = np.repeat(thetas, ring_sizes)
    phi = np.concatenate(
        [phi_offsets[k] + 2.0 * np.pi * np.arange(ring_sizes[k]) / ring_sizes[k]
         for k in range(n_rings)]
    )
    points = np.column_stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )
    return AngularScheme(
        bandlimit=bandlimit,
        thetas=thetas,
        phi_offsets=phi_offsets,
        ring_sizes=ring_sizes,
        ring_starts=ring_starts,
        theta=theta,
        phi=phi,
        points=points,
        condition=worst,
        order_systems=systems,
    )


def forward_sht(values, scheme: AngularScheme) -> ShCoefficients:
    """Exact forward transform of hemisphere samples to coefficients.

    Exact (to rounding) for any signal band-limited to even degrees below
    scheme.bandlimit. Orders are recovered from high |m| to low, with each
    solved order's ring content subtracted from the FFT bins it aliases
    into on the remaining rings.

    Raises
    ------
    ConditioningError
        If any per-order system has condition number above 1e8.
    """
    values = np.asarray(values)
    if values.shape != (scheme.n_points,):
        raise ValueError(
            f"expected {scheme.n_points} samples (ring-major), got shape {values.shape}"
        )
    if not scheme.condition < SOLVE_COND_LIMIT:
        raise ConditioningError(
            "angular scheme is too ill-conditioned for a trustworthy transform",
            scheme.condition,
        )
    n_rings = scheme.n_rings
    ghat = [np.fft.fft(values[scheme.ring_slice(k)]) / scheme.ring_sizes[k]
            for k in range(n_rings)]
    acc = [np.zeros(scheme.ring_sizes[k], dtype=complex) for k in range(n_rings)]

    coeffs = ShCoefficients.zeros(scheme.bandlimit)
    for mu in range(scheme.bandlimit - 1, -1, -1):
        sys = scheme.order_systems[mu]
        sign = -1.0 if mu % 2 else 1.0
        for m in ((mu, -mu) if mu > 0 else (mu,)):
            order_sign = sign if m < 0 else 1.0
            rhs = np.empty(len(sys.rings), dtype=complex)
            for row, k in enumerate(sys.rings):
                u = m % scheme.ring_sizes[k]
                rhs[row] = (ghat[k][u] - acc[k][u]) * np.exp(-1j * m * scheme.phi_offsets[k])
            solved = order_sign * np.linalg.solve(sys.matrix, rhs)
            coeffs.values[_sh_position(sys.degrees, m)] = solved
            content = order_sign * (sys.eval_all @ solved)
            for k in range(n_rings):
                u = m % scheme.ring_sizes[k]
                acc[k][u] += content[k] * np.exp(1j * m * scheme.phi_offsets[k])
    return coeffs


def inverse_sht(coeffs: ShCoefficients, scheme: AngularScheme) -> np.ndarray:
    """Evaluate coefficients on the scheme's sample points.

    Returns a complex array in ring-major point order; real-signal
    coefficient sets come back real up to rounding. Runs through folded
    per-ring inverse FFTs, which reproduce the direct harmonic sum exactly
    for band-limited coefficients.
    """
    if coeffs.bandlimit != scheme.bandlimit:
        raise ValueError(
            f"coefficient band limit {coeffs.bandlimit} does not match "
            f"scheme band limit {scheme.bandlimit}"
        )
    out = np.empty(scheme.n_points, dtype=complex)
    for k in range(scheme.n_rings):
        n_k = scheme.ring_sizes[k]
        bins = np.zeros(n_k, dtype=complex)
        for mu in range(scheme.bandlimit):
            sys = scheme.order_systems[mu]
            sign = -1.0 if mu % 2 else 1.0
            for m in ((mu, -mu) if mu > 0 else (mu,)):
                order_sign = sign if m < 0 else 1.0
                amps = coeffs.values[_sh_position(sys.degrees, m)]
                content = order_sign * (sys.eval_all[k, :] @ amps)
                bins[m % n_k] += content * np.exp(1j * m * scheme.phi_offsets[k])
        out[scheme.ring_slice(k)] = np.fft.ifft(bins) * n_k
    return out


def dense_sht_oracle(values, scheme: AngularScheme) -> ShCoefficients:
    """Forward transform by one dense square solve, for cross-checking.

    Builds the full point-by-coefficient harmonic matrix and solves it
    directly. Cubic in the point count, so only sensible at small band
    limits; the FFT path should agree with this to rounding.
    """
    values = np.asarray(values)
    if values.shape != (scheme.n_points,):
        raise ValueError(
            f"expected {scheme.n_points} samples (ring-major), got shape {values.shape}"
        )
    columns = []
    for l in range(0, scheme.bandlimit, 2):
        for m in range(-l, l + 1):
            columns.append(spherical_harmonic(l, m, scheme.theta, scheme.phi))
    matrix = np.column_stack(columns)
    cond = np.linalg.cond(matrix)
    if not cond < SOLVE_COND_LIMIT:
        raise ConditioningError("dense harmonic matrix is ill-conditioned", cond)
    return ShCoefficients(scheme.bandlimit, np.linalg.solve(matrix, values.astype(complex)))


def mirror_to_full_sphere(points: np.ndarray) -> np.ndarray:
    """Append the antipode of every direction, doubling the point count."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) direction array, got shape {points.shape}")
    return np.vstack([points, -points])

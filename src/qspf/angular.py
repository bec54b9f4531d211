"""Iso-latitude hemisphere sampling and exact spherical harmonic transforms.

The scheme targets antipodally symmetric signals, so only even-degree
harmonics appear and one hemisphere of samples is enough. For an odd band
limit L the grid has (L+1)/2 latitude rings; ring k carries 4k+1 equally
spaced azimuths, giving L(L+1)/2 points, exactly the number of even-degree
coefficients below L. Equal counts make the forward transform a sequence
of small square solves rather than a least-squares fit.

The forward transform runs one step per ring, largest first. An FFT along
ring k separates orders modulo 4k+1; a ring resolves order m without
interference iff 4k+1 >= 2|m|+1, and any order aliased into the same bin
on such a ring has strictly larger |m|, so its contribution is already
known and can be subtracted. Each order then reduces to a square Legendre
system over its usable rings, and ring f's step solves |m| = 2f and 2f-1.
The built-in ring latitudes rescale a uniform layout by a factor recorded
per band limit, the one whose worst such system is best conditioned.

Both transforms keep the per-ring FFT bins in one flat array in sample
order, so order m sits at ring k's first sample + m mod n_k on all rings
at once.
Only the FFT bins depend on the samples. make_angular_scheme stores the
rest as arrays indexed by |m| (see AngularScheme), with each ring's
Legendre systems QR-factored once, and both transforms read them directly.
+m and -m share one real matrix, so per ring the forward transform applies
the stored Q^T, then R^-1, to Re and Im of +-|m| as four columns per
order; the inverse adds all orders at once, one batched matmul and one
scatter-add. Every scatter is a ufunc.at, which adds up the bins +m and
-m share on ring 0 and wherever 4k+1 divides m.

A scheme depends on its band limit and ring placements alone, so
make_angular_scheme builds each once per process and hands every caller
the same object, its arrays read-only. Explicit placements are matched
bit for bit, shape included, so -0.0 and 0.0 make two schemes; the most
recent 32 schemes are kept.

The transforms' coefficients are one flat complex array of length L(L+1)/2,
even degree l ascending, then m from -l to l: (l, m) sits at l(l+1)/2 + m.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import COND_LIMIT, ConditioningError
from .specfun import _legendre_by_order, normalized_legendre

__all__ = [
    "AngularScheme",
    "make_angular_scheme",
    "forward_sht",
    "inverse_sht",
    "dense_sht_oracle",
]


def _sh_position(l, m):
    """Flat index of (l, m) in a coefficient array; l may be an array of even degrees."""
    return l * (l + 1) // 2 + m


@dataclass(frozen=True, eq=False)
class AngularScheme:
    """Iso-latitude hemisphere sampling scheme and the arrays its transforms apply.

    Every array below is indexed by |m| = mu first. rows[mu, k, j] =
    P_{2j}^mu(cos theta_k), zero for 2j < mu, serves +mu and -mu
    (Y_l^{-m} = (-1)^m conj Y_l^m). Along the last axis (+mu, -mu), bins
    is m's flat FFT bin on each ring, phase is exp(i m phi_k) negated for
    negative odd m, and positions[mu, j] the place of (2j, m) in the
    coefficient array, or one past the end for 2j < mu and for -0.
    rings slices each ring's samples, 4k+1 on ring k. Rings from first =
    (mu+1)//2 on resolve mu, so rows[mu, first:, first:] is its solve
    matrix; order_conditions[mu] is that matrix's condition number, and
    condition their maximum. factors[f] is ring f's step, (Q^T, R^-1) of
    the QR factors of the solve matrices of |m| = 2f and 2f-1, stacked in
    that order; it is empty unless condition is below 1e8.
    """

    bandlimit: int
    thetas: np.ndarray
    phi_offsets: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    points: np.ndarray
    condition: float
    order_conditions: np.ndarray = field(repr=False)
    rings: tuple = field(repr=False)
    rows: np.ndarray = field(repr=False)
    bins: np.ndarray = field(repr=False)
    phase: np.ndarray = field(repr=False)
    positions: np.ndarray = field(repr=False)
    factors: tuple = field(repr=False)

    @property
    def n_points(self) -> int:
        return len(self.theta)


def _default_scale(bandlimit: int) -> float:
    """The factor on theta_k = pi (2k+1) / (2(L+1)) that gives the built-in layout.

    Of the scales 1, 0.96, 0.98, 1.02 and 1.04, it is the first whose worst
    per-order condition number is lowest, as a search over them found for
    every odd L up to 243.
    """
    if bandlimit == 1:
        return 1.0
    return 1.04 if bandlimit <= 7 else 1.02 if bandlimit <= 11 else 1.0 if bandlimit <= 17 else 0.98


def _odd_bandlimit(bandlimit) -> int:
    """The band limit as an int; ValueError unless it is an odd integer in [1, 133].

    Integral floats such as 11.0 pass and map to 11; 11.5 is refused rather
    than truncated.
    """
    L = int(bandlimit) if np.isfinite(bandlimit) else 0
    if L != bandlimit or L < 1 or L % 2 == 0:
        raise ValueError(f"band limit must be an odd positive integer, got {bandlimit!r}")
    # 133 is the largest L whose built-in layout forward_sht accepts: worst per-order condition
    # 9.6e7 at L = 133, 1.31e8 at 135, against COND_LIMIT = 1e8; it also bounds the L^2 tables
    if L > 133:
        raise ValueError(f"band limit {L} is above 133, the largest the transform inverts")
    return L


def _flat(values, scheme: AngularScheme, what: str) -> np.ndarray:
    """values as an array; ValueError unless it holds scheme.n_points finite entries."""
    values = np.asarray(values)
    if values.shape != (scheme.n_points,):
        raise ValueError(f"expected {scheme.n_points} {what}, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError(f"{what} must be finite")
    return values


def make_angular_scheme(bandlimit: int, thetas=None, phi_offsets=None) -> AngularScheme:
    """Build the hemisphere sampling scheme for an odd band limit.

    With thetas omitted, the ring colatitudes are the built-in layout:
    theta_k = pi (2k+1) / (2(L+1)) times a recorded factor per band limit
    (1.04 for L = 3 to 7, 1.02 to 11, 1 to 17, 0.98 above), the rescaling
    whose worst per-order condition number is lowest. Explicit thetas are
    taken as given, poorly conditioned ones included; the transform itself
    guards against those. Omitted phi_offsets are all zero.

    Memoised: every call with the same band limit and the same placements,
    bit for bit, returns the same object, and its arrays are read-only.
    """
    return _scheme(_odd_bandlimit(bandlimit), _exact_key(thetas), _exact_key(phi_offsets))


def _exact_key(values):
    """None for None, else the shape and float64 bytes of values: equal only for equal bits."""
    if values is None:
        return None
    values = np.array(values, dtype=float)
    return values.shape, values.tobytes()


def _read_only(obj, *arrays):
    """obj, with every ndarray among its attributes and among arrays made read-only."""
    for value in (*vars(obj).values(), *arrays):
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return obj


@functools.lru_cache(maxsize=32)
def _scheme(bandlimit: int, thetas, phi_offsets) -> AngularScheme:
    """The scheme for make_angular_scheme's checked band limit and exact placement keys."""
    n_rings = (bandlimit + 1) // 2

    if thetas is None:
        base = np.pi * (2 * np.arange(n_rings) + 1) / (2 * (bandlimit + 1))
        thetas = base * _default_scale(bandlimit)
    else:
        thetas = np.frombuffer(thetas[1]).reshape(thetas[0])
        if thetas.shape != (n_rings,):
            raise ValueError(f"band limit {bandlimit} needs {n_rings} ring latitudes")
        if not np.all((thetas > 0) & (thetas < np.pi)):
            raise ValueError("ring latitudes must lie strictly inside (0, pi)")
    # order mu is solved on the rings from (mu + 1) // 2 on; even degree l is row l - mu of leg
    rows = np.zeros((bandlimit, n_rings, n_rings))  # P_l^mu = 0 at l = 2j < mu
    conditions = np.empty(bandlimit)
    for mu, leg in enumerate(_legendre_by_order(bandlimit - 1, np.cos(thetas))):
        first = (mu + 1) // 2
        rows[mu, :, first:] = leg[mu % 2 :: 2].T
        conditions[mu] = np.linalg.cond(rows[mu, first:, first:])
    factors = []
    if conditions.max() < COND_LIMIT:  # else forward_sht refuses the scheme before any step
        for f in range(n_rings):  # ring f's step stacks |m| = 2f, 2f - 1 (ring 0: just 0)
            q, r = np.linalg.qr(rows[2 * f :: -1][:2, f:, f:])
            factors.append((q.swapaxes(1, 2).copy(), np.linalg.inv(r)))

    if phi_offsets is None:
        phi_offsets = np.zeros(n_rings)
    else:
        phi_offsets = np.frombuffer(phi_offsets[1]).reshape(phi_offsets[0])
        if phi_offsets.shape != (n_rings,):
            raise ValueError(f"band limit {bandlimit} needs {n_rings} azimuth offsets")
        if not np.all(np.isfinite(phi_offsets)):
            raise ValueError("ring azimuth offsets must be finite")

    ring_sizes = 4 * np.arange(n_rings) + 1
    ring_starts = np.concatenate([[0], np.cumsum(ring_sizes)[:-1]])
    ring = np.repeat(np.arange(n_rings), ring_sizes)  # ring of each sample
    slot = np.arange(len(ring)) - ring_starts[ring]  # position along its ring
    theta = thetas[ring]
    phi = phi_offsets[ring] + 2.0 * np.pi * slot / ring_sizes[ring]
    points = np.column_stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )
    # (order mu, ring or degree, sign): m = +mu, -mu; -0 and l < mu point past the coefficients
    mu, sign = np.arange(bandlimit)[:, None, None], np.array([1, -1])
    m = mu * sign
    bins = ring_starts[:, None] + m % ring_sizes[:, None]
    phase = np.where((m < 0) & (m % 2 == 1), -1.0, 1.0) * np.exp(1j * m * phi_offsets[:, None])
    l = 2 * np.arange(n_rings)[:, None]
    positions = np.where((l >= mu) & ((mu > 0) | (sign > 0)), _sh_position(l, m), len(theta))
    return _read_only(AngularScheme(
        bandlimit=bandlimit,
        thetas=thetas,
        phi_offsets=phi_offsets,
        theta=theta,
        phi=phi,
        points=points,
        condition=conditions.max(),
        order_conditions=conditions,
        rings=tuple(slice(s, s + n) for s, n in zip(ring_starts, ring_sizes)),
        rows=rows,
        bins=bins,
        phase=phase,
        positions=positions,
        factors=tuple(factors),
    ), *(array for step in factors for array in step))


def forward_sht(values, scheme: AngularScheme) -> np.ndarray:
    """Exact forward transform of ring-major hemisphere samples to coefficients.

    Exact (to rounding) for any signal band-limited to even degrees below
    scheme.bandlimit. One step per ring f, largest first, recovers orders
    |m| = 2f and 2f-1 by applying the scheme's stored factors of their
    Legendre systems, R^-1 (Q^T rhs), and subtracts their content from the
    FFT bins they alias into on smaller rings: 2f first, so the result is
    bit-identical to stepping one order at a time.

    Raises
    ------
    ValueError
        If the samples are the wrong shape or not all finite.
    ConditioningError
        If any per-order system has condition number above 1e8.
    """
    values = _flat(values, scheme, "samples")
    if not scheme.condition < COND_LIMIT:
        raise ConditioningError(
            "angular scheme is too ill-conditioned for a trustworthy transform",
            scheme.condition,
        )
    # norm="forward" puts the 1/n_k on the FFT, so a bin holds its order's amplitude
    bins = np.concatenate([np.fft.fft(values[ring], norm="forward") for ring in scheme.rings])
    out = np.zeros(scheme.n_points + 1, dtype=complex)  # one coefficient per point; -0 at the end
    for f in reversed(range(len(scheme.rings))):
        # ring f first resolves |m| = 2f, 2f - 1 (ring 0: just 0); neither reads the other's spill
        pair, (qt, rinv) = slice(2 * f, 2 * f - 2 if f else None, -1), scheme.factors[f]
        rows, where, phase = scheme.rows[pair], scheme.bins[pair], scheme.phase[pair]
        rhs = (bins[where[:, f:]] * phase[:, f:].conj()).view(float)  # Re, Im of +mu, -mu
        solved = rinv @ (qt @ rhs)
        out[scheme.positions[pair, f:]] = solved.view(complex)
        # lower orders read these bins on rings too small to separate the pair
        spill = (rows[:, :f, f:] @ solved).view(complex) * phase[:, :f]
        np.subtract.at(bins, where[:, :f], spill)
    return out[:-1]


def inverse_sht(coeffs, scheme: AngularScheme) -> np.ndarray:
    """Evaluate a coefficient array on the scheme's sample points.

    Returns a complex array in ring-major point order; real-signal
    coefficient sets come back real up to rounding. Runs through folded
    per-ring inverse FFTs, which reproduce the direct harmonic sum exactly
    for band-limited coefficients. ValueError unless coeffs holds
    scheme.n_points finite values.
    """
    coeffs = _flat(coeffs, scheme, "coefficients")
    # (order, ring, sign) content of every order at once
    padded = np.append(coeffs, 0j)[scheme.positions]
    content = (scheme.rows @ padded.view(float)).view(complex) * scheme.phase
    bins = np.zeros(scheme.n_points, dtype=complex)
    np.add.at(bins, scheme.bins, content)
    return np.concatenate([np.fft.ifft(bins[ring], norm="forward") for ring in scheme.rings])


def dense_sht_oracle(values, scheme: AngularScheme) -> np.ndarray:
    """Forward transform by one dense square solve, for cross-checking.

    Builds the full point-by-coefficient harmonic matrix and solves it
    directly. Cubic in the point count, so only sensible at small band
    limits; the FFT path should agree with this to rounding.
    """
    values = _flat(values, scheme, "samples")
    # column (l, m) is Y_l^m at every point, from one table: Y_l^{-m} = (-1)^m conj Y_l^m
    L = scheme.bandlimit
    l = np.repeat(np.arange(0, L, 2), np.arange(1, 2 * L, 4))
    m = np.arange(len(l)) - _sh_position(l, 0)
    legendre = normalized_legendre(L - 1, np.cos(scheme.theta))[l, np.abs(m)].T
    sign = np.where((m < 0) & (m % 2 == 1), -1.0, 1.0)
    matrix = sign * legendre * np.exp(1j * np.outer(scheme.phi, m))
    cond = np.linalg.cond(matrix)
    if not cond < COND_LIMIT:
        raise ConditioningError("dense harmonic matrix is ill-conditioned", cond)
    return np.linalg.solve(matrix, values.astype(complex))


"""Multi-shell q-space grid and the separable forward/inverse transform.

The grid pairs one radial scheme with one iso-latitude angular scheme per
shell. With per-shell band limits L_1..L_N the total sample count is
sum_i L_i(L_i+1)/2, which equals the number of recoverable coefficients,
so the forward transform is a bijection on its model space. At the
recommended defaults (4 shells to b = 8000 s/mm^2, band limits 3/5/9/11)
that is 132 samples.

The coefficient set is a staircase: degree l is kept on radial orders
n < N_l, where N_l counts the shells whose band limit exceeds l. Degrees
carried by all shells go through the exact Gauss-Laguerre radial
quadrature; the rest are solved by direct collocation on the shells that
see them. Signals with energy at degree l on shells whose band limit is
<= l fall outside the model space by construction; sampling such a shell
simply cannot represent that content.

staircase_index owns the table layout: runs of adjacent degrees carried
by the same shells, each m-major and n-minor, and per-entry n, l, m and
partner arrays. build_grid makes each radial mode's maps once, one per
run; forward_spf and synthesize_on_grid make one matrix product per run
against an (l, m) x shell table of per-shell harmonic coefficients.
inverse_spf, the read side, goes one azimuthal order at a time with its
Legendre rows made by recurrence, so its memory is linear in the batch.

An index depends on its band limits alone, so staircase_index builds it
once per process and returns the same read-only object to every caller
(the most recent 64 band-limit tuples are kept). build_grid takes its
angular schemes from make_angular_scheme's memo the same way, so grids
with equal band limits and ring placements share both, and memoises the
grid itself on b_max, convention, indexes and schemes (the most recent
16), read-only too, explicit placements included.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .angular import (_odd_bandlimit, _read_only, _sh_position, forward_sht, inverse_sht,
                      make_angular_scheme)
from .errors import COND_LIMIT, ConditioningError
from .radial import BConvention, RadialScheme, _basis_table, make_radial_scheme
from .specfun import _legendre_by_order

__all__ = [
    "StaircaseIndex",
    "staircase_index",
    "MultiShellGrid",
    "build_grid",
    "SpfCoefficients",
    "forward_spf",
    "inverse_spf",
    "synthesize_on_grid",
]


@dataclass(frozen=True, eq=False)
class StaircaseIndex:
    """Bijection between (n, l, m) triples and linear positions.

    Entries are ordered by ascending even degree l, then order m from -l
    to l, then radial order n. Degree l appears with n < N_l, where N_l
    is the number of shells whose band limit exceeds l. runs holds one
    (carrying shells, entry slice, row slice) per stretch of degrees with
    equal N_l: read as (l, m) rows by n, its entries are the row slice of
    one shell's angular coefficients, so (n, l, m) sits at entries.start +
    (row - rows.start) N_l + n with row = l(l+1)/2 + m. Entry k is
    (radial_orders[k], degrees[k], orders[k]), and partner[k] is the
    position of its (n, l, -m) entry.
    """

    bandlimits: tuple
    runs: tuple = field(repr=False)
    radial_orders: np.ndarray = field(repr=False)
    degrees: np.ndarray = field(repr=False)
    orders: np.ndarray = field(repr=False)
    partner: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.orders)

    @property
    def entries(self) -> tuple:
        return tuple(zip(self.radial_orders.tolist(), self.degrees.tolist(), self.orders.tolist()))

    def mirrored(self, values) -> np.ndarray:
        """(-1)^m conj(values[partner]): what a real signal holds at each entry."""
        return np.where(self.orders % 2, -1.0, 1.0) * np.conj(values[self.partner])

    def locate(self, n: int, l: int, m: int) -> int:
        if l % 2 == 0 and 0 <= l < max(self.bandlimits) and -l <= m <= l:
            row = _sh_position(l, m)
            shells, entries, rows = next(run for run in self.runs if row < run[2].stop)
            if 0 <= n < len(shells):
                return entries.start + (row - rows.start) * len(shells) + n
        raise ValueError(f"(n={n}, l={l}, m={m}) is outside the coefficient set")


def _checked_bandlimits(bandlimits) -> tuple:
    """Band limits as a tuple of ints, each an odd positive integer (11.0 passes, 11.5 not)."""
    bandlimits = tuple(_odd_bandlimit(L) for L in bandlimits)
    if not bandlimits:
        raise ValueError("need at least one band limit")
    return bandlimits


def staircase_index(bandlimits) -> StaircaseIndex:
    """Enumerate the recoverable (n, l, m) set for per-shell band limits.

    Memoised: any iterable of the same band limits returns the same
    object, whose arrays are read-only.
    """
    return _staircase_index(_checked_bandlimits(bandlimits))


@functools.lru_cache(maxsize=64)
def _staircase_index(bandlimits: tuple) -> StaircaseIndex:
    limits = np.array(bandlimits)
    degrees = np.arange(0, limits.max(), 2)
    n_l = np.count_nonzero(limits > degrees[:, None], axis=1)
    sizes = (2 * degrees + 1) * n_l
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    # runs start where N_l drops; the rows of even degree l = 2a start at l (l - 1) / 2 = a (2a - 1)
    cuts = np.flatnonzero(np.diff(n_l, prepend=0)).tolist() + [len(degrees)]
    runs = tuple(
        (tuple(np.flatnonzero(limits > 2 * a).tolist()), slice(int(bounds[a]), int(bounds[b])),
         slice(a * (2 * a - 1), b * (2 * b - 1)))
        for a, b in zip(cuts, cuts[1:])
    )
    n_of, l_of = np.repeat(n_l, sizes), np.repeat(degrees, sizes)
    offset = np.arange(sizes.sum()) - np.repeat(bounds[:-1], sizes)
    orders = offset // n_of - l_of
    # each degree is m-major, so (n, l, -m) sits 2 m N_l positions before (n, l, m)
    partner = np.arange(sizes.sum()) - 2 * orders * n_of
    return _read_only(StaircaseIndex(bandlimits, runs, offset % n_of, l_of, orders, partner))


@dataclass(frozen=True, eq=False)
class MultiShellGrid:
    """Joint radial and angular sampling scheme.

    Flat sample arrays are shell-major (all of shell 0, then shell 1, ...)
    and ring-major within each shell, matching the angular schemes' point
    order. The radial maps depend only on the grid and are built with it:
    radial_maps takes each radial mode to (output index, maps, worst
    condition number), one map per run of the output index, so
    zero_padded has one. A map is the quadrature
    Q[n, i] = w_i R_n(q_i) on a run all shells carry, else pinv(M), with
    M[j, n] = R_n(q_j) on the run's shells. The worst condition number is
    the largest cond(M), 1 when the mode has no collocation matrix.
    """

    radial: RadialScheme
    angular: tuple
    index: StaircaseIndex
    shell_of: np.ndarray
    points: np.ndarray
    radii: np.ndarray
    bvalues: np.ndarray
    shell_starts: np.ndarray
    radial_maps: MappingProxyType = field(repr=False)

    @property
    def n_shells(self) -> int:
        return len(self.angular)

    @property
    def n_samples(self) -> int:
        return len(self.radii)

    @property
    def bandlimits(self) -> tuple:
        return self.index.bandlimits

    def shell_slice(self, i: int) -> slice:
        return slice(self.shell_starts[i], self.shell_starts[i] + self.angular[i].n_points)


def build_grid(
    n_shells: int,
    b_max: float,
    bandlimits,
    convention: BConvention = BConvention(),
    ring_latitudes=None,
    ring_offsets=None,
) -> MultiShellGrid:
    """Build the multi-shell grid for given shell count and band limits.

    Band limits are assigned to shells in ascending b order. An assignment
    that decreases with b is accepted with a warning; the coefficient set
    still counts shells per degree, but pairing richer angular sampling
    with the faster-decaying inner shells is usually unintended.

    ring_latitudes and ring_offsets, when given, are per-shell sequences
    of explicit ring placements (None entries keep the built-in layout
    for that shell); they exist so a serialized scheme can be rebuilt
    exactly, custom layouts included.

    Memoised (the most recent 16): the same shell count, b_max as a float,
    convention, band limits and ring placements, bit for bit, give the same
    read-only grid, though the checks and the warning run on every call.
    """
    bandlimits = _checked_bandlimits(bandlimits)
    if len(bandlimits) != n_shells:
        raise ValueError(f"{n_shells} shells need {n_shells} band limits, got {len(bandlimits)}")
    if any(b > a for a, b in zip(bandlimits[1:], bandlimits)):
        warnings.warn("band limits decrease with b; inner shells will carry more angular "
                      "detail than outer ones", stacklevel=2)
    ring_latitudes = [None] * n_shells if ring_latitudes is None else ring_latitudes
    ring_offsets = [None] * n_shells if ring_offsets is None else ring_offsets
    if len(ring_latitudes) != n_shells or len(ring_offsets) != n_shells:
        raise ValueError("ring overrides must supply one entry (or None) per shell")
    # keyed on the memoised schemes, so a grid never keeps a scheme its memo has since replaced
    schemes = tuple(map(make_angular_scheme, bandlimits, ring_latitudes, ring_offsets))
    indexes = staircase_index(bandlimits), staircase_index((max(bandlimits),) * n_shells)
    return _grid(float(b_max), convention, *indexes, schemes)


@functools.lru_cache(maxsize=16)
def _grid(b_max, convention, index, padded, schemes) -> MultiShellGrid:
    """The grid for build_grid's checked arguments and memoised parts."""
    n_shells = len(schemes)
    radial = _read_only(make_radial_scheme(n_shells, b_max, convention))
    counts = np.array([s.n_points for s in schemes])
    shell_starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    shell_of = np.repeat(np.arange(n_shells), counts)
    points = np.vstack([s.points for s in schemes])
    radii = np.repeat(radial.radii, counts)
    bvalues = np.repeat(radial.bvalues, counts)
    quadrature = _basis_table(radial.radii, n_shells, radial.zeta) * radial.weights
    radial_maps = {}
    for mode, mode_index in (("staircase", index), ("zero_padded", padded)):
        maps, conds = [], [1.0]
        for shells, _, _ in mode_index.runs:
            radial_map = quadrature
            if len(shells) < n_shells:
                # pinv never raises: an ill-conditioned grid still serves zero_padded
                matrix = _basis_table(radial.radii[list(shells)], len(shells), radial.zeta).T
                radial_map = np.linalg.pinv(matrix)
                conds.append(float(np.linalg.cond(matrix)))
            maps.append(radial_map)
        radial_maps[mode] = (mode_index, tuple(maps), max(conds))
    grid = MultiShellGrid(radial, schemes, index, shell_of, points, radii, bvalues, shell_starts,
                          MappingProxyType(radial_maps))
    return _read_only(grid, *(m for _, maps, _ in radial_maps.values() for m in maps))


@dataclass(frozen=True, eq=False)
class SpfCoefficients:
    """Coefficient table over a staircase index set.

    values[k] holds the coefficient for index.entries[k], so (n, l, m)
    sits at values[index.locate(n, l, m)]; zeta and the b convention pin
    down the radial basis the table refers to. zeta must be positive and
    finite, and every value finite. The table is frozen and copies values,
    which every reader checks again, as the array stays writable.
    """

    index: StaircaseIndex
    zeta: float
    convention: BConvention
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.array(self.values, dtype=complex))
        if self.values.shape != (self.index.size,):
            raise ValueError(
                f"index has {self.index.size} entries, values have shape {self.values.shape}"
            )
        if not 0 < self.zeta < np.inf:  # written so that NaN fails too
            raise ValueError(f"zeta must be positive and finite, got {self.zeta}")
        _finite_values(self)

    def to_real_basis(self) -> np.ndarray:
        """Coefficients in the real spherical harmonic basis.

        The target basis is the usual real harmonics
        u_{l,m} = sqrt(2) (-1)^m Re Y_l^m for m > 0,
        u_{l,0} = Y_l^0,
        u_{l,-m} = sqrt(2) (-1)^m Im Y_l^m for m > 0,
        so for a complex table with the real-signal symmetry the exports
        are a_{n,l,m} = sqrt(2) (-1)^m Re c_{n,l,m} and
        a_{n,l,-m} = -sqrt(2) (-1)^m Im c_{n,l,m}, with a_{n,l,0} =
        Re c_{n,l,0}. Entry order matches index.entries.
        """
        m, values = self.index.orders, _finite_values(self)
        c = np.where(m < 0, values[self.index.partner], values)
        sign = np.where(m % 2, -1.0, 1.0)
        return np.where(m == 0, c.real, np.sqrt(2.0) * sign * np.where(m > 0, c.real, -c.imag))


def _finite_values(coeffs: SpfCoefficients) -> np.ndarray:
    """coeffs.values, checked finite again: the array stays writable after the table's check."""
    if not np.isfinite(coeffs.values).all():
        raise ValueError("coefficient values must be finite")
    return coeffs.values


def forward_spf(grid: MultiShellGrid, samples, radial_mode: str = "staircase") -> SpfCoefficients:
    """Transform grid samples to coefficients, shell by shell then radially.

    Each shell's exact angular transform fills one column of an (l, m) x
    shell table, zero above its band limit; each run of degrees then takes
    one product with the mode's radial map: the exact radial quadrature
    when every shell carries the run, else the inverse collocation matrix.

    radial_mode "staircase" (default) returns the bijective coefficient
    set. Mode "zero_padded" instead treats degrees above a shell's band
    limit as zero-valued on that shell and runs the quadrature for every
    degree over all shells, returning a uniform table of n_shells radial
    orders per degree (264 entries at the defaults). That variant is not
    a bijection but keeps the pure-quadrature radial path for every row.

    Raises
    ------
    ValueError
        If the samples are the wrong shape or not all finite.
    ConditioningError
        Propagated from the angular transform, or raised in staircase
        mode when a run's collocation matrix has condition number
        above 1e8.
    """
    if radial_mode not in ("staircase", "zero_padded"):
        raise ValueError(f"unknown radial_mode {radial_mode!r}")
    values = np.asarray(samples)
    if values.shape != (grid.n_samples,):
        raise ValueError(f"grid has {grid.n_samples} samples, got values of shape {values.shape}")
    table = np.zeros((max(s.n_points for s in grid.angular), grid.n_shells), dtype=complex)
    for i, scheme in enumerate(grid.angular):
        table[: scheme.n_points, i] = forward_sht(values[grid.shell_slice(i)], scheme)
    out_index, maps, cond = grid.radial_maps[radial_mode]
    if not cond < COND_LIMIT:
        raise ConditioningError("radial collocation matrix is ill-conditioned", cond)
    out = np.empty(out_index.size, dtype=complex)
    for (shells, entries, rows), radial_map in zip(out_index.runs, maps):
        out[entries] = (table[rows, shells] @ radial_map.T).ravel()
    return SpfCoefficients(out_index, grid.radial.zeta, grid.radial.convention, out)


def _paired(radii, directions, what: str):
    """Non-negative radii and unit directions, one of each per point, and whether both were single.

    One direction pairs with every radius, one radius with every direction,
    else the lengths must match (empty too). what names the radii in errors.
    """
    radii, directions = np.asarray(radii, dtype=float), np.asarray(directions, dtype=float)
    if not np.all(radii >= 0):  # written so that NaN fails too
        raise ValueError(f"{what} must be non-negative, not NaN")
    flat, dirs = np.atleast_1d(radii), np.atleast_2d(directions)
    if dirs.ndim != 2 or dirs.shape[1] != 3:
        raise ValueError(f"directions must have 3 components, got shape {directions.shape}")
    # written so that a NaN component fails too
    if not np.all(np.abs(np.linalg.norm(dirs, axis=1) - 1.0) <= 1e-6):
        raise ValueError("directions must be unit vectors")
    if flat.ndim != 1:
        raise ValueError(f"{what} must be a scalar or a flat array")
    if len(flat) == 1:
        flat = np.full(len(dirs), flat[0])
    elif len(dirs) == 1:
        dirs = np.broadcast_to(dirs, (len(flat), 3))
    elif len(flat) != len(dirs):
        raise ValueError(f"{len(flat)} {what} do not pair with {len(dirs)} directions")
    return flat, dirs, directions.ndim == 1 and radii.ndim == 0


def inverse_spf(coeffs: SpfCoefficients, directions, q=None, b=None):
    """Evaluate the expansion at arbitrary q-space locations.

    The value is the full triple sum over the coefficient table, so it is
    defined for any radius and any unit direction, on or off the grid.
    Pass exactly one of q (radius) or b (b-value in the table's
    convention). Directions and radii broadcast: one direction with many
    radii, many directions with one radius, or matched arrays (empty too).

    The sum goes order by order, +mu and -mu together: a real GEMM against
    the radial table, weighted by Legendre rows that a recurrence makes as
    it goes. Memory is linear in the batch; pass a large batch in one call.
    """
    if (q is None) == (b is None):
        raise ValueError("pass exactly one of q or b")
    values = _finite_values(coeffs)
    if b is None:
        qv, dirs, scalar = _paired(q, directions, "radii")
    else:
        qv, dirs, scalar = _paired(b, directions, "b-values")
        qv = coeffs.convention.q_from_b(qv)

    index = coeffs.index
    n_orders, l_max = len(index.bandlimits), max(index.bandlimits)
    # order mu adds c+ e^(i mu phi) + c- e^(-i mu phi), c- = (-1)^mu c_{n,l,-mu}, which is
    # (c+ + c-) cos(mu phi) + i (c+ - c-) sin(mu phi); at mu = 0, c- is c+ itself: halve order 0
    plus, minus = values, np.conj(index.mirrored(values))
    terms = np.stack([plus + minus, 1j * (plus - minus)], axis=1).view(float)
    up = index.orders >= 0
    parts = np.zeros((l_max, (l_max + 1) // 2, 4, n_orders))
    parts[index.orders[up], index.degrees[up] // 2, :, index.radial_orders[up]] = terms[up]
    parts[0] /= 2

    rtab = _basis_table(qv, n_orders, coeffs.zeta)
    phi = np.arctan2(dirs[:, 1], dirs[:, 0])
    cos1, sin1, cos, sin = np.cos(phi), np.sin(phi), np.ones(len(qv)), np.zeros(len(qv))
    acc = np.zeros((2, len(qv)))
    for mu, leg in enumerate(_legendre_by_order(l_max - 1, np.clip(dirs[:, 2], -1.0, 1.0))):
        # even degrees l >= mu: blocks (mu + 1) // 2 on, rows l - mu = mu % 2, + 2, ... of leg
        block = parts[mu, (mu + 1) // 2 :]
        radial = (block.reshape(-1, n_orders) @ rtab).reshape(len(block), 4, -1)
        weighted = np.einsum("jkp,jp->kp", radial, leg[mu % 2 :: 2])
        acc += weighted[:2] * cos + weighted[2:] * sin
        cos, sin = cos * cos1 - sin * sin1, sin * cos1 + cos * sin1
    return complex(acc[0, 0], acc[1, 0]) if scalar else acc[0] + 1j * acc[1]


def synthesize_on_grid(coeffs: SpfCoefficients, grid: MultiShellGrid) -> np.ndarray:
    """Render coefficients as grid samples, each shell at its band limit.

    This is the sampling operator the forward transform inverts: shell i
    receives only degrees below its own band limit L_i, since the shell's
    angular scheme cannot carry more. forward_spf(grid, result) returns
    the coefficients (restricted to the grid's staircase set) to rounding.
    For tables with content above a shell's band limit (zero-padded mode,
    or a grid with lower limits), that content is dropped shell by shell,
    which is where this differs from pointwise inverse_spf evaluation.
    """
    if abs(coeffs.zeta - grid.radial.zeta) > 1e-9 * max(coeffs.zeta, grid.radial.zeta):
        raise ValueError("coefficient table and grid use different radial scales")
    rtab = _basis_table(grid.radial.radii, len(coeffs.index.bandlimits), coeffs.zeta)
    # row (l, m), column i: sum_n c_{n,l,m} R_n(q_i); shell i reads its leading rows only
    top = max(coeffs.index.bandlimits + grid.bandlimits)
    table = np.zeros((top * (top + 1) // 2, grid.n_shells), dtype=complex)
    for shells, entries, rows in coeffs.index.runs:
        table[rows] = coeffs.values[entries].reshape(-1, len(shells)) @ rtab[: len(shells)]
    return np.concatenate([inverse_sht(table[: s.n_points, i], s)
                           for i, s in enumerate(grid.angular)])

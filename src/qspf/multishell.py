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
run. The two halves of forward_spf and synthesize_on_grid meet in one
harmonic table (angular._table), (shell, row, column): row r of shell i
holds that shell's coefficient at r = l(l+1)/2 + m, zero from its own
n_points up. The radial halves, _from_shells and _to_shells, make one
matrix product per run of degrees on that table's rows; the angular side
goes by ring index across all shells, one FFT call per ring size above
one point (5 at the defaults, against 16 rings), each shell its own ring
cascade, and one np.bincount folds the bins of all shells. The table may
carry V columns, so run_validation sends a chunk of draws, its angular
draws beside _to_shells' columns (out=), through the same code.
inverse_spf, the read side, goes one even degree at a time, its Legendre
rows made by recurrence for every order at once, over blocks of a fixed
number of points, so its working memory does not grow with the batch.
It gathers the harmonic rows of adjacent degrees into one GEMM while they
fit the room the sums take in a full block: one GEMM in all for a small
batch, about one per degree for a full block.

An index depends on its band limits alone, so staircase_index builds it
once per process and returns the same read-only object to every caller
(the most recent 64 band-limit tuples are kept). build_grid takes its
angular schemes from make_angular_scheme's memo the same way, so grids
with equal band limits and ring placements share both, and memoises the
grid itself on b_max, convention, indexes and schemes (the most recent
16), read-only too, explicit placements included. What the transforms
derive from one of these objects lives on it, built on first use: a
grid's ring plan (angular._RingPlan) on the grid, inverse_spf's harmonic
layout on its index, so each lasts exactly as long as its owner.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .angular import (_analyse, _exact_key, _flat, _odd_bandlimit, _read_only, _ring_plan,
                      _scheme, _sh_position, _synthesise, _table)
from .errors import _as_int, _integer, _real, _refuse_ill_conditioned
from .radial import BConvention, RadialScheme, _basis_table, _radial_map, make_radial_scheme
from .specfun import _legendre_by_degree

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
        """Position of (n, l, m); integral floats pass (2.0 as 2), any other non-integer not."""
        outside = ValueError(f"(n={n}, l={l}, m={m}) is outside the coefficient set")
        n, l, m = map(_as_int, (n, l, m))
        if None not in (n, l, m) and l % 2 == 0 and 0 <= l < max(self.bandlimits) and -l <= m <= l:
            row = _sh_position(l, m)
            shells, entries, rows = next(run for run in self.runs if row < run[2].stop)
            if 0 <= n < len(shells):
                return entries.start + (row - rows.start) * len(shells) + n
        raise outside

    @functools.cached_property
    def _harmonic_layout(self):
        """Where each entry lands in inverse_spf's (Re/Im, n) by (l, m >= 0, cos/sin) block.

        Order m > 0 adds c+ e^(i m phi) + c- e^(-i m phi), c- = (-1)^m c_{n,l,-m}, which
        is (c+ + c-) cos(m phi) + i (c+ - c-) sin(m phi); order 0 adds c cos(0 phi). So
        entry (n, l, m) adds w c to the cos column of (l, |m|) and i v c to its sin
        column: w = v = 1 for m > 0, w = 1 and v = 0 at m = 0, w = -v = (-1)^m for
        m < 0. Returns (targets, factors, size): an entry's Re c, Re c, Im c, Im c
        times its four factors add up at its four targets in a flat block of that
        size, where the (l, m) columns of even degree l start at l^2 / 4. Built on
        first use.
        """
        n_orders, l_max = len(self.bandlimits), max(self.bandlimits)
        mu = np.abs(self.orders)
        w = np.where((self.orders < 0) & (mu % 2 == 1), -1.0, 1.0)
        v = np.sign(self.orders) * w
        n_columns = (l_max + 1) ** 2 // 4
        cell = (self.radial_orders * n_columns + self.degrees**2 // 4 + mu) * 2
        plane = 2 * n_orders * n_columns  # the Im rows follow the Re rows
        # Re c -> Re C = w Re c, Im S = v Re c; Im c -> Im C = w Im c, Re S = -v Im c
        targets = np.stack([cell, cell + plane + 1, cell + plane, cell + 1], axis=1).ravel()
        factors = np.stack([w, v, w, -v], axis=1).ravel()
        targets.flags.writeable = factors.flags.writeable = False
        return targets, factors, 2 * plane


def _checked_bandlimits(bandlimits) -> tuple:
    """Band limits as a tuple of ints, each an odd positive integer (11.0 passes, 11.5 not)."""
    bandlimits = tuple(map(_odd_bandlimit, bandlimits))
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
    zero_padded has one. radial._radial_map cuts each from radial.basis:
    the quadrature Q[n, i] = w_i R_n(q_i) on a run all shells carry, else
    pinv(M), M[j, n] = R_n(q_j) on the run's shells. The worst condition
    number is the largest cond(M), 1 when the mode has no collocation matrix.
    """

    radial: RadialScheme
    angular: tuple
    index: StaircaseIndex
    shell_of: np.ndarray
    points: np.ndarray
    radii: np.ndarray
    bvalues: np.ndarray
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

    @functools.cached_property
    def _plan(self):
        """The ring plan of the grid's shells (angular._ring_plan), built on first use."""
        return _ring_plan(self.angular)


def build_grid(
    n_shells: int,
    b_max: float,
    bandlimits,
    convention: BConvention = BConvention(),
    ring_latitudes=None,
    ring_offsets=None,
) -> MultiShellGrid:
    """Build the multi-shell grid for given shell count and band limits.

    The shell count is taken as band limits are: 4.0 passes as 4, and 4.5
    or "4" is refused. Band limits are assigned to shells in ascending b
    order. An assignment that decreases with b is accepted with a warning;
    the coefficient set still counts shells per degree, but pairing richer
    angular sampling with the faster-decaying inner shells is usually
    unintended.

    ring_latitudes and ring_offsets, when given, are per-shell sequences
    of explicit ring placements (None entries keep the built-in layout
    for that shell); they exist so a serialized scheme can be rebuilt
    exactly, custom layouts included.

    Memoised (the most recent 16): the same shell count, b_max as a float,
    convention, band limits and ring placements, bit for bit, give the same
    read-only grid, though the checks and the warning run on every call.
    """
    bandlimits = _checked_bandlimits(bandlimits)
    n_shells = _integer(n_shells, "n_shells")
    if len(bandlimits) != n_shells:
        raise ValueError(f"{n_shells} shells need {n_shells} band limits, got {len(bandlimits)}")
    if bandlimits != tuple(sorted(bandlimits)):
        warnings.warn("band limits decrease with b; inner shells will carry more angular "
                      "detail than outer ones", stacklevel=2)
    ring_latitudes = [None] * n_shells if ring_latitudes is None else ring_latitudes
    ring_offsets = [None] * n_shells if ring_offsets is None else ring_offsets
    if len(ring_latitudes) != n_shells or len(ring_offsets) != n_shells:
        raise ValueError("ring overrides must supply one entry (or None) per shell")
    # keyed on the memoised schemes, so a grid never keeps a scheme its memo has since replaced;
    # the band limits are checked above, so the scheme and index memos are read directly
    keys = map(_exact_key, ring_latitudes), map(_exact_key, ring_offsets)
    schemes = tuple(map(_scheme, bandlimits, *keys))
    indexes = _staircase_index(bandlimits), _staircase_index((max(bandlimits),) * n_shells)
    return _grid(_real(b_max, "b_max"), convention, *indexes, schemes)


@functools.lru_cache(maxsize=16)
def _grid(b_max, convention, index, padded, schemes) -> MultiShellGrid:
    """The grid for build_grid's checked arguments and memoised parts."""
    n_shells = len(schemes)
    radial = _read_only(make_radial_scheme(n_shells, b_max, convention))
    counts = np.array([s.n_points for s in schemes])
    shell_of = np.repeat(np.arange(n_shells), counts)
    points = np.vstack([s.points for s in schemes])
    radii = np.repeat(radial.radii, counts)
    bvalues = np.repeat(radial.bvalues, counts)
    radial_maps = {}
    for mode, mode_index in (("staircase", index), ("zero_padded", padded)):
        maps, conds = zip(*(_radial_map(radial, shells) for shells, _, _ in mode_index.runs))
        radial_maps[mode] = (mode_index, maps, max(conds))
    grid = MultiShellGrid(radial, schemes, index, shell_of, points, radii, bvalues,
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
        _real(self.zeta, "zeta")
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
    """Transform grid samples to coefficients, angularly then radially.

    The ring FFTs of all shells come first, one call per ring size above
    one point across the shells (5 at the defaults). Each shell's ring
    cascade, the rest of its exact angular transform, then fills one column
    of an (l, m) x shell table, zero above its band limit; each run of
    degrees then takes one product with the mode's radial map: the exact
    radial quadrature when every shell carries the run, else the inverse
    collocation matrix. The samples and the mode's radial map are checked
    before any of this work, and every shell's angular conditioning in
    _analyse, the one gate on the stored factors, before the first ring FFT.

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
    values = _flat(samples, grid.n_samples, "samples")
    out_index = _radial_gate(grid, radial_mode)
    out = _from_shells(_analyse(values, grid._plan), grid, radial_mode)
    return SpfCoefficients(out_index, grid.radial.zeta, grid.radial.convention, out)


def _radial_gate(grid: MultiShellGrid, radial_mode: str) -> StaircaseIndex:
    """The mode's output index; ConditioningError unless its radial maps are well conditioned."""
    out_index, _, cond = grid.radial_maps[radial_mode]
    _refuse_ill_conditioned("radial collocation matrix is ill-conditioned", cond)
    return out_index


def _from_shells(table, grid: MultiShellGrid, radial_mode: str) -> np.ndarray:
    """forward_spf's radial half, unchecked: a harmonic table to coefficient table columns.

    The grid's harmonic table (angular._table), (n_shells, rows + 1) or (n_shells, rows + 1, V),
    takes one product per run of degrees with the mode's radial map, on the run's rows and
    shells: zero above a shell's band limit, which zero_padded reads.
    """
    out_index, maps, _ = grid.radial_maps[radial_mode]
    out = np.empty((out_index.size, *table.shape[2:]), dtype=complex)
    by_column, by_shell = out.T, table.reshape(*table.shape[:2], -1).T  # (column, row, shell)
    for (carried, entries, rows), radial_map in zip(out_index.runs, maps):
        solved = by_shell[:, rows][..., carried].reshape(-1, len(carried)) @ radial_map.T
        by_column[..., entries] = solved.reshape(len(by_shell), -1)  # (l, m) by n, row-major
    return out


def _paired(radii, directions, what: str):
    """Non-negative radii and unit directions, one of each per point, and whether both were single.

    One direction pairs with every radius, one radius with every direction,
    else the lengths must match (empty too). what names the radii in errors.
    """
    radii, directions = np.asarray(radii, dtype=float), np.asarray(directions, dtype=float)
    if not (radii >= 0).all():  # written so that NaN fails too
        raise ValueError(f"{what} must be non-negative, not NaN")
    flat, dirs = np.atleast_1d(radii), np.atleast_2d(directions)
    if dirs.ndim != 2 or dirs.shape[1] != 3:
        raise ValueError(f"directions must have 3 components, got shape {directions.shape}")
    # |u| within 1e-6 of 1 is |u|^2 within 2e-6 of 1 + 1e-12; written so that NaN fails too
    if not (np.abs(np.einsum("ij,ij->i", dirs, dirs) - (1.0 + 1e-12)) <= 2e-6).all():
        raise ValueError("directions must be unit vectors")
    if flat.ndim != 1:
        raise ValueError(f"{what} must be a scalar or a flat array")
    if len(flat) == 1:
        flat = flat.repeat(len(dirs))
    elif len(dirs) == 1:
        dirs = np.broadcast_to(dirs, (len(flat), 3))
    elif len(flat) != len(dirs):
        raise ValueError(f"{len(flat)} {what} do not pair with {len(dirs)} directions")
    return flat, dirs, directions.ndim == 1 and radii.ndim == 0


# inverse_spf's points per block. Its one work buffer holds 6 l_max + 2 N floats per point and
# the rows of its widest GEMM run (_degree_runs), 1.5 MB in all at the default band limits;
# larger blocks run faster but hold more memory
_BLOCK = 2048


@functools.lru_cache(maxsize=64)
def _degree_runs(l_max: int, n_orders: int, n_points: int):
    """inverse_spf's GEMMs on blocks of n_points: runs of adjacent even degrees, and the widest.

    Degree l's harmonic rows are its l + 1 (cos, sin) columns from l^2 / 4 on, 2 (l + 1)
    n_points floats. A run takes degrees while their rows fit in the 2 n_orders _BLOCK
    floats the sums take in a full block, or holds one degree alone: a small block makes
    one GEMM for all its degrees, a full block about one per degree, and at any l_max a
    run's rows stay few enough to stay in cache while the recurrence makes its next degrees.
    Returns ((first column, end column, last degree) per run, the most columns in one run).
    """
    runs, first = [], 0
    for l in range(2, l_max, 2):
        if ((l + 2) ** 2 // 4 - first) * n_points > n_orders * _BLOCK:
            runs.append((first, l * l // 4, l - 2))
            first = l * l // 4
    runs.append((first, (l_max + 1) ** 2 // 4, l_max - 1))
    return tuple(runs), max(end - first for first, end, _ in runs)


def inverse_spf(coeffs: SpfCoefficients, directions, q=None, b=None):
    """Evaluate the expansion at arbitrary q-space locations.

    The value is the full triple sum over the coefficient table, so it is
    defined for any radius and any unit direction, on or off the grid.
    Pass exactly one of q (radius) or b (b-value in the table's
    convention). Directions and radii broadcast: one direction with many
    radii, many directions with one radius, or matched arrays (empty too).

    The sum goes degree by degree, over a fixed-size block of points at a
    time: each even degree's harmonic rows P_l^m cos(m phi), P_l^m sin(m phi)
    are gathered with those of the degrees before it, and each run of
    degrees takes one real GEMM against its coefficients, +m and -m
    together; the radial table weights the total. A run ends where its rows
    would outgrow the room the sums take in a full block, so a small batch
    makes one GEMM in all. Memory beyond the points and the result is
    bounded by the block, whatever the batch, and every block reuses one
    work buffer.
    """
    if (q is None) == (b is None):
        raise ValueError("pass exactly one of q or b")
    values = _finite_values(coeffs)
    if b is None:
        qv, dirs, scalar = _paired(q, directions, "radii")
    else:
        qv, dirs, scalar = _paired(b, directions, "b-values")
        qv = coeffs.convention.q_from_b(qv)

    n_orders, l_max = len(coeffs.index.bandlimits), max(coeffs.index.bandlimits)
    targets, factors, n_parts = coeffs.index._harmonic_layout
    parts = np.bincount(targets, values.view(float).repeat(2) * factors, n_parts)
    parts = parts.reshape(2 * n_orders, -1)

    out = np.empty(len(qv), dtype=complex)
    # one buffer for every block: the Legendre recurrence's, e^(i m phi), the sums and the
    # harmonic rows, so no block hands pages back to the allocator for the next to fault in
    size = min(len(qv), _BLOCK)
    runs, width = _degree_runs(l_max, n_orders, size)
    fixed = 6 * l_max + 2 * n_orders
    work = np.empty((fixed + 2 * width) * size)
    for start in range(0, len(qv), _BLOCK):
        block = slice(start, start + _BLOCK)
        phi = np.arctan2(dirs[block, 1], dirs[block, 0])
        n, rows_n = len(phi), l_max * len(phi)
        legendre_work = work[: 4 * rows_n].reshape(4, l_max, n)
        waves = work[4 * rows_n : 6 * rows_n].view(complex).reshape(l_max, n)
        acc = work[6 * rows_n : fixed * n].reshape(2 * n_orders, n)
        harmonics = work[fixed * n : (fixed + 2 * width) * n].reshape(width, 2, n)
        # e^(i m phi) for m < l_max: each pass takes the m known, m < k, to m < 2k - 1
        # by e^(i (k - 1 + j) phi) = e^(i (k - 1) phi) e^(i j phi)
        waves[0], waves[1:2] = 1.0, np.exp(1j * phi)
        k = 2
        while k < l_max:
            new = min(k - 1, l_max - k)
            np.multiply(waves[1 : 1 + new], waves[k - 1], out=waves[k : k + new])
            k += new
        waves = waves.view(float).reshape(l_max, n, 2).transpose(0, 2, 1)  # (m, cos/sin, point)
        legendre = enumerate(
            _legendre_by_degree(l_max - 1, np.clip(dirs[block, 2], -1.0, 1.0), legendre_work))
        for first, end, last in runs:
            held = harmonics[: end - first]
            for l, leg in legendre:
                if l % 2 == 0:
                    column = l * l // 4 - first
                    np.multiply(waves[: l + 1], leg[:, None], out=held[column : column + l + 1])
                    if l == last:
                        break
            if first:
                acc += parts[:, 2 * first : 2 * end] @ held.reshape(-1, n)
            else:
                np.matmul(parts[:, : 2 * end], held.reshape(-1, n), out=acc)
        # weight by R_n(q) and sum over n straight into out's (Re, Im) pairs
        acc = acc.reshape(2, n_orders, n)
        acc *= _basis_table(qv[block], n_orders, coeffs.zeta)
        acc.sum(axis=1, out=out[block].view(float).reshape(n, 2).T)
    return complex(out[0]) if scalar else out


def synthesize_on_grid(coeffs: SpfCoefficients, grid: MultiShellGrid) -> np.ndarray:
    """Render coefficients as grid samples, each shell at its band limit.

    This is the sampling operator the forward transform inverts: shell i
    receives only degrees below its own band limit L_i, since the shell's
    angular scheme cannot carry more. forward_spf(grid, result) returns
    the coefficients (restricted to the grid's staircase set) to rounding.
    For tables with content above a shell's band limit (zero-padded mode,
    or a grid with lower limits), that content is dropped shell by shell,
    which is where this differs from pointwise inverse_spf evaluation.
    A table with more radial orders than the grid has shells is refused.
    Each shell folds its harmonic coefficients onto its ring bins, and the
    inverse ring FFTs of all shells take one call per ring size above one
    point, so the result is bit for bit the concatenated per-shell
    inverse_sht.
    """
    if abs(coeffs.zeta - grid.radial.zeta) > 1e-9 * max(coeffs.zeta, grid.radial.zeta):
        raise ValueError("coefficient table and grid use different radial scales")
    if len(coeffs.index.bandlimits) > grid.n_shells:
        raise ValueError("coefficient table has more radial orders than the grid has shells")
    return _synthesise(_to_shells(coeffs.values[:, None], coeffs.index, grid)[..., 0], grid._plan)


def _to_shells(values, index: StaircaseIndex, grid: MultiShellGrid, out=None) -> np.ndarray:
    """synthesize_on_grid's radial half: table columns to the grid's harmonic table.

    values is (index.size, V). Row (l, m), column v, shell i of the harmonic table
    (angular._table), (n_shells, rows + 1, V), is sum_n c_{n,l,m,v} R_n(q_i), one product per
    run of degrees, written into out when given (a table or a view of one, V columns). Shell i
    keeps its leading rows, which must be finite; its rows from its n_points up are zero.
    """
    basis, width = grid.radial.basis, values.shape[1]
    out = _table(grid._plan, (width,)) if out is None else out
    for carried, entries, rows in index.runs:
        n, shells = len(carried), out[:, rows]  # no rows past out's, whatever the index's
        product = values[entries].reshape(-1, n, width).swapaxes(1, 2).reshape(-1, n) @ basis[:n]
        shells[:] = product.reshape(-1, width, grid.n_shells)[: shells.shape[1]].transpose(2, 0, 1)
    for shell, s in zip(out, grid.angular):
        shell[min(s.n_points, index.runs[-1][2].stop) :] = 0.0
    if not np.isfinite(out).all():
        raise ValueError("coefficients must be finite")
    return out

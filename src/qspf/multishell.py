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

staircase_index owns the table layout: one (l, carrying shells, slice)
block per even degree, m-major and n-minor, plus per-entry n, l, m and
conjugate-partner arrays; every transform walks those. Each radial
mode's maps depend only on the grid, so build_grid makes them once: per
degree, the output block and the map, either quadrature columns or the
pseudo-inverse of a collocation matrix with its condition number.
forward_spf then runs one path: check, gather, apply, write the block.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .angular import ShCoefficients, _sh_position, forward_sht, inverse_sht, make_angular_scheme
from .errors import ConditioningError
from .radial import (
    COLLOCATION_COND_LIMIT,
    BConvention,
    RadialScheme,
    _basis_table,
    make_radial_scheme,
)
from .specfun import normalized_legendre

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
    is the number of shells whose band limit exceeds l. blocks holds one
    (l, carrying shells, slice) per even degree; a block is m-major,
    n-minor. Entry k is (radial_orders[k], degrees[k], orders[k]), and
    partner[k] is the position of its (n, l, -m) entry.
    """

    bandlimits: tuple
    blocks: tuple = field(repr=False)
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

    def n_per_degree(self, l: int) -> int:
        return len(self.shells_for_degree(l))

    def shells_for_degree(self, l: int) -> tuple:
        # band limits are odd, so odd degree l has the carrying shells of l + 1
        return next((shells for _, shells, _ in self.blocks[max(l + 1, 0) // 2 :]), ())

    def locate(self, n: int, l: int, m: int) -> int:
        if l % 2 == 0 and 0 <= l < max(self.bandlimits):
            _, shells, block = self.blocks[l // 2]
            if 0 <= n < len(shells) and -l <= m <= l:
                return block.start + (m + l) * len(shells) + n
        raise ValueError(f"(n={n}, l={l}, m={m}) is outside the coefficient set")


def _checked_bandlimits(bandlimits) -> tuple:
    bandlimits = tuple(int(L) for L in bandlimits)
    if not bandlimits:
        raise ValueError("need at least one band limit")
    for L in bandlimits:
        if L < 1 or L % 2 == 0:
            raise ValueError(f"band limits must be odd and positive, got {L}")
    return bandlimits


def staircase_index(bandlimits) -> StaircaseIndex:
    """Enumerate the recoverable (n, l, m) set for per-shell band limits."""
    bandlimits = _checked_bandlimits(bandlimits)
    limits = np.array(bandlimits)
    degrees = np.arange(0, limits.max(), 2)
    n_l = np.count_nonzero(limits > degrees[:, None], axis=1)
    sizes = (2 * degrees + 1) * n_l
    starts = np.cumsum(sizes) - sizes
    blocks = tuple(
        (int(l), tuple(np.flatnonzero(limits > l).tolist()), slice(int(a), int(a + k)))
        for l, a, k in zip(degrees, starts, sizes)
    )
    n_of, l_of = np.repeat(n_l, sizes), np.repeat(degrees, sizes)
    offset = np.arange(sizes.sum()) - np.repeat(starts, sizes)
    orders = offset // n_of - l_of
    # the block is m-major, so (n, l, -m) sits 2 m N_l positions before (n, l, m)
    partner = np.arange(sizes.sum()) - 2 * orders * n_of
    return StaircaseIndex(bandlimits, blocks, offset % n_of, l_of, orders, partner)


@dataclass(frozen=True, eq=False)
class MultiShellGrid:
    """Joint radial and angular sampling scheme.

    Flat sample arrays are shell-major (all of shell 0, then shell 1, ...)
    and ring-major within each shell, matching the angular schemes' point
    order. The radial maps depend only on the grid and are built with it:
    radial_maps takes each radial mode to (output index, steps), one step
    (l, block, carrying shells, map, cond) per even degree. A map is the
    carrying shells' quadrature columns w_i R_n(q_i), cond 1, or for a
    staircase degree some shell leaves out pinv(M), cond(M), M[j, n] = R_n(q_j).
    """

    radial: RadialScheme
    angular: tuple
    index: StaircaseIndex
    shell_of: np.ndarray
    points: np.ndarray
    radii: np.ndarray
    bvalues: np.ndarray
    shell_starts: np.ndarray
    radial_maps: dict = field(repr=False)

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
    """
    bandlimits = tuple(int(L) for L in bandlimits)
    if len(bandlimits) != n_shells:
        raise ValueError(f"{n_shells} shells need {n_shells} band limits, got {len(bandlimits)}")
    index = staircase_index(bandlimits)
    if any(b > a for a, b in zip(bandlimits[1:], bandlimits)):
        warnings.warn(
            "band limits decrease with b; inner shells will carry more angular "
            "detail than outer ones",
            stacklevel=2,
        )
    if ring_latitudes is None:
        ring_latitudes = [None] * n_shells
    if ring_offsets is None:
        ring_offsets = [None] * n_shells
    if len(ring_latitudes) != n_shells or len(ring_offsets) != n_shells:
        raise ValueError("ring overrides must supply one entry (or None) per shell")
    radial = make_radial_scheme(n_shells, b_max, convention)
    cache = {}
    schemes = []
    for L, lat, off in zip(bandlimits, ring_latitudes, ring_offsets):
        if lat is None and off is None:
            if L not in cache:
                cache[L] = make_angular_scheme(L)
            schemes.append(cache[L])
        else:
            schemes.append(make_angular_scheme(L, thetas=lat, phi_offsets=off))
    schemes = tuple(schemes)
    counts = np.array([s.n_points for s in schemes])
    shell_starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    shell_of = np.repeat(np.arange(n_shells), counts)
    points = np.vstack([s.points for s in schemes])
    radii = np.repeat(radial.radii, counts)
    bvalues = np.repeat(radial.bvalues, counts)
    quadrature = _basis_table(radial.radii, n_shells, radial.zeta) * radial.weights
    padded = staircase_index((max(bandlimits),) * n_shells)
    staircase, zero_padded, collocation = [], [], {}
    for (l, shells, block), (_, _, padded_block) in zip(index.blocks, padded.blocks):
        # zero_padded reads the other shells' degree-l values as zero
        quadrature_step = (quadrature[:, shells], 1.0)
        zero_padded.append((l, padded_block, shells) + quadrature_step)
        if len(shells) < n_shells and shells not in collocation:
            # pinv never raises: an ill-conditioned grid still serves zero_padded
            matrix = _basis_table(radial.radii[list(shells)], len(shells), radial.zeta).T
            collocation[shells] = (np.linalg.pinv(matrix), float(np.linalg.cond(matrix)))
        staircase.append((l, block, shells) + collocation.get(shells, quadrature_step))
    return MultiShellGrid(
        radial=radial,
        angular=schemes,
        index=index,
        shell_of=shell_of,
        points=points,
        radii=radii,
        bvalues=bvalues,
        shell_starts=shell_starts,
        radial_maps={"staircase": (index, staircase), "zero_padded": (padded, zero_padded)},
    )


@dataclass
class SpfCoefficients:
    """Coefficient table over a staircase index set.

    values[k] holds the coefficient for index.entries[k]; zeta and the
    b convention pin down the radial basis the table refers to.
    """

    index: StaircaseIndex
    zeta: float
    convention: BConvention
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.index.size,):
            raise ValueError(
                f"index has {self.index.size} entries, values have shape {self.values.shape}"
            )

    @classmethod
    def zeros(cls, index: StaircaseIndex, zeta: float, convention: BConvention):
        return cls(index, zeta, convention, np.zeros(index.size, dtype=complex))

    def get(self, n: int, l: int, m: int) -> complex:
        return complex(self.values[self.index.locate(n, l, m)])

    def set(self, n: int, l: int, m: int, value) -> None:
        self.values[self.index.locate(n, l, m)] = value

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
        m = self.index.orders
        c = np.where(m < 0, self.values[self.index.partner], self.values)
        sign = np.where(m % 2, -1.0, 1.0)
        return np.where(m == 0, c.real, np.sqrt(2.0) * sign * np.where(m > 0, c.real, -c.imag))


def forward_spf(grid: MultiShellGrid, samples, radial_mode: str = "staircase") -> SpfCoefficients:
    """Transform grid samples to coefficients, shell by shell then radially.

    Each shell goes through its exact angular transform; each degree l
    then goes through the mode's radial map from the grid: the exact
    radial quadrature when every shell carries degree l, or the inverse
    of the collocation matrix on the shells that do.

    radial_mode "staircase" (default) returns the bijective coefficient
    set. Mode "zero_padded" instead treats degrees above a shell's band
    limit as zero-valued on that shell and runs the quadrature for every
    degree over all shells, returning a uniform table of n_shells radial
    orders per degree (264 entries at the defaults). That variant is not
    a bijection but keeps the pure-quadrature radial path for every row.

    Raises
    ------
    ConditioningError
        Propagated from the angular transform, or raised in staircase
        mode when a degree's collocation matrix has condition number
        above 1e8.
    """
    if radial_mode not in ("staircase", "zero_padded"):
        raise ValueError(f"unknown radial_mode {radial_mode!r}")
    values = np.asarray(samples)
    if values.shape != (grid.n_samples,):
        raise ValueError(f"grid has {grid.n_samples} samples, got values of shape {values.shape}")
    per_shell = [
        forward_sht(values[grid.shell_slice(i)], grid.angular[i]).values
        for i in range(grid.n_shells)
    ]
    out_index, steps = grid.radial_maps[radial_mode]
    out = np.empty(out_index.size, dtype=complex)
    for l, block, shells, radial_map, cond in steps:
        if not cond < COLLOCATION_COND_LIMIT:
            raise ConditioningError("radial collocation matrix is ill-conditioned", cond)
        sh_block = slice(_sh_position(l, -l), _sh_position(l, l) + 1)
        rows = np.stack([per_shell[i][sh_block] for i in shells])
        out[block] = (radial_map @ rows).T.ravel()
    return SpfCoefficients(out_index, grid.radial.zeta, grid.radial.convention, out)


def _unit_directions(directions):
    """Directions as an (n, 3) array of unit vectors, and whether one 3-vector was given."""
    directions = np.asarray(directions, dtype=float)
    dirs = np.atleast_2d(directions)
    if dirs.ndim != 2 or dirs.shape[1] != 3:
        raise ValueError(f"directions must have 3 components, got shape {directions.shape}")
    # written so that a NaN component fails too
    if not np.all(np.abs(np.linalg.norm(dirs, axis=1) - 1.0) <= 1e-6):
        raise ValueError("directions must be unit vectors")
    return dirs, directions.ndim == 1


def inverse_spf(coeffs: SpfCoefficients, directions, q=None, b=None):
    """Evaluate the expansion at arbitrary q-space locations.

    The value is the full triple sum over the coefficient table, so it is
    defined for any radius and any unit direction, on or off the grid.
    Pass exactly one of q (radius) or b (b-value in the table's
    convention). Directions and radii broadcast: one direction with many
    radii, many directions with one radius, or matched arrays.
    """
    if (q is None) == (b is None):
        raise ValueError("pass exactly one of q or b")
    if b is not None:
        q = coeffs.convention.q_from_b(b)
    q = np.asarray(q, dtype=float)
    if np.any(q < 0):
        raise ValueError("radii must be non-negative")
    dirs, one_direction = _unit_directions(directions)
    scalar = one_direction and q.ndim == 0
    qv = np.atleast_1d(q)
    if qv.ndim != 1:
        raise ValueError("q must be a scalar or a flat array")
    if len(qv) == 1 and len(dirs) > 1:
        qv = np.full(len(dirs), qv[0])
    elif len(dirs) == 1 and len(qv) > 1:
        dirs = np.broadcast_to(dirs, (len(qv), 3))
    elif len(qv) != len(dirs):
        raise ValueError(f"{len(qv)} radii do not pair with {len(dirs)} directions")

    theta = np.arccos(np.clip(dirs[:, 2], -1.0, 1.0))
    phi = np.arctan2(dirs[:, 1], dirs[:, 0])
    l_max = max(coeffs.index.bandlimits)
    ptab = normalized_legendre(l_max - 1, np.cos(theta))
    rtab = _basis_table(qv, len(coeffs.index.bandlimits), coeffs.zeta)

    # one order at a time keeps every temporary at one value per point
    out = np.zeros(dirs.shape[0], dtype=complex)
    for m in range(1 - l_max, l_max):
        acc = np.zeros(dirs.shape[0], dtype=complex)
        for l, shells, _ in coeffs.index.blocks[(abs(m) + 1) // 2 :]:
            n_l, start = len(shells), coeffs.index.locate(0, l, m)
            acc += (coeffs.values[start : start + n_l] @ rtab[:n_l]) * ptab[l, abs(m)]
        out += (-1.0 if m < 0 and m % 2 else 1.0) * acc * np.exp(1j * m * phi)
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
    """
    if abs(coeffs.zeta - grid.radial.zeta) > 1e-9 * max(coeffs.zeta, grid.radial.zeta):
        raise ValueError("coefficient table and grid use different radial scales")
    rtab = _basis_table(grid.radial.radii, len(coeffs.index.bandlimits), coeffs.zeta)
    per_shell = [ShCoefficients.zeros(L) for L in grid.bandlimits]
    for l, shells, block in coeffs.index.blocks:
        # row m, column i: sum_n c_{n,l,m} R_n(q_i)
        on_shells = coeffs.values[block].reshape(2 * l + 1, len(shells)) @ rtab[: len(shells)]
        for i in grid.index.shells_for_degree(l):
            per_shell[i].values[_sh_position(l, -l) : _sh_position(l, l) + 1] = on_shells[:, i]
    return np.concatenate([inverse_sht(c, s) for c, s in zip(per_shell, grid.angular)])

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

Each degree's radial map depends only on the grid, so build_grid makes
it once: the quadrature matrix, plus, for each set of carrying shells
that leaves a shell out, the collocation matrix and its condition
number. Both radial modes then share one path: per degree, gather the
carrying shells' harmonic coefficients, apply the stored map (zero_padded
uses the quadrature columns of the carrying shells), and write the
degree's block of the table.
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
    is the number of shells whose band limit exceeds l. orders[k] is the
    m of entry k and partner[k] the position of its (n, l, -m) entry.
    """

    bandlimits: tuple
    entries: tuple
    position: dict = field(repr=False)
    orders: np.ndarray = field(repr=False)
    partner: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.entries)

    def n_per_degree(self, l: int) -> int:
        return sum(1 for L in self.bandlimits if L > l)

    def shells_for_degree(self, l: int) -> tuple:
        return tuple(i for i, L in enumerate(self.bandlimits) if L > l)

    def locate(self, n: int, l: int, m: int) -> int:
        try:
            return self.position[(n, l, m)]
        except KeyError:
            raise ValueError(f"(n={n}, l={l}, m={m}) is outside the coefficient set") from None


def staircase_index(bandlimits) -> StaircaseIndex:
    """Enumerate the recoverable (n, l, m) set for per-shell band limits."""
    bandlimits = tuple(int(L) for L in bandlimits)
    if not bandlimits:
        raise ValueError("need at least one band limit")
    for L in bandlimits:
        if L < 1 or L % 2 == 0:
            raise ValueError(f"band limits must be odd and positive, got {L}")
    entries = []
    partner = []
    for l in range(0, max(bandlimits), 2):
        n_l = sum(1 for L in bandlimits if L > l)
        for m in range(-l, l + 1):
            entries.extend((n, l, m) for n in range(n_l))
        # the degree block is m-major, so (n, l, -m) sits at the m-reversed row
        block = np.arange(len(entries) - (2 * l + 1) * n_l, len(entries))
        partner.append(block.reshape(2 * l + 1, n_l)[::-1].ravel())
    entries = tuple(entries)
    position = {key: pos for pos, key in enumerate(entries)}
    orders = np.array([m for _, _, m in entries])
    return StaircaseIndex(bandlimits, entries, position, orders, np.concatenate(partner))


def _degree_blocks(index: StaircaseIndex):
    """Yield (l, N_l, positions) per even degree; a block is m-major, n-minor."""
    start = 0
    for l in range(0, max(index.bandlimits), 2):
        n_l = index.n_per_degree(l)
        stop = start + (2 * l + 1) * n_l
        yield l, n_l, slice(start, stop)
        start = stop


@dataclass(frozen=True, eq=False)
class MultiShellGrid:
    """Joint radial and angular sampling scheme.

    Flat sample arrays are shell-major (all of shell 0, then shell 1, ...)
    and ring-major within each shell, matching the angular schemes' point
    order. The radial maps depend only on the grid and are built with it:
    radial_quadrature[n, i] = w_i R_n(q_i) serves every degree all shells
    carry. radial_collocation maps each tuple of carrying shells that
    leaves some shell out to (M, cond(M)), M[j, n] = R_n(q_shells[j]).
    """

    radial: RadialScheme
    angular: tuple
    index: StaircaseIndex
    shell_of: np.ndarray
    points: np.ndarray
    radii: np.ndarray
    bvalues: np.ndarray
    shell_starts: np.ndarray
    radial_quadrature: np.ndarray = field(repr=False)
    radial_collocation: dict = field(repr=False)

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
    collocation = {}
    for l in range(0, max(bandlimits), 2):
        shells = index.shells_for_degree(l)
        if len(shells) < n_shells and shells not in collocation:
            matrix = _basis_table(radial.radii[list(shells)], len(shells), radial.zeta).T
            collocation[shells] = (matrix, float(np.linalg.cond(matrix)))
    return MultiShellGrid(
        radial=radial,
        angular=schemes,
        index=index,
        shell_of=shell_of,
        points=points,
        radii=radii,
        bvalues=bvalues,
        shell_starts=shell_starts,
        radial_quadrature=_basis_table(radial.radii, n_shells, radial.zeta) * radial.weights,
        radial_collocation=collocation,
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
    then goes through its radial map from the grid: the exact radial
    quadrature when every shell carries degree l, or a direct collocation
    solve on the shells that do.

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
    if radial_mode == "zero_padded":
        out_index = staircase_index((max(grid.bandlimits),) * grid.n_shells)
    else:
        out_index = grid.index
    out = np.empty(out_index.size, dtype=complex)
    for l, _, block in _degree_blocks(out_index):
        shells = grid.index.shells_for_degree(l)
        sh_block = slice(_sh_position(l, -l), _sh_position(l, l) + 1)
        rows = np.stack([per_shell[i][sh_block] for i in shells])
        if radial_mode == "staircase" and shells in grid.radial_collocation:
            matrix, cond = grid.radial_collocation[shells]
            if not cond < COLLOCATION_COND_LIMIT:
                raise ConditioningError("radial collocation matrix is ill-conditioned", cond)
            solved = np.linalg.solve(matrix, rows)
        else:
            # zero_padded reads the quadrature over the carrying shells only;
            # the other shells' degree-l values are zero
            solved = grid.radial_quadrature[:, shells] @ rows
        out[block] = solved.T.ravel()
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

    out = np.zeros(dirs.shape[0], dtype=complex)
    for pos, (n, l, m) in enumerate(coeffs.index.entries):
        c = coeffs.values[pos]
        if c == 0:
            continue
        mu = abs(m)
        ang = ptab[l, mu, :] * np.exp(1j * m * phi)
        if m < 0 and mu % 2:
            ang = -ang
        out += c * rtab[n] * ang
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
    for l, n_l, block in _degree_blocks(coeffs.index):
        # row m, column i: sum_n c_{n,l,m} R_n(q_i)
        on_shells = coeffs.values[block].reshape(2 * l + 1, n_l) @ rtab[:n_l]
        for i, shell_coeffs in enumerate(per_shell):
            if l < shell_coeffs.bandlimit:
                shell_coeffs.values[_sh_position(l, -l) : _sh_position(l, l) + 1] = on_shells[:, i]
    return np.concatenate([inverse_sht(c, s) for c, s in zip(per_shell, grid.angular)])

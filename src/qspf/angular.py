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

Both transforms keep the per-ring FFT bins in one flat array, so order m
sits at ring k's first bin + m mod n_k on all rings at once. Ring k holds
4k+1 samples on every scheme that has it, so the ring FFTs of several
schemes laid end to end take one np.fft call per ring index, a 2-D call
with one row per scheme, and ring 0, one point, takes none: a grid's
shells at band limits 3/5/9/11 take 5 calls instead of 16, at 15/25/41/63
31 instead of 74. The forward transform gathers its samples into ring
order, ring k of every scheme one after another, and the inverse's fold
writes its bins in that order, so each ring index is one slice,
transformed in place, and one gather puts the result in sample order.
The transforms' two halves, _analyse and _synthesise, work that way on
the ring plan (_RingPlan) of any tuple of schemes, its index arrays
read-only. A scheme holds the plan of itself alone, for forward_sht and
inverse_sht, and a grid the plan of its shells, for forward_spf and
synthesize_on_grid: each is built on first use and lives as long as its
scheme or grid. Their coefficients are one harmonic table (_table), which
the radial halves in multishell take and give too: row r = l(l+1)/2 + m
of scheme i holds its (l, m) coefficient, and its rows from its own
n_points up are zero.

Samples, bins and coefficients may also carry a trailing column axis,
(n, V): V signals through the same schemes at once. Every step of either
half then handles all V columns in the calls one column takes, the ring
FFTs, each ring step's gather, its R^-1 (Q^T rhs) on 4V columns, its
spill and the one np.bincount; run_validation sends both its round trips
through that way, a chunk of draws per pass. A flat (n,) array is the
one-column case of the same code, and it is what forward_sht and
inverse_sht pass, so one voxel keeps numpy's 1-D indexing. A column comes
out bit for bit as alone while every ring system has fewer than 16
unknowns (band limits below 31); from 16 on, OpenBLAS takes another
kernel for the wider products and the columns round apart.
Only the FFT bins depend on the samples. make_angular_scheme stores the
rest as arrays indexed by |m| (see AngularScheme), with each ring's
Legendre systems QR-factored once, and both transforms read them directly.
A scheme not below the 1e8 condition limit stores no factors, and _analyse,
the one code that applies them, refuses it before its first ring FFT: every
forward transform, of one shell or of a grid, passes that one gate.
+m and -m share one real matrix, so per ring the forward transform applies
the stored Q^T, then R^-1, to Re and Im of +-|m| as four columns per
order, and takes their spill off the smaller rings' bins with a
np.subtract.at. The inverse gathers every scheme's coefficients at once,
adds all orders of a scheme in one batched matmul, and one np.bincount
over the Re and Im slots of every scheme's bins folds them all. Both
scatters add up the bins +m and -m share on ring 0 and wherever 4k+1
divides m, bincount each bin from 0.0 in index order, as np.add.at would.

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
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import COND_LIMIT, _as_int, _refuse_ill_conditioned
from .specfun import _legendre_by_degree

__all__ = [
    "AngularScheme",
    "make_angular_scheme",
    "forward_sht",
    "inverse_sht",
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
    negative odd m, and positions[mu, j] the row of (2j, m) in the
    coefficient array, or -1 for 2j < mu and for -0: the last row of a
    harmonic table (see _table), which stays zero.
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

    @functools.cached_property
    def _plan(self) -> _RingPlan:
        """The ring plan of this scheme alone, built on first use."""
        return _ring_plan((self,))


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
    L = _as_int(bandlimit)
    if L is None or L < 1 or L % 2 == 0:
        raise ValueError(f"band limit must be an odd positive integer, got {bandlimit!r}")
    # 133 is the largest L whose built-in layout forward_sht accepts: worst per-order condition
    # 9.6e7 at L = 133, 1.31e8 at 135, against COND_LIMIT = 1e8; it also bounds the L^2 tables
    if L > 133:
        raise ValueError(f"band limit {L} is above 133, the largest the transform inverts")
    return L


def _flat(values, count: int, what: str) -> np.ndarray:
    """values as an array; ValueError unless it holds count finite numbers (bool to complex)."""
    values = np.asarray(values)
    if values.shape != (count,):
        raise ValueError(f"expected {count} {what}, got shape {values.shape}")
    if values.dtype.kind not in "biufc":  # np.isfinite raises TypeError on strings and objects
        raise ValueError(f"{what} must be numbers, got dtype {values.dtype}")
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
    """The scheme for a checked band limit and exact placement keys (_exact_key)."""
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
    rows = np.zeros((bandlimit, n_rings, n_rings))  # P_l^mu = 0 at l = 2j < mu
    for l, leg in enumerate(_legendre_by_degree(bandlimit - 1, np.cos(thetas))):
        if l % 2 == 0:
            rows[: l + 1, :, l // 2] = leg
    # order mu is solved on the rings from (mu + 1) // 2 on: ring f's step stacks |m| = 2f, 2f - 1
    stacks = [rows[2 * f :: -1][:2, f:, f:] for f in range(n_rings)]  # ring 0: just 0
    conditions = np.concatenate([np.linalg.cond(stack)[::-1] for stack in stacks])  # mu ascending
    factors = []
    if conditions.max() < COND_LIMIT:  # else _analyse refuses the scheme before any step
        for q, r in map(np.linalg.qr, stacks):
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
    # (order mu, ring or degree, sign): m = +mu, -mu; -0 and l < mu point at the table's last row
    mu, sign = np.arange(bandlimit)[:, None, None], np.array([1, -1])
    m = mu * sign
    bins = ring_starts[:, None] + m % ring_sizes[:, None]
    phase = np.where((m < 0) & (m % 2 == 1), -1.0, 1.0) * np.exp(1j * m * phi_offsets[:, None])
    l = 2 * np.arange(n_rings)[:, None]
    positions = np.where((l >= mu) & ((mu > 0) | (sign > 0)), _sh_position(l, m), -1)
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
    return _analyse(_flat(values, scheme.n_points, "samples"), scheme._plan)[0, :-1]


def _table(plan: _RingPlan, columns: tuple = ()) -> np.ndarray:
    """A zero harmonic table, (len(plan.schemes), plan.rows, *columns).

    Row r of scheme i holds its coefficient at r; its rows from its own n_points up stay
    zero, the last row too, where its positions of -1 (-0 and l < |m|) point.
    """
    return np.zeros((len(plan.schemes), plan.rows, *columns), dtype=complex)


def _analyse(values, plan: _RingPlan) -> np.ndarray:
    """forward_sht of the samples of the plan's schemes laid end to end, as their _table.

    Samples (n,) or (n, V) give a (len(schemes), plan.rows) or (len(schemes), plan.rows, V)
    table. The one code that applies the stored factors, so the gate: it refuses the first
    scheme whose condition is not below COND_LIMIT before any ring FFT.
    """
    for scheme in plan.schemes:
        _refuse_ill_conditioned("angular scheme is too ill-conditioned for a trustworthy transform",
                                scheme.condition)
    bins, start = _ring_dft(np.asarray(values, dtype=complex), plan), 0
    table = _table(plan, bins.shape[1:])
    for scheme, out in zip(plan.schemes, table):
        _solve_rings(bins[start : start + scheme.n_points], scheme, out)
        start += scheme.n_points
    table[:, -1] = 0.0  # where the cascade wrote -0
    return table


def _solve_rings(bins, scheme: AngularScheme, out: np.ndarray) -> None:
    """forward_sht's ring cascade on one shell's FFT bins, which it uses up as it goes.

    The bins are (n_points,) or (n_points, V); the coefficients go to out's
    rows, one shell of a harmonic table, and -0 to its last row.
    """
    columns = bins.shape[1:]
    phase = scheme.phase.reshape(scheme.phase.shape + (1,) * len(columns))
    unphase = phase.conj()
    for f in reversed(range(len(scheme.rings))):
        # ring f first resolves |m| = 2f, 2f - 1 (ring 0: just 0); neither reads the other's spill
        pair, (qt, rinv) = slice(2 * f, 2 * f - 2 if f else None, -1), scheme.factors[f]
        # (order, ring, sign of m, columns): Re and Im of every column of +mu, then of -mu
        rhs = bins[scheme.bins[pair, f:]] * unphase[pair, f:]
        solved = rinv @ (qt @ rhs.reshape(rhs.shape[:2] + (-1,)).view(float))
        out[scheme.positions[pair, f:]] = solved.view(complex).reshape(rhs.shape)
        if f:  # lower orders read these bins on rings too small to separate the pair
            lower = scheme.bins[pair, :f]
            spill = (scheme.rows[pair, :f, f:] @ solved).view(complex)
            np.subtract.at(bins, lower, spill.reshape(lower.shape + columns) * phase[pair, :f])


def inverse_sht(coeffs, scheme: AngularScheme) -> np.ndarray:
    """Evaluate a coefficient array on the scheme's sample points.

    Returns a complex array in ring-major point order; real-signal
    coefficient sets come back real up to rounding. Runs through folded
    per-ring inverse FFTs, which reproduce the direct harmonic sum exactly
    for band-limited coefficients. ValueError unless coeffs holds
    scheme.n_points finite values.
    """
    coeffs = _flat(coeffs, scheme.n_points, "coefficients")
    return _synthesise(np.append(coeffs, 0j)[None], scheme._plan)  # a one-shell harmonic table


def _synthesise(table, plan: _RingPlan) -> np.ndarray:
    """inverse_sht of a harmonic table (see _table), unchecked: the samples laid end to end.

    A (len(schemes), plan.rows) or (len(schemes), plan.rows, V) table of the plan's schemes
    gives samples (n,) or (n, V). One gather takes every scheme's coefficients to its
    (order, degree, sign) layout and lets the table go, one batched matmul per scheme makes
    their (order, ring, sign) content, one product applies every phase, and one np.bincount
    adds all of it into the Re and Im slots of the bins of every scheme and column, each bin
    from 0.0 in the order np.add.at would take.
    """
    columns = table.shape[2:]
    width, n = math.prod(columns), len(plan.order)
    # (entry, columns): each scheme's entries are its (order, degree or ring, sign of m)
    by_degree = table.reshape(-1, *columns)[plan.positions]
    del table
    content, start = np.empty_like(by_degree), 0
    for s in plan.schemes:
        block = slice(start, start + s.bins.size)
        np.matmul(s.rows, by_degree[block].reshape(*s.rows.shape[:2], -1).view(float),
                  out=content[block].reshape(*s.rows.shape[:2], -1).view(float))
        start = block.stop
    del by_degree
    content *= plan.phase.reshape(-1, *(1,) * len(columns))
    slots = plan.slots
    if width > 1:  # entry e's bin b takes slots 2 (b V + v) and 2 (b V + v) + 1 in column v
        slots = (slots[::2, None] * np.intp(width) + np.arange(2 * width)).ravel()
    bins = np.bincount(slots, content.view(float).ravel(), 2 * n * width)
    del content  # not held through the inverse FFTs
    return _ring_dft(bins.view(complex).reshape(n, *columns), plan, inverse=True)


@dataclass(frozen=True, eq=False)
class _RingPlan:
    """Where the transforms of schemes laid end to end find their rings; see _ring_plan.

    A scheme holds its own plan (AngularScheme._plan) and a grid the plan of its shells
    (multishell.MultiShellGrid._plan), each built on first use and kept as long as its owner.
    """

    schemes: tuple
    rows: int
    order: np.ndarray
    unorder: np.ndarray | None
    rings: tuple
    slots: np.ndarray
    positions: np.ndarray
    phase: np.ndarray


def _ring_plan(schemes: tuple) -> _RingPlan:
    """_ring_dft's ring order for schemes laid end to end, and _synthesise's gather and fold.

    rows is their harmonic table's rows per scheme (_table), the largest
    n_points + 1. Ring k holds 4k+1 samples on every scheme that has it, so
    in ring order, ring 0 of every scheme, then ring 1 of every scheme and
    so on, ring k of all of them is one (schemes, 4k+1) block: rings holds
    (slice, shape) of each for k >= 1. Ring 0, one sample per scheme, has none: its
    one-point DFT is the identity. Samples taken at order are in ring order,
    and ring-order values taken at unorder are in sample order again (None
    for a single scheme, whose two orders are one).

    Over every scheme's (order, degree or ring, sign) entries in turn, slots
    holds each entry's Re and Im slots in the float view of the ring-order
    bins, positions where it reads its coefficient in the flattened harmonic
    table of the schemes (see _table; its scheme's zero last row for -0 and
    2j < mu), and phase its phase.
    """
    starts = np.cumsum([0] + [s.n_points for s in schemes])
    blocks = [np.array([start + s.rings[k].start for start, s in zip(starts, schemes)
                        if k < len(s.rings)])[:, None] + np.arange(4 * k + 1)
              for k in range(max(len(s.rings) for s in schemes))]
    order = np.concatenate([block.ravel() for block in blocks])
    unorder = np.argsort(order)
    ends = np.cumsum([block.size for block in blocks])
    rings = tuple((slice(end - block.size, end), block.shape)
                  for end, block in zip(ends[1:], blocks[1:]))
    bins = unorder[np.concatenate([start + s.bins.ravel() for start, s in zip(starts, schemes)])]
    # int32 halves the plan; adding _synthesise's column offsets takes it to intp
    slots = np.stack([2 * bins, 2 * bins + 1], axis=-1).astype(np.int32).ravel()
    rows = max(s.n_points for s in schemes) + 1
    positions = np.concatenate([i * rows + s.positions % rows for i, s in enumerate(schemes)],
                               axis=None)
    phase = np.concatenate([s.phase for s in schemes], axis=None)
    return _read_only(_RingPlan(schemes, rows, order, None if len(schemes) == 1 else unorder,
                                rings, slots, positions, phase))


def _ring_dft(values, plan: _RingPlan, inverse: bool = False) -> np.ndarray:
    """Every ring's FFT of samples, or inverse FFT of bins, of the plan's schemes end to end.

    The forward transform takes samples in sample order and gathers them
    into ring order (see _ring_plan); the inverse takes bins that
    _synthesise's fold wrote in ring order, and transforms them in place.
    Either way each ring index k >= 1 is one slice, ring k of every scheme
    and column, and takes one np.fft call in place (out=, which numpy.fft
    takes from numpy 2.0 on, the floor in pyproject.toml), whose lines come out
    bit for bit as the 1-D calls on each ring would; ring 0 stays as it is,
    as its one-point DFT would leave it. The result is in sample order.
    norm="forward" puts the 1/n_k on the FFT, so a bin holds its order's
    amplitude.
    """
    dft = np.fft.ifft if inverse else np.fft.fft
    if not inverse:
        values = values[plan.order]  # a copy: the caller's samples stay as they are
    for ring, shape in plan.rings:
        block = values[ring].reshape(shape + values.shape[1:])
        dft(block, axis=1, norm="forward", out=block)
    return values if plan.unorder is None else values[plan.unorder]


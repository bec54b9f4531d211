"""Self-checks for a sampling scheme: exactness, conditioning, round trips.

run_validation produces a machine-readable report with one entry per
check, each carrying the measured value, the threshold it is held to, and
a pass flag; the two randomised round trips also name, under "draws", how
they draw their inputs from the seed. The checks mirror the package's
headline guarantees: exact radial quadrature on its design space (and
demonstrable failure just beyond it), well-conditioned angular systems,
and transform round trips at numerical precision. The two round trips
go through the transforms together, a chunk of draws at a time: each
chunk is one harmonic table of columns, one synthesis and one analysis
pass over every shell, so a report makes one np.fft call per ring size
above one point and direction per chunk (5 + 5 at the default grid,
whatever the draws). What depends on the grid alone, the radial and angular checks
and the layout of the draws, is computed once per grid and kept, so a
report's own work is its draws and those two passes.
"""

from __future__ import annotations

import functools
import itertools
from math import lgamma, log

import numpy as np

from .angular import _analyse, _synthesise, _table
from .errors import ConditioningError, _integer
from .multishell import MultiShellGrid, _from_shells, _radial_gate, _to_shells
from .signals import _draw_layout, _staircase_values

__all__ = ["run_validation", "REPORT_THRESHOLDS"]

REPORT_THRESHOLDS = {
    "radial_orthonormality": 1e-12,
    "gaussian_moments": 1e-11,
    "quadrature_sharpness": 1e-6,
    "sht_conditioning": 1e4,
    "sht_round_trip": 1e-10,
    "spf_round_trip": 1e-9,
}


# Working memory of one chunk of round-trip columns, beyond the held draws. On a 2-core
# x86-64 host, 100-draw reports ran faster with more columns per pass up to about this on
# every band-limit ladder rung from 3/5/9/11 to 15/25/41/63, and no more than 12 % faster
# with four times as much
_CHUNK_BYTES = 8 << 20
# what a chunk holds per draw (its two columns), in bytes per sample and per harmonic table
# cell: tracemalloc's peak above the held draws, over two chunks of 8 and of 64 draws, grows
# by 51.4 (15/25/41/63) to 57.3 (5/9/13/17) per draw on the band-limit ladder. 67 leaves
# that headroom and keeps the chunk sizes: up to 316 draws at the default grid, 10 at
# 15/25/41/63, which test_validation_takes_one_fft_call_per_ring_size_per_chunk counts on
_BYTES_PER_DRAW = 67


def _check(value: float, threshold: float, larger_is_better: bool = False) -> dict:
    value = float(value)
    passed = value > threshold if larger_is_better else value <= threshold
    return {"value": value, "threshold": threshold, "passed": bool(passed)}


def _failed(threshold: float, reason: str) -> dict:
    return {"value": None, "threshold": threshold, "passed": False, "error": reason}


def _draws_per_chunk(grid: MultiShellGrid) -> int:
    """How many draws of both round trips one chunk of columns takes: at least one."""
    top = max(s.n_points for s in grid.angular)
    return max(1, _CHUNK_BYTES // (_BYTES_PER_DRAW * (grid.n_samples + top * grid.n_shells)))


@functools.lru_cache(maxsize=16)
def _grid_checks(grid: MultiShellGrid) -> tuple:
    """What a report takes from the grid alone, once per grid: (checks, radial_error, layout).

    checks holds the radial orthonormality, Gaussian-moment, quadrature
    sharpness and angular conditioning checks, their lists as tuples;
    radial_error is the staircase radial map's refusal, or None; layout is
    random_staircase_signal's draw layout over the grid's index. Keyed on the
    grid object, the most recent 16 grids; a grid rebuilt from a descriptor is
    another object with its own entry.
    """
    radial = grid.radial
    checks = {}

    # orthonormality of the radial basis under the shell quadrature
    gram = (radial.basis * radial.weights) @ radial.basis.T
    checks["radial_orthonormality"] = _check(
        np.max(np.abs(gram - np.eye(radial.n_shells))),
        REPORT_THRESHOLDS["radial_orthonormality"],
    )

    # Gaussian moments: the rule matches the closed-form integrals Gamma(j + 3/2) / 2
    # up to polynomial degree 2N-1 and must visibly break at 2N. In x = q^2/zeta, each
    # term w_i e^(-x_i) x_i^j / zeta^1.5 over its integral is the exp of a sum of logs,
    # which stays in the float range where x^j (65 shells on) and Gamma (86 on) do not
    j = np.arange(2 * radial.n_shells + 1)
    log_integrals = np.array([lgamma(k + 1.5) for k in j]) + log(0.5)
    log_weights = np.log(radial.weights) - 1.5 * log(radial.zeta) - radial.roots
    terms = np.exp(log_weights + np.outer(j, np.log(radial.roots)) - log_integrals[:, None])
    moment_residuals = tuple(np.abs(terms.sum(axis=1) - 1.0).tolist())
    checks["gaussian_moments"] = _check(
        max(moment_residuals[: 2 * radial.n_shells]),
        REPORT_THRESHOLDS["gaussian_moments"],
    )
    checks["gaussian_moments"]["residuals"] = moment_residuals
    checks["quadrature_sharpness"] = _check(
        moment_residuals[2 * radial.n_shells],
        REPORT_THRESHOLDS["quadrature_sharpness"],
        larger_is_better=True,
    )

    # per-order conditioning of every shell's angular solve
    per_shell_cond = tuple(tuple(scheme.order_conditions.tolist()) for scheme in grid.angular)
    checks["sht_conditioning"] = _check(
        max(max(c) for c in per_shell_cond), REPORT_THRESHOLDS["sht_conditioning"]
    )
    checks["sht_conditioning"]["per_shell"] = per_shell_cond

    try:
        _radial_gate(grid, "staircase")
        radial_error = None
    except ConditioningError as exc:
        radial_error = str(exc)
    return checks, radial_error, _draw_layout(grid.index)


def _chunk_table(grid: MultiShellGrid, sht: list, spf: np.ndarray) -> np.ndarray:
    """One chunk's harmonic table (angular._table): its k angular draws, then its k spf columns.

    sht holds each shell's (k, 2, n_points) normals, the re and im of its k angular draws;
    spf, the full round trip's (index.size, k) table columns, goes through _to_shells.
    """
    k = spf.shape[1]
    table = _table(grid._plan, (2 * k,))
    for shell, z in zip(table, sht):
        shell[: z.shape[2], :k].real = z[:, 0].T
        shell[: z.shape[2], :k].imag = z[:, 1].T
    _to_shells(spf, grid.index, grid, out=table[..., k:])
    return table


def run_validation(grid: MultiShellGrid, seed: int = 0, n_draws: int = 100) -> dict:
    """Run every scheme self-check on a grid and collect a report dictionary.

    A ConditioningError raised by any transform marks that check failed
    rather than aborting the run. The report's top-level "passed" is the
    conjunction of all checks. n_draws and seed are integers (2.0 passes as
    2, 2.5 does not); n_draws < 1 is an error, since nothing would be
    checked, and so is seed < 0, which no random generator takes.

    The checks that depend on the grid alone (radial orthonormality, the
    Gaussian moments and quadrature sharpness, the angular conditioning and
    whether the staircase radial maps are well conditioned) are computed
    once per grid object and kept, as is the layout of the full round
    trip's draws (the most recent 16 grids); each report gets its own
    copies of their dicts and lists. A report's own work is its draws and
    the two round trips.

    The angular round trip draws all its inputs before the first transform,
    in one call, default_rng(seed).standard_normal(2 * n_draws * n_samples),
    read as each shell's (n_draws, 2, n_points) in turn: draw by draw, the
    re and then the im of its points. The normals are the held draws, 16
    bytes per draw and sample: 211 kB at the default grid with 100 draws and
    5.3 MB at band limits 15/25/41/63. The full round trip spawns one child
    of the seed per draw, a chunk at a time, the values
    random_staircase_signal gives for it. Each chunk makes one harmonic
    table (angular._table), its angular draws at their shells and rows, then
    _to_shells' columns of its full-round-trip tables, and takes one
    synthesis and one analysis pass: one np.fft call per ring size above one
    point and direction. A chunk takes as many draws as fit in 8 MB of
    working memory (_CHUNK_BYTES): all of up to 316 at the default grid, so
    a 100-draw report makes 5 + 5 calls, and 10 at 15/25/41/63, 10 chunks
    for 100 draws. Each round trip's miss over a chunk is a maximum over
    every shell, NaN included. A grid whose staircase radial map is refused
    runs the same chunks and skips only the full round trip's radial
    analysis, its check carrying the refusal. The first chunk's analysis
    refuses an ill-conditioned shell before any ring FFT, so such a grid
    costs the draws, the first chunk's table and one synthesis pass.
    """
    n_draws, seed = _integer(n_draws, "n_draws", 1), _integer(seed, "seed", 0)
    memo, radial_error, layout = _grid_checks(grid)
    checks = {name: dict(check) for name, check in memo.items()}
    checks["gaussian_moments"]["residuals"] = list(checks["gaussian_moments"]["residuals"])
    checks["sht_conditioning"]["per_shell"] = [
        list(c) for c in checks["sht_conditioning"]["per_shell"]]

    # the two randomised round trips: every angular draw comes first, in one call, then both
    # round trips go through the transforms together, one chunk of draws at a time
    normals = np.random.default_rng(seed).standard_normal(2 * n_draws * grid.n_samples)
    # each shell's (n_draws, 2, n_points) normals, in shell order
    ends = list(itertools.accumulate(2 * n_draws * s.n_points for s in grid.angular))
    shells = [normals[a:b].reshape(n_draws, 2, -1) for a, b in zip([0, *ends], ends)]
    seeds = np.random.SeedSequence(seed)
    worst = {"sht_round_trip": 0.0, "spf_round_trip": 0.0}
    errors = {} if radial_error is None else {"spf_round_trip": radial_error}
    step = _draws_per_chunk(grid)
    try:
        for start in range(0, n_draws, step):
            sht = [z[start : start + step] for z in shells]
            k = len(sht[0])
            # each spawn takes the seed's next k children, as one spawn(n_draws) would
            spf = _staircase_values(seeds.spawn(k), layout).T
            # the chunk's table goes straight to _synthesise, which lets it go after its gather
            back = _analyse(_synthesise(_chunk_table(grid, sht, spf), grid._plan), grid._plan)
            # back's angular columns less their draws are the misses; indexed, so that no view
            # of back outlives the del below
            for i, z in enumerate(sht):
                back[i, : z.shape[2], :k].real -= z[:, 0].T
                back[i, : z.shape[2], :k].imag -= z[:, 1].T
            worst["sht_round_trip"] = np.maximum(worst["sht_round_trip"],
                                                 np.max(np.abs(back[..., :k])))
            if radial_error is None:
                miss = np.max(np.abs(_from_shells(back[..., k:], grid, "staircase") - spf))
                if not np.isfinite(miss):
                    raise ValueError("coefficient values must be finite")
                worst["spf_round_trip"] = np.maximum(worst["spf_round_trip"], miss)
            del spf, back  # not held while the next chunk is drawn and run
    except ConditioningError as exc:
        for name in worst:
            errors.setdefault(name, str(exc))
    for name, draws in (("sht_round_trip", "default_rng(seed)"),
                        ("spf_round_trip", "SeedSequence(seed).spawn(n_draws)")):
        threshold = REPORT_THRESHOLDS[name]
        checks[name] = (_failed(threshold, errors[name]) if name in errors
                        else _check(worst[name], threshold))
        checks[name]["draws"] = draws

    return {
        "passed": all(c["passed"] for c in checks.values()),
        "n_shells": grid.n_shells,
        "b_max": grid.radial.b_max,
        "bandlimits": list(grid.bandlimits),
        "n_samples": grid.n_samples,
        "checks": checks,
    }

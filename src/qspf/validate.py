"""Self-checks for a sampling scheme: exactness, conditioning, round trips.

run_validation produces a machine-readable report with one entry per
check, each carrying the measured value, the threshold it is held to, and
a pass flag; the two randomised round trips also name, under "draws", how
they draw their inputs from the seed. The checks mirror the package's
headline guarantees: exact radial quadrature on its design space (and
demonstrable failure just beyond it), well-conditioned angular systems,
and transform round trips at numerical precision. Each round trip takes
one draw at a time through every shell at once, so a report makes one
np.fft call per ring size and direction per draw and round trip.
"""

from __future__ import annotations

from math import lgamma, log

import numpy as np

from .angular import _analyse, _synthesise
from .errors import ConditioningError, _as_int
from .multishell import MultiShellGrid, forward_spf, synthesize_on_grid
from .signals import random_staircase_signal

__all__ = ["run_validation", "REPORT_THRESHOLDS"]

REPORT_THRESHOLDS = {
    "radial_orthonormality": 1e-12,
    "gaussian_moments": 1e-11,
    "quadrature_sharpness": 1e-6,
    "sht_conditioning": 1e4,
    "sht_round_trip": 1e-10,
    "spf_round_trip": 1e-9,
}


def _check(value: float, threshold: float, larger_is_better: bool = False) -> dict:
    value = float(value)
    passed = value > threshold if larger_is_better else value <= threshold
    return {"value": value, "threshold": threshold, "passed": bool(passed)}


def _failed(threshold: float, reason: str) -> dict:
    return {"value": None, "threshold": threshold, "passed": False, "error": reason}


def run_validation(grid: MultiShellGrid, seed: int = 0, n_draws: int = 100) -> dict:
    """Run every scheme self-check on a grid and collect a report dictionary.

    A ConditioningError raised by any transform marks that check failed
    rather than aborting the run. The report's top-level "passed" is the
    conjunction of all checks. n_draws and seed are integers (2.0 passes as
    2, 2.5 does not); n_draws < 1 is an error, since nothing would be
    checked, and so is seed < 0, which no random generator takes.

    The angular round trip draws all its inputs before the first transform,
    shell by shell in the order one draw per shell at a time would take
    them: n_draws x n_samples complex values, 211 kB at the default grid
    with 100 draws and 5.3 MB at band limits 15/25/41/63. Its first forward
    transform refuses an ill-conditioned shell before any ring FFT, so such
    a grid costs the draws and one synthesis, and its report is the same.
    """
    for name, value, least in (("n_draws", n_draws, 1), ("seed", seed, 0)):
        if _as_int(value) is None:
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    n_draws, seed = int(n_draws), int(seed)
    radial = grid.radial
    rng = np.random.default_rng(seed)
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
    moment_residuals = np.abs(terms.sum(axis=1) - 1.0).tolist()
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
    per_shell_cond = [scheme.order_conditions.tolist() for scheme in grid.angular]
    checks["sht_conditioning"] = _check(
        max(max(c) for c in per_shell_cond), REPORT_THRESHOLDS["sht_conditioning"]
    )
    checks["sht_conditioning"]["per_shell"] = per_shell_cond

    # angular round trip on random band-limited signals: every shell's draws come first,
    # shell by shell as one draw per shell at a time would take them, then each draw goes
    # through inverse_sht and forward_sht of all shells at once
    try:
        draws = [z[:, 0] + 1j * z[:, 1]
                 for z in (rng.standard_normal((n_draws, 2, s.n_points)) for s in grid.angular)]
        worst = 0.0
        for coeffs in zip(*draws):
            back = _analyse(_synthesise(coeffs, grid.angular), grid.angular)
            worst = max(worst, *(np.max(np.abs(b - c)) for b, c in zip(back, coeffs)))
        checks["sht_round_trip"] = _check(worst, REPORT_THRESHOLDS["sht_round_trip"])
    except ConditioningError as exc:
        checks["sht_round_trip"] = _failed(REPORT_THRESHOLDS["sht_round_trip"], str(exc))
    checks["sht_round_trip"]["draws"] = "default_rng(seed)"

    # full transform round trip on the staircase model space, one child of the seed per draw
    try:
        worst = 0.0
        for child in np.random.SeedSequence(seed).spawn(n_draws):
            coeffs = random_staircase_signal(child, grid)
            samples = synthesize_on_grid(coeffs, grid)
            back = forward_spf(grid, samples)
            worst = max(worst, np.max(np.abs(back.values - coeffs.values)))
        checks["spf_round_trip"] = _check(worst, REPORT_THRESHOLDS["spf_round_trip"])
    except ConditioningError as exc:
        checks["spf_round_trip"] = _failed(REPORT_THRESHOLDS["spf_round_trip"], str(exc))
    checks["spf_round_trip"]["draws"] = "SeedSequence(seed).spawn(n_draws)"

    return {
        "passed": all(c["passed"] for c in checks.values()),
        "n_shells": grid.n_shells,
        "b_max": radial.b_max,
        "bandlimits": list(grid.bandlimits),
        "n_samples": grid.n_samples,
        "checks": checks,
    }

"""Self-checks for a sampling scheme: exactness, conditioning, round trips.

run_validation produces a machine-readable report with one entry per
check, each carrying the measured value, the threshold it is held to, and
a pass flag. The checks mirror the package's headline guarantees: exact
radial quadrature on its design space (and demonstrable failure just
beyond it), well-conditioned angular systems, and transform round trips
at numerical precision.
"""

from __future__ import annotations

from math import gamma

import numpy as np

from .errors import ConditioningError
from .multishell import MultiShellGrid, forward_spf, synthesize_on_grid
from .radial import _basis_table
from .angular import forward_sht, inverse_sht
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
    conjunction of all checks. n_draws < 1 is an error, since nothing would
    be checked, and so is seed < 0, which no random generator takes.
    """
    if n_draws < 1:
        raise ValueError(f"n_draws must be >= 1, got {n_draws}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    radial = grid.radial
    rng = np.random.default_rng(seed)
    checks = {}

    # orthonormality of the radial basis under the shell quadrature
    basis = _basis_table(radial.radii, radial.n_shells, radial.zeta)
    gram = (basis * radial.weights) @ basis.T
    checks["radial_orthonormality"] = _check(
        np.max(np.abs(gram - np.eye(radial.n_shells))),
        REPORT_THRESHOLDS["radial_orthonormality"],
    )

    # Gaussian moments: the rule matches the closed-form integrals up to
    # polynomial degree 2N-1 and must visibly break at 2N; in x = q^2/zeta, so
    # that no power of zeta overflows
    moment_residuals = []
    weights = radial.weights / radial.zeta**1.5 * np.exp(-radial.roots)
    for j in range(2 * radial.n_shells + 1):
        rhs = 0.5 * gamma(j + 1.5)
        moment_residuals.append(abs(np.sum(weights * radial.roots**j) - rhs) / rhs)
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

    # angular round trip per shell on random band-limited signals
    try:
        worst = 0.0
        for scheme in grid.angular:
            size = scheme.n_points
            for _ in range(n_draws):
                coeffs = rng.standard_normal(size) + 1j * rng.standard_normal(size)
                back = forward_sht(inverse_sht(coeffs, scheme), scheme)
                worst = max(worst, np.max(np.abs(back - coeffs)))
        checks["sht_round_trip"] = _check(worst, REPORT_THRESHOLDS["sht_round_trip"])
    except ConditioningError as exc:
        checks["sht_round_trip"] = _failed(REPORT_THRESHOLDS["sht_round_trip"], str(exc))

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

    return {
        "passed": all(c["passed"] for c in checks.values()),
        "n_shells": grid.n_shells,
        "b_max": radial.b_max,
        "bandlimits": list(grid.bandlimits),
        "n_samples": grid.n_samples,
        "checks": checks,
    }

"""End-to-end acceptance checks for the default 132-sample scheme.

One test per shipped guarantee, each asserting both the numerical
tolerance and a wall-clock budget. Run with ``pytest -v`` to get a
pass/fail line per criterion.
"""

import json
import time

import numpy as np

from qspf import (
    build_grid,
    dense_sht_oracle,
    forward_spf,
    forward_sht,
    inverse_spf,
    inverse_sht,
    laguerre_eval,
    make_angular_scheme,
    make_radial_scheme,
    multi_tensor_eval,
    radial_basis_eval,
    random_staircase_signal,
    synthesize_on_grid,
    two_tensor_crossing,
)
from qspf.cli import main
from scipy.special import gamma


def random_angular_coefficients(rng, bandlimit):
    size = bandlimit * (bandlimit + 1) // 2
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def test_criterion_1_shell_placement():
    start = time.perf_counter()
    scheme = make_radial_scheme(4, 8000.0)
    elapsed = time.perf_counter() - start
    target = np.array([411.3, 1694.4, 4036.3, 8000.0])
    deviation = np.max(np.abs(scheme.bvalues - target))
    print(f"b-values {scheme.bvalues.round(3)}, max deviation {deviation:.2e}")
    assert deviation < 0.05
    assert elapsed < 1.0


def test_criterion_2_sample_budget():
    start = time.perf_counter()
    grid = build_grid(4, 8000.0, (3, 5, 9, 11))
    elapsed = time.perf_counter() - start
    counts = [grid.shell_slice(i).stop - grid.shell_slice(i).start for i in range(4)]
    print(f"total {grid.points.shape[0]}, per shell {counts}")
    assert grid.points.shape[0] == 132
    assert counts == [6, 15, 45, 66]
    assert elapsed < 1.0


def test_criterion_3_radial_exactness():
    start = time.perf_counter()
    scheme = make_radial_scheme(4, 8000.0)
    basis = np.stack(
        [radial_basis_eval(n, scheme.radii, scheme.zeta) for n in range(4)]
    )
    gram = (basis * scheme.weights) @ basis.T
    ortho_dev = np.max(np.abs(gram - np.eye(4)))

    x = scheme.radii**2 / scheme.zeta
    moment_dev = 0.0
    for j in range(8):
        lhs = np.sum(scheme.weights * scheme.radii ** (2 * j) * np.exp(-x))
        rhs = 0.5 * gamma(j + 1.5) * scheme.zeta ** (j + 1.5)
        moment_dev = max(moment_dev, abs(lhs / rhs - 1.0))
    lhs8 = np.sum(scheme.weights * scheme.radii**16 * np.exp(-x))
    rhs8 = 0.5 * gamma(8 + 1.5) * scheme.zeta ** (8 + 1.5)
    overshoot = abs(lhs8 / rhs8 - 1.0)
    elapsed = time.perf_counter() - start

    print(
        f"orthonormality {ortho_dev:.2e}, moments j<=7 {moment_dev:.2e}, "
        f"j=8 relative error {overshoot:.2e}"
    )
    assert ortho_dev < 1e-12
    assert moment_dev < 1e-11
    assert overshoot > 1e-6
    assert elapsed < 1.0


def test_criterion_4_angular_round_trip():
    rng = np.random.default_rng(41)
    start = time.perf_counter()
    worst = 0.0
    for bandlimit in (3, 5, 9, 11):
        scheme = make_angular_scheme(bandlimit)
        for _ in range(100):
            coeffs = random_angular_coefficients(rng, bandlimit)
            values = inverse_sht(coeffs, scheme)
            back = forward_sht(values, scheme)
            worst = max(worst, np.max(np.abs(back - coeffs)))
    elapsed = time.perf_counter() - start
    print(f"worst round-trip error {worst:.2e} in {elapsed:.2f}s")
    assert worst < 1e-10
    assert elapsed < 10.0


def test_criterion_5_full_transform_bijection():
    start = time.perf_counter()
    grid = build_grid(4, 8000.0, (3, 5, 9, 11))
    worst = 0.0
    for draw in range(100):
        coeffs = random_staircase_signal(1000 + draw, grid)
        samples = synthesize_on_grid(coeffs, grid)
        back = forward_spf(grid, samples)
        worst = max(worst, np.max(np.abs(back.values - coeffs.values)))

    uniform = build_grid(4, 8000.0, (11, 11, 11, 11))
    worst_uniform = 0.0
    for draw in range(100):
        coeffs = random_staircase_signal(2000 + draw, uniform)
        samples = synthesize_on_grid(coeffs, uniform)
        back = forward_spf(uniform, samples, radial_mode="zero_padded")
        worst_uniform = max(worst_uniform, np.max(np.abs(back.values - coeffs.values)))
    elapsed = time.perf_counter() - start

    print(
        f"staircase {worst:.2e}, uniform {uniform.points.shape[0]} samples "
        f"{worst_uniform:.2e} in {elapsed:.2f}s"
    )
    assert uniform.points.shape[0] == 264
    assert worst < 1e-9
    assert worst_uniform < 1e-9
    assert elapsed < 30.0


def test_criterion_6_oracle_agreement():
    rng = np.random.default_rng(61)
    scheme = make_angular_scheme(11)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        coeffs = random_angular_coefficients(rng, 11)
        values = inverse_sht(coeffs, scheme)
        fast = forward_sht(values, scheme)
        dense = dense_sht_oracle(values, scheme)
        worst = max(worst, np.max(np.abs(fast - dense)))
    elapsed = time.perf_counter() - start
    print(f"fast vs dense disagreement {worst:.2e} in {elapsed:.2f}s")
    assert worst < 1e-9
    assert elapsed < 30.0


def test_criterion_7_phantom_reconstruction():
    start = time.perf_counter()
    grid = build_grid(4, 8000.0, (3, 5, 9, 11))
    mixture = two_tensor_crossing(angle_deg=90.0)
    samples = multi_tensor_eval(mixture, grid.bvalues, grid.points)
    coeffs = forward_spf(grid, samples, radial_mode="zero_padded")

    rng = np.random.default_rng(7)
    held_b = rng.uniform(0.0, 8000.0, 500)
    held_u = rng.standard_normal((500, 3))
    held_u /= np.linalg.norm(held_u, axis=1)[:, None]
    truth = multi_tensor_eval(mixture, held_b, held_u)
    pred = inverse_spf(coeffs, held_u, b=held_b).real
    rel_rms = np.sqrt(np.mean((pred - truth) ** 2) / np.mean(truth**2))
    elapsed = time.perf_counter() - start

    print(f"held-out relative RMS {rel_rms:.4f} in {elapsed:.2f}s")
    assert rel_rms <= 5e-2
    assert elapsed < 10.0


def test_criterion_8_cli_determinism(tmp_path):
    outputs = []
    for tag in ("a", "b"):
        prefix = tmp_path / f"scheme_{tag}"
        assert main(["grid", "--format", "bvec", "--output", str(prefix)]) == 0
        assert main([
            "grid", "--format", "json", "--output", str(tmp_path / f"desc_{tag}.json"),
        ]) == 0
        assert main([
            "validate", "--draws", "5", "--seed", "11",
            "--output", str(tmp_path / f"report_{tag}.json"),
        ]) == 0
        outputs.append([
            prefix.with_suffix(".bvals").read_bytes(),
            prefix.with_suffix(".bvecs").read_bytes(),
            (tmp_path / f"desc_{tag}.json").read_bytes(),
            (tmp_path / f"report_{tag}.json").read_bytes(),
        ])
    assert outputs[0] == outputs[1]

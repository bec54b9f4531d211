"""Conditioning of the per-order angular solves across band limits.

For each odd band limit the forward transform reduces to one small
Legendre system per azimuthal order; the largest condition number over
orders bounds how much sample noise can inflate coefficients. This sweep
prints that number for the plain uniform ring layout
theta_k = pi (2k+1) / (2(L+1)), passed as explicit ring latitudes, and
for the built-in layout, that layout times the factor recorded for the
band limit; plus the transform round-trip error on the built-in layout.

Run with the package importable, for example
PYTHONPATH=src python3 scripts/conditioning_sweep.py --lmax 21
"""

import argparse

import numpy as np

from qspf import forward_sht, inverse_sht, make_angular_scheme


def round_trip_error(scheme, n_draws, seed):
    rng = np.random.default_rng(seed)
    size, worst = scheme.n_points, 0.0
    for _ in range(n_draws):
        coeffs = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        back = forward_sht(inverse_sht(coeffs, scheme), scheme)
        worst = max(worst, np.max(np.abs(back - coeffs)))
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lmax", type=int, default=21, help="largest odd band limit")
    ap.add_argument("--draws", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(f"{'L':>3} {'points':>7} {'cond (plain)':>13} {'cond (built-in)':>16} {'round trip':>12}")
    for L in range(1, args.lmax + 1, 2):
        k = np.arange((L + 1) // 2)
        plain = make_angular_scheme(L, thetas=np.pi * (2 * k + 1) / (2 * (L + 1)))
        built_in = make_angular_scheme(L)
        err = round_trip_error(built_in, args.draws, args.seed + L)
        print(
            f"{L:>3} {built_in.n_points:>7} {plain.condition:>13.3f} "
            f"{built_in.condition:>16.3f} {err:>12.3e}"
        )


if __name__ == "__main__":
    main()

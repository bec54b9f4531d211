"""Conditioning of the per-order angular solves across band limits.

For each odd band limit the forward transform reduces to one small
Legendre system per azimuthal order; the largest condition number over
orders bounds how much sample noise can inflate coefficients. This sweep
prints that number for the plain uniform ring layout
theta_k = pi (2k+1) / (2(L+1)), passed as explicit ring latitudes, and
for the built-in layout, that layout times the factor recorded for the
band limit; plus the transform round-trip error on the built-in layout,
as run_validation's sht_round_trip check on a one-shell grid reports it.

Run with the package importable, for example
PYTHONPATH=src python3 scripts/conditioning_sweep.py --lmax 21
"""

import argparse

import numpy as np

from qspf import build_grid, make_angular_scheme, run_validation


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
        report = run_validation(build_grid(1, 1000.0, (L,)), seed=args.seed + L, n_draws=args.draws)
        err = report["checks"]["sht_round_trip"]["value"]
        print(
            f"{L:>3} {built_in.n_points:>7} {plain.condition:>13.3f} "
            f"{built_in.condition:>16.3f} {err:>12.3e}"
        )


if __name__ == "__main__":
    main()

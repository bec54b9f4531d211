"""Radial sampling scheme and the Gaussian-Laguerre radial basis.

Shells sit at q_i = sqrt(zeta * x_i), where x_i are the roots of the N-th
generalized Laguerre polynomial of order 1/2 and zeta is a scale factor
chosen so the outermost shell lands exactly on the requested maximum
b-value. With the closed-form weights below, the N-node rule integrates
f(q) q^2 dq over [0, inf) exactly whenever f is exp(-q^2/zeta) times a
polynomial in q^2/zeta of degree <= 2N-1; in particular it makes the
N-term radial basis exactly orthonormal, so N shells suffice for an exact
radial transform.

b-value conventions: "normalized" takes b = q^2 (the diffusion-time
constant is absorbed into q), "physical" takes b = 4 pi^2 tau q^2 with tau
in seconds. Shell geometry depends only on root ratios, so b_i/b_N is the
same in both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import COND_LIMIT, ConditioningError
from .specfun import _laguerre_rows, laguerre_deriv, laguerre_roots

__all__ = [
    "BConvention",
    "RadialScheme",
    "make_radial_scheme",
    "radial_basis_eval",
    "quadrature_weights",
    "radial_project",
    "radial_collocation_solve",
]


@dataclass(frozen=True)
class BConvention:
    """Mapping between b-values (s/mm^2) and q-space radii."""

    mode: str = "normalized"
    tau: float | None = None

    def __post_init__(self):
        if self.mode not in ("normalized", "physical"):
            raise ValueError(f"unknown b convention {self.mode!r}")
        if self.mode == "physical":
            if self.tau is None or not 0 < self.tau < math.inf:
                raise ValueError("physical convention requires a finite tau > 0 (seconds)")
        elif self.tau is not None:
            raise ValueError("tau applies only to the physical convention")

    @property
    def b_per_q2(self) -> float:
        """Constant c in b = c * q^2."""
        if self.mode == "normalized":
            return 1.0
        return 4.0 * math.pi**2 * self.tau

    def q_from_b(self, b):
        with np.errstate(over="ignore"):  # a huge finite b has the limit q = inf
            return np.sqrt(np.asarray(b, dtype=float) / self.b_per_q2)

    def b_from_q(self, q):
        return self.b_per_q2 * np.square(np.asarray(q, dtype=float))


@dataclass(frozen=True, eq=False)
class RadialScheme:
    """Immutable radial sampling scheme.

    b_max is the b-value requested for the outer shell, which bvalues[-1]
    meets to rounding. roots are in the dimensionless variable x = q^2/zeta;
    radii are in q-units, bvalues in s/mm^2, weights in units of zeta^(3/2).
    """

    n_shells: int
    b_max: float
    zeta: float
    roots: np.ndarray
    radii: np.ndarray
    bvalues: np.ndarray
    weights: np.ndarray
    convention: BConvention


def make_radial_scheme(
    n_shells: int, b_max: float, convention: BConvention = BConvention()
) -> RadialScheme:
    """Build the N-shell radial scheme with the outermost shell at b_max.

    zeta = q_max^2 / x_N, so shells land at b_i = b_max * x_i / x_N.

    Parameters
    ----------
    n_shells : int
        Number of shells N >= 1 (4 is the recommended default elsewhere).
    b_max : float
        b-value of the outermost shell, s/mm^2, > 0; ValueError if a
        quadrature weight then overflows or underflows.
    convention : BConvention
        b <-> q mapping; the default absorbs the diffusion-time constant.
    """
    if n_shells < 1:
        raise ValueError(f"need at least one shell, got {n_shells}")
    if not 0 < b_max < math.inf:
        raise ValueError(f"b_max must be positive and finite, got {b_max}")
    roots = laguerre_roots(n_shells, 0.5)
    q_max = float(convention.q_from_b(b_max))
    zeta = float(q_max**2 / roots[-1])
    radii = np.sqrt(zeta * roots)
    bvalues = convention.b_from_q(radii)
    weights = quadrature_weights(roots, zeta)
    if not np.all((weights > 0) & (weights < math.inf)):
        raise ValueError(f"b_max = {b_max} puts a quadrature weight outside the float range")
    return RadialScheme(
        n_shells=n_shells,
        b_max=float(b_max),
        zeta=zeta,
        roots=roots,
        radii=radii,
        bvalues=bvalues,
        weights=weights,
        convention=convention,
    )


def radial_basis_eval(n: int, q, zeta: float):
    """Orthonormal Gaussian-Laguerre radial basis function R_n(q).

    R_n(q) = sqrt(2/zeta^1.5 * n!/Gamma(n+1.5)) exp(-q^2/(2 zeta))
             L_n^(1/2)(q^2/zeta),
    orthonormal under the measure q^2 dq on [0, inf). The factorial ratio
    is computed from log-gamma differences so relative error stays flat
    in n.
    """
    if zeta <= 0:
        raise ValueError(f"zeta must be positive, got {zeta}")
    if n < 0:
        raise ValueError(f"radial order must be >= 0, got {n}")
    q = np.asarray(q, dtype=float)
    if np.any(np.isnan(q)):
        raise ValueError("radial_basis_eval requires q that is not NaN")
    out = _basis_table(q, n + 1, zeta)[n]
    return float(out) if out.ndim == 0 else out


def quadrature_weights(roots: np.ndarray, zeta: float) -> np.ndarray:
    """Closed-form Gauss-Laguerre weights for the q^2 dq measure.

    w_i = 0.5 zeta^1.5 Gamma(N+1.5) x_i e^{x_i}
          / (N! (N+1)^2 [L_{N+1}^(1/2)(x_i)]^2),
    evaluated in log space, with N = len(roots). Requires ``roots`` to
    actually be the roots of L_N^(1/2); this is checked through the Newton
    residual |L_N(x_i)/L_N'|.
    """
    roots = np.asarray(roots, dtype=float)
    if roots.ndim != 1 or not len(roots):
        raise ValueError(f"expected a non-empty flat array of roots, got shape {roots.shape}")
    n_shells = len(roots)
    if zeta <= 0:
        raise ValueError(f"zeta must be positive, got {zeta}")
    deriv = laguerre_deriv(n_shells, 0.5, roots)  # raises for non-finite roots
    *_, resid, following = _laguerre_rows(n_shells + 1, 0.5, roots)
    if np.any(np.abs(resid / deriv) > 1e-8 * np.maximum(roots, 1.0)):
        raise ValueError("supplied nodes are not roots of the order-N Laguerre polynomial")
    log_w = (
        math.log(0.5)
        + 1.5 * math.log(zeta)
        + math.lgamma(n_shells + 1.5)
        + np.log(roots)
        + roots
        - math.lgamma(n_shells + 1)
        - 2.0 * math.log(n_shells + 1.0)
        - 2.0 * np.log(np.abs(following))
    )
    with np.errstate(over="ignore"):  # an infinite weight is make_radial_scheme's to refuse
        return np.exp(log_w)


def _basis_table(q, n_orders: int, zeta: float) -> np.ndarray:
    """Table T[n] = R_n(q) for n < n_orders, of shape (n_orders,) + shape(q).

    All orders come from one Laguerre pass; see radial_basis_eval for R_n.
    """
    q = np.asarray(q, dtype=float)
    with np.errstate(over="ignore"):  # x = inf is the limit; R_n is 0 there (below)
        x = q * q / zeta
    scale = math.log(2.0) - 1.5 * math.log(zeta)
    log_norm = [0.5 * (scale + math.lgamma(n + 1) - math.lgamma(n + 1.5)) for n in range(n_orders)]
    table = np.exp(np.reshape(log_norm, (-1,) + (1,) * q.ndim) - 0.5 * x)
    # R_0 has the largest norm, so where its Gaussian underflows every R_n does: there,
    # skip the polynomial (it may overflow) and R_n -> 0
    for n, poly in enumerate(_laguerre_rows(n_orders - 1, 0.5, np.where(table[0] == 0.0, 0.0, x))):
        table[n] *= poly
    return table


def radial_project(values, scheme: RadialScheme) -> np.ndarray:
    """Exact radial projection c_n = sum_i w_i R_n(q_i) v_i, n < N.

    Exact whenever the shell values sample a signal in the span of
    {R_0 .. R_{N-1}}.
    """
    values = np.asarray(values)
    if values.shape != (scheme.n_shells,):
        raise ValueError(
            f"expected one value per shell ({scheme.n_shells}), got shape {values.shape}"
        )
    return (_basis_table(scheme.radii, scheme.n_shells, scheme.zeta) * scheme.weights) @ values


def radial_collocation_solve(values, shells, scheme: RadialScheme) -> np.ndarray:
    """Direct collocation solve for radial coefficients on a shell subset.

    Solves M c = values with M[i, n] = R_n(q_i) over the chosen shells.
    Used for coefficient rows whose degree is carried by fewer than N
    shells; with all N shells it reproduces radial_project.

    Raises
    ------
    ConditioningError
        If the collocation matrix condition number exceeds 1e8.
    """
    values = np.asarray(values)
    shells = np.asarray(shells, dtype=int)
    if values.shape != shells.shape:
        raise ValueError(f"{len(shells)} shells but {values.shape} values")
    if len(shells) > scheme.n_shells:
        raise ValueError("more collocation shells than the scheme has")
    matrix = _basis_table(scheme.radii[shells], len(shells), scheme.zeta).T
    cond = np.linalg.cond(matrix)
    if not cond < COND_LIMIT:
        raise ConditioningError("radial collocation matrix is ill-conditioned", cond)
    return np.linalg.solve(matrix, values)

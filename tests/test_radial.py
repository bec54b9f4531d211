import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import eval_genlaguerre, gammaln, roots_genlaguerre

from qspf.errors import ConditioningError
from qspf.multishell import build_grid
from qspf.radial import (
    BConvention,
    _basis_table,
    make_radial_scheme,
    quadrature_weights,
    radial_basis_eval,
    radial_collocation_solve,
    radial_project,
)


@pytest.fixture(scope="module")
def scheme():
    return make_radial_scheme(4, 8000.0)


def test_four_shell_bvalues(scheme):
    expected = [411.3, 1694.4, 4036.3, 8000.0]
    assert np.max(np.abs(scheme.bvalues - expected)) < 0.05
    assert np.all(np.diff(scheme.radii) > 0)
    assert np.all(scheme.weights > 0)


def test_weights_match_textbook_gauss_laguerre():
    """The q-measure weights are the x-space generalized rule, rescaled.

    Substituting x = q^2/zeta into int f(q) q^2 dq gives
    0.5 zeta^1.5 int e^{-x} x^{1/2} [e^x f] dx, so each weight must equal
    0.5 zeta^1.5 e^{x_i} W_i with W_i the standard alpha = 1/2 weight.
    """
    for n_shells in (4, 20):
        scheme = make_radial_scheme(n_shells, 8000.0)
        nodes, std_weights = roots_genlaguerre(n_shells, 0.5)
        expected = 0.5 * scheme.zeta**1.5 * np.exp(nodes) * std_weights
        assert np.max(np.abs(scheme.weights - expected) / expected) < 1e-12


def test_single_shell_weight_closed_form():
    # N=1 puts its root at exactly 3/2; the weight over zeta^1.5,
    # frozen from the x-space rule 0.5*e^{3/2}*W_1, is 1.985896762820466
    scheme = make_radial_scheme(1, 1500.0)
    assert scheme.roots[0] == pytest.approx(1.5, abs=1e-14)
    assert scheme.weights[0] / scheme.zeta**1.5 == pytest.approx(1.985896762820466, rel=1e-12)


def test_radial_basis_orthonormal_under_quadrature(scheme):
    basis = np.array([radial_basis_eval(n, scheme.radii, scheme.zeta) for n in range(4)])
    gram = (basis * scheme.weights) @ basis.T
    assert np.max(np.abs(gram - np.eye(4))) < 1e-12


# the Christoffel weights read max|Q B^T - I| 1.1e-15, 3.1e-15, 1.2e-14, 1.0e-13 and 5.4e-13 at
# these N; the closed form they replaced read 3.6e-15, 1.0e-14, 3.7e-14, 9.9e-13 and 4.9e-12
@pytest.mark.parametrize("n_shells, bound", [(4, 3e-15), (13, 6e-15), (30, 2.5e-14),
                                             (100, 3e-13), (362, 2e-12)])
def test_quadrature_gram_error(n_shells, bound):
    scheme = make_radial_scheme(n_shells, 8000.0)
    assert np.array_equal(scheme.basis, _basis_table(scheme.radii, n_shells, scheme.zeta))
    gram = (scheme.basis * scheme.weights) @ scheme.basis.T
    assert np.max(np.abs(gram - np.eye(n_shells))) < bound


def test_radial_basis_orthonormal_by_dense_integration():
    # continuous cross-check, independent of the shell quadrature
    zeta = 500.0
    for n in range(3):
        for n2 in range(n, 3):
            val, err = quad(
                lambda q: radial_basis_eval(n, q, zeta)
                * radial_basis_eval(n2, q, zeta)
                * q
                * q,
                0.0,
                np.inf,
            )
            assert val == pytest.approx(1.0 if n == n2 else 0.0, abs=5e-9)


def test_gaussian_moment_identity(scheme):
    # sum_i w_i q_i^{2j} e^{-q_i^2/zeta} = Gamma(j+3/2) zeta^{j+3/2} / 2,
    # exact for j <= 2N-1 and visibly wrong at j = 2N
    damped = np.exp(-scheme.roots)
    for j in range(8):
        lhs = np.sum(scheme.weights * scheme.radii ** (2 * j) * damped)
        rhs = 0.5 * math.gamma(j + 1.5) * scheme.zeta ** (j + 1.5)
        assert abs(lhs - rhs) / rhs < 1e-13
    lhs = np.sum(scheme.weights * scheme.radii**16 * damped)
    rhs = 0.5 * math.gamma(8 + 1.5) * scheme.zeta ** (8 + 1.5)
    assert abs(lhs - rhs) / rhs > 1e-6


@pytest.mark.parametrize("zeta", [1e-3, 0.5, 500.0, 1e4])
def test_basis_table_against_scipy(zeta):
    x = np.linspace(0.0, 80.0, 161)
    n = np.arange(20)[:, None]
    log_norm = 0.5 * (math.log(2.0) - 1.5 * math.log(zeta) + gammaln(n + 1) - gammaln(n + 1.5))
    ref = np.exp(log_norm - 0.5 * x) * eval_genlaguerre(n, 0.5, x)
    table = _basis_table(np.sqrt(x * zeta), 20, zeta)
    assert np.max(np.abs(table - ref)) < 1e-13 * np.max(np.abs(ref))


def test_radial_basis_vanishes_at_huge_finite_radius():
    # the Gaussian underflows to 0 where the Laguerre polynomial overflows;
    # the product is the limit 0, not 0 * inf = NaN, and nothing warns
    q = np.array([0.0, 1e50, 1e100, 1e200, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = _basis_table(q, 30, 500.0)
        for n in range(8):
            assert np.array_equal(radial_basis_eval(n, q, 500.0), table[n])
        assert radial_basis_eval(3, 1e100, 500.0) == 0.0
    assert np.all(table[:, 0] != 0.0) and np.all(np.isfinite(table[:, 0]))
    assert np.array_equal(table[:, 1:], np.zeros((30, 4)))


@pytest.mark.parametrize("zeta", [np.nan, np.inf, 0.0, -1.0])
def test_radial_functions_refuse_a_bad_radial_scale(scheme, zeta):
    # NaN once returned NaN from both; inf gave R_n = 0 and infinite weights
    with pytest.raises(ValueError, match="zeta"):
        radial_basis_eval(2, 1.0, zeta)
    with pytest.raises(ValueError, match="zeta"):
        quadrature_weights(scheme.roots, zeta)


def test_radial_basis_validation():
    with pytest.raises(ValueError):
        radial_basis_eval(0, 1.0, -2.0)
    with pytest.raises(ValueError):
        radial_basis_eval(-1, 1.0, 2.0)
    for q in (np.nan, [1.0, np.nan]):
        with pytest.raises(ValueError):
            radial_basis_eval(2, q, 2.0)


def test_make_radial_scheme_validation():
    with pytest.raises(ValueError):
        make_radial_scheme(0, 8000.0)
    with pytest.raises(ValueError):
        make_radial_scheme(4, -10.0)


@pytest.mark.parametrize("b_max", ["8000", b"8000", 8000j, None, float("nan")], ids=repr)
def test_b_max_that_is_not_a_positive_real_number_is_a_value_error(b_max):
    # "8000" once built a grid through build_grid's float(), and a TypeError came from
    # make_radial_scheme's comparison
    message = f"b_max must be a positive, finite real number, got {re.escape(repr(b_max))}$"
    with pytest.raises(ValueError, match=message):
        make_radial_scheme(4, b_max)
    with pytest.raises(ValueError, match=message):
        build_grid(4, b_max, (3, 5, 9, 11))


def test_b_max_takes_any_real_number_as_its_float():
    want = make_radial_scheme(4, 8000.0)
    for b_max in (8000, np.float32(8000.0), np.int64(8000)):
        scheme = make_radial_scheme(4, b_max)
        assert type(scheme.b_max) is float and scheme.b_max == 8000.0
        assert scheme.radii.tobytes() == want.radii.tobytes()


def test_quadrature_weights_reject_non_roots(scheme):
    with pytest.raises(ValueError):
        quadrature_weights(scheme.roots + 0.05, scheme.zeta)
    # N is the root count: three of the four-shell roots are not the roots of L_3
    with pytest.raises(ValueError, match="not roots"):
        quadrature_weights(scheme.roots[:3], scheme.zeta)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            quadrature_weights(np.append(scheme.roots[:3], bad), scheme.zeta)
    for shapeless in ([], [[1.5]]):
        with pytest.raises(ValueError, match="flat array"):
            quadrature_weights(shapeless, scheme.zeta)


def test_radial_project_recovers_basis_coefficients(scheme):
    rng = np.random.default_rng(3)
    target = rng.standard_normal(4)
    values = sum(
        target[n] * radial_basis_eval(n, scheme.radii, scheme.zeta) for n in range(4)
    )
    recovered = radial_project(values, scheme)
    assert np.max(np.abs(recovered - target)) < 1e-12
    with pytest.raises(ValueError):
        radial_project(values[:3], scheme)


def test_collocation_matches_projection_on_full_shells(scheme):
    rng = np.random.default_rng(4)
    target = rng.standard_normal(4)
    values = sum(
        target[n] * radial_basis_eval(n, scheme.radii, scheme.zeta) for n in range(4)
    )
    solved = radial_collocation_solve(values, np.arange(4), scheme)
    assert np.max(np.abs(solved - target)) < 1e-10


def test_collocation_on_shell_subset(scheme):
    rng = np.random.default_rng(5)
    target = rng.standard_normal(2)
    shells = np.array([2, 3])
    values = sum(
        target[n] * radial_basis_eval(n, scheme.radii[shells], scheme.zeta)
        for n in range(2)
    )
    solved = radial_collocation_solve(values, shells, scheme)
    assert np.max(np.abs(solved - target)) < 1e-12


@pytest.mark.parametrize("bandlimits", [(3, 5, 9, 11), tuple(range(1, 24, 2))])
def test_radial_helpers_apply_the_grids_maps(bandlimits):
    # one builder makes every radial map: the helpers give the grid's maps' products bit for bit
    grid = build_grid(len(bandlimits), 8000.0, bandlimits)
    rng = np.random.default_rng(6)
    index, maps, _ = grid.radial_maps["staircase"]
    for (shells, _, _), radial_map in zip(index.runs, maps):
        values = rng.standard_normal(len(shells))
        solved = radial_collocation_solve(values, shells, grid.radial)
        assert np.array_equal(solved, radial_map @ values)
    values = rng.standard_normal(grid.n_shells)
    (padded,) = grid.radial_maps["zero_padded"][1]
    assert np.array_equal(radial_project(values, grid.radial), padded @ values)


def test_collocation_refuses_shell_indices_outside_the_scheme(scheme):
    # a negative index must not wrap round to the outer shells, nor N end in an IndexError
    n = scheme.n_shells
    for shells, named in (([-1], "-1"), ([n], str(n)), ([1, n + 2], str(n + 2)), ([-3, 2], "-3")):
        with pytest.raises(ValueError, match=f"shell index {named} is outside 0 .. {n - 1}"):
            radial_collocation_solve(np.ones(len(shells)), shells, scheme)


@pytest.mark.parametrize("shells, bad", [([0.5], 0.5), ([1, 2.5], 2.5), (["1"], "1"),
                                         ([float("nan")], float("nan")), ([True], True),
                                         (np.array([1, 0], dtype=bool), True)], ids=str)
def test_collocation_refuses_shell_indices_that_are_not_integers(scheme, shells, bad):
    # 0.5 once truncated to shell 0 and solved there, and True was shell 1
    message = f"shell index must be an integer, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        radial_collocation_solve(np.ones(len(shells)), shells, scheme)


def test_collocation_takes_integral_floats_as_their_integers(scheme):
    values = np.array([0.3, -1.2])
    want = radial_collocation_solve(values, [2, 3], scheme)
    for shells in ([2.0, 3.0], np.array([2.0, 3.0]), np.array([2, 3], dtype=np.int32)):
        assert radial_collocation_solve(values, shells, scheme).tobytes() == want.tobytes()
    assert radial_collocation_solve([1.0], [1.0], scheme) == radial_collocation_solve([1], [1], scheme)


def test_collocation_flags_singular_systems(scheme):
    values = np.array([1.0, 1.0])
    with pytest.raises(ConditioningError) as excinfo:
        radial_collocation_solve(values, np.array([3, 3]), scheme)
    assert excinfo.value.condition > 1e8


def test_shell_count_is_taken_as_build_grid_takes_it():
    scheme, again = make_radial_scheme(4.0, 8000.0), make_radial_scheme(4, 8000.0)
    assert type(scheme.n_shells) is int and scheme.n_shells == 4 and scheme.zeta == again.zeta
    for name in ("roots", "radii", "bvalues", "weights", "basis"):
        assert getattr(scheme, name).tobytes() == getattr(again, name).tobytes()


@pytest.mark.parametrize("n_shells", [4.5, "4", float("nan")])
def test_make_radial_scheme_refuses_a_shell_count_that_is_not_an_integer(n_shells):
    with pytest.raises(ValueError, match="n_shells must be an integer"):
        make_radial_scheme(n_shells, 8000.0)


def test_bconvention_round_trip():
    conv = BConvention("physical", tau=0.05)
    b = np.array([0.0, 411.3, 8000.0])
    assert np.max(np.abs(conv.b_from_q(conv.q_from_b(b)) - b)) < 1e-9
    # b / (4 pi^2 tau) overflows; inf is the limit, with no warning
    assert BConvention("physical", tau=1e-3).q_from_b(1.7e308) == np.inf
    with pytest.raises(ValueError):
        BConvention("physical")
    with pytest.raises(ValueError):
        BConvention("bogus")
    with pytest.raises(ValueError, match="tau"):
        BConvention("normalized", tau=0.02)


def test_shell_ratios_independent_of_convention_and_bmax():
    a = make_radial_scheme(4, 8000.0)
    b = make_radial_scheme(4, 3000.0)
    c = make_radial_scheme(4, 8000.0, BConvention("physical", tau=0.02))
    assert np.max(np.abs(a.bvalues / a.bvalues[-1] - b.bvalues / b.bvalues[-1])) < 1e-13
    assert np.max(np.abs(a.bvalues - c.bvalues)) < 1e-9


@given(n_shells=st.integers(1, 6), b_max=st.floats(100.0, 2e4))
@settings(max_examples=40, deadline=None)
def test_scheme_invariants_hold_generally(n_shells, b_max):
    scheme = make_radial_scheme(n_shells, b_max)
    assert len(scheme.radii) == n_shells
    assert np.all(np.diff(scheme.radii) > 0) or n_shells == 1
    assert np.all(scheme.weights > 0)
    assert scheme.bvalues[-1] == pytest.approx(b_max, rel=1e-12)
    basis = np.array(
        [radial_basis_eval(n, scheme.radii, scheme.zeta) for n in range(n_shells)]
    )
    gram = (basis * scheme.weights) @ basis.T
    assert np.max(np.abs(gram - np.eye(n_shells))) < 1e-11

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qspf.angular import (
    _sh_position,
    dense_sht_oracle,
    forward_sht,
    inverse_sht,
    make_angular_scheme,
)
from qspf.errors import ConditioningError
from qspf.specfun import normalized_legendre, spherical_harmonic


def random_coefficients(bandlimit, rng):
    size = bandlimit * (bandlimit + 1) // 2
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def direct_synthesis(coeffs, scheme):
    """Pointwise harmonic sum, the slow reference for inverse_sht."""
    out = np.zeros(scheme.n_points, dtype=complex)
    for l in range(0, scheme.bandlimit, 2):
        for m in range(-l, l + 1):
            out += coeffs[_sh_position(l, m)] * spherical_harmonic(l, m, scheme.theta, scheme.phi)
    return out


def custom_scheme():
    """L=9 with random latitudes and azimuth offsets: the phase of every order is non-trivial."""
    rng = np.random.default_rng(3)
    thetas = np.sort(rng.uniform(0.2, 1.5, 5))
    return make_angular_scheme(9, thetas=thetas, phi_offsets=rng.uniform(0.0, 2 * np.pi, 5))


def test_scheme_structure():
    for L in (1, 3, 5, 9, 11):
        scheme = make_angular_scheme(L)
        assert scheme.n_points == L * (L + 1) // 2
        assert [r.stop - r.start for r in scheme.rings] == [4 * k + 1 for k in range((L + 1) // 2)]
        assert np.all(scheme.thetas > 0) and np.all(scheme.thetas < np.pi / 2)
        assert np.max(np.abs(np.linalg.norm(scheme.points, axis=1) - 1.0)) < 1e-14
        assert np.all(scheme.points[:, 2] > 0)


def test_make_angular_scheme_validation():
    with pytest.raises(ValueError):
        make_angular_scheme(4)
    with pytest.raises(ValueError):
        make_angular_scheme(-3)
    assert make_angular_scheme(133).condition < 1e8  # the largest the transform accepts
    for above in (135, 10001):
        with pytest.raises(ValueError, match=f"band limit {above} is above 133"):
            make_angular_scheme(above)
    with pytest.raises(ValueError):
        make_angular_scheme(5, thetas=[0.3, 0.9])
    with pytest.raises(ValueError):
        make_angular_scheme(3, thetas=[0.0, 1.0])
    with pytest.raises(ValueError):
        make_angular_scheme(3, thetas=[np.nan, 1.0])
    with pytest.raises(ValueError):
        make_angular_scheme(3, phi_offsets=[0.0, np.inf])


def test_conditioning_stays_small_at_default_layouts():
    # the transform contract only needs 1e4; the built-in layouts do far better
    for L in range(1, 13, 2):
        assert make_angular_scheme(L).condition < 10.0


def test_layout_search_keeps_the_best_rescaling():
    # the built-in layout is the first of five rescalings with the lowest worst per-order condition
    for L in [*range(1, 42, 2), 63, 81, 133]:
        base = np.pi * (2 * np.arange((L + 1) // 2) + 1) / (2 * (L + 1))
        candidates = [make_angular_scheme(L, thetas=base * s) for s in (1, 0.96, 0.98, 1.02, 1.04)]
        best = min(candidates, key=lambda scheme: scheme.condition)
        built_in = make_angular_scheme(L)
        for name in ("thetas", "rows", "order_conditions"):
            assert np.array_equal(getattr(built_in, name), getattr(best, name)), (L, name)


def test_explicit_latitudes_reproduce_the_chosen_layout():
    for L in (1, 3, 11, 25, 41):
        chosen = make_angular_scheme(L)
        again = make_angular_scheme(L, thetas=chosen.thetas)
        assert np.array_equal(again.thetas, chosen.thetas)
        assert again.condition == chosen.condition
        assert np.array_equal(again.order_conditions, chosen.order_conditions)


def test_default_schemes_are_memoised_and_read_only():
    scheme = make_angular_scheme(11)
    assert make_angular_scheme(11) is scheme
    assert make_angular_scheme(11.0) is scheme
    arrays = {name: v for name, v in vars(scheme).items() if isinstance(v, np.ndarray)}
    assert {"thetas", "phi_offsets", "points", "rows", "bins", "phase", "positions"} <= set(arrays)
    assert len(scheme.factors) == len(scheme.rings)
    for array in [*arrays.values(), *(array for step in scheme.factors for array in step)]:
        with pytest.raises(ValueError):
            array[...] = array


def test_explicit_layouts_are_memoised_by_their_exact_bits():
    default = make_angular_scheme(11)
    again = make_angular_scheme(11, thetas=default.thetas)
    offsets = make_angular_scheme(11, phi_offsets=default.phi_offsets)
    assert again is not default and offsets is not default and offsets is not again
    assert make_angular_scheme(11.0, thetas=list(default.thetas)) is again
    assert make_angular_scheme(11, None, np.zeros(6)) is offsets
    for name, value in vars(default).items():
        if isinstance(value, np.ndarray):
            for scheme in (again, offsets):
                assert np.array_equal(getattr(scheme, name), value), name
                with pytest.raises(ValueError):
                    getattr(scheme, name)[...] = value
    # the factors of equal rows are equal bits, so a descriptor rebuild transforms identically
    for scheme in (again, offsets):
        for step, default_step in zip(scheme.factors, default.factors, strict=True):
            for array, default_array in zip(step, default_step, strict=True):
                assert np.array_equal(array, default_array)
    # -0.0 is not 0.0, and a latitude one ulp away is another layout
    signed = make_angular_scheme(11, phi_offsets=-np.zeros(6))
    assert signed is not offsets and make_angular_scheme(11, phi_offsets=[-0.0] * 6) is signed
    nudged = default.thetas.copy()
    nudged[2] = np.nextafter(nudged[2], np.pi)
    assert make_angular_scheme(11, thetas=nudged) is not again
    assert np.array_equal(make_angular_scheme(11, thetas=nudged).thetas, nudged)


def test_explicit_layouts_copy_the_callers_arrays():
    thetas, offsets = make_angular_scheme(11).thetas.copy(), np.linspace(0.0, 0.5, 6)
    scheme = make_angular_scheme(11, thetas=thetas, phi_offsets=offsets)
    before = copy.deepcopy(vars(scheme))
    thetas[:] = 0.5
    offsets[:] = 0.3
    for name, value in vars(scheme).items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, before[name]), name
        elif name == "factors":
            assert len(value) == len(before[name]) == 6
            for step, kept in zip(value, before[name]):
                for array, copied in zip(step, kept, strict=True):
                    assert np.array_equal(array, copied)
        else:
            assert value == before[name], name


def test_refused_band_limits_raise_on_every_call():
    # failures are not memoised; a fractional band limit is refused, not truncated
    for bandlimit in (4, 4, 11.5, 11.5):
        with pytest.raises(ValueError):
            make_angular_scheme(bandlimit)


def test_refused_placements_raise_on_every_call():
    thetas = make_angular_scheme(11).thetas
    # the memo key keeps the shape, so six latitudes as a (2, 3) array are still refused
    for refused in ({"thetas": thetas.reshape(2, 3)}, {"phi_offsets": np.zeros((2, 3))},
                    {"thetas": np.append(thetas[:-1], np.pi)}, {"phi_offsets": [0.0] * 5}):
        for _ in range(2):
            with pytest.raises(ValueError):
                make_angular_scheme(11, **refused)


def test_scheme_keeps_each_orders_legendre_rows():
    # one (ring, degree) rows array per |m|, shared by +m and -m, degree j holding l = 2j; the
    # solve matrix is those rows on the rings that resolve |m|
    scheme = make_angular_scheme(21)
    table = normalized_legendre(20, np.cos(scheme.thetas))
    assert scheme.rows.shape == (21, 11, 11) and scheme.positions.shape == (21, 11, 2)
    end = scheme.n_points  # one coefficient per point
    sizes = np.array([r.stop - r.start for r in scheme.rings])
    for mu in range(21):
        rows, first = scheme.rows[mu], (mu + 1) // 2
        assert np.array_equal(rows, table[0::2, mu].T)
        resolving = np.flatnonzero(sizes >= 2 * mu + 1)
        degrees = np.arange(mu + mu % 2, 21, 2)
        assert np.array_equal(resolving, np.arange(first, 11))
        matrix = rows[first:, first:]
        assert np.array_equal(matrix, rows[resolving][:, degrees // 2])
        assert matrix.shape == (len(degrees),) * 2
        positions = scheme.positions[mu, first:]
        assert list(positions[:, 0]) == [_sh_position(l, mu) for l in degrees]
        # -0 is +0; its column points past the coefficients
        assert list(positions[:, 1]) == [_sh_position(l, -mu) if mu else end for l in degrees]
        # below the order's first degree there is no coefficient: rows zero, positions past the end
        assert not rows[:, :first].any()
        assert np.all(scheme.positions[mu, :first] == end)


def test_scheme_folds_the_bins_signs_and_phases():
    scheme = custom_scheme()
    starts, sizes = np.array([(r.start, r.stop - r.start) for r in scheme.rings]).T
    assert scheme.bins.shape == scheme.phase.shape == (9, 5, 2)
    for mu in range(9):
        for column, m in enumerate((mu, -mu)):
            where, phase = scheme.bins[mu, :, column], scheme.phase[mu, :, column]
            assert np.array_equal(where, starts + m % sizes)
            sign = -1.0 if m < 0 and m % 2 else 1.0
            assert np.array_equal(phase, sign * np.exp(1j * m * scheme.phi_offsets))
    # +m and -m share a bin on ring 0 and on every ring whose size divides m
    shared = scheme.bins[..., 0] == scheme.bins[..., 1]
    assert np.array_equal(shared, np.arange(9)[:, None] % sizes == 0)


def per_order_cascade(values, scheme, lapack=False):
    """The forward cascade one |m| at a time, highest first.

    Order mu applies its slice of the stored factors of ring (mu + 1) // 2, or
    with lapack solves its own system by np.linalg.solve, refactorising it.
    """
    bins = np.concatenate([np.fft.fft(values[ring], norm="forward") for ring in scheme.rings])
    out = np.zeros(scheme.n_points + 1, dtype=complex)
    for mu in reversed(range(scheme.bandlimit)):
        first = (mu + 1) // 2
        rows, where, phase = scheme.rows[mu], scheme.bins[mu], scheme.phase[mu]
        rhs = (bins[where[first:]] * phase[first:].conj()).view(float)
        if lapack:
            solved = np.linalg.solve(rows[first:, first:], rhs)
        else:
            # ring f stacks orders 2f, 2f - 1
            qt, rinv = (factor[2 * first - mu] for factor in scheme.factors[first])
            solved = rinv @ (qt @ rhs)
        out[scheme.positions[mu, first:]] = solved.view(complex)
        spill = (rows[:first, first:] @ solved).view(complex) * phase[:first]
        np.subtract.at(bins, where[:first], spill)
    return out[:-1]


def test_per_ring_cascade_is_bit_identical_to_the_per_order_one():
    # orders 2f and 2f - 1 share ring f's step; neither reads the other's spill
    rng = np.random.default_rng(4)
    for scheme in [make_angular_scheme(L) for L in (1, 3, 11, 21, 41, 63)] + [custom_scheme()]:
        for values in (rng.standard_normal(scheme.n_points),
                       inverse_sht(random_coefficients(scheme.bandlimit, rng), scheme)):
            got = forward_sht(values, scheme)
            assert np.array_equal(got, per_order_cascade(values, scheme))


def test_stored_factors_agree_with_lapack_solves():
    rng = np.random.default_rng(6)
    for L in (11, 21, 41):
        scheme = make_angular_scheme(L)
        for values in (rng.standard_normal(scheme.n_points),
                       inverse_sht(random_coefficients(L, rng), scheme)):
            solved = per_order_cascade(values, scheme, lapack=True)
            error = np.max(np.abs(forward_sht(values, scheme) - solved))
            assert error <= 1e-12 * np.max(np.abs(solved)), L


def test_stored_factors_keep_the_lapack_round_trip_at_the_top_rung():
    # Q^T then R^-1 reads ~1.1x the LAPACK round trip at L = 63; R^-1 Q^T
    # multiplied out or an inverse of the whole step matrix read 2-6x
    rng = np.random.default_rng(7)
    scheme = make_angular_scheme(63)
    factored = solved = 0.0
    for _ in range(30):
        coeffs = random_coefficients(63, rng)
        values = inverse_sht(coeffs, scheme)
        factored = max(factored, np.max(np.abs(forward_sht(values, scheme) - coeffs)))
        solved = max(solved, np.max(np.abs(per_order_cascade(values, scheme, True) - coeffs)))
    assert factored <= 1.5 * solved


def test_round_trip_all_default_bandlimits():
    rng = np.random.default_rng(0)
    for L in (1, 3, 5, 9, 11):
        scheme = make_angular_scheme(L)
        for _ in range(20):
            coeffs = random_coefficients(L, rng)
            back = forward_sht(inverse_sht(coeffs, scheme), scheme)
            assert np.max(np.abs(back - coeffs)) < 1e-10


def test_inverse_matches_direct_summation():
    rng = np.random.default_rng(1)
    for scheme in [make_angular_scheme(L) for L in (3, 5, 11, 21)] + [custom_scheme()]:
        coeffs = random_coefficients(scheme.bandlimit, rng)
        fast = inverse_sht(coeffs, scheme)
        slow = direct_synthesis(coeffs, scheme)
        assert np.max(np.abs(fast - slow)) < 1e-11


def test_forward_agrees_with_dense_oracle():
    rng = np.random.default_rng(2)
    for scheme in (make_angular_scheme(11), custom_scheme(), make_angular_scheme(21)):
        for _ in range(10):
            values = inverse_sht(random_coefficients(scheme.bandlimit, rng), scheme)
            fast = forward_sht(values, scheme)
            dense = dense_sht_oracle(values, scheme)
            assert np.max(np.abs(fast - dense)) < 1e-11


def test_round_trip_with_custom_offsets_and_latitudes():
    rng = np.random.default_rng(3)
    L = 9
    n_rings = (L + 1) // 2
    thetas = np.sort(rng.uniform(0.2, 1.5, n_rings))
    offsets = rng.uniform(0.0, 2 * np.pi, n_rings)
    scheme = make_angular_scheme(L, thetas=thetas, phi_offsets=offsets)
    coeffs = random_coefficients(L, rng)
    back = forward_sht(inverse_sht(coeffs, scheme), scheme)
    assert np.max(np.abs(back - coeffs)) < 1e-9


def test_degenerate_latitudes_raise_conditioning_error():
    thetas = np.array([0.4, 0.4, 1.0])
    scheme = make_angular_scheme(5, thetas=thetas)
    assert not scheme.condition < 1e8
    with pytest.raises(ConditioningError) as excinfo:
        forward_sht(np.ones(scheme.n_points), scheme)
    assert excinfo.value.condition > 1e8


def test_nearly_coincident_latitudes_build_and_raise_on_transform():
    # a finite condition number above the limit: no factors are built, so no LinAlgError
    scheme = make_angular_scheme(5, thetas=[0.4, 0.4 + 1e-9, 1.0])
    assert 1e8 <= scheme.condition < np.inf
    assert scheme.factors == ()
    with pytest.raises(ConditioningError) as excinfo:
        forward_sht(np.ones(scheme.n_points), scheme)
    assert excinfo.value.condition == scheme.condition


def test_forward_input_validation():
    scheme = make_angular_scheme(5)
    with pytest.raises(ValueError):
        forward_sht(np.ones(7), scheme)
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        values = np.ones(scheme.n_points, dtype=complex)
        values[4] = bad
        with pytest.raises(ValueError, match="finite"):
            forward_sht(values, scheme)
    with pytest.raises(ValueError):
        inverse_sht(np.zeros(6), scheme)  # the coefficient count of band limit 3
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        coeffs = np.ones(scheme.n_points, dtype=complex)
        coeffs[4] = bad
        with pytest.raises(ValueError, match="finite"):
            inverse_sht(coeffs, scheme)


def test_coefficient_indexing():
    assert _sh_position(0, 0) == 0
    assert _sh_position(2, -2) == 1
    assert _sh_position(4, -4) == 6
    with pytest.raises(ValueError):
        inverse_sht(np.zeros(7), make_angular_scheme(5))


def test_constant_signal_hits_only_the_monopole():
    scheme = make_angular_scheme(9)
    coeffs = forward_sht(np.ones(scheme.n_points), scheme)
    assert coeffs[0] == pytest.approx(np.sqrt(4.0 * np.pi), rel=1e-13)
    rest = coeffs[1:]
    assert np.max(np.abs(rest)) < 1e-13


@given(ring_seed=st.integers(0, 2**32 - 1), bandlimit=st.sampled_from([1, 3, 5, 7]))
@settings(max_examples=25, deadline=None)
def test_round_trip_property(ring_seed, bandlimit):
    rng = np.random.default_rng(ring_seed)
    scheme = make_angular_scheme(bandlimit)
    coeffs = random_coefficients(bandlimit, rng)
    back = forward_sht(inverse_sht(coeffs, scheme), scheme)
    assert np.max(np.abs(back - coeffs)) < 1e-10

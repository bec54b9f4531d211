import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import qspf
from qspf import (BConvention, SpfCoefficients, TensorComponent, add_rician_noise, build_grid,
                  laguerre_eval, laguerre_roots, make_radial_scheme, normalized_legendre,
                  quadrature_weights, radial_basis_eval, radial_collocation_solve, run_validation,
                  spherical_harmonic, staircase_index)


def test_package_exports_each_public_name_once_from_its_module():
    assert len(set(qspf.__all__)) == len(qspf.__all__)
    for name in qspf.__all__:
        obj = getattr(qspf, name)
        if name != "__version__":
            assert getattr(importlib.import_module(obj.__module__), name) is obj, name


def test_declared_numpy_floor_has_the_in_place_ring_ffts():
    # angular._ring_dft passes out= to np.fft, which numpy takes from 2.0 on; the tests' oracle
    # and references take scipy.special.sph_harm_y, which scipy has from 1.15 on
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    for package, least in (("numpy", (2, 0)), ("scipy", (1, 15))):
        floor = re.search(rf'"{package}>=(\d+)\.?(\d*)[.\d]*"', text)
        assert floor is not None, package
        assert (int(floor.group(1)), int(floor.group(2) or 0)) >= least, package


def _number_arguments():
    """(name the error must hold, call taking one argument value) for every scalar argument."""
    grid = build_grid(2, 1000.0, (3, 5))
    values = np.zeros(grid.index.size)
    return [
        ("n_shells", lambda v: build_grid(v, 8000.0, (3,))),
        ("n_shells", lambda v: make_radial_scheme(v, 8000.0)),
        ("b_max", lambda v: build_grid(1, v, (3,))),
        ("b_max", lambda v: make_radial_scheme(1, v)),
        ("band limit", lambda v: build_grid(1, 8000.0, (v,))),
        ("band limit", lambda v: staircase_index((3, v))),
        ("tau", lambda v: BConvention("physical", v)),
        ("zeta", lambda v: radial_basis_eval(0, 1.0, v)),
        ("zeta", lambda v: quadrature_weights(grid.radial.roots, v)),
        ("zeta", lambda v: SpfCoefficients(grid.index, v, grid.radial.convention, values)),
        ("sigma", lambda v: add_rician_noise(np.ones(3), v, 0)),
        ("volume fraction", lambda v: TensorComponent(np.eye(3) * 1e-3, v)),
        ("n_draws", lambda v: run_validation(grid=grid, n_draws=v)),
        ("seed", lambda v: run_validation(grid=grid, seed=v, n_draws=1)),
        ("polynomial order", lambda v: laguerre_eval(v, 0.5, 1.0)),
        ("root count", lambda v: laguerre_roots(v, 0.5)),
        ("l_max", lambda v: normalized_legendre(v, 0.5)),
        ("degree l", lambda v: spherical_harmonic(v, 0, 0.5, 0.0)),
        ("radial order", lambda v: radial_basis_eval(v, 1.0, 500.0)),
        ("n=", lambda v: grid.index.locate(v, 0, 0)),
        ("shell index", lambda v: radial_collocation_solve([1.0], [v], grid.radial)),
    ]


@pytest.mark.parametrize("value", [True, False, np.True_, np.False_, np.array(True),
                                   np.array(False), "8000", None, b"1", 1j], ids=repr)
def test_number_arguments_refuse_bools_and_non_numbers_with_a_value_error(value):
    # bool is an int in Python, so True once passed as 1 and False as 0 wherever 1 or 0 did, and
    # int() takes a 0-d bool array the same way; tau, zeta, sigma and the volume fraction raised
    # a bare TypeError on "8000" or None
    for name, call in _number_arguments():
        with pytest.raises(ValueError, match=re.escape(name)):
            call(value)


def test_real_arguments_take_any_real_number():
    for value in (2, 2.0, np.float32(2.0), np.int64(2), np.float64(2.0)):
        assert BConvention("physical", value).b_per_q2 == 4.0 * np.pi**2 * 2.0
        assert radial_basis_eval(1, 1.0, value) == radial_basis_eval(1, 1.0, 2.0)
        assert np.array_equal(add_rician_noise(np.ones(3), value, 0),
                              add_rician_noise(np.ones(3), 2.0, 0))
    for fraction in (0, 1, 0.5, np.float32(0.25)):
        assert TensorComponent(np.eye(3) * 1e-3, fraction).fraction == fraction

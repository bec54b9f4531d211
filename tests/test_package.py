import importlib
import re
from pathlib import Path

import qspf


def test_package_exports_each_public_name_once_from_its_module():
    assert len(set(qspf.__all__)) == len(qspf.__all__)
    for name in qspf.__all__:
        obj = getattr(qspf, name)
        if name != "__version__":
            assert getattr(importlib.import_module(obj.__module__), name) is obj, name


def test_declared_numpy_floor_has_the_in_place_ring_ffts():
    # angular._ring_dft passes out= to np.fft, which numpy takes from 2.0 on
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    floor = re.search(r'"numpy>=(\d+)[.\d]*"', text)
    assert floor is not None and int(floor.group(1)) >= 2

import importlib

import qspf


def test_package_exports_each_public_name_once_from_its_module():
    assert len(set(qspf.__all__)) == len(qspf.__all__)
    for name in qspf.__all__:
        obj = getattr(qspf, name)
        if name != "__version__":
            assert getattr(importlib.import_module(obj.__module__), name) is obj, name

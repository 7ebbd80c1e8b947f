"""The package namespace: what its four core modules list in `__all__`."""

from __future__ import annotations

import strategem
from strategem import effects, strategies, terms, themes

_CORE = (effects, strategies, terms, themes)


def test_the_package_exports_what_its_core_modules_list():
    names = [name for module in _CORE for name in module.__all__]
    assert strategem.__all__ == names
    assert len(set(names)) == len(names)
    for module in _CORE:
        for name in module.__all__:
            assert getattr(strategem, name) is getattr(module, name), name


def test_a_star_import_binds_exactly_the_exported_names():
    namespace: dict = {}
    exec("from strategem import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(strategem.__all__)

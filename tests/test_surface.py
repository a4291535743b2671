"""The public surface: each module's ``__all__`` is the one declaration of its names."""

import importlib

import dmdkit

_MODULES = ("errors", "matrixio", "snapshots", "inner", "pod", "ritz", "variants", "weighted", "verify")


def test_top_level_all_is_the_union_of_the_module_lists():
    modules = [importlib.import_module("dmdkit." + name) for name in _MODULES]
    union = [name for module in modules for name in module.__all__]
    assert len(union) == len(set(union))
    assert sorted(dmdkit.__all__) == sorted(union)
    for module in modules:
        for name in module.__all__:
            assert getattr(dmdkit, name) is getattr(module, name), (module.__name__, name)

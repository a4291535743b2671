"""The public surface: each module's ``__all__`` is the one declaration of its
names, README documents every one of them, and every name the benchmark
imports resolves."""

import ast
import importlib
import pathlib
import re

import dmdkit

_MODULES = ("errors", "matrixio", "snapshots", "inner", "pod", "ritz", "variants", "weighted", "verify")
_ROOT = pathlib.Path(__file__).resolve().parent.parent
# bench/roadmap_profile.py is left out: it imports _COMPRESS_CROSSOVER, a
# name deleted from dmdkit.variants long ago, and it is due to be deleted
# itself (ROADMAP item 1b).
_BENCH_FILES = ("run.py", "harness.py", "tracing.py", "test_bench_harness.py")


def test_top_level_all_is_the_union_of_the_module_lists():
    modules = [importlib.import_module("dmdkit." + name) for name in _MODULES]
    union = [name for module in modules for name in module.__all__]
    assert len(union) == len(set(union))
    assert sorted(dmdkit.__all__) == sorted(union)
    for module in modules:
        for name in module.__all__:
            assert getattr(dmdkit, name) is getattr(module, name), (module.__name__, name)


def test_every_public_name_is_named_in_readme():
    readme = (_ROOT / "README.md").read_text()
    # in backticks, alone or as a call: `name` or `name(...)`
    missing = [name for name in dmdkit.__all__ if not re.search(r"`%s[`(]" % name, readme)]
    assert missing == []


def _dmdkit_imports(path):
    """(module, name) for every ``from dmdkit... import name`` in a file, and
    (module, None) for every ``import dmdkit...``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "dmdkit":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names if alias.name.split(".")[0] == "dmdkit")


def test_every_name_the_benchmark_imports_resolves():
    imports = [(filename, *imp) for filename in _BENCH_FILES for imp in _dmdkit_imports(_ROOT / "bench" / filename)]
    assert len(imports) > 20
    for filename, module, name in imports:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), (filename, module, name)

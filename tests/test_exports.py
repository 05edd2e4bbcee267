"""The package's export list, resolved lazily from each name's home module, and each name imported from its home."""

import ast
import collections
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import procline
from test_cli import _fresh_interpreter_env


def test_every_exported_name_resolves_and_is_listed_once():
    repeated = [name for name, n in collections.Counter(procline.__all__).items() if n > 1]
    assert repeated == []
    assert [name for name in procline.__all__ if not hasattr(procline, name)] == []


def test_every_exported_name_is_its_home_modules_object():
    for module, names in procline._EXPORTS.items():
        home = importlib.import_module(f"procline.{module}")
        assert [name for name in names if getattr(procline, name) is not getattr(home, name)] == []
    assert sorted(name for names in procline._EXPORTS.values() for name in names) == procline.__all__


def test_dir_covers_the_exports():
    assert set(procline.__all__) <= set(dir(procline))


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from procline import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == procline.__all__


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        procline.no_such_name  # noqa: B018
    assert not hasattr(procline, "no_such_name")


def test_submodules_resolve_as_attributes_in_a_fresh_interpreter():
    # a fresh interpreter, where the bare import has loaded no submodule yet
    probe = (
        "import sys, procline\n"
        "assert not [m for m in sys.modules if m.startswith('procline.')]\n"
        "print(procline.xmlio.__name__, procline.model.__name__, procline.serialize_model.__module__)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_fresh_interpreter_env(), check=True
    )
    assert result.stdout.split() == ["procline.xmlio", "procline.model", "procline.xmlio"]


def test_every_exported_name_is_defined_in_its_home():
    defined_in = {name: getattr(getattr(procline, name), "__module__", None) for name in procline._HOMES}
    assert defined_in == {name: f"procline.{home}" for name, home in procline._HOMES.items()}


# the old paths perfbench/tracer.py wraps, kept until it names each name at its home
_TRACED = ("parse_model", "parse_extension", "export_stats_csv", "render_stats_text")


def test_only_the_package_and_xmlio_answer_for_a_missing_name():
    for name in procline._SUBMODULES:
        importlib.import_module(f"procline.{name}")
    ours = {n: m for n, m in sys.modules.items() if n == "procline" or n.startswith("procline.")}
    assert sorted(n for n, m in ours.items() if "__getattr__" in vars(m)) == ["procline", "procline.xmlio"]
    # xmlio keeps the old paths in _TRACED and no other
    xmlio = ours["procline.xmlio"]
    forwarded = set()
    for name in {n for m in ours.values() for n in vars(m)} - set(vars(xmlio)):
        try:
            xmlio.__getattr__(name)
        except AttributeError:
            continue
        forwarded.add(name)
    assert forwarded == {"export_stats_csv", "render_stats_text"}
    readers = {n for n, v in vars(xmlio).items() if getattr(v, "__module__", None) == "procline.xmlread"}
    assert readers == {"parse_extension", "parse_model"}
    with pytest.raises(AttributeError, match="module 'procline.xmlio' has no attribute 'no_such_name'"):
        xmlio.no_such_name  # noqa: B018


@pytest.mark.parametrize("name", _TRACED)
def test_a_path_the_tracer_reads_is_the_home_modules_object(name):
    namespace = {}
    exec(f"from procline.xmlio import {name} as value", namespace)
    assert namespace["value"] is getattr(importlib.import_module(f"procline.{procline._HOMES[name]}"), name)


@pytest.mark.parametrize(
    "old, name",
    [
        ("catalog", "expand_exemplar"),
        ("catalog", "validate_exemplar"),
        ("xmlio", "CSV_HEADER"),
        ("xmlio", "UNKNOWN_GROUP"),
        ("xmlio", "parse_catalog"),
    ],
)
def test_a_removed_old_path_raises_import_error(old, name):
    with pytest.raises(ImportError, match=f"cannot import name {name!r}"):
        exec(f"from procline.{old} import {name}", {})


def _misplaced_imports(source):
    """(line, module, name) of each import of an exported name from a module other than its home."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.level == 1:
            module = node.module
        elif node.level == 0 and node.module.startswith("procline."):
            module = node.module.removeprefix("procline.")
        else:
            continue
        found += [(node.lineno, module, a.name) for a in node.names if procline._HOMES.get(a.name, module) != module]
    return sorted(found)


def test_every_import_of_an_exported_name_names_its_home():
    root = Path(__file__).resolve().parents[1]
    paths = [*sorted((root / "tests").glob("*.py")), *sorted((root / "src" / "procline").glob("*.py"))]
    misplaced = {
        str(path.relative_to(root)): found
        for path in paths
        if (found := _misplaced_imports(path.read_text(encoding="utf-8")))
    }
    assert misplaced == {}


def test_the_import_lint_flags_an_old_path_absolute_or_relative():
    source = (
        "from procline.xmlio import parse_model, serialize_model\n"
        "from procline import VariantSet\n"
        "def f():\n"
        "    from .merge import VariantSet, merge_chain\n"
    )
    assert _misplaced_imports(source) == [(1, "xmlio", "parse_model"), (4, "merge", "VariantSet")]

"""The package's export list, resolved lazily from each name's home module, and moved names at their old homes."""

import collections
import importlib
import subprocess
import sys

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


# (old home, name, new home) of each name a module boundary moved
_MOVED = (
    ("xmlio", "export_stats_csv", "analytics"),
    ("xmlio", "render_stats_text", "analytics"),
    ("xmlio", "CSV_HEADER", "analytics"),
    ("xmlio", "UNKNOWN_GROUP", "analytics"),
    ("catalog", "expand_exemplar", "atomic"),
    ("catalog", "validate_exemplar", "atomic"),
    ("merge", "ExtensionModel", "family"),
    ("merge", "VariantSet", "family"),
    ("atomic", "AtomicKind", "catalog"),
)


@pytest.mark.parametrize("old, name, new", _MOVED, ids=lambda value: value)
def test_a_moved_name_reads_at_its_old_home_as_the_same_object(old, name, new):
    old_home = importlib.import_module(f"procline.{old}")
    new_home = importlib.import_module(f"procline.{new}")
    assert getattr(old_home, name) is getattr(new_home, name)
    namespace = {}
    exec(f"from procline.{old} import {name} as value", namespace)
    assert namespace["value"] is getattr(new_home, name)


# (forwarding module, a private name of the module its names moved to)
@pytest.mark.parametrize("module, private", [("xmlio", "_Lines"), ("catalog", "_expand")])
def test_an_unknown_name_on_a_forwarding_module_raises_attribute_error(module, private):
    home = importlib.import_module(f"procline.{module}")
    with pytest.raises(AttributeError, match=f"module 'procline.{module}' has no attribute 'no_such_name'"):
        home.no_such_name  # noqa: B018
    assert not hasattr(home, "no_such_name")
    assert not hasattr(home, private)  # only public names are forwarded


def test_a_moved_name_imports_from_its_old_home_in_a_fresh_interpreter():
    probe = (
        "from procline.xmlio import export_stats_csv\n"
        "from procline.catalog import expand_exemplar\n"
        "print(export_stats_csv.__module__, expand_exemplar.__module__)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_fresh_interpreter_env(), check=True
    )
    assert result.stdout.split() == ["procline.analytics", "procline.atomic"]

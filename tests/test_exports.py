"""The package's export list, resolved lazily from each name's home module."""

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

"""The package's export list."""

import collections

import procline


def test_every_exported_name_resolves_and_is_listed_once():
    repeated = [name for name, n in collections.Counter(procline.__all__).items() if n > 1]
    assert repeated == []
    assert [name for name in procline.__all__ if not hasattr(procline, name)] == []

import gc

import pytest

from procline.catalog import builtin_catalog
from procline.studyline import reference_model, study_variant_set


@pytest.fixture(scope="session")
def catalog():
    return builtin_catalog()


@pytest.fixture(scope="session")
def root():
    return reference_model()


@pytest.fixture(scope="session")
def variants():
    return study_variant_set()


@pytest.fixture
def gc_restored():
    """Give the collector back as the test found it."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()

"""The bundled data set: shipped files and family shape."""

import pytest

from procline.catalog import builtin_catalog
from procline.studyline import (
    DATA_FILES,
    MASKING_VARIANT_ID,
    VARIANT_IDS,
    fixture_text,
    masking_extension,
    reference_model,
    study_variant_set,
)
from procline.xmlio import (
    parse_catalog,
    parse_extension,
    parse_model,
    serialize_catalog,
    serialize_extension,
    serialize_model,
)


def test_shipped_files_are_canonical():
    catalog_text = fixture_text("catalog.xml")
    assert catalog_text == serialize_catalog(builtin_catalog())
    assert parse_catalog(catalog_text) == builtin_catalog()
    root_text = fixture_text("root.xml")
    assert serialize_model(parse_model(root_text)) == root_text
    for name in DATA_FILES:
        if name.startswith("ext-"):
            text = fixture_text(name)
            assert serialize_extension(parse_extension(text)) == text, f"{name} is not canonical"


def test_fixture_text_rejects_unknown_names():
    with pytest.raises(ValueError):
        fixture_text("nope.xml")


def test_family_tree_shape():
    variants = study_variant_set()
    assert tuple(variants.variant_ids()) == VARIANT_IDS
    assert variants.root_id == "root"
    parents = {v: variants.extensions[v].parent_id for v in VARIANT_IDS}
    assert parents == {"A": "root", "B": "root", "Bund": "root", "C": "Bund", "D": "root"}
    mask = masking_extension()
    assert mask.variant_id == MASKING_VARIANT_ID
    assert mask.parent_id == "root"


def test_reference_model_size():
    root = reference_model()
    assert len(root.elements) == 182
    assert len(root.references) == 88
    assert root.check_consistency() == []


def test_declared_exemplar_counts():
    variants = study_variant_set()
    counts = {v: variants.extensions[v].exemplar_count() for v in VARIANT_IDS}
    assert counts == {"Bund": 167, "A": 17, "B": 72, "C": 84, "D": 0}


def test_every_exemplar_type_is_in_the_catalog():
    catalog = builtin_catalog()
    variants = study_variant_set()
    for variant_id in VARIANT_IDS:
        for exemplar in variants.extensions[variant_id].exemplars:
            assert exemplar.type_name in catalog, (variant_id, exemplar.type_name)

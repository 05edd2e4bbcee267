"""The bundled data set: shipped files, family shape and pinned outputs."""

import fnmatch
import hashlib
from pathlib import Path

import pytest

from procline.catalog import builtin_catalog
from procline.merge import merge_chain, merge_once
from procline.studyline import (
    DATA_FILES,
    MASKING_VARIANT_ID,
    VARIANT_IDS,
    fixture_text,
    masking_extension,
    reference_model,
    study_variant_set,
)
from procline.xmlio import serialize_catalog, serialize_extension, serialize_model, serialize_trace
from procline.xmlread import parse_extension, parse_model

# sha256 of the built-in catalog as the canonical writer gives it, the same as data/catalog.xml
CATALOG_SHA256 = "9c2d985abfb871c4b50e3c80bf84880d20be443dcbf996ae5199efb4093f13dc"

# sha256 of the merged model and of the trace, as the canonical writer gives them
STUDY_OUTPUT_SHA256 = {
    "A": (
        "2dff151520d8745d5f93f4bd45a517f91df87582e63bd6553e4c17a9b6bc9bdd",
        "736754b763040435bb7f8ee20bf820544983e6ae9e934add855ab0ccf6143ad1",
    ),
    "B": (
        "67dc15582f1cb0644c6a2e9b8049a346778d0bc842d8b89e45f161fded365bf0",
        "5b903cebf187b2611ec2bcad141b6449d65ccbc4357ad23554ab28f7b9ab44e6",
    ),
    "Bund": (
        "eadfa6224a8dde810ce95b75775ab5e983fb0cfce2045d3baa1252a4f554554e",
        "9f8df78beda82040c1337a5152d94a5248d8e2c879f1a3e1e69e1aa383a808bd",
    ),
    "C": (
        "4bcfb17c1bfee012e03cb963ad51e1f435f3591d2eda186cc8ea088ff1fff783",
        "64d17511e23e86662c3cc818d8e9bbad15baa0a50309c3b6510aff1339086b74",
    ),
    "D": (
        "4fbbfa8351b90f005c26fd90f4983127b96852de2f81cf88de4b0d899983d953",
        "36f82ea54897184140d9877961429e5c107980c884a2f2e76e3324b93f495eaa",
    ),
    MASKING_VARIANT_ID: (
        "1cb6fe0dc1df30cb510dc64ab0fd80e4b1972f41a7c2165cf321fa8836a70ef4",
        "2d991c54c3f46e018a2933f021a890ec145d18d8743d2af6ae6ba7a663f6d237",
    ),
}


def test_shipped_files_are_canonical():
    assert _sha256(serialize_catalog(builtin_catalog())) == CATALOG_SHA256
    root_text = fixture_text("root.xml")
    assert serialize_model(parse_model(root_text)) == root_text
    for name in DATA_FILES:
        if name.startswith("ext-"):
            text = fixture_text(name)
            assert serialize_extension(parse_extension(text)) == text, f"{name} is not canonical"


def test_package_data_ships_every_data_file():
    # commands run without --catalog read data/catalog.xml at run time
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    globs = tomllib.loads(pyproject.read_text(encoding="utf-8"))["tool"]["setuptools"]["package-data"]["procline"]
    for name in DATA_FILES:
        assert any(fnmatch.fnmatchcase(f"data/{name}", glob) for glob in globs), f"{name} is not package data"


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
    counts = {v: len(variants.extensions[v].exemplars) for v in VARIANT_IDS}
    assert counts == {"Bund": 167, "A": 17, "B": 72, "C": 84, "D": 0}


def test_the_family_shares_one_string_per_exemplar_value():
    # the study variants are parsed with one memo: equal targets and
    # argument values across the whole family are one object
    variants = study_variant_set()
    values = [
        value
        for variant_id in VARIANT_IDS
        for exemplar in variants.extensions[variant_id].exemplars
        for value in (exemplar.target, *exemplar.args.values())
    ]
    first: dict[str, str] = {}
    assert all(first.setdefault(value, value) is value for value in values)
    assert len(first) < len(values)


def test_every_exemplar_type_is_in_the_catalog():
    catalog = builtin_catalog()
    variants = study_variant_set()
    for variant_id in VARIANT_IDS:
        for exemplar in variants.extensions[variant_id].exemplars:
            assert exemplar.type_name in catalog, (variant_id, exemplar.type_name)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("variant_id", sorted(STUDY_OUTPUT_SHA256))
def test_study_merges_and_traces_keep_their_bytes(variant_id):
    catalog = builtin_catalog()
    if variant_id == MASKING_VARIANT_ID:
        merged, trace = merge_once(reference_model(), masking_extension(), catalog)
    else:
        merged, trace = merge_chain(study_variant_set(), variant_id, catalog)
    digests = (_sha256(serialize_model(merged)), _sha256(serialize_trace(trace)))
    assert digests == STUDY_OUTPUT_SHA256[variant_id]

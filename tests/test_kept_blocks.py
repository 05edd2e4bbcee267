"""The writer keeps each element's and reference's XML block on the asset.

``serialize_model`` formats an asset the first time it writes it without
error and reuses that block for every later model that holds the same
object. These tests hold the kept blocks to a rendering that has none: the
same model rebuilt from fresh assets through the public constructors.
"""

import dataclasses
import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

import genmodels
from procline import xmlio
from procline.errors import ConflictError, IllegalCharacterError, ValidationFailedError
from procline.family import ExtensionModel
from procline.merge import merge_chain, merge_once
from procline.model import (
    ElementKind,
    ProcessElement,
    ProcessModel,
    Reference,
    TextBlock,
    compare_models,
)
from procline.studyline import fixture_text, masking_extension, reference_model, study_variant_set
from procline.xmlio import serialize_model
from procline.xmlread import parse_model


def _fresh(asset):
    return type(asset)(**{f.name: getattr(asset, f.name) for f in dataclasses.fields(asset)})


def _unkept(model: ProcessModel) -> ProcessModel:
    """``model`` with every asset built again, so that no block is kept on any of them."""
    return ProcessModel.of(
        model.metamodel, map(_fresh, model.elements.values()), map(_fresh, model.references.values())
    )


def _model_of(*assets) -> ProcessModel:
    return ProcessModel.of(
        "1.3",
        [a for a in assets if isinstance(a, ProcessElement)],
        [a for a in assets if isinstance(a, Reference)],
    )


def _written(model: ProcessModel) -> str:
    try:
        return serialize_model(model)
    except IllegalCharacterError as exc:
        return f"IllegalCharacterError: {exc}"


def _assert_written_as_unkept(model: ProcessModel) -> None:
    expected = _written(_unkept(model))
    assert _written(model) == expected
    assert _written(model) == expected  # the second write reads every block it kept


# -- differential -----------------------------------------------------------------


@pytest.mark.parametrize("family", ["study", "scaled-k2"])
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
def test_every_chain_is_written_as_without_kept_blocks(catalog, family, reverse):
    # a family parsed for this test alone: which blocks are kept when a
    # model is written depends on the chains written before it
    variant_set = study_variant_set() if family == "study" else genmodels.scaled_variant_set(2)
    leaves = sorted(variant_set.variant_ids(), reverse=reverse)
    for last_wins in (False, True):
        for leaf in leaves:
            model, trace = merge_chain(variant_set, leaf, catalog, last_wins=last_wins)
            _assert_written_as_unkept(model)
            _assert_written_as_unkept(trace.replay(variant_set.root))
    _assert_written_as_unkept(variant_set.root)


def test_masked_models_are_written_as_without_kept_blocks(catalog):
    root = reference_model()
    serialize_model(root)
    model, _ = merge_once(root, masking_extension(), catalog)
    _assert_written_as_unkept(model)
    container = next(e for e in root.elements.values() if e.kind is ElementKind.PROCESS_MODULE)
    stand_in = ProcessElement("stand-in", ElementKind.PROCESS_MODULE, "Stand-in")
    masking = ExtensionModel(
        "mask", "root", root.metamodel, new_elements=(stand_in,), exclusions=(container.id,)
    )
    model, _ = merge_once(root, masking, catalog)
    _assert_written_as_unkept(model)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000_000), st.booleans(), st.booleans())
def test_random_merges_are_written_as_without_kept_blocks(catalog, seed, last_wins, clean):
    rng = random.Random(seed)
    base = genmodels.random_model(rng, max_elements=30)
    _assert_written_as_unkept(base)
    ext = genmodels.random_extension(rng, base, catalog, max_exemplars=12, clean=clean)
    try:
        model, trace = merge_once(base, ext, catalog, last_wins=last_wins)
    except (ConflictError, ValidationFailedError):
        return
    _assert_written_as_unkept(model)
    _assert_written_as_unkept(trace.replay(base))


# -- what is formatted --------------------------------------------------------------


@pytest.fixture
def formatted(monkeypatch):
    """The ids of the assets the model writer formats, in order."""
    ids = []
    for name in ("_element_block", "_reference_block"):
        write = getattr(xmlio, name)

        def counted(asset, pad, attr, text, write=write):
            ids.append(asset.id)
            return write(asset, pad, attr, text)

        monkeypatch.setattr(xmlio, name, counted)
    return ids


def test_a_merged_model_formats_exactly_the_assets_its_merge_made(catalog, formatted):
    for leaf in study_variant_set().variant_ids():
        variant_set = study_variant_set()  # nothing written but what this loop writes
        root = variant_set.root
        serialize_model(root)
        assert sorted(formatted) == sorted([*root.elements, *root.references])
        model, _ = merge_chain(variant_set, leaf, catalog)
        made = [
            some_id
            for mine, base in ((model.elements, root.elements), (model.references, root.references))
            for some_id, asset in mine.items()
            if base.get(some_id) is not asset
        ]
        formatted.clear()
        serialize_model(model)
        assert made and sorted(formatted) == sorted(made), leaf
        formatted.clear()
        serialize_model(model)
        assert formatted == []


def test_writing_a_model_adds_no_tracked_object():
    serialize_model(reference_model())  # anything formatted once per process
    model = reference_model()
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        first = serialize_model(model)
        second = serialize_model(model)
        after = len(gc.get_objects())
    finally:
        gc.enable()
    assert first == second
    assert after == before


# -- errors -------------------------------------------------------------------------


_ROOT_TEXT = fixture_text("root.xml")


@pytest.mark.parametrize(
    "elements, notes, message",
    [
        (
            {"zz-bad": ProcessElement("zz-bad", ElementKind.ROLE, "Bad\x01name")},
            {},
            "character U+0001 cannot be written as XML "
            "(output line 584: '<element id=\"zz-bad\" kind=\"Role\" name=\"Bad\\x01name\"/>')",
        ),
        (
            {},
            {"zz-ref": "a\ufffeb"},
            "character U+FFFE cannot be written as XML "
            "(output line 697: '<attribute key=\"note\">a\\ufffeb</attribute>')",
        ),
    ],
    ids=["element", "reference"],
)
def test_an_illegal_character_after_kept_blocks_names_its_line(elements, notes, message):
    # the figures are those of the writer that keeps no block
    root = parse_model(_ROOT_TEXT)
    assert serialize_model(root) == _ROOT_TEXT
    first = next(iter(root.references.values()))
    references = {
        ref_id: Reference(ref_id, first.kind, first.source, first.target, {"note": note})
        for ref_id, note in notes.items()
    }
    bad = ProcessModel(root.metamodel, {**root.elements, **elements}, {**root.references, **references})
    for _ in range(2):
        with pytest.raises(IllegalCharacterError) as raised:
            serialize_model(bad)
        assert str(raised.value) == message
    for asset in (*elements.values(), *references.values()):
        assert getattr(asset, xmlio._KEPT_BLOCK, None) is None
    assert serialize_model(root) == _ROOT_TEXT


# -- the kept block and the asset's value -----------------------------------------------


def test_a_kept_block_is_not_part_of_the_value():
    root = reference_model()
    twin = _unkept(root)
    serialize_model(root)
    for some_id, elem in root.elements.items():
        assert getattr(elem, xmlio._KEPT_BLOCK)
        assert elem == twin.elements[some_id] and twin.elements[some_id] == elem
        assert repr(elem) == repr(twin.elements[some_id])
    for some_id, ref in root.references.items():
        assert ref == twin.references[some_id] and repr(ref) == repr(twin.references[some_id])
    assert root == twin
    assert compare_models(root, twin).is_empty() and compare_models(twin, root).is_empty()


def test_an_update_of_a_written_asset_is_written_anew():
    # renaming an element that has been written, among others
    elem = ProcessElement("e1", ElementKind.SECTION, "Old", "", {"k": "v"}, [TextBlock("b", "t")])
    ref = Reference("r1", "LiteratureLink", "e1", "lit")
    lit = ProcessElement("lit", ElementKind.LITERATURE_REFERENCE, "Book")
    serialize_model(_model_of(elem, lit, ref))
    updates = [
        (elem.with_name("New"), 'name="New"'),
        (elem.with_description("About"), "<description>About</description>"),
        (elem.with_kind(ElementKind.CHAPTER), 'kind="Chapter"'),
        (elem.with_attribute("k", "w"), '<attribute key="k">w</attribute>'),
        (elem.without_attribute("k").with_attribute("j", "u"), '<attribute key="j">u</attribute>'),
        (elem.with_block_text("b", "u"), '<textBlock id="b">u</textBlock>'),
        (elem.with_text_blocks([TextBlock("c", "x")]), '<textBlock id="c">x</textBlock>'),
        (ref.with_endpoints(target="e1"), 'target="e1"'),
        (ref.with_attribute("k", "w"), '<attribute key="k">w</attribute>'),
    ]
    for updated, expected in updates:
        assert getattr(updated, xmlio._KEPT_BLOCK, None) is None
        model = _model_of(updated, *(a for a in (elem, lit, ref) if a.id != updated.id))
        text = serialize_model(model)
        assert expected in text and text == serialize_model(_unkept(model))

"""Parsing, canonical serialization, and the text/CSV renderings."""

import copy
import csv
import dataclasses
import io
import random
import sys
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

import genmodels
from procline.analytics import usage_report
from procline.atomic import AtomicKind
from procline.catalog import OperationCatalog, OperationExemplar, OperationTypeDef, StepTemplate
from procline.errors import (
    DuplicateIdError,
    DuplicateTypeNameError,
    IllegalCharacterError,
    MissingParentDeclarationError,
    ParseError,
    ProclineError,
    SchemaError,
)
from procline.merge import ExtensionModel, MergeTrace, TraceEntry, TraceEntryKind, VariantSet, merge_once
from procline.model import (
    ElementKind,
    MetamodelVersion,
    ProcessElement,
    ProcessModel,
    Reference,
    ReferenceKind,
    TextBlock,
)
from procline.studyline import DATA_FILES, fixture_text, masking_extension
from procline.xmlio import (
    CSV_HEADER,
    UNKNOWN_GROUP,
    export_stats_csv,
    parse_catalog,
    parse_extension,
    parse_model,
    render_stats_text,
    render_trace_text,
    serialize_catalog,
    serialize_extension,
    serialize_model,
    serialize_trace,
)

MODEL_HEADER = '<?xml version="1.0" encoding="UTF-8"?>\n<processModel schemaVersion="1" metamodel="1.3">'


def _doc(body: str) -> str:
    return f"{MODEL_HEADER}\n{body}\n</processModel>\n"


# -- round trips -------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=1_000_000))
def test_model_round_trip(seed):
    rng = random.Random(seed)
    model = genmodels.random_model(rng, max_elements=25)
    text = serialize_model(model)
    assert parse_model(text) == model
    assert serialize_model(parse_model(text)) == text  # canonical form is a fixed point


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=1_000_000))
def test_extension_round_trip(catalog, seed):
    rng = random.Random(seed)
    model = genmodels.random_model(rng, max_elements=25)
    ext = genmodels.random_extension(rng, model, catalog)
    # sabotaged extensions may repeat an id; those are merge-time issues,
    # but a document cannot even express them, so the writer refuses them
    ids = [e.id for e in ext.new_elements] + [r.id for r in ext.new_references]
    if len(ids) != len(set(ids)):
        with pytest.raises(DuplicateIdError, match="more than once"):
            serialize_extension(ext)
        return
    text = serialize_extension(ext)
    assert parse_extension(text) == ext
    assert serialize_extension(parse_extension(text)) == text


def test_catalog_round_trip(catalog):
    text = serialize_catalog(catalog)
    assert parse_catalog(text) == catalog
    assert serialize_catalog(parse_catalog(text)) == text


_DECLARATION = '<?xml version="1.0" encoding="UTF-8"?>\n'


def test_empty_documents_are_one_empty_root_and_round_trip():
    model = ProcessModel(MetamodelVersion.V1_3B)
    text = serialize_model(model)
    assert text == _DECLARATION + '<processModel schemaVersion="1" metamodel="1.3B"/>\n'
    assert parse_model(text) == model
    assert serialize_model(parse_model(text)) == text
    catalog = OperationCatalog(())
    text = serialize_catalog(catalog)
    assert text == _DECLARATION + '<operationCatalog schemaVersion="1"/>\n'
    assert parse_catalog(text) == catalog
    assert serialize_catalog(parse_catalog(text)) == text
    # traces are written, never read: their fixed point is the tree they parse to
    for trace, attributes in (
        (MergeTrace(), {"schemaVersion": "1"}),
        (MergeTrace(final_metamodel=MetamodelVersion.V1_3Z), {"schemaVersion": "1", "finalMetamodel": "1.3Z"}),
    ):
        text = serialize_trace(trace)
        head = " ".join(f'{key}="{value}"' for key, value in attributes.items())
        assert text == f"{_DECLARATION}<mergeTrace {head}/>\n"
        tree = ET.fromstring(text.encode("utf-8"))
        assert (tree.tag, tree.attrib, list(tree), tree.text) == ("mergeTrace", attributes, [], None)


def test_parsed_type_and_argument_names_are_shared_strings():
    # type and argument names come from the catalog's small vocabulary, so
    # documents parsed apart, from text or from bytes, share one string per
    # name; targets and argument values are only equal to their text
    exemplars = (
        OperationExemplar("RenameRole", "r1", {"newName": "Lead"}),
        OperationExemplar("RenameRole", "r2", {"newName": "Lead"}),
        OperationExemplar("Umbenennen\u00e4", "r1", {"neuerName\u00e4": "x", "newName": "Lead"}),
    )
    written = [
        ExtensionModel(variant_id, "root", MetamodelVersion.V1_3, exemplars=exemplars) for variant_id in "XY"
    ]
    parsed = [
        parse_extension(serialize_extension(written[0])),
        parse_extension(serialize_extension(written[1]).encode("utf-8")),
        parse_extension(fixture_text("ext-a.xml")),
        parse_extension(fixture_text("ext-bund.xml").encode("utf-8")),
    ]
    assert parsed[:2] == written
    shared_names: dict[str, str] = {}
    shared_keys: dict[str, str] = {}
    repeats = 0
    for exemplar in (exemplar for ext in parsed for exemplar in ext.exemplars):
        repeats += exemplar.type_name in shared_names
        assert shared_names.setdefault(exemplar.type_name, exemplar.type_name) is exemplar.type_name
        for key in exemplar.args:
            assert shared_keys.setdefault(key, key) is key
    assert repeats > len(shared_names)  # the names do repeat across the documents


def _same_object_per_value(values) -> bool:
    """Whether every two equal strings among ``values`` are one object."""
    first: dict[str, str] = {}
    return all(first.setdefault(value, value) is value for value in values)


def _targets_and_values(*extensions):
    return [
        value
        for ext in extensions
        for exemplar in ext.exemplars
        for value in (exemplar.target, *exemplar.args.values())
    ]


def test_parsed_targets_and_argument_values_share_one_string_per_document_or_shared_memo():
    # free text, unlike the names: a value made here exists nowhere else,
    # so were it interned, interning a copy of it would give it back
    unique = f"only in test {random.Random().random()}"
    exemplars = (
        OperationExemplar("RenameRole", unique, {"newName": unique}),
        OperationExemplar("RenameRole", "r2", {"newName": unique, "oldName": "r2"}),
        OperationExemplar("AddRole", unique, {}),
    )
    text = serialize_extension(ExtensionModel("X", "root", MetamodelVersion.V1_3, exemplars=exemplars))
    alone = [parse_extension(text), parse_extension(text.encode("utf-8"))]
    shared: dict[str, str] = {}
    together = [parse_extension(text, shared=shared), parse_extension(text.encode("utf-8"), shared=shared)]
    for ext in (*alone, *together):
        assert ext.exemplars == exemplars
        # within one document, equal targets and values are one string
        assert _same_object_per_value(_targets_and_values(ext))
        value = ext.exemplars[0].target
        assert value == unique and value is not unique
        assert sys.intern("".join(value)) is not value
    # across documents, only a shared memo shares them, and it holds each value once
    assert alone[0].exemplars[0].target is not alone[1].exemplars[0].target
    assert _same_object_per_value(_targets_and_values(*together))
    assert together[0].exemplars[0].target is together[1].exemplars[1].args["newName"] is shared[unique]
    assert shared.keys() == {unique, "r2"}
    # the study fixtures repeat targets within a document; each is one string there
    for name in ("ext-bund.xml", "ext-c.xml"):
        values = _targets_and_values(parse_extension(fixture_text(name)))
        assert len(set(values)) < len(values)
        assert _same_object_per_value(values)


def test_serialized_model_shape():
    from procline.model import (
        ElementKind,
        MetamodelVersion,
        ProcessElement,
        ProcessModel,
        Reference,
        ReferenceKind,
    )

    model = ProcessModel.of(
        MetamodelVersion.V1_3,
        [
            ProcessElement("b", ElementKind.ROLE, "R", attributes={"roleClass": "a"}),
            ProcessElement("a", ElementKind.WORK_PRODUCT, "WP", description="d"),
        ],
        [Reference("r", ReferenceKind.RESPONSIBILITY, "a", "b")],
    )
    text = serialize_model(model)
    lines = text.split("\n")
    assert lines[0] == '<?xml version="1.0" encoding="UTF-8"?>'
    assert text.endswith("</processModel>\n")
    assert "\r" not in text
    body = [line for line in lines[1:] if line and not line.startswith(("<processModel", "</"))]
    assert all(line.startswith("  ") for line in body)
    # elements and references come out id-sorted
    order = [line.split('id="')[1].split('"')[0] for line in body if 'id="' in line]
    assert order == ["a", "b", "r"]


# -- parse errors -------------------------------------------------------------

def test_malformed_xml_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_model("<processModel>\n  <oops\n", source="broken.xml")
    assert exc.value.source == "broken.xml"
    assert exc.value.line is not None


def test_wrong_root_tag():
    with pytest.raises(SchemaError, match="processModel"):
        parse_model('<wrong schemaVersion="1" metamodel="1.3"/>')


def test_schema_version_must_be_one():
    with pytest.raises(SchemaError, match="schemaVersion"):
        parse_model('<processModel schemaVersion="2" metamodel="1.3"/>')


def test_missing_and_unknown_attributes():
    with pytest.raises(SchemaError, match="metamodel"):
        parse_model('<processModel schemaVersion="1"/>')
    with pytest.raises(SchemaError, match="color"):
        parse_model('<processModel schemaVersion="1" metamodel="1.3" color="red"/>')


def test_bad_enums():
    with pytest.raises(SchemaError, match="metamodel"):
        parse_model('<processModel schemaVersion="1" metamodel="2.0"/>')
    with pytest.raises(SchemaError, match="Gremlin"):
        parse_model(_doc('  <element id="e1" kind="Gremlin" name="X"/>'))
    with pytest.raises(SchemaError, match="Wires"):
        parse_model(
            _doc(
                '  <element id="e1" kind="Role" name="X"/>\n'
                '  <reference id="r1" kind="Wires" source="e1" target="e1"/>'
            )
        )


def test_duplicate_id_names_the_culprit():
    text = _doc(
        '  <element id="dup" kind="Role" name="A"/>\n  <element id="dup" kind="Role" name="B"/>'
    )
    with pytest.raises(SchemaError, match="dup"):
        parse_model(text)


def test_stray_text_rejected():
    with pytest.raises(SchemaError, match="text"):
        parse_model(f"{MODEL_HEADER}\n  loose words\n</processModel>\n")


def test_unexpected_children():
    with pytest.raises(SchemaError, match="widget"):
        parse_model(_doc("  <widget/>"))
    with pytest.raises(SchemaError, match="widget"):
        parse_model(_doc('  <element id="e1" kind="Role" name="X"><widget/></element>'))


def test_repeated_description_rejected():
    text = _doc(
        '  <element id="e1" kind="Role" name="X">\n'
        "    <description>one</description>\n"
        "    <description>two</description>\n"
        "  </element>"
    )
    with pytest.raises(SchemaError, match="description"):
        parse_model(text)


EXT_OPEN = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<extensionModel schemaVersion="1" id="X" parent="root" metamodel="1.3">'
)


def test_extension_requires_parent():
    text = '<extensionModel schemaVersion="1" id="X" metamodel="1.3"/>'
    with pytest.raises(MissingParentDeclarationError):
        parse_extension(text)


def test_extension_repeated_section():
    text = f"{EXT_OPEN}\n  <exclusions/>\n  <exclusions/>\n</extensionModel>\n"
    with pytest.raises(SchemaError, match="repeated"):
        parse_extension(text)


def test_exclude_nodes_must_be_empty():
    text = f'{EXT_OPEN}\n  <exclusions>\n    <exclude id="e1">junk</exclude>\n  </exclusions>\n</extensionModel>\n'
    with pytest.raises(SchemaError, match="exclude"):
        parse_extension(text)


def _ext_doc(operations: str, root_attrs: str = "") -> str:
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<extensionModel schemaVersion="1" id="X" parent="root" metamodel="1.3"{root_attrs}>\n'
        f"  <operations>\n    {operations}\n  </operations>\n</extensionModel>\n"
    )


def _new_element_doc(attrs: str, inner: str = "") -> str:
    return f"{EXT_OPEN}<newElements><element {attrs}>{inner}</element></newElements></extensionModel>"


def _new_reference_doc(attrs: str) -> str:
    return f"{EXT_OPEN}<newReferences><reference {attrs}/></newReferences></extensionModel>"


# one defect per document; each message is pinned word for word
_ONE_DEFECT_EXTENSIONS = {
    "exemplar-lacks-target": (
        _ext_doc('<exemplar type="RenameRole"/>'),
        "<exemplar> lacks attribute 'target'",
    ),
    "exemplar-lacks-both": (
        _ext_doc("<exemplar/>"),
        "<exemplar> lacks attribute 'type'",
    ),
    "exemplar-extra-attribute": (
        _ext_doc('<exemplar type="RenameRole" target="r1" color="red"/>'),
        "<exemplar> has unexpected attribute 'color'",
    ),
    # as many attributes as the tag takes, but not the ones it needs
    "exemplar-misnamed-attribute": (
        _ext_doc('<exemplar type="RenameRole" color="red"/>'),
        "<exemplar> lacks attribute 'target'",
    ),
    "arg-lacks-name": (
        _ext_doc('<exemplar type="RenameRole" target="r1"><arg>Lead</arg></exemplar>'),
        "<arg> lacks attribute 'name'",
    ),
    "arg-misnamed-attribute": (
        _ext_doc('<exemplar type="RenameRole" target="r1"><arg lang="de">Lead</arg></exemplar>'),
        "<arg> lacks attribute 'name'",
    ),
    "arg-extra-attribute": (
        _ext_doc(
            '<exemplar type="RenameRole" target="r1"><arg name="newName" lang="de">Lead</arg></exemplar>'
        ),
        "<arg> has unexpected attribute 'lang'",
    ),
    "arg-child-tag": (
        _ext_doc('<exemplar type="RenameRole" target="r1"><arg name="newName"><b/></arg></exemplar>'),
        "<arg> must not have child tags",
    ),
    "exemplar-stray-text": (
        _ext_doc('<exemplar type="RenameRole" target="r1">loose words</exemplar>'),
        "<exemplar> holds unexpected text",
    ),
    "repeated-argument": (
        _ext_doc(
            '<exemplar type="RenameRole" target="r1">'
            '<arg name="newName">A</arg><arg name="newName">B</arg></exemplar>'
        ),
        "exemplar of 'RenameRole' repeats argument 'newName'",
    ),
    "empty-type": (
        _ext_doc('<exemplar type="" target="r1"/>'),
        "exemplar type name must be non-empty",
    ),
    "empty-target": (
        _ext_doc('<exemplar type="RenameRole" target=""/>'),
        "exemplar of 'RenameRole': target must be non-empty",
    ),
    "exemplar-unexpected-child": (
        _ext_doc('<exemplar type="RenameRole" target="r1"><widget/></exemplar>'),
        "unexpected <widget> inside <exemplar>",
    ),
    "extension-extra-attribute": (
        _ext_doc('<exemplar type="RenameRole" target="r1"/>', root_attrs=' color="red"'),
        "<extensionModel> has unexpected attribute 'color'",
    ),
    "repeated-section": (
        f"{EXT_OPEN}<operations/><exclusions/><operations/></extensionModel>",
        "repeated <operations> section",
    ),
    "unexpected-section": (
        f"{EXT_OPEN}<widget/></extensionModel>",
        "unexpected <widget> inside <extensionModel>",
    ),
    "section-stray-text": (
        f"{EXT_OPEN}<newElements>loose words</newElements></extensionModel>",
        "<newElements> holds unexpected text",
    ),
    "section-extra-attribute": (
        f'{EXT_OPEN}<exclusions color="red"/></extensionModel>',
        "<exclusions> has unexpected attribute 'color'",
    ),
    "exclude-text": (
        f'{EXT_OPEN}<exclusions><exclude id="e1">junk</exclude></exclusions></extensionModel>',
        "<exclude> must be empty",
    ),
    "exclude-child-tag": (
        f'{EXT_OPEN}<exclusions><exclude id="e1"><b/></exclude></exclusions></extensionModel>',
        "<exclude> must be empty",
    ),
    "exclude-lacks-id": (
        f"{EXT_OPEN}<exclusions><exclude/></exclusions></extensionModel>",
        "<exclude> lacks attribute 'id'",
    ),
    "new-elements-unexpected-child": (
        f'{EXT_OPEN}<newElements><reference id="r" kind="Responsibility" source="a" target="b"/>'
        "</newElements></extensionModel>",
        "unexpected <reference> inside <newElements>",
    ),
    "new-references-unexpected-child": (
        f'{EXT_OPEN}<newReferences><element id="e" kind="Role" name="R"/></newReferences></extensionModel>',
        "unexpected <element> inside <newReferences>",
    ),
    "exclusions-unexpected-child": (
        f'{EXT_OPEN}<exclusions><element id="e" kind="Role" name="R"/></exclusions></extensionModel>',
        "unexpected <element> inside <exclusions>",
    ),
    "operations-unexpected-child": (
        _ext_doc('<arg name="newName">Lead</arg>'),
        "unexpected <arg> inside <operations>",
    ),
    "new-element-duplicate-id": (
        f'{EXT_OPEN}<newElements><element id="e" kind="Role" name="R"/></newElements>'
        '<newReferences><reference id="e" kind="Responsibility" source="a" target="b"/>'
        "</newReferences></extensionModel>",
        "duplicate id 'e' in document",
    ),
    "extension-lacks-id": (
        '<extensionModel schemaVersion="1" parent="root" metamodel="1.3"/>',
        "<extensionModel> lacks attribute 'id'",
    ),
    "extension-schema-version": (
        '<extensionModel schemaVersion="0" id="X" parent="root" metamodel="1.3"/>',
        "<extensionModel> declares schemaVersion '0', expected '1'",
    ),
    "extension-stray-text": (
        f"{EXT_OPEN}loose words</extensionModel>",
        "<extensionModel> holds unexpected text",
    ),
    "extension-unknown-metamodel": (
        '<extensionModel schemaVersion="1" id="X" parent="root" metamodel="9"/>',
        "unknown metamodel version '9'",
    ),
    "extension-empty-id": (
        '<extensionModel schemaVersion="1" id="" parent="root" metamodel="1.3"/>',
        "extension model needs a variant id",
    ),
    "extension-empty-parent": (
        '<extensionModel schemaVersion="1" id="X" parent="" metamodel="1.3"/>',
        "extension 'X' needs a parent id",
    ),
    # the id is checked before the parent, and both after every section
    "extension-empty-id-and-parent": (
        '<extensionModel schemaVersion="1" id="" parent="" metamodel="1.3"/>',
        "extension model needs a variant id",
    ),
    "extension-empty-id-after-a-section-defect": (
        _ext_doc('<exemplar type="" target="r1"/>').replace('id="X" parent="root"', 'id="" parent=""'),
        "exemplar type name must be non-empty",
    ),
    "extension-wrong-root": (
        '<processModel schemaVersion="1" metamodel="1.3"/>',
        "expected <extensionModel> document, got <processModel>",
    ),
    "exemplar-tail": (
        _ext_doc('<exemplar type="RenameRole" target="r1"/>loose words'),
        "<operations> holds unexpected text",
    ),
    "arg-tail": (
        _ext_doc('<exemplar type="RenameRole" target="r1"><arg name="newName">Lead</arg>loose words</exemplar>'),
        "<exemplar> holds unexpected text",
    ),
    "exclude-tail": (
        f'{EXT_OPEN}<exclusions><exclude id="e1"/>loose words</exclusions></extensionModel>',
        "<exclusions> holds unexpected text",
    ),
    "section-tail": (
        f"{EXT_OPEN}<exclusions/>loose words</extensionModel>",
        "<extensionModel> holds unexpected text",
    ),
    "extension-empty-text-block-id": (
        f'{EXT_OPEN}<newElements><element id="e" kind="Section" name="S"><textBlock id=""/>'
        "</element></newElements></extensionModel>",
        "text block id must be non-empty",
    ),
    # a new element or reference is read as a model's is, by the same rules in the same order
    "new-element-unknown-kind": (_new_element_doc('id="e" kind="Gremlin" name="S"'), "unknown element kind 'Gremlin'"),
    "new-element-empty-id": (_new_element_doc('id="" kind="Role" name="S"'), "element id must be non-empty"),
    "new-element-empty-name": (_new_element_doc('id="e" kind="Role" name=""'), "element 'e': name must be non-empty"),
    "new-element-duplicate-text-block-id": (
        _new_element_doc('id="e" kind="Role" name="S"', '<textBlock id="b1"/><textBlock id="b1"/>'),
        "element 'e': duplicate text block id 'b1'",
    ),
    "new-element-unknown-kind-and-empty-id": (
        _new_element_doc('id="" kind="Gremlin" name="S"'),
        "unknown element kind 'Gremlin'",
    ),
    "new-element-empty-id-and-name": (_new_element_doc('id="" kind="Role" name=""'), "element id must be non-empty"),
    "new-element-empty-text-block-id-and-name": (
        _new_element_doc('id="e" kind="Role" name=""', '<textBlock id=""/>'),
        "text block id must be non-empty",
    ),
    "new-element-empty-name-and-duplicate-text-block-ids": (
        _new_element_doc('id="e" kind="Role" name=""', '<textBlock id="b1"/><textBlock id="b1"/>'),
        "element 'e': name must be non-empty",
    ),
    "new-reference-unknown-kind": (
        _new_reference_doc('id="r" kind="Wires" source="a" target="b"'),
        "unknown reference kind 'Wires'",
    ),
    "new-reference-empty-id": (
        _new_reference_doc('id="" kind="Responsibility" source="a" target="b"'),
        "reference id must be non-empty",
    ),
    "new-reference-empty-source": (
        _new_reference_doc('id="r" kind="Responsibility" source="" target="b"'),
        "reference 'r': source and target must be non-empty",
    ),
    "new-reference-empty-target": (
        _new_reference_doc('id="r" kind="Responsibility" source="a" target=""'),
        "reference 'r': source and target must be non-empty",
    ),
    "new-reference-unknown-kind-and-empty-id": (
        _new_reference_doc('id="" kind="Wires" source="a" target="b"'),
        "unknown reference kind 'Wires'",
    ),
    "new-reference-empty-id-and-source": (
        _new_reference_doc('id="" kind="Responsibility" source="" target="b"'),
        "reference id must be non-empty",
    ),
    # str.isspace() takes these, XML does not: they are text like any other
    "exemplar-no-break-space-text": (
        _ext_doc('<exemplar type="RenameRole" target="r1">\u00a0<arg name="newName">Lead</arg></exemplar>'),
        "<exemplar> holds unexpected text",
    ),
    "exemplar-line-separator-tail": (
        _ext_doc('<exemplar type="RenameRole" target="r1"/>\u2028'),
        "<operations> holds unexpected text",
    ),
    "arg-ideographic-space-tail": (
        _ext_doc('<exemplar type="RenameRole" target="r1"><arg name="newName">Lead</arg>\u3000</exemplar>'),
        "<exemplar> holds unexpected text",
    ),
    "exclude-no-break-space-text": (
        f'{EXT_OPEN}<exclusions><exclude id="e1">\u00a0</exclude></exclusions></extensionModel>',
        "<exclude> must be empty",
    ),
    "section-no-break-space-tail": (
        f"{EXT_OPEN}<exclusions/>\n\u00a0\n</extensionModel>",
        "<extensionModel> holds unexpected text",
    ),
}


def _element_doc(inner: str, attrs: str = 'id="e1" kind="Role" name="X"') -> str:
    return _doc(f"  <element {attrs}>{inner}</element>")


def _reference_doc(inner: str = "", attrs: str = 'id="r1" kind="Responsibility" source="w" target="e1"') -> str:
    return _doc(
        '  <element id="e1" kind="Role" name="X"/>\n'
        '  <element id="w" kind="WorkProduct" name="W"/>\n'
        f"  <reference {attrs}>{inner}</reference>"
    )


# one defect per model document, a document per SchemaError the parser raises
_ONE_DEFECT_MODELS = {
    "wrong-root": ('<operationCatalog schemaVersion="1"/>', "expected <processModel> document, got <operationCatalog>"),
    "root-lacks-schema-version": ('<processModel metamodel="1.3"/>', "<processModel> lacks attribute 'schemaVersion'"),
    "root-extra-attribute": (
        '<processModel schemaVersion="1" metamodel="1.3" color="red"/>',
        "<processModel> has unexpected attribute 'color'",
    ),
    "root-schema-version": (
        '<processModel schemaVersion="2" metamodel="1.3"/>',
        "<processModel> declares schemaVersion '2', expected '1'",
    ),
    "root-stray-text": (f"{MODEL_HEADER}loose words</processModel>", "<processModel> holds unexpected text"),
    "unknown-metamodel": ('<processModel schemaVersion="1" metamodel="2.0"/>', "unknown metamodel version '2.0'"),
    "root-unexpected-child": (_doc("  <widget/>"), "unexpected <widget> inside <processModel>"),
    "element-lacks-name": (_doc('  <element id="e1" kind="Role"/>'), "<element> lacks attribute 'name'"),
    "element-extra-attribute": (
        _doc('  <element id="e1" kind="Role" name="X" color="red"/>'),
        "<element> has unexpected attribute 'color'",
    ),
    "element-stray-text": (_element_doc("loose words"), "<element> holds unexpected text"),
    "element-tail": (_doc('  <element id="e1" kind="Role" name="X"/>more lost'), "<processModel> holds unexpected text"),
    "description-tail": (_element_doc("<description>d</description>lost words"), "<element> holds unexpected text"),
    "root-no-break-space-text": (
        f'{MODEL_HEADER}\u00a0<element id="e1" kind="Role" name="X"/></processModel>',
        "<processModel> holds unexpected text",
    ),
    "element-line-separator-tail": (
        _doc('  <element id="e1" kind="Role" name="X"/>\u2028'),
        "<processModel> holds unexpected text",
    ),
    "element-ideographic-space-text": (
        _element_doc("\u3000<description>d</description>"),
        "<element> holds unexpected text",
    ),
    "description-no-break-space-tail": (
        _element_doc("<description>d</description> \u00a0 "),
        "<element> holds unexpected text",
    ),
    "element-duplicate-id": (
        _doc('  <element id="dup" kind="Role" name="A"/>\n  <element id="dup" kind="Role" name="B"/>'),
        "duplicate id 'dup' in document",
    ),
    "unknown-element-kind": (_doc('  <element id="e1" kind="Gremlin" name="X"/>'), "unknown element kind 'Gremlin'"),
    "element-unexpected-child": (_element_doc("<widget/>"), "unexpected <widget> inside <element>"),
    "repeated-description": (
        _element_doc("<description>one</description><description>two</description>"),
        "element 'e1' repeats <description>",
    ),
    "description-extra-attribute": (
        _element_doc('<description lang="de">one</description>'),
        "<description> has unexpected attribute 'lang'",
    ),
    "description-child-tag": (_element_doc("<description><b/></description>"), "<description> must not have child tags"),
    "attribute-lacks-key": (_element_doc("<attribute>v</attribute>"), "<attribute> lacks attribute 'key'"),
    "attribute-child-tag": (
        _element_doc('<attribute key="k"><b/></attribute>'),
        "<attribute> must not have child tags",
    ),
    "repeated-attribute-key": (
        _element_doc('<attribute key="k">1</attribute><attribute key="k">2</attribute>'),
        "element 'e1' repeats attribute key 'k'",
    ),
    "text-block-lacks-id": (_element_doc("<textBlock>t</textBlock>"), "<textBlock> lacks attribute 'id'"),
    "text-block-child-tag": (_element_doc('<textBlock id="b1"><b/></textBlock>'), "<textBlock> must not have child tags"),
    "empty-text-block-id": (_element_doc('<textBlock id="">t</textBlock>'), "text block id must be non-empty"),
    "duplicate-text-block-id": (
        _element_doc('<textBlock id="b1">1</textBlock><textBlock id="b1">2</textBlock>'),
        "element 'e1': duplicate text block id 'b1'",
    ),
    "empty-element-id": (_doc('  <element id="" kind="Role" name="X"/>'), "element id must be non-empty"),
    "empty-element-name": (_doc('  <element id="e1" kind="Role" name=""/>'), "element 'e1': name must be non-empty"),
    "reference-lacks-target": (
        _reference_doc(attrs='id="r1" kind="Responsibility" source="w"'),
        "<reference> lacks attribute 'target'",
    ),
    "reference-extra-attribute": (
        _reference_doc(attrs='id="r1" kind="Responsibility" source="w" target="e1" color="red"'),
        "<reference> has unexpected attribute 'color'",
    ),
    "reference-stray-text": (_reference_doc("loose words"), "<reference> holds unexpected text"),
    "reference-attribute-tail": (
        _reference_doc('<attribute key="k">v</attribute>loose words'),
        "<reference> holds unexpected text",
    ),
    "reference-duplicate-id": (
        _reference_doc(attrs='id="e1" kind="Responsibility" source="w" target="e1"'),
        "duplicate id 'e1' in document",
    ),
    "unknown-reference-kind": (
        _reference_doc(attrs='id="r1" kind="Wires" source="w" target="e1"'),
        "unknown reference kind 'Wires'",
    ),
    "reference-unexpected-child": (_reference_doc("<description/>"), "unexpected <description> inside <reference>"),
    "reference-attribute-lacks-key": (_reference_doc("<attribute>v</attribute>"), "<attribute> lacks attribute 'key'"),
    "reference-attribute-child-tag": (
        _reference_doc('<attribute key="k"><b/></attribute>'),
        "<attribute> must not have child tags",
    ),
    "reference-repeated-attribute-key": (
        _reference_doc('<attribute key="k">1</attribute><attribute key="k">2</attribute>'),
        "reference 'r1' repeats attribute key 'k'",
    ),
    "empty-reference-id": (
        _reference_doc(attrs='id="" kind="Responsibility" source="w" target="e1"'),
        "reference id must be non-empty",
    ),
    "empty-reference-source": (
        _reference_doc(attrs='id="r1" kind="Responsibility" source="" target="e1"'),
        "reference 'r1': source and target must be non-empty",
    ),
    "empty-reference-target": (
        _reference_doc(attrs='id="r1" kind="Responsibility" source="w" target=""'),
        "reference 'r1': source and target must be non-empty",
    ),
    # two defects in one asset: the message pins which rule is checked first
    "unknown-element-kind-and-empty-id": (
        _doc('  <element id="" kind="Gremlin" name="X"/>'),
        "unknown element kind 'Gremlin'",
    ),
    "empty-element-id-and-name": (_doc('  <element id="" kind="Role" name=""/>'), "element id must be non-empty"),
    "empty-text-block-id-and-element-name": (
        _element_doc('<textBlock id="">t</textBlock>', attrs='id="e1" kind="Role" name=""'),
        "text block id must be non-empty",
    ),
    "empty-element-name-and-duplicate-text-block-ids": (
        _element_doc('<textBlock id="b1">1</textBlock><textBlock id="b1">2</textBlock>', attrs='id="e1" kind="Role" name=""'),
        "element 'e1': name must be non-empty",
    ),
    "unknown-reference-kind-and-empty-id": (
        _reference_doc(attrs='id="" kind="Wires" source="w" target="e1"'),
        "unknown reference kind 'Wires'",
    ),
    "empty-reference-id-and-source": (
        _reference_doc(attrs='id="" kind="Responsibility" source="" target="e1"'),
        "reference id must be non-empty",
    ),
}


CATALOG_OPEN = '<?xml version="1.0" encoding="UTF-8"?>\n<operationCatalog schemaVersion="1">'
_TYPE_ATTRS = 'name="X" group="G" targetKind="Role" metamodel="1.3"'


def _type_doc(inner: str = '<step atomic="RenameElement" target="{target}"/>', attrs: str = _TYPE_ATTRS) -> str:
    return f"{CATALOG_OPEN}\n  <operationType {attrs}>{inner}</operationType>\n</operationCatalog>\n"


def _step_doc(inner: str, attrs: str = 'atomic="RenameElement" target="{target}"') -> str:
    return _type_doc(f"<step {attrs}>{inner}</step>")


# one defect per catalog document, a document per SchemaError the parser raises
_ONE_DEFECT_CATALOGS = {
    "wrong-root": ('<processModel schemaVersion="1" metamodel="1.3"/>', "expected <operationCatalog> document, got <processModel>"),
    "root-lacks-schema-version": ("<operationCatalog/>", "<operationCatalog> lacks attribute 'schemaVersion'"),
    "root-extra-attribute": (
        '<operationCatalog schemaVersion="1" color="red"/>',
        "<operationCatalog> has unexpected attribute 'color'",
    ),
    "root-schema-version": (
        '<operationCatalog schemaVersion="one"/>',
        "<operationCatalog> declares schemaVersion 'one', expected '1'",
    ),
    "root-stray-text": (f"{CATALOG_OPEN}loose words</operationCatalog>", "<operationCatalog> holds unexpected text"),
    "root-unexpected-child": (f"{CATALOG_OPEN}<step/></operationCatalog>", "unexpected <step> inside <operationCatalog>"),
    "type-lacks-group": (
        _type_doc(attrs='name="X" targetKind="Role" metamodel="1.3"'),
        "<operationType> lacks attribute 'group'",
    ),
    "type-extra-attribute": (
        _type_doc(attrs=_TYPE_ATTRS + ' color="red"'),
        "<operationType> has unexpected attribute 'color'",
    ),
    "type-stray-text": (_type_doc("loose words"), "<operationType> holds unexpected text"),
    "type-tail": (
        f'{CATALOG_OPEN}<operationType {_TYPE_ATTRS}><step atomic="RenameElement" target="{{target}}"/>'
        "</operationType>loose words</operationCatalog>",
        "<operationCatalog> holds unexpected text",
    ),
    "step-tail": (
        _type_doc('<step atomic="RenameElement" target="{target}"/>loose words'),
        "<operationType> holds unexpected text",
    ),
    "synthetic-flag": (
        _type_doc(attrs=_TYPE_ATTRS + ' synthetic="maybe"'),
        "synthetic must be 'true' or 'false', got 'maybe'",
    ),
    "type-unexpected-child": (_type_doc("<arg name='x'/>"), "unexpected <arg> inside <operationType>"),
    "unknown-target-kind": (
        _type_doc(attrs='name="X" group="G" targetKind="Gremlin" metamodel="1.3"'),
        "unknown target kind 'Gremlin'",
    ),
    "unknown-metamodel": (
        _type_doc(attrs='name="X" group="G" targetKind="Role" metamodel="1.4"'),
        "unknown metamodel version '1.4'",
    ),
    "empty-type-name": (
        _type_doc(attrs='name="" group="G" targetKind="Role" metamodel="1.3"'),
        "operation type name must be non-empty",
    ),
    "empty-group": (
        _type_doc(attrs='name="X" group="" targetKind="Role" metamodel="1.3"'),
        "operation type 'X': group must be non-empty",
    ),
    "empty-recipe": (_type_doc(""), "operation type 'X': recipe must not be empty"),
    # two defects in one type: the message pins which rule is checked first
    "empty-type-name-and-group": (
        _type_doc(attrs='name="" group="" targetKind="Role" metamodel="1.3"'),
        "operation type name must be non-empty",
    ),
    "empty-type-name-and-recipe": (
        _type_doc("", attrs='name="" group="G" targetKind="Role" metamodel="1.3"'),
        "operation type name must be non-empty",
    ),
    "empty-group-and-recipe": (
        _type_doc("", attrs='name="X" group="" targetKind="Role" metamodel="1.3"'),
        "operation type 'X': group must be non-empty",
    ),
    "empty-type-name-and-unknown-target-kind": (
        _type_doc(attrs='name="" group="G" targetKind="Gremlin" metamodel="1.3"'),
        "unknown target kind 'Gremlin'",
    ),
    "empty-type-name-and-unknown-atomic-kind": (
        _step_doc("", attrs='atomic="Explode" target="{target}"').replace('name="X"', 'name=""'),
        "unknown atomic kind 'Explode'",
    ),
    "step-lacks-target": (_step_doc("", attrs='atomic="RenameElement"'), "<step> lacks attribute 'target'"),
    "step-extra-attribute": (
        _step_doc("", attrs='atomic="RenameElement" target="{target}" color="red"'),
        "<step> has unexpected attribute 'color'",
    ),
    "step-stray-text": (_step_doc("loose words"), "<step> holds unexpected text"),
    "unknown-atomic-kind": (
        _step_doc("", attrs='atomic="Explode" target="{target}"'),
        "unknown atomic kind 'Explode'",
    ),
    "step-unexpected-child": (_step_doc("<step/>"), "unexpected <step> inside <step>"),
    "arg-lacks-name": (_step_doc("<arg>v</arg>"), "<arg> lacks attribute 'name'"),
    "arg-extra-attribute": (_step_doc('<arg name="newName" lang="de">v</arg>'), "<arg> has unexpected attribute 'lang'"),
    "arg-child-tag": (_step_doc('<arg name="newName"><b/></arg>'), "<arg> must not have child tags"),
    "arg-tail": (_step_doc('<arg name="newName">v</arg>loose words'), "<step> holds unexpected text"),
    "type-no-break-space-text": (
        _type_doc('\u00a0<step atomic="RenameElement" target="{target}"/>'),
        "<operationType> holds unexpected text",
    ),
    "step-line-separator-tail": (
        _type_doc('<step atomic="RenameElement" target="{target}"/>\u2028'),
        "<operationType> holds unexpected text",
    ),
    "arg-ideographic-space-tail": (
        _step_doc('<arg name="newName">v</arg>\u3000'),
        "<step> holds unexpected text",
    ),
    "repeated-argument": (
        _step_doc('<arg name="newName">a</arg><arg name="newName">b</arg>'),
        "step repeats argument 'newName'",
    ),
}

@pytest.mark.parametrize("name", sorted(_ONE_DEFECT_EXTENSIONS))
def test_one_defect_extension_schema_errors(name):
    _assert_schema_error(parse_extension, *_ONE_DEFECT_EXTENSIONS[name])


@pytest.mark.parametrize("name", sorted(_ONE_DEFECT_MODELS))
def test_one_defect_model_schema_errors(name):
    _assert_schema_error(parse_model, *_ONE_DEFECT_MODELS[name])


@pytest.mark.parametrize("name", sorted(_ONE_DEFECT_CATALOGS))
def test_one_defect_catalog_schema_errors(name):
    _assert_schema_error(parse_catalog, *_ONE_DEFECT_CATALOGS[name])


def test_catalog_duplicate_type_name_names_its_file():
    step = '<step atomic="RenameElement" target="{target}"/>'
    twice = f"<operationType {_TYPE_ATTRS}>{step}</operationType>" * 2
    text = f"{CATALOG_OPEN}{twice}</operationCatalog>"
    with pytest.raises(DuplicateTypeNameError) as exc:
        parse_catalog(text, source="x.xml")
    assert str(exc.value) == "x.xml: duplicate operation type name 'X'"
    with pytest.raises(DuplicateTypeNameError) as exc:
        parse_catalog(text)
    assert str(exc.value) == "duplicate operation type name 'X'"


def _assert_schema_error(parse, text, message):
    with pytest.raises(SchemaError) as exc:
        parse(text, source="x.xml")
    assert str(exc.value) == f"x.xml: {message}"
    assert type(exc.value) is SchemaError


# -- single-node mutations of the shipped files ------------------------------------

_PARSERS = {"processModel": parse_model, "extensionModel": parse_extension, "operationCatalog": parse_catalog}
_MUTATIONS = (
    "drop attribute",
    "blank attribute",
    "garble attribute",
    "add attribute",
    "stray text",
    "whitespace text",
    "stray tail",
    "whitespace tail",
    "non-XML whitespace text",
    "non-XML whitespace tail",
    "unknown child",
    "duplicate",
    "move up",
)


# whitespace to str.isspace(), text to XML
_NON_XML_WHITESPACE = ("\u00a0", "\u2028", "\u3000", "\n  \u00a0\n  ", "\x85")
# the tags that hold text
_TEXT_TAGS = frozenset({"description", "attribute", "textBlock", "arg"})


def _applies(kind: str, has_attributes: bool, depth: int) -> bool:
    if kind in ("drop attribute", "blank attribute", "garble attribute"):
        return has_attributes
    if kind in ("duplicate", "stray tail", "whitespace tail", "non-XML whitespace tail"):
        return depth >= 1
    if kind == "move up":
        return depth >= 2
    return True


def _mutate(kind: str, node: ET.Element, parents: dict, names: list[str], rng: random.Random) -> None:
    if kind in ("drop attribute", "blank attribute", "garble attribute"):
        name = rng.choice(sorted(node.attrib))
        if kind == "drop attribute":
            del node.attrib[name]
        elif kind == "blank attribute":
            node.attrib[name] = ""
        else:
            value = node.attrib[name]
            node.attrib[name] = rng.choice([value[::-1] + "~", value * 2, "?", f"x{rng.randint(0, 99)}"])
    elif kind == "add attribute":
        name = rng.choice([n for n in names if n not in node.attrib])
        node.attrib[name] = rng.choice(["true", "x", "1", ""])
    elif kind == "stray text":
        node.text = (node.text or "") + "loose words"
    elif kind == "whitespace text":
        node.text = rng.choice([" ", "\n    ", "\t\n"])
    elif kind == "stray tail":
        node.tail = rng.choice(["loose words", (node.tail or "") + "loose words", "x\n  "])
    elif kind == "whitespace tail":
        node.tail = rng.choice(["", " ", "\n    ", "\t\n"])
    elif kind == "non-XML whitespace text":
        node.text = rng.choice(_NON_XML_WHITESPACE)
    elif kind == "non-XML whitespace tail":
        node.tail = rng.choice(_NON_XML_WHITESPACE)
    elif kind == "unknown child":
        node.insert(rng.randint(0, len(node)), ET.Element("widget"))
    elif kind == "duplicate":
        parent = parents[node]
        parent.insert(list(parent).index(node) + 1, copy.deepcopy(node))
    else:
        parent = parents[node]
        grandparent = parents[parent]
        parent.remove(node)
        grandparent.insert(list(grandparent).index(parent) + 1, node)


def mutated_documents(seed: int, per_stratum: int) -> list[tuple[str, str, str, str]]:
    """(label, mutation, tag, root tag, document) for seeded single-node mutations of the shipped files.

    Each mutation kind is drawn ``per_stratum`` times for each tag it
    applies to, so rare tags and rare kinds are reached as often as common ones.
    """
    rng = random.Random(seed)
    texts = {name: fixture_text(name) for name in sorted(DATA_FILES)}
    names = ["color"]
    nodes: dict[str, list[tuple[str, int, bool, int]]] = {}  # tag -> (file, index, has attributes, depth)
    for file_name, text in texts.items():
        depth = {}
        for index, node in enumerate(ET.fromstring(text).iter()):
            for child in node:
                depth[child] = depth.get(node, 0) + 1
            nodes.setdefault(node.tag, []).append((file_name, index, bool(node.attrib), depth.get(node, 0)))
            names.extend(name for name in node.attrib if name not in names)
    documents = []
    for tag in sorted(nodes):
        for kind in _MUTATIONS:
            candidates = [(file_name, index) for file_name, index, *where in nodes[tag] if _applies(kind, *where)]
            for _ in range(per_stratum if candidates else 0):
                file_name, index = rng.choice(candidates)
                root = ET.fromstring(texts[file_name])
                node = list(root.iter())[index]
                parents = {child: parent for parent in root.iter() for child in parent}
                _mutate(kind, node, parents, names, rng)
                label = f"{file_name}: {kind} on <{tag}> #{index}"
                documents.append((label, kind, tag, root.tag, ET.tostring(root, encoding="unicode")))
    return documents


def test_single_node_mutations_parse_or_raise_a_procline_error():
    documents = mutated_documents(seed=1, per_stratum=3)
    assert len(documents) > 300
    failures = []
    for label, kind, tag, root_tag, text in documents:
        try:
            _PARSERS[root_tag](text)
        except ProclineError as exc:
            if kind.startswith("whitespace"):  # whitespace is never content the schema forbids
                failures.append(f"{label}: {exc!r}")
            elif kind == "non-XML whitespace text" and tag in _TEXT_TAGS:
                failures.append(f"{label}: {exc!r}")
            elif kind.startswith("non-XML") and type(exc) is not SchemaError:
                failures.append(f"{label}: {exc!r}")
        except Exception as exc:
            failures.append(f"{label}: {exc!r}")
        else:
            if kind in ("stray tail", "non-XML whitespace tail"):  # no tag that holds child tags holds text
                failures.append(f"{label}: parsed")
            elif kind == "non-XML whitespace text" and tag not in _TEXT_TAGS:
                failures.append(f"{label}: parsed")
    assert failures == []


def test_text_values_keep_non_xml_whitespace():
    spaces = "\u00a0\u2028\u3000\x85"
    model = ProcessModel.of(
        MetamodelVersion.V1_3,
        [
            ProcessElement(
                "e1",
                ElementKind.SECTION,
                spaces,
                description=spaces,
                attributes={"k": spaces},
                text_blocks=(TextBlock("b1", spaces),),
            )
        ],
    )
    assert parse_model(serialize_model(model)) == model
    ext = ExtensionModel(
        "X", "root", MetamodelVersion.V1_3, exemplars=(OperationExemplar("RenameRole", "r1", {"newName": spaces}),)
    )
    assert parse_extension(serialize_extension(ext)) == ext


def test_catalog_synthetic_flag_and_steps():
    open_tag = '<?xml version="1.0" encoding="UTF-8"?>\n<operationCatalog schemaVersion="1">'
    bad_flag = (
        f"{open_tag}\n"
        '  <operationType name="X" group="G" targetKind="Role" metamodel="1.3" synthetic="maybe">\n'
        '    <step atomic="RenameElement" target="{target}"/>\n'
        "  </operationType>\n"
        "</operationCatalog>\n"
    )
    with pytest.raises(SchemaError, match="synthetic"):
        parse_catalog(bad_flag)
    bad_atomic = (
        f"{open_tag}\n"
        '  <operationType name="X" group="G" targetKind="Role" metamodel="1.3">\n'
        '    <step atomic="Explode" target="{target}"/>\n'
        "  </operationType>\n"
        "</operationCatalog>\n"
    )
    with pytest.raises(SchemaError, match="Explode"):
        parse_catalog(bad_atomic)
    bad_target_kind = (
        f"{open_tag}\n"
        '  <operationType name="X" group="G" targetKind="Gremlin" metamodel="1.3">\n'
        '    <step atomic="RenameElement" target="{target}"/>\n'
        "  </operationType>\n"
        "</operationCatalog>\n"
    )
    with pytest.raises(SchemaError, match="Gremlin"):
        parse_catalog(bad_target_kind)


def test_escaping_survives_round_trip():
    from procline.model import (
        ElementKind,
        MetamodelVersion,
        ProcessElement,
        ProcessModel,
        Reference,
        ReferenceKind,
        TextBlock,
    )

    model = ProcessModel.of(
        MetamodelVersion.V1_3,
        [
            ProcessElement(
                "e1",
                ElementKind.SECTION,
                'Q&A <"quoted">',
                description="line one\nline two\ttabbed\rthree\r\nfour",
                attributes={"note": 'x < y & "z"\nnext\rlast', "k&<>\"'\r\n\t": "v"},
                text_blocks=(
                    TextBlock("b1", "a < b & c > d\r"),
                    TextBlock("b&<>\"'\r\n\t2", "plain"),
                ),
            ),
            ProcessElement("e2", ElementKind.SECTION, "plain"),
        ],
        [
            Reference(
                "r1",
                ReferenceKind.TOPIC_ASSIGNMENT,
                "e1",
                "e2",
                attributes={"order&<>\"'": '1 < 2 & "3"\r\n\t'},
            )
        ],
    )
    assert parse_model(serialize_model(model)) == model


def test_local_escaping_matches_saxutils():
    from xml.sax import saxutils

    from procline.xmlio import _attr, _escape, _quoteattr, _text

    rng = random.Random(7)
    texts = [genmodels.random_text(rng) for _ in range(500)] + [
        "",
        'say "hi"',
        "it's",
        "both \" and '",
        "\"'\"",
        "cr\rlf\ntab\tcrlf\r\n",
        "&amp; already &lt;escaped&gt;",
        "<a href=\"x\">'q'</a>\r\n\t",
    ]
    # each special character alone, first and last, so both paths of _attr and _text run
    for char in "&<>\"'\n\r\t":
        texts += [char, f"{char}rest", f"rest{char}"]
    for text in texts:
        assert _escape(text) == saxutils.escape(text)
        assert _quoteattr(text) == saxutils.quoteattr(text)
        assert _attr(text) == saxutils.quoteattr(text)
        assert _text(text) == saxutils.escape(text).replace("\r", "&#13;")


# One document per writer, with every value slot passed through put(slot, value),
# so each slot can be made to hold a character XML cannot carry.

def _hostile_elements(put):
    lead = ProcessElement(
        "a",
        ElementKind.CHAPTER,
        "Lead",
        description="first\nsecond line",
        attributes={"k": "v"},
        text_blocks=(TextBlock("b0", "one\ntwo"),),
    )
    elem = ProcessElement(
        put("element id", "e1"),
        ElementKind.SECTION,
        put("element name", "name " * 20),
        description=put("element description", "multi\nline description"),
        attributes={put("attribute key", "key"): put("attribute value", "value\nmore")},
        text_blocks=(TextBlock(put("block id", "b1"), put("block text", "block\ntext")),),
    )
    return lead, elem


def _hostile_model(put):
    ref = Reference(
        put("reference id", "r1"),
        ReferenceKind.LITERATURE_LINK,
        put("reference source", "a"),
        put("reference target", "e1"),
        {put("reference attribute key", "note"): put("reference attribute value", "n\nm")},
    )
    return serialize_model(ProcessModel.of(MetamodelVersion.V1_3, _hostile_elements(put), [ref]))


def _hostile_trace(put):
    entries = (
        TraceEntry(TraceEntryKind.ASSET_ADDED, "V", "s"),
        TraceEntry(
            TraceEntryKind.OPERATION_EXECUTED,
            put("trace variant", "V"),
            put("trace subject", "Op"),
            target=put("trace target", "t"),
            detail=put("trace detail", "d"),
            step_count=1,
        ),
    )
    return serialize_trace(MergeTrace(entries, MetamodelVersion.V1_3B))


def _hostile_extension(put):
    ext = ExtensionModel(
        variant_id=put("extension id", "X"),
        parent_id=put("extension parent", "root"),
        metamodel=MetamodelVersion.V1_3,
        new_elements=_hostile_elements(lambda slot, value: value),
        exclusions=(put("exclusion id", "gone"),),
        exemplars=(
            OperationExemplar(
                put("exemplar type", "RenameRole"),
                put("exemplar target", "r"),
                {put("exemplar arg name", "newName"): put("exemplar arg value", "N\nline")},
            ),
        ),
    )
    return serialize_extension(ext)


def _hostile_catalog(put):
    step = StepTemplate(
        AtomicKind.CHANGE_ATTRIBUTE,
        put("step target", "{target}"),
        {put("step arg name", "key"): put("step arg value", "k")},
    )
    type_def = OperationTypeDef(
        put("type name", "T"), put("type group", "G"), ElementKind.ROLE, MetamodelVersion.V1_3, (step,)
    )
    return serialize_catalog(OperationCatalog([type_def]))


_HOSTILE_WRITERS = (_hostile_model, _hostile_trace, _hostile_extension, _hostile_catalog)

# (slot, character, message): every value slot of the four writers, each
# message as the whole-document scan of the earlier writer worded it
_ILLEGAL_CHARACTER_MESSAGES = [
    ('reference id', '\x00', 'character U+0000 cannot be written as XML (output line 18: \'<reference id="r1\\x00!" kind="LiteratureLink" source="a" target="e1">\')'),
    ('reference source', '\x01', 'character U+0001 cannot be written as XML (output line 18: \'<reference id="r1" kind="LiteratureLink" source="a\\x01!" target="e1">\')'),
    ('reference target', '\x0b', 'character U+000B cannot be written as XML (output line 18: \'<reference id="r1" kind="LiteratureLink" source="a" target="e1\\x0b!">\')'),
    ('reference attribute key', '\x1f', 'character U+001F cannot be written as XML (output line 19: \'<attribute key="note\\x1f!">n\')'),
    ('reference attribute value', '\ud800', "character U+D800 cannot be written as XML (output line 20: 'm\\ud800!</attribute>')"),
    ('element id', '\udfff', 'character U+DFFF cannot be written as XML (output line 10: \'<element id="e1\\udfff!" kind="Section" name="name name name name name name name name \')'),
    ('element name', '\ufffe', 'character U+FFFE cannot be written as XML (output line 10: \'<element id="e1" kind="Section" name="name name name name name name name name na\')'),
    ('element description', '\x00', "character U+0000 cannot be written as XML (output line 12: 'line description\\x00!</description>')"),
    ('attribute key', '\x01', 'character U+0001 cannot be written as XML (output line 13: \'<attribute key="key\\x01!">value\')'),
    ('attribute value', '\x0b', "character U+000B cannot be written as XML (output line 14: 'more\\x0b!</attribute>')"),
    ('block id', '\x1f', 'character U+001F cannot be written as XML (output line 15: \'<textBlock id="b1\\x1f!">block\')'),
    ('block text', '\ud800', "character U+D800 cannot be written as XML (output line 16: 'text\\ud800!</textBlock>')"),
    ('trace variant', '\udfff', 'character U+DFFF cannot be written as XML (output line 4: \'<entry kind="OperationExecuted" variant="V\\udfff!" subject="Op" target="t" stepCount=\')'),
    ('trace subject', '\ufffe', 'character U+FFFE cannot be written as XML (output line 4: \'<entry kind="OperationExecuted" variant="V" subject="Op\\ufffe!" target="t" stepCount=\')'),
    ('trace target', '\x00', 'character U+0000 cannot be written as XML (output line 4: \'<entry kind="OperationExecuted" variant="V" subject="Op" target="t\\x00!" stepCount=\')'),
    ('trace detail', '\x01', 'character U+0001 cannot be written as XML (output line 4: \'<entry kind="OperationExecuted" variant="V" subject="Op" target="t" stepCount="1\')'),
    ('extension id', '\x0b', 'character U+000B cannot be written as XML (output line 2: \'<extensionModel schemaVersion="1" id="X\\x0b!" parent="root" metamodel="1.3">\')'),
    ('extension parent', '\x1f', 'character U+001F cannot be written as XML (output line 2: \'<extensionModel schemaVersion="1" id="X" parent="root\\x1f!" metamodel="1.3">\')'),
    ('exclusion id', '\ud800', 'character U+D800 cannot be written as XML (output line 21: \'<exclude id="gone\\ud800!"/>\')'),
    ('exemplar type', '\udfff', 'character U+DFFF cannot be written as XML (output line 24: \'<exemplar type="RenameRole\\udfff!" target="r">\')'),
    ('exemplar target', '\ufffe', 'character U+FFFE cannot be written as XML (output line 24: \'<exemplar type="RenameRole" target="r\\ufffe!">\')'),
    ('exemplar arg name', '\x00', 'character U+0000 cannot be written as XML (output line 25: \'<arg name="newName\\x00!">N\')'),
    ('exemplar arg value', '\x01', "character U+0001 cannot be written as XML (output line 26: 'line\\x01!</arg>')"),
    ('step target', '\x0b', 'character U+000B cannot be written as XML (output line 4: \'<step atomic="ChangeAttribute" target="{target}\\x0b!">\')'),
    ('step arg name', '\x1f', 'character U+001F cannot be written as XML (output line 5: \'<arg name="key\\x1f!">k</arg>\')'),
    ('step arg value', '\ud800', 'character U+D800 cannot be written as XML (output line 5: \'<arg name="key">k\\ud800!</arg>\')'),
    ('type name', '\udfff', 'character U+DFFF cannot be written as XML (output line 3: \'<operationType name="T\\udfff!" group="G" targetKind="Role" metamodel="1.3">\')'),
    ('type group', '\ufffe', 'character U+FFFE cannot be written as XML (output line 3: \'<operationType name="T" group="G\\ufffe!" targetKind="Role" metamodel="1.3">\')'),
]


def test_every_value_slot_is_covered():
    slots = []
    for writer in _HOSTILE_WRITERS:
        writer(lambda slot, value: slots.append(slot) or value)
    assert sorted(slots) == sorted(slot for slot, _, _ in _ILLEGAL_CHARACTER_MESSAGES)
    for writer in _HOSTILE_WRITERS:
        assert "\n" in writer(lambda slot, value: value)


@pytest.mark.parametrize("char", ["\x00", "\x01", "\x0b", "\x1f", "\ud800", "\udfff", "\ufffe"])
def test_xml_illegal_characters_are_rejected_on_serialization(char):
    elem = ProcessElement("e1", ElementKind.SECTION, "ok", description=f"a{char}b")
    model = ProcessModel.of(MetamodelVersion.V1_3, [elem], [])
    with pytest.raises(IllegalCharacterError, match=f"U\\+{ord(char):04X}"):
        serialize_model(model)
    cases = [(slot, message) for slot, c, message in _ILLEGAL_CHARACTER_MESSAGES if c == char]
    assert cases
    for slot, message in cases:
        for writer in _HOSTILE_WRITERS:
            try:
                writer(lambda s, value: f"{value}{char}!" if s == slot else value)
            except IllegalCharacterError as err:
                assert str(err) == message
                break
        else:
            raise AssertionError(f"{slot}: no writer rejected {char!r}")


# -- trace and stats renderings ----------------------------------------------------

def test_trace_serialization_shape(root, catalog):
    merged, trace = merge_once(root, masking_extension(), catalog)
    text = serialize_trace(trace)
    assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>\n<mergeTrace ')
    assert f'finalMetamodel="{merged.metamodel.value}"' in text
    assert 'cascadeCount="' in text
    assert text.count("<entry ") == len(trace.entries)
    rendered = render_trace_text(trace)
    assert rendered.splitlines()[0].startswith(f"merge trace: {len(trace.entries)} entries")
    assert "UntypedChange" in rendered


def test_trace_attributes_survive_escaping():
    import xml.etree.ElementTree as ET

    from procline.merge import MergeTrace, TraceEntry, TraceEntryKind
    from procline.model import MetamodelVersion

    hostile = "a&b<c>d\"e'f\rg\nh\ti"
    entries = (
        TraceEntry(TraceEntryKind.ASSET_ADDED, hostile, "s" + hostile),
        TraceEntry(
            TraceEntryKind.EXCLUSION_APPLIED, "V&1", hostile, target="t" + hostile, cascade_count=3
        ),
        TraceEntry(
            TraceEntryKind.OPERATION_EXECUTED,
            "V<2>",
            "Op\"'",
            target=hostile + "t",
            detail=hostile,
            step_count=2,
        ),
        TraceEntry(TraceEntryKind.UNTYPED_CHANGE, "\r\n\t", "masking", detail="&amp;" + hostile),
    )
    text = serialize_trace(MergeTrace(entries, MetamodelVersion.V1_3Z))
    root = ET.fromstring(text)
    assert root.attrib == {"schemaVersion": "1", "finalMetamodel": "1.3Z"}
    assert [node.attrib for node in root] == [
        {"kind": "AssetAdded", "variant": hostile, "subject": "s" + hostile},
        {
            "kind": "ExclusionApplied",
            "variant": "V&1",
            "subject": hostile,
            "target": "t" + hostile,
            "cascadeCount": "3",
        },
        {
            "kind": "OperationExecuted",
            "variant": "V<2>",
            "subject": "Op\"'",
            "target": hostile + "t",
            "stepCount": "2",
            "detail": hostile,
        },
        {
            "kind": "UntypedChange",
            "variant": "\r\n\t",
            "subject": "masking",
            "detail": "&amp;" + hostile,
        },
    ]
    assert [node.tag for node in root] == ["entry"] * len(entries)


def test_trace_step_counts_serialized(root, variants, catalog):
    _, trace = merge_once(root, variants.extensions["A"], catalog)
    text = serialize_trace(trace)
    assert 'stepCount="' in text
    assert "(1 step)" in render_trace_text(trace) or "steps)" in render_trace_text(trace)


def test_stats_csv_layout(variants, catalog):
    report = usage_report(variants, catalog)
    text = export_stats_csv(report)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 1 + 5 * 69  # zero rows included
    assert text.count("\r\n") == len(lines)  # csv dialect line endings
    cells = [line.split(",") for line in lines[1:]]
    assert cells == sorted(cells, key=lambda row: (row[0], row[1], row[2]))
    assert {row[0] for row in cells} == {"A", "B", "Bund", "C", "D"}
    bund_role_class = next(
        row for row in cells if row[0] == "Bund" and row[2] == "ChangeRoleClass"
    )
    # cross-check the count straight against the extension's exemplar list
    declared = sum(
        x.type_name == "ChangeRoleClass" for x in variants.extensions["Bund"].exemplars
    )
    assert bund_role_class == ["Bund", "Role Variations", "ChangeRoleClass", "1.3B", str(declared)]
    assert declared > 0


def _stats_csv_by_one_sort(report):
    """The stats CSV as every row gathered first and sorted once."""
    rows = [
        (v, report.type_groups[t], t, report.type_metamodels[t].value, n)
        for (v, t), n in report.cells.items()
    ]
    rows += [(v, UNKNOWN_GROUP, t, "", n) for (v, t), n in report.unknown_types.items()]
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(CSV_HEADER)
    writer.writerows(sorted(rows))
    return buffer.getvalue()


def _one_step_type(name, group):
    return OperationTypeDef(
        name=name,
        group=group,
        target_kind=ElementKind.ROLE,
        defining_metamodel=MetamodelVersion.V1_3,
        recipe=(StepTemplate(AtomicKind.RENAME_ELEMENT, args={"newName": "{newName}"}),),
    )


def test_stats_csv_rows_sort_across_unknown_group_and_case():
    # "(unknown)" sorts after "!early" and before "Roles"; "x" and "X" differ only by case
    catalog = OperationCatalog(
        [_one_step_type("Zap", "!early"), _one_step_type("Alpha", "Roles"), _one_step_type("Beta", "Roles")]
    )
    root = ProcessModel.of(MetamodelVersion.V1_3, [ProcessElement("r1", ElementKind.ROLE, "R")], [])

    def ext(variant_id, *type_names):
        exemplars = tuple(OperationExemplar(name, "r1", {"newName": "n"}) for name in type_names)
        return ExtensionModel(variant_id, "root", MetamodelVersion.V1_3, exemplars=exemplars)

    family = VariantSet.of(
        root,
        [
            ext("x", "Beta", "HouseRule", "Zap", "Aardvark"),
            ext("Empty"),
            ext("X", "Alpha", "HouseRule", "HouseRule"),
            ext("b", "Zap"),
        ],
    )
    report = usage_report(family, catalog)
    text = export_stats_csv(report)
    assert text == _stats_csv_by_one_sort(report)
    assert export_stats_csv(dataclasses.replace(report, variant_ids=report.variant_ids[::-1])) == text
    rows = [tuple(row[:3]) for row in csv.reader(io.StringIO(text))][1:]
    assert rows[:3] == [("Empty", "!early", "Zap"), ("Empty", "Roles", "Alpha"), ("Empty", "Roles", "Beta")]
    assert rows[3:7] == [
        ("X", "!early", "Zap"),
        ("X", UNKNOWN_GROUP, "HouseRule"),
        ("X", "Roles", "Alpha"),
        ("X", "Roles", "Beta"),
    ]
    assert rows[-5:] == [
        ("x", "!early", "Zap"),
        ("x", UNKNOWN_GROUP, "Aardvark"),
        ("x", UNKNOWN_GROUP, "HouseRule"),
        ("x", "Roles", "Alpha"),
        ("x", "Roles", "Beta"),
    ]


def test_study_stats_csv_is_the_one_sort_order(variants, catalog):
    report = usage_report(variants, catalog)
    assert export_stats_csv(report) == _stats_csv_by_one_sort(report)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=1_000_000))
def test_stats_csv_is_the_one_sort_order(catalog, seed):
    # drawn families hold a variant without exemplars and an exemplar of an unknown type
    report = usage_report(genmodels.random_variant_set(random.Random(seed), catalog), catalog)
    assert export_stats_csv(report) == _stats_csv_by_one_sort(report)


# fields csv must quote (comma, quote, CR, LF), spaces at either end, non-ASCII
_CSV_FIELD = st.text(
    st.sampled_from([",", '"', "\r", "\n", " ", "a", "Z", "é", "中", "\u2028"]), min_size=1, max_size=5
)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_stats_csv_quotes_hostile_fields(data):
    groups = data.draw(st.dictionaries(_CSV_FIELD, _CSV_FIELD, min_size=1, max_size=4), label="type -> group")
    unknown = data.draw(st.lists(_CSV_FIELD.filter(lambda n: n not in groups), min_size=1, max_size=3))
    variant_ids = data.draw(
        st.lists(_CSV_FIELD.filter(lambda v: v != "root"), min_size=2, max_size=4, unique=True), label="variants"
    )
    catalog = OperationCatalog([_one_step_type(name, group) for name, group in groups.items()])
    root = ProcessModel.of(MetamodelVersion.V1_3, [ProcessElement("r1", ElementKind.ROLE, "R")], [])
    type_names = st.lists(st.sampled_from([*groups, *unknown]), max_size=6)
    # the first variant declares nothing, the second at least one unknown type
    declared = [[], [unknown[0], *data.draw(type_names)], *(data.draw(type_names) for _ in variant_ids[2:])]
    family = VariantSet.of(
        root,
        [
            ExtensionModel(
                variant_id,
                "root",
                MetamodelVersion.V1_3,
                exemplars=tuple(OperationExemplar(name, "r1", {"newName": "n"}) for name in names),
            )
            for variant_id, names in zip(variant_ids, declared)
        ],
    )
    report = usage_report(family, catalog)
    assert export_stats_csv(report) == _stats_csv_by_one_sort(report)


def test_stats_text_rendering(variants, catalog):
    report = usage_report(variants, catalog)
    text = render_stats_text(report)
    assert "340" in text
    assert "%" in text
    assert "Bund" in text and "Role Variations" in text

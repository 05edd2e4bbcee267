"""Atomic step validation and application, pinned kind by kind."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import genmodels
import oracle
from procline.atomic import AtomicStep, apply_atomic, field_key, validate_step
from procline.catalog import AtomicKind
from procline.errors import (
    DuplicateIdError,
    FieldNotFoundError,
    IllegalTargetError,
    MissingArgumentError,
    UnknownIdError,
)
from procline.model import (
    ElementKind,
    MetamodelVersion,
    ProcessElement,
    ProcessModel,
    Reference,
    ReferenceKind,
    TextBlock,
    compare_models,
)


def _model():
    elements = [
        ProcessElement(
            "sec",
            ElementKind.SECTION,
            "Section",
            description="about things",
            attributes={"orderingNumber": "3"},
            text_blocks=(TextBlock("b1", "first"), TextBlock("b2", "second")),
        ),
        ProcessElement("wp", ElementKind.WORK_PRODUCT, "WP"),
        ProcessElement("role", ElementKind.ROLE, "R1", attributes={"roleClass": "responsible"}),
        ProcessElement("role2", ElementKind.ROLE, "R2"),
        ProcessElement("topic", ElementKind.TOPIC, "T"),
        ProcessElement("pm", ElementKind.PROCESS_MODULE, "PM"),
        ProcessElement("ptv", ElementKind.PROJECT_TYPE_VARIANT, "PTV"),
    ]
    references = [
        Reference("resp", ReferenceKind.RESPONSIBILITY, "wp", "role"),
        Reference("td", ReferenceKind.TAILORING_DEPENDENCY, "pm", "pm", {"description": "dep"}),
    ]
    return ProcessModel.of(MetamodelVersion.V1_3, elements, references)


def _codes(issues):
    return [(i.code.value, i.subject) for i in issues]


# -- field keys ---------------------------------------------------------------

def test_field_key_forms():
    assert field_key({"field": "description"}) == "description"
    assert field_key({"field": "textBlock", "blockId": "b1"}) == "textBlock:b1"
    assert field_key({"field": "attribute", "key": "note"}) == "attribute:note"
    assert field_key({}) == ""


# -- rename ---------------------------------------------------------------------

def test_rename_element():
    model = _model()
    step = AtomicStep(AtomicKind.RENAME_ELEMENT, "role", {"newName": "Lead"})
    assert validate_step(model, step) == []
    assert apply_atomic(model, step).elements["role"].name == "Lead"
    assert model.elements["role"].name == "R1"  # input untouched


def test_rename_validation():
    model = _model()
    empty = AtomicStep(AtomicKind.RENAME_ELEMENT, "role", {"newName": ""})
    assert _codes(validate_step(model, empty)) == [("MissingArgument", "role")]
    ghost = AtomicStep(AtomicKind.RENAME_ELEMENT, "nope", {"newName": "x"})
    assert _codes(validate_step(model, ghost)) == [("UnknownId", "nope")]
    ref = AtomicStep(AtomicKind.RENAME_ELEMENT, "resp", {"newName": "x"})
    assert _codes(validate_step(model, ref)) == [("IllegalTarget", "resp")]


# -- text fields -----------------------------------------------------------------

def test_replace_description_and_block():
    model = _model()
    step = AtomicStep(AtomicKind.REPLACE_TEXT, "sec", {"field": "description", "text": "new"})
    assert apply_atomic(model, step).elements["sec"].description == "new"
    block = AtomicStep(
        AtomicKind.REPLACE_TEXT, "sec", {"field": "textBlock", "blockId": "b2", "text": "swapped"}
    )
    after = apply_atomic(model, block)
    assert [b.text for b in after.elements["sec"].text_blocks] == ["first", "swapped"]


def test_replace_text_accepts_empty_text():
    model = _model()
    step = AtomicStep(AtomicKind.REPLACE_TEXT, "sec", {"field": "description", "text": ""})
    assert validate_step(model, step) == []
    assert apply_atomic(model, step).elements["sec"].description == ""


def test_replace_reference_attribute():
    model = _model()
    step = AtomicStep(
        AtomicKind.REPLACE_TEXT, "td", {"field": "attribute", "key": "description", "text": "x"}
    )
    assert apply_atomic(model, step).references["td"].attributes["description"] == "x"
    # an element's attribute is written in place, and nothing else of it
    on_element = AtomicStep(
        AtomicKind.REPLACE_TEXT, "role", {"field": "attribute", "key": "roleClass", "text": "accountable"}
    )
    assert apply_atomic(model, on_element).elements["role"] == ProcessElement(
        "role", ElementKind.ROLE, "R1", attributes={"roleClass": "accountable"}
    )
    # references hold no description or blocks of their own
    wrong = AtomicStep(AtomicKind.REPLACE_TEXT, "td", {"field": "description", "text": "x"})
    assert _codes(validate_step(model, wrong)) == [("IllegalTarget", "td")]


def test_text_field_validation():
    model = _model()
    cases = [
        ({"text": "x"}, "MissingArgument"),  # no field selector
        ({"field": "body", "text": "x"}, "IllegalTarget"),  # unknown selector
        ({"field": "textBlock", "text": "x"}, "MissingArgument"),  # no blockId
        ({"field": "attribute", "text": "x"}, "MissingArgument"),  # no key
        ({"field": "description"}, "MissingArgument"),  # no text at all
    ]
    for args, code in cases:
        step = AtomicStep(AtomicKind.REPLACE_TEXT, "sec", args)
        assert _codes(validate_step(model, step)) == [(code, "sec")], args
    missing_block = AtomicStep(
        AtomicKind.REPLACE_TEXT, "sec", {"field": "textBlock", "blockId": "b9", "text": "x"}
    )
    assert _codes(validate_step(model, missing_block)) == [("FieldNotFound", "sec")]
    missing_attr = AtomicStep(
        AtomicKind.REPLACE_TEXT, "role", {"field": "attribute", "key": "nope", "text": "x"}
    )
    assert _codes(validate_step(model, missing_attr)) == [("FieldNotFound", "role")]
    ghost = AtomicStep(AtomicKind.REPLACE_TEXT, "nope", {"field": "description", "text": "x"})
    assert _codes(validate_step(model, ghost)) == [("UnknownId", "nope")]


def test_add_text_splices():
    model = _model()
    prefix = AtomicStep(
        AtomicKind.ADD_TEXT, "sec", {"field": "description", "position": "prefix", "text": "NB: "}
    )
    assert apply_atomic(model, prefix).elements["sec"].description == "NB: about things"
    postfix = AtomicStep(
        AtomicKind.ADD_TEXT,
        "sec",
        {"field": "textBlock", "blockId": "b1", "position": "postfix", "text": "!"},
    )
    assert apply_atomic(model, postfix).elements["sec"].text_blocks[0].text == "first!"
    on_ref = AtomicStep(
        AtomicKind.ADD_TEXT,
        "td",
        {"field": "attribute", "key": "description", "position": "prefix", "text": ">"},
    )
    assert apply_atomic(model, on_ref).references["td"].attributes["description"] == ">dep"
    spliced_texts = (("prefix", "not ", "not responsible"), ("postfix", " only", "responsible only"))
    for position, text, spliced in spliced_texts:
        on_element = AtomicStep(
            AtomicKind.ADD_TEXT,
            "role",
            {"field": "attribute", "key": "roleClass", "position": position, "text": text},
        )
        assert apply_atomic(model, on_element).elements["role"] == ProcessElement(
            "role", ElementKind.ROLE, "R1", attributes={"roleClass": spliced}
        ), position


def test_add_text_position_validation():
    model = _model()
    none = AtomicStep(AtomicKind.ADD_TEXT, "sec", {"field": "description", "text": "x"})
    assert _codes(validate_step(model, none)) == [("MissingArgument", "sec")]
    bad = AtomicStep(
        AtomicKind.ADD_TEXT, "sec", {"field": "description", "position": "middle", "text": "x"}
    )
    assert _codes(validate_step(model, bad)) == [("IllegalTarget", "sec")]


# -- swaps -----------------------------------------------------------------------

def test_swap_reference_endpoints():
    model = _model()
    step = AtomicStep(AtomicKind.SWAP_REFERENCES, "resp", {"newTarget": "role2"})
    after = apply_atomic(model, step)
    assert after.references["resp"].target == "role2"
    assert after.references["resp"].source == "wp"  # untouched side stays


def test_swap_validation():
    model = _model()
    neither = AtomicStep(AtomicKind.SWAP_REFERENCES, "resp", {})
    assert _codes(validate_step(model, neither)) == [("MissingArgument", "resp")]
    # empty strings do not count as given endpoints
    both_empty = AtomicStep(AtomicKind.SWAP_REFERENCES, "resp", {"newSource": "", "newTarget": ""})
    assert _codes(validate_step(model, both_empty)) == [("MissingArgument", "resp")]
    ghost = AtomicStep(AtomicKind.SWAP_REFERENCES, "resp", {"newTarget": "nope"})
    assert _codes(validate_step(model, ghost)) == [("UnknownId", "resp")]
    wrong_kind = AtomicStep(AtomicKind.SWAP_REFERENCES, "resp", {"newTarget": "topic"})
    assert _codes(validate_step(model, wrong_kind)) == [("IllegalTarget", "resp")]
    wrong_source = AtomicStep(AtomicKind.SWAP_REFERENCES, "resp", {"newSource": "role2"})
    assert _codes(validate_step(model, wrong_source)) == [("IllegalTarget", "resp")]
    on_element = AtomicStep(AtomicKind.SWAP_REFERENCES, "sec", {"newTarget": "role2"})
    assert _codes(validate_step(model, on_element)) == [("IllegalTarget", "sec")]


# -- removal ----------------------------------------------------------------------

def test_remove_element_locality():
    model = _model()
    step = AtomicStep(AtomicKind.REMOVE_ELEMENT, "wp")
    after = apply_atomic(model, step)
    delta = compare_models(model, after)
    assert delta.removed_elements == ("wp",)
    assert delta.removed_references == ("resp",)  # cascaded
    assert not delta.added_elements and not delta.modified_elements
    assert not delta.modified_references


def test_remove_reference():
    model = _model()
    after = apply_atomic(model, AtomicStep(AtomicKind.REMOVE_REFERENCE, "resp"))
    assert "resp" not in after.references
    assert len(after.elements) == len(model.elements)


# -- add reference -----------------------------------------------------------------

def test_add_reference():
    model = _model()
    step = AtomicStep(
        AtomicKind.ADD_REFERENCE,
        "ptv",
        {"refId": "cfg9", "refKind": "ConfigurationEntry", "source": "ptv", "target": "pm"},
    )
    after = apply_atomic(model, step)
    ref = after.references["cfg9"]
    assert (ref.kind, ref.source, ref.target) == (ReferenceKind.CONFIGURATION_ENTRY, "ptv", "pm")


def test_add_reference_validation():
    model = _model()
    incomplete = AtomicStep(AtomicKind.ADD_REFERENCE, "ptv", {"refId": "x", "refKind": "ConfigurationEntry"})
    assert sorted(_codes(validate_step(model, incomplete))) == [
        ("MissingArgument", "ptv"),
        ("MissingArgument", "ptv"),
    ]
    bad_anchor = AtomicStep(
        AtomicKind.ADD_REFERENCE,
        "nope",
        {"refId": "x", "refKind": "ConfigurationEntry", "source": "ptv", "target": "pm"},
    )
    assert ("UnknownId", "nope") in _codes(validate_step(model, bad_anchor))
    bad_kind = AtomicStep(
        AtomicKind.ADD_REFERENCE,
        "ptv",
        {"refId": "x", "refKind": "Bogus", "source": "ptv", "target": "pm"},
    )
    assert _codes(validate_step(model, bad_kind)) == [("IllegalTarget", "ptv")]
    duplicate = AtomicStep(
        AtomicKind.ADD_REFERENCE,
        "ptv",
        {"refId": "resp", "refKind": "ConfigurationEntry", "source": "ptv", "target": "pm"},
    )
    # the clashing id itself is the subject
    assert _codes(validate_step(model, duplicate)) == [("DuplicateId", "resp")]
    dangling = AtomicStep(
        AtomicKind.ADD_REFERENCE,
        "ptv",
        {"refId": "x", "refKind": "ConfigurationEntry", "source": "ptv", "target": "nope"},
    )
    assert _codes(validate_step(model, dangling)) == [("UnknownId", "ptv")]
    misfit = AtomicStep(
        AtomicKind.ADD_REFERENCE,
        "ptv",
        {"refId": "x", "refKind": "ConfigurationEntry", "source": "ptv", "target": "role"},
    )
    assert _codes(validate_step(model, misfit)) == [("IllegalTarget", "ptv")]


# -- attributes and ordering ----------------------------------------------------------

def test_change_attribute_creates_or_overwrites():
    model = _model()
    fresh = AtomicStep(AtomicKind.CHANGE_ATTRIBUTE, "topic", {"key": "note", "value": "hi"})
    assert apply_atomic(model, fresh).elements["topic"].attributes["note"] == "hi"
    overwrite = AtomicStep(AtomicKind.CHANGE_ATTRIBUTE, "role", {"key": "roleClass", "value": ""})
    assert apply_atomic(model, overwrite).elements["role"].attributes["roleClass"] == ""
    on_ref = AtomicStep(AtomicKind.CHANGE_ATTRIBUTE, "td", {"key": "name", "value": "Dep"})
    assert apply_atomic(model, on_ref).references["td"].attributes["name"] == "Dep"


def test_change_attribute_validation():
    model = _model()
    no_value = AtomicStep(AtomicKind.CHANGE_ATTRIBUTE, "topic", {"key": "note"})
    assert _codes(validate_step(model, no_value)) == [("MissingArgument", "topic")]
    no_key = AtomicStep(AtomicKind.CHANGE_ATTRIBUTE, "topic", {"key": "", "value": "x"})
    assert _codes(validate_step(model, no_key)) == [("MissingArgument", "topic")]
    ghost = AtomicStep(AtomicKind.CHANGE_ATTRIBUTE, "nope", {"key": "note", "value": "x"})
    assert _codes(validate_step(model, ghost)) == [("UnknownId", "nope")]


def test_move_element():
    model = _model()
    step = AtomicStep(AtomicKind.MOVE_ELEMENT, "sec", {"newOrderingNumber": "7.5"})
    assert apply_atomic(model, step).elements["sec"].attributes["orderingNumber"] == "7.5"


def test_move_element_validation():
    model = _model()
    # Decimal parses the non-finite values too, but they cannot order anything
    for number in ("soon", "NaN", "sNaN", "-nan", "Infinity", "-Infinity", "inf"):
        bad = AtomicStep(AtomicKind.MOVE_ELEMENT, "sec", {"newOrderingNumber": number})
        assert _codes(validate_step(model, bad)) == [("IllegalTarget", "sec")], number
    missing = AtomicStep(AtomicKind.MOVE_ELEMENT, "sec", {})
    assert _codes(validate_step(model, missing)) == [("MissingArgument", "sec")]
    on_ref = AtomicStep(AtomicKind.MOVE_ELEMENT, "resp", {"newOrderingNumber": "1"})
    assert _codes(validate_step(model, on_ref)) == [("IllegalTarget", "resp")]


# -- exception mapping ----------------------------------------------------------------

def test_apply_raises_matching_exception():
    model = _model()
    cases = [
        (AtomicStep(AtomicKind.RENAME_ELEMENT, "nope", {"newName": "x"}), UnknownIdError),
        (AtomicStep(AtomicKind.RENAME_ELEMENT, "role", {}), MissingArgumentError),
        (AtomicStep(AtomicKind.RENAME_ELEMENT, "resp", {"newName": "x"}), IllegalTargetError),
        (
            AtomicStep(AtomicKind.REPLACE_TEXT, "sec", {"field": "textBlock", "blockId": "b9", "text": "x"}),
            FieldNotFoundError,
        ),
        (
            AtomicStep(
                AtomicKind.ADD_REFERENCE,
                "ptv",
                {"refId": "resp", "refKind": "ConfigurationEntry", "source": "ptv", "target": "pm"},
            ),
            DuplicateIdError,
        ),
    ]
    for step, exc in cases:
        with pytest.raises(exc):
            apply_atomic(model, step)


# -- randomized oracle equivalence ------------------------------------------------------

_TEXT_FIELDS = ("description", "textBlock", "attribute", "body", None)


def _random_step(rng, model):
    """A step of any kind with a mixed-validity target and argument set."""
    elements = sorted(model.elements)
    references = sorted(model.references)

    def some_target():
        roll = rng.random()
        if roll < 0.45:
            return rng.choice(elements)
        if roll < 0.8 and references:
            return rng.choice(references)
        return "ghost"

    def some_endpoint():
        roll = rng.random()
        if roll < 0.6:
            return rng.choice(elements)
        if roll < 0.7:
            return ""
        if roll < 0.8 and references:
            return rng.choice(references)
        return "ghost"

    kind = rng.choice(tuple(AtomicKind))
    args = {}
    if kind is AtomicKind.RENAME_ELEMENT:
        if rng.random() < 0.85:
            args["newName"] = rng.choice(("New", ""))
    elif kind in (AtomicKind.REPLACE_TEXT, AtomicKind.ADD_TEXT):
        selector = rng.choice(_TEXT_FIELDS)
        if selector is not None:
            args["field"] = selector
        if rng.random() < 0.85:
            args["text"] = genmodels.random_text(rng)
        if rng.random() < 0.8:
            args["blockId"] = rng.choice(("b1", "b2", "b9", ""))
        if rng.random() < 0.8:
            args["key"] = rng.choice(("roleClass", "orderingNumber", "description", "nope", ""))
        if kind is AtomicKind.ADD_TEXT and rng.random() < 0.85:
            args["position"] = rng.choice(("prefix", "postfix", "middle", ""))
    elif kind is AtomicKind.SWAP_REFERENCES:
        if rng.random() < 0.7:
            args["newSource"] = some_endpoint()
        if rng.random() < 0.7:
            args["newTarget"] = some_endpoint()
    elif kind is AtomicKind.ADD_REFERENCE:
        if rng.random() < 0.9:
            args["refId"] = rng.choice(("fresh9", elements[0], ""))
        if rng.random() < 0.9:
            args["refKind"] = rng.choice([k.value for k in ReferenceKind] + ["Bogus", ""])
        if rng.random() < 0.9:
            args["source"] = some_endpoint() or "ghost"
        if rng.random() < 0.9:
            args["target"] = some_endpoint() or "ghost"
    elif kind is AtomicKind.CHANGE_ATTRIBUTE:
        if rng.random() < 0.9:
            args["key"] = rng.choice(("note", ""))
        if rng.random() < 0.9:
            args["value"] = rng.choice(("x", ""))
    elif kind is AtomicKind.MOVE_ELEMENT:
        if rng.random() < 0.9:
            args["newOrderingNumber"] = rng.choice(("4", "4.5", "NaN", "-Infinity", "soon", ""))
    return AtomicStep(kind, some_target(), args)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=1_000_000))
def test_steps_agree_with_oracle(seed):
    rng = random.Random(seed)
    model = genmodels.random_model(rng, max_elements=15)
    plain = oracle.model_to_plain(model)
    for _ in range(8):
        step = _random_step(rng, model)
        plain_step = {"atomic": step.kind.value, "target": step.target, "args": dict(step.args)}
        got = sorted(_codes(validate_step(model, step)))
        want = sorted(oracle.check_step(plain, plain_step))
        assert got == want, (step, got, want)
        if not got:
            applied = apply_atomic(model, step)
            assert oracle.model_to_plain(applied) == oracle.run_step(plain, plain_step), step

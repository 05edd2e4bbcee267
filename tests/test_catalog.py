"""Operation catalog contents, expansion, and exemplar type checking."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import genmodels
import oracle
from procline.atomic import AtomicStep, apply_atomic, expand_exemplar, validate_exemplar
from procline.catalog import (
    AtomicKind,
    OperationCatalog,
    OperationExemplar,
    OperationTypeDef,
    StepTemplate,
    builtin_catalog,
)
from procline.errors import DuplicateTypeNameError, MissingArgumentError, UnknownOperationTypeError
from procline.model import (
    ElementKind,
    MetamodelVersion,
    ProcessElement,
    ProcessModel,
    Reference,
    ReferenceKind,
)
from procline.xmlread import parse_catalog

EXPECTED_GROUPS = [
    "Discipline Variations",
    "Work Product Variations",
    "Topic Variations",
    "Activity Variations",
    "Task Variations",
    "Role Variations",
    "Tailoring Variations",
    "Decision Gate Variations",
    "Description Replacements",
    "Description Add-ons",
    "Description Re-Arragements",
    "Description Removements",
    "Tool/Method Ref. Variations",
    "Mapping Variations",
    "Appendix Variations",
]


def test_catalog_size_and_split(catalog):
    assert len(catalog) == 69
    assert catalog.counts_by_metamodel() == {
        MetamodelVersion.V1_3: 34,
        MetamodelVersion.V1_3B: 35,
        MetamodelVersion.V1_3Z: 0,
    }
    named = [t for t in catalog if not t.synthetic]
    assert len(named) == 36
    assert sum(t.synthetic for t in catalog) == 33


def test_builtin_catalog_is_parsed_once(catalog):
    assert builtin_catalog() is builtin_catalog() is catalog


def test_group_vocabulary(catalog):
    assert catalog.groups() == sorted(EXPECTED_GROUPS)
    assert all(t.group in EXPECTED_GROUPS for t in catalog)


def test_synthetic_placeholders_mark_an_attribute(catalog):
    for type_def in catalog:
        if not type_def.synthetic:
            continue
        assert type_def.name.startswith("Synthetic")
        assert type_def.placeholders == frozenset({"value"})
        (template,) = type_def.recipe
        assert template.atomic is AtomicKind.CHANGE_ATTRIBUTE
        marker = type_def.name[0].lower() + type_def.name[1:]
        assert template.args == {"key": marker, "value": "{value}"}


def test_every_recipe_anchors_on_the_target(catalog):
    for type_def in catalog:
        assert type_def.recipe[0].target == "{target}"


def test_lookup_and_iteration(catalog):
    assert catalog.lookup("RenameRole").group == "Role Variations"
    assert catalog.get("NoSuchThing") is None
    assert "RenameRole" in catalog
    assert "NoSuchThing" not in catalog
    names = [t.name for t in catalog]
    assert names == sorted(names)
    with pytest.raises(UnknownOperationTypeError):
        catalog.lookup("NoSuchThing")


def test_duplicate_names_rejected(catalog):
    first = next(iter(catalog))
    with pytest.raises(DuplicateTypeNameError) as exc:
        OperationCatalog([first, first])
    assert str(exc.value) == f"duplicate operation type name {first.name!r}"


def test_known_definitions(catalog):
    gate = catalog.lookup("ChangeRoleClass")
    assert gate.defining_metamodel is MetamodelVersion.V1_3B
    assert gate.target_kind is ElementKind.ROLE
    swap = catalog.lookup("ChangeResponsibility")
    assert swap.defining_metamodel is MetamodelVersion.V1_3
    assert swap.target_kind is ReferenceKind.RESPONSIBILITY
    assert swap.recipe[0].atomic is AtomicKind.SWAP_REFERENCES
    add = catalog.lookup("AddProcessModule")
    assert add.placeholders == frozenset({"refId", "module"})


# -- expansion ------------------------------------------------------------------

def test_expand_substitutes_target_and_args(catalog):
    exemplar = OperationExemplar("RenameRole", "r1", {"newName": "Lead"})
    (step,) = expand_exemplar(catalog, exemplar)
    assert step.kind is AtomicKind.RENAME_ELEMENT
    assert step.target == "r1"
    assert step.args == {"newName": "Lead"}


def test_expand_requires_all_placeholders(catalog):
    with pytest.raises(MissingArgumentError):
        expand_exemplar(catalog, OperationExemplar("RenameRole", "r1"))


def test_expand_unknown_type(catalog):
    with pytest.raises(UnknownOperationTypeError):
        expand_exemplar(catalog, OperationExemplar("NoSuchThing", "r1"))


def test_expand_keeps_non_placeholder_literals():
    # braces count as a placeholder only when they span the whole string
    type_def = OperationTypeDef(
        name="Decorate",
        group="Role Variations",
        target_kind=ElementKind.ROLE,
        defining_metamodel=MetamodelVersion.V1_3,
        recipe=(
            StepTemplate(
                AtomicKind.RENAME_ELEMENT, "{target}", {"newName": "pre {newName} post"}
            ),
        ),
    )
    catalog = OperationCatalog([type_def])
    (step,) = expand_exemplar(catalog, OperationExemplar("Decorate", "r1", {"newName": "x"}))
    assert step.args == {"newName": "pre {newName} post"}


def _expanded_by_pattern(type_def, exemplar):
    """A recipe expanded by matching each value against the placeholder pattern, value by value."""

    def substitute(value):
        match = re.fullmatch(r"\{([A-Za-z][A-Za-z0-9]*)\}", value)
        if not match:
            return value
        name = match.group(1)
        if name == "target":
            return exemplar.target
        if name not in exemplar.args:
            raise MissingArgumentError(
                f"exemplar of {exemplar.type_name!r} on {exemplar.target!r}: missing argument {name!r}"
            )
        return exemplar.args[name]

    return [
        AtomicStep(t.atomic, substitute(t.target), {k: substitute(v) for k, v in t.args.items()})
        for t in type_def.recipe
    ]


def _assert_expands_as_by_pattern(catalog, exemplar):
    try:
        expected = _expanded_by_pattern(catalog.lookup(exemplar.type_name), exemplar)
    except MissingArgumentError as exc:
        with pytest.raises(MissingArgumentError) as raised:
            expand_exemplar(catalog, exemplar)
        assert str(raised.value) == str(exc)
        return
    steps = expand_exemplar(catalog, exemplar)
    assert steps == expected
    assert repr(steps) == repr(expected)  # the args of each step in recipe order, too


# values an exemplar may carry that look like placeholders, or are one
_TRICKY_VALUES = ("{target}", "{newName}", "{}", "{a b}", "{text}", "", "plain")


def _random_exemplar(rng, type_def):
    names = sorted(type_def.placeholders)
    args = {name: rng.choice(_TRICKY_VALUES + (genmodels.random_text(rng),)) for name in names}
    for name in rng.sample(names, rng.randint(0, len(names))) if rng.random() < 0.3 else ():
        del args[name]
    if rng.random() < 0.3:
        args[rng.choice(("target", "extra", "text"))] = rng.choice(_TRICKY_VALUES)
    return OperationExemplar(type_def.name, rng.choice(("t1", "{target}", "{x}", "a b")), args)


def test_bound_expansion_equals_pattern_expansion_on_every_builtin_step(catalog):
    rng = random.Random(5)
    assert len(list(catalog)) == 69
    for type_def in catalog:
        full = {name: f"value of {name}" for name in type_def.placeholders}
        _assert_expands_as_by_pattern(catalog, OperationExemplar(type_def.name, "t1", full))
        for name in sorted(type_def.placeholders):  # each argument missing in turn
            partial = {k: v for k, v in full.items() if k != name}
            _assert_expands_as_by_pattern(catalog, OperationExemplar(type_def.name, "t1", partial))
        for _ in range(20):
            _assert_expands_as_by_pattern(catalog, _random_exemplar(rng, type_def))


_TRICKY_CATALOG = """<?xml version="1.0" encoding="UTF-8"?>
<operationCatalog schemaVersion="1">
  <operationType name="Tricky" group="G" targetKind="Role" metamodel="1.3">
    <step atomic="ChangeAttribute" target="{target}">
      <arg name="key">{a b}</arg>
      <arg name="value">{value}</arg>
      <arg name="empty">{}</arg>
      <arg name="digit">{1x}</arg>
      <arg name="inner">x{value}</arg>
      <arg name="newline">{text}
</arg>
      <arg name="self">{target}</arg>
    </step>
    <step atomic="RenameElement" target="{other}">
      <arg name="newName">{value}</arg>
      <arg name="literal">value</arg>
    </step>
    <step atomic="MoveElement" target="literal-id"/>
  </operationType>
</operationCatalog>
"""


def test_bound_expansion_equals_pattern_expansion_on_a_parsed_catalog():
    catalog = parse_catalog(_TRICKY_CATALOG)
    type_def = catalog.lookup("Tricky")
    assert type_def.placeholders == frozenset({"value", "other"})
    exemplars = [
        OperationExemplar("Tricky", "r1", {"value": "{target}", "other": "{value}"}),
        OperationExemplar("Tricky", "r1", {"value": "v", "other": "o", "target": "not the target", "a b": "x"}),
        OperationExemplar("Tricky", "{other}", {"value": "{}", "other": "{a b}"}),
        OperationExemplar("Tricky", "r1", {"other": "o"}),
        OperationExemplar("Tricky", "r1", {"value": "v"}),
        OperationExemplar("Tricky", "r1"),
    ]
    for exemplar in exemplars:
        _assert_expands_as_by_pattern(catalog, exemplar)
    first, second, third = expand_exemplar(catalog, exemplars[0])
    assert first.args == {
        "key": "{a b}", "value": "{target}", "empty": "{}", "digit": "{1x}", "inner": "x{value}",
        "newline": "{text}\n", "self": "r1",
    }
    assert (second.target, second.args) == ("{value}", {"newName": "{target}", "literal": "value"})
    assert third.target == "literal-id"
    with pytest.raises(MissingArgumentError) as raised:
        expand_exemplar(catalog, exemplars[3])
    assert str(raised.value) == "exemplar of 'Tricky' on 'r1': missing argument 'value'"


# -- type checking ------------------------------------------------------------------

def _base(metamodel=MetamodelVersion.V1_3):
    return ProcessModel.of(
        metamodel,
        [
            ProcessElement("r1", ElementKind.ROLE, "Role", attributes={"roleClass": "a"}),
            ProcessElement("wp1", ElementKind.WORK_PRODUCT, "WP"),
            ProcessElement("t1", ElementKind.TOPIC, "Topic"),
        ],
        [Reference("resp1", ReferenceKind.RESPONSIBILITY, "wp1", "r1")],
    )


def _codes(issues):
    return [(i.code.value, i.subject) for i in issues]


def test_unknown_type_is_the_only_issue(catalog):
    # nothing else can be checked without a definition
    exemplar = OperationExemplar("NoSuchThing", "ghost", {})
    assert _codes(validate_exemplar(catalog, _base(), exemplar)) == [
        ("UnknownOperationType", "NoSuchThing")
    ]


def test_metamodel_gate(catalog):
    exemplar = OperationExemplar("ChangeRoleClass", "r1", {"roleClass": "b"})
    gated = validate_exemplar(catalog, _base(MetamodelVersion.V1_3), exemplar)
    assert _codes(gated) == [("MetamodelGate", "ChangeRoleClass")]
    assert validate_exemplar(catalog, _base(MetamodelVersion.V1_3B), exemplar) == []
    assert validate_exemplar(catalog, _base(MetamodelVersion.V1_3Z), exemplar) == []


def test_target_resolution(catalog):
    ghost = OperationExemplar("RenameRole", "ghost", {"newName": "x"})
    assert _codes(validate_exemplar(catalog, _base(), ghost)) == [("UnknownTargetId", "ghost")]
    wrong_kind = OperationExemplar("RenameRole", "wp1", {"newName": "x"})
    assert _codes(validate_exemplar(catalog, _base(), wrong_kind)) == [("TypeMismatch", "wp1")]


def test_namespace_mismatch_both_ways(catalog):
    # element-targeting type pointed at a reference, and vice versa
    at_reference = OperationExemplar("RenameRole", "resp1", {"newName": "x"})
    assert _codes(validate_exemplar(catalog, _base(), at_reference)) == [
        ("TypeMismatch", "resp1")
    ]
    at_element = OperationExemplar("ChangeResponsibility", "r1", {"newRole": "r1"})
    assert _codes(validate_exemplar(catalog, _base(), at_element)) == [("TypeMismatch", "r1")]


def test_target_messages(catalog):
    cases = [
        (
            OperationExemplar("RenameRole", "ghost", {"newName": "x"}),
            "RenameRole targets Role elements; target does not resolve",
        ),
        (
            OperationExemplar("RenameRole", "resp1", {"newName": "x"}),
            "RenameRole targets Role elements; target resolves to a reference",
        ),
        (
            OperationExemplar("RenameRole", "wp1", {"newName": "x"}),
            "RenameRole targets Role elements, got WorkProduct",
        ),
        (
            OperationExemplar("ChangeResponsibility", "ghost", {"newRole": "r1"}),
            "ChangeResponsibility targets Responsibility references; target does not resolve",
        ),
        (
            OperationExemplar("ChangeResponsibility", "r1", {"newRole": "r1"}),
            "ChangeResponsibility targets Responsibility references; target resolves to an element",
        ),
        (
            OperationExemplar("RemoveSupportingRole", "resp1"),
            "RemoveSupportingRole targets SupportingRole references, got Responsibility",
        ),
    ]
    for exemplar, message in cases:
        issues = validate_exemplar(catalog, _base(MetamodelVersion.V1_3B), exemplar)
        assert [issue.message for issue in issues] == [message]


def test_missing_arguments_sorted(catalog):
    exemplar = OperationExemplar("AddProcessModule", "t1")
    model = ProcessModel.of(
        MetamodelVersion.V1_3,
        [ProcessElement("t1", ElementKind.PROJECT_TYPE_VARIANT, "PTV")],
        [],
    )
    issues = validate_exemplar(catalog, model, exemplar)
    assert _codes(issues) == [
        ("MissingArgument", "AddProcessModule"),
        ("MissingArgument", "AddProcessModule"),
    ]
    assert [i.message for i in issues] == sorted(i.message for i in issues)
    # present-but-empty argument values satisfy the placeholder check
    empty_ok = OperationExemplar("RenameRole", "r1", {"newName": ""})
    step_level = validate_exemplar(catalog, _base(), empty_ok)
    assert _codes(step_level) == [("MissingArgument", "r1")]  # caught by the step, not here


def test_step_issues_surface_with_step_subject(catalog):
    # argument parses as a placeholder fill but fails step validation
    exemplar = OperationExemplar("ChangeDisciplineNumber", "d1", {"newOrderingNumber": "soon"})
    model = ProcessModel.of(
        MetamodelVersion.V1_3B,
        [ProcessElement("d1", ElementKind.DISCIPLINE, "D", attributes={"orderingNumber": "1"})],
        [],
    )
    assert _codes(validate_exemplar(catalog, model, exemplar)) == [("IllegalTarget", "d1")]


def test_gate_and_target_issues_accumulate(catalog):
    exemplar = OperationExemplar("ChangeRoleClass", "ghost", {"roleClass": "b"})
    issues = validate_exemplar(catalog, _base(MetamodelVersion.V1_3), exemplar)
    assert _codes(issues) == [
        ("MetamodelGate", "ChangeRoleClass"),
        ("UnknownTargetId", "ghost"),
    ]


def test_clean_validation_means_executable(catalog):
    model = _base(MetamodelVersion.V1_3B)
    exemplar = OperationExemplar("ChangeRoleClass", "r1", {"roleClass": "veto"})
    assert validate_exemplar(catalog, model, exemplar) == []
    current = model
    for step in expand_exemplar(catalog, exemplar):
        current = apply_atomic(current, step)
    assert current.elements["r1"].attributes["roleClass"] == "veto"


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=1_000_000))
def test_well_typed_exemplars_validate_and_run(catalog, seed):
    rng = random.Random(seed)
    model = genmodels.random_model(rng, max_elements=20, metamodel=MetamodelVersion.V1_3B)
    exemplar = genmodels.well_typed_exemplar(rng, model, catalog)
    engine_issues = validate_exemplar(catalog, model, exemplar)
    assert engine_issues == []
    plain_ex = {"type": exemplar.type_name, "target": exemplar.target, "args": dict(exemplar.args)}
    assert oracle.check_exemplar(oracle.catalog_to_plain(catalog), oracle.model_to_plain(model), plain_ex) == []
    current = model
    for step in expand_exemplar(catalog, exemplar):
        current = apply_atomic(current, step)
    assert current.check_consistency() == []


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=1_000_000))
def test_ill_typed_exemplars_match_oracle_verdict(catalog, seed):
    rng = random.Random(seed)
    model = genmodels.random_model(rng, max_elements=20)
    exemplar, reason = genmodels.ill_typed_exemplar(rng, model, catalog)
    engine = validate_exemplar(catalog, model, exemplar)
    assert engine != [], reason
    plain_ex = {"type": exemplar.type_name, "target": exemplar.target, "args": dict(exemplar.args)}
    want = oracle.check_exemplar(
        oracle.catalog_to_plain(catalog), oracle.model_to_plain(model), plain_ex
    )
    assert sorted((i.code.value, i.subject) for i in engine) == sorted(want), reason

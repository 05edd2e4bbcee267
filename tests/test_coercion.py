"""Every public constructor turns a string in an enum field into its member.

Each enum here mixes in ``str``, so a record that kept the string would
equal its enum-built twin and still behave differently wherever a member is
read (``.value``, ``is``). ``_COERCED`` builds each record with one enum
field given as a string; the lint at the end finds every enum field of an
exported dataclass and fails unless ``_COERCED`` covers it.
"""

import dataclasses
import enum
import types
import typing

import pytest

import procline
from procline.analytics import export_stats_csv, usage_report
from procline.atomic import AtomicStep
from procline.catalog import AtomicKind, OperationCatalog, OperationTypeDef, StepTemplate
from procline.errors import Issue, IssueCode
from procline.family import ExtensionModel
from procline.merge import MergeTrace, TraceEntry, TraceEntryKind
from procline.model import (
    ChangeSet,
    ElementKind,
    MetamodelVersion,
    ProcessElement,
    ProcessModel,
    Reference,
    ReferenceKind,
)
from procline.xmlio import render_trace_text, serialize_catalog, serialize_trace

_STEP = StepTemplate(AtomicKind.RENAME_ELEMENT, args={"newName": "{newName}"})

# (class, field, the record built with that field given as a string, the member the string names);
# a field that holds a fixed-length tuple of members is given a tuple of strings
_COERCED = [
    (ProcessElement, "kind", lambda: ProcessElement("e1", "Role", "E"), ElementKind.ROLE),
    (Reference, "kind", lambda: Reference("r1", "Responsibility", "w1", "e1"), ReferenceKind.RESPONSIBILITY),
    (ProcessModel, "metamodel", lambda: ProcessModel("1.3B"), MetamodelVersion.V1_3B),
    (StepTemplate, "atomic", lambda: StepTemplate("RenameElement"), AtomicKind.RENAME_ELEMENT),
    (AtomicStep, "kind", lambda: AtomicStep("RemoveElement", "e1"), AtomicKind.REMOVE_ELEMENT),
    (ExtensionModel, "metamodel", lambda: ExtensionModel("V", "root", "1.3Z"), MetamodelVersion.V1_3Z),
    (
        OperationTypeDef,
        "target_kind",
        lambda: OperationTypeDef("X", "g", "Role", MetamodelVersion.V1_3, (_STEP,)),
        ElementKind.ROLE,
    ),
    (
        OperationTypeDef,
        "target_kind",
        lambda: OperationTypeDef("X", "g", "ToolLink", MetamodelVersion.V1_3, (_STEP,)),
        ReferenceKind.TOOL_LINK,
    ),
    (
        OperationTypeDef,
        "defining_metamodel",
        lambda: OperationTypeDef("X", "g", ElementKind.ROLE, "1.3B", (_STEP,)),
        MetamodelVersion.V1_3B,
    ),
    (TraceEntry, "kind", lambda: TraceEntry("ExclusionApplied", "V", "e1"), TraceEntryKind.EXCLUSION_APPLIED),
    (MergeTrace, "final_metamodel", lambda: MergeTrace((), "1.3Z"), MetamodelVersion.V1_3Z),
    (Issue, "code", lambda: Issue("DanglingReference", "r1", "does not resolve"), IssueCode.DANGLING_REFERENCE),
    (
        ChangeSet,
        "metamodel_change",
        lambda: ChangeSet(metamodel_change=("1.3", "1.3B")),
        (MetamodelVersion.V1_3, MetamodelVersion.V1_3B),
    ),
]


def _members(member) -> tuple:
    return member if isinstance(member, tuple) else (member,)


_IDS = [f"{cls.__name__}.{name}-{'-'.join(m.value for m in _members(member))}" for cls, name, _, member in _COERCED]


@pytest.mark.parametrize("cls, name, build, member", _COERCED, ids=_IDS)
def test_a_constructor_coerces_a_string_to_its_member(cls, name, build, member):
    record = build()
    assert type(record) is cls
    value = getattr(record, name)
    assert type(value) is type(member) and all(a is b for a, b in zip(_members(value), _members(member), strict=True))
    # the same record, built from the member, is the same value
    twin = dataclasses.replace(record, **{name: member})
    assert record == twin and repr(record) == repr(twin)


@pytest.mark.parametrize("cls, name, build, member", _COERCED, ids=_IDS)
def test_a_constructor_rejects_a_string_no_member_has(cls, name, build, member):
    strings = [m.value for m in _members(member)]
    for index in range(len(strings)):
        bad = [*strings[:index], "NoSuchMember", *strings[index + 1 :]]
        with pytest.raises(ValueError):
            dataclasses.replace(build(), **{name: tuple(bad) if isinstance(member, tuple) else bad[0]})


def test_an_optional_enum_field_keeps_none():
    assert MergeTrace((), None).final_metamodel is None
    assert MergeTrace().final_metamodel is None


def test_no_target_kind_is_named_by_both_enums():
    # so one value -> member table serves the constructor and the reader
    assert not {k.value for k in ElementKind} & {k.value for k in ReferenceKind}
    every_kind = [*ElementKind, *ReferenceKind]
    assert [OperationTypeDef("X", "g", kind.value, "1.3", (_STEP,)).target_kind for kind in every_kind] == every_kind


def test_a_catalog_of_strings_writes_what_its_enum_twin_writes(variants):
    from_strings = OperationCatalog([OperationTypeDef("X", "g", "Role", "1.3", (_STEP,))])
    from_members = OperationCatalog([OperationTypeDef("X", "g", ElementKind.ROLE, MetamodelVersion.V1_3, (_STEP,))])
    assert from_strings == from_members
    assert serialize_catalog(from_strings) == serialize_catalog(from_members)
    assert export_stats_csv(usage_report(variants, from_strings)) == export_stats_csv(
        usage_report(variants, from_members)
    )
    assert not from_strings.lookup("X").targets_reference


def test_a_trace_of_strings_writes_and_filters_as_its_enum_twin():
    entry = TraceEntry("ExclusionApplied", "V", "e1", cascade_count=2)
    twin = TraceEntry(TraceEntryKind.EXCLUSION_APPLIED, "V", "e1", cascade_count=2)
    trace, twin_trace = MergeTrace((entry,), "1.3B"), MergeTrace((twin,), MetamodelVersion.V1_3B)
    assert trace == twin_trace
    assert serialize_trace(trace) == serialize_trace(twin_trace)
    assert render_trace_text(trace) == render_trace_text(twin_trace)
    assert 'cascadeCount="2"' in serialize_trace(trace)
    assert trace.by_kind(TraceEntryKind.EXCLUSION_APPLIED) == [entry]
    assert trace.replay(ProcessModel(MetamodelVersion.V1_3)).metamodel is MetamodelVersion.V1_3B


def test_an_issue_of_a_string_reads_as_its_enum_twin():
    issue = Issue("DanglingReference", "r1", "target 'x' does not resolve", "V")
    assert str(issue) == "[V] DanglingReference(r1): target 'x' does not resolve"
    assert str(issue) == str(Issue(IssueCode.DANGLING_REFERENCE, "r1", "target 'x' does not resolve", "V"))


# -- the lint --------------------------------------------------------------------


def _is_enum_type(hint) -> bool:
    # a generic alias such as tuple[...] has an origin; on 3.10 it also passes for a type
    return typing.get_origin(hint) is None and isinstance(hint, type) and issubclass(hint, enum.Enum)


def _is_enum_hint(hint) -> bool:
    """Whether ``hint`` is an Enum type or a fixed-length tuple of them, a union of those, or one of those or None."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        options = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    else:
        options = [hint]
    return bool(options) and all(
        _is_enum_type(option)
        or (
            typing.get_origin(option) is tuple
            and Ellipsis not in typing.get_args(option)
            and all(_is_enum_type(arg) for arg in typing.get_args(option))
        )
        for option in options
    )


def _exported_enum_fields() -> set[tuple[type, str]]:
    """``(class, field)`` for every enum field of a dataclass the package exports."""
    found = set()
    for names in procline._EXPORTS.values():
        for name in names:
            cls = getattr(procline, name)
            if isinstance(cls, type) and dataclasses.is_dataclass(cls):
                hints = typing.get_type_hints(cls)
                found |= {(cls, f.name) for f in dataclasses.fields(cls) if _is_enum_hint(hints[f.name])}
    return found


def test_the_coercion_table_covers_every_exported_enum_field():
    found = _exported_enum_fields()
    assert (OperationTypeDef, "target_kind") in found and (MergeTrace, "final_metamodel") in found
    assert (ChangeSet, "metamodel_change") in found
    covered = {(cls, name) for cls, name, _, _ in _COERCED}
    missing = sorted(f"{cls.__name__}.{name}" for cls, name in found - covered)
    assert missing == [], f"enum fields with no coercion case: {missing}"
    assert covered <= found

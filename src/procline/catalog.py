"""Typed variability operations: the catalog, exemplar typing, and expansion.

An operation type binds a name to a target kind, the metamodel version that
introduced it, and a recipe of atomic step templates. An exemplar names a
type, a concrete target, and argument values; expansion substitutes the
arguments into the recipe. Types whose recipes are not publicly documented
ship as clearly flagged ``Synthetic...`` placeholder entries so catalog
counts and groups stay complete.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .atomic import AtomicKind, AtomicStep, _apply_into, validate_step
from .errors import (
    DuplicateTypeNameError,
    Issue,
    IssueCode,
    MissingArgumentError,
    UnknownOperationTypeError,
)
from .model import ElementKind, MetamodelVersion, ProcessModel, ReferenceKind, _trusted, _WorkingModel

_PLACEHOLDER = re.compile(r"\{([A-Za-z][A-Za-z0-9]*)\}")

#: Placeholder bound to the exemplar's target id rather than a named argument.
TARGET_PLACEHOLDER = "target"


@dataclass(frozen=True)
class StepTemplate:
    """One recipe line. Values are literals or whole-string ``{placeholder}``s."""

    atomic: AtomicKind
    target: str = "{target}"
    args: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "atomic", AtomicKind(self.atomic))
        object.__setattr__(self, "args", dict(self.args))

    def placeholders(self) -> frozenset[str]:
        names = {_placeholder(value) for value in (self.target, *self.args.values())}
        return frozenset(names - {None, TARGET_PLACEHOLDER})


def _placeholder(value: str) -> str | None:
    """The name of the placeholder ``value`` is, or None for a literal."""
    match = _PLACEHOLDER.fullmatch(value)  # not match with "$": "$" also matches before a final LF
    return match.group(1) if match else None


# a recipe value bound once per type: (its placeholder name or None, the value as written)
_Bound = tuple[str | None, str]


@dataclass(frozen=True)
class OperationTypeDef:
    """A named variability operation type."""

    name: str
    group: str
    target_kind: ElementKind | ReferenceKind
    defining_metamodel: MetamodelVersion
    recipe: tuple[StepTemplate, ...]
    synthetic: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("operation type name must be non-empty")
        if not self.group:
            raise ValueError(f"operation type {self.name!r}: group must be non-empty")
        if not self.recipe:
            raise ValueError(f"operation type {self.name!r}: recipe must not be empty")
        object.__setattr__(self, "recipe", tuple(self.recipe))

    @cached_property
    def placeholders(self) -> frozenset[str]:
        """Argument names an exemplar of this type must supply.

        Computed once per type: ``cached_property`` stores it in the instance
        ``__dict__``, past the frozen ``__setattr__``, and equality, hash and
        repr read only the fields.
        """
        names: set[str] = set()
        for template in self.recipe:
            names |= template.placeholders()
        return frozenset(names)

    @cached_property
    def _bound_recipe(self) -> tuple[tuple[AtomicKind, _Bound, tuple[tuple[str, _Bound], ...]], ...]:
        """The recipe with every value bound once: ``(atomic, target, ((key, value), ...))``.

        Each value is ``(placeholder name, value)``, the name None for a
        literal, so expansion looks names up and matches no pattern. Cached
        like :attr:`placeholders`.
        """
        return tuple(
            (
                template.atomic,
                (_placeholder(template.target), template.target),
                tuple((key, (_placeholder(value), value)) for key, value in template.args.items()),
            )
            for template in self.recipe
        )

    @property
    def targets_reference(self) -> bool:
        return isinstance(self.target_kind, ReferenceKind)


@dataclass(frozen=True)
class OperationExemplar:
    """A concrete use of an operation type inside an extension model."""

    type_name: str
    target: str
    args: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.type_name:
            raise ValueError("exemplar type name must be non-empty")
        if not self.target:
            raise ValueError(f"exemplar of {self.type_name!r}: target must be non-empty")
        object.__setattr__(self, "args", dict(self.args))


_new_step = _trusted(AtomicStep)
_new_exemplar = _trusted(OperationExemplar)


class OperationCatalog:
    """Immutable name-indexed collection of operation type definitions."""

    def __init__(self, type_defs: Iterable[OperationTypeDef]):
        types: dict[str, OperationTypeDef] = {}
        for type_def in type_defs:
            if type_def.name in types:
                raise DuplicateTypeNameError(f"duplicate operation type name {type_def.name!r}")
            types[type_def.name] = type_def
        self._types = types

    def lookup(self, name: str) -> OperationTypeDef:
        try:
            return self._types[name]
        except KeyError:
            raise UnknownOperationTypeError(f"no operation type named {name!r}") from None

    def get(self, name: str) -> OperationTypeDef | None:
        return self._types.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._types

    def __len__(self) -> int:
        return len(self._types)

    def __iter__(self) -> Iterator[OperationTypeDef]:
        return iter(sorted(self._types.values(), key=lambda t: t.name))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OperationCatalog):
            return NotImplemented
        return self._types == other._types

    def defined_by(self, metamodel: MetamodelVersion) -> list[OperationTypeDef]:
        return [t for t in self if t.defining_metamodel == metamodel]

    def counts_by_metamodel(self) -> dict[MetamodelVersion, int]:
        counts = {mm: 0 for mm in MetamodelVersion}
        for type_def in self._types.values():
            counts[type_def.defining_metamodel] += 1
        return counts

    def groups(self) -> list[str]:
        return sorted({t.group for t in self._types.values()})


def expand_exemplar(catalog: OperationCatalog, exemplar: OperationExemplar) -> list[AtomicStep]:
    """Instantiate the recipe of an exemplar's type with its arguments."""
    type_def = catalog.lookup(exemplar.type_name)
    given = {**exemplar.args, TARGET_PLACEHOLDER: exemplar.target}
    try:
        # trusted: a template's kind is an AtomicKind, and each step gets a new args dict
        return [
            _new_step(
                kind=atomic,
                target=given[target_name] if target_name else target,
                args={key: given[name] if name else value for key, (name, value) in args},
            )
            for atomic, (target_name, target), args in type_def._bound_recipe
        ]
    except KeyError as exc:
        raise MissingArgumentError(
            f"exemplar of {exemplar.type_name!r} on {exemplar.target!r}: "
            f"missing argument {exc.args[0]!r}"
        ) from None


def validate_exemplar(
    catalog: OperationCatalog, model: ProcessModel, exemplar: OperationExemplar
) -> list[Issue]:
    """Type-check one exemplar against the model it would execute on.

    Checks, in order: the type exists, its defining metamodel is not newer
    than the model's, the target resolves and has the declared kind, and all
    recipe arguments are present. Only when all of that holds are the
    expanded steps validated (sequentially, so multi-step recipes see the
    effects of earlier steps). An empty result therefore guarantees that
    expansion succeeds and every step applies. ``model`` itself is never
    modified: the steps run on a copy of its maps.
    """
    return _run_exemplar(catalog, _WorkingModel(model), exemplar)[0]


def _run_exemplar(
    catalog: OperationCatalog, work: _WorkingModel, exemplar: OperationExemplar
) -> tuple[list[Issue], list[AtomicStep]]:
    """Check one exemplar and write its steps into ``work``.

    Returns the issues :func:`validate_exemplar` reports and the expanded
    steps (empty when there are issues). Each step is validated once, on
    the model the earlier steps produced, and then applied without a second
    check. A step that fails validation stops the run, so the steps before
    it stay written: the caller rolls ``work`` back.
    """
    model = work.model
    type_def = catalog.get(exemplar.type_name)
    if type_def is None:
        unknown = Issue(
            IssueCode.UNKNOWN_OPERATION_TYPE,
            exemplar.type_name,
            "operation type is not in the catalog",
        )
        return [unknown], []
    issues: list[Issue] = []
    if type_def.defining_metamodel > model.metamodel:
        issues.append(
            Issue(
                IssueCode.METAMODEL_GATE,
                exemplar.type_name,
                f"defined by metamodel {type_def.defining_metamodel.value}, "
                f"base model is {model.metamodel.value}",
            )
        )
    if type_def.targets_reference:
        plural, assets, others, other = "references", model.references, model.elements, "an element"
    else:
        plural, assets, others, other = "elements", model.elements, model.references, "a reference"
    asset = assets.get(exemplar.target)
    if asset is None or asset.kind != type_def.target_kind:
        if asset is not None:
            code, detail = IssueCode.TYPE_MISMATCH, f", got {asset.kind.value}"
        elif exemplar.target in others:
            code, detail = IssueCode.TYPE_MISMATCH, f"; target resolves to {other}"
        else:
            code, detail = IssueCode.UNKNOWN_TARGET_ID, "; target does not resolve"
        message = f"{exemplar.type_name} targets {type_def.target_kind.value} {plural}{detail}"
        issues.append(Issue(code, exemplar.target, message))
    for name in sorted(type_def.placeholders.difference(exemplar.args)):
        issues.append(
            Issue(
                IssueCode.MISSING_ARGUMENT,
                exemplar.type_name,
                f"exemplar on {exemplar.target!r} lacks argument {name!r}",
            )
        )
    if issues:
        return issues, []
    steps = expand_exemplar(catalog, exemplar)
    for step in steps:
        # work.model reads the live maps, so each step sees the earlier ones
        issues = validate_step(model, step)
        if issues:
            return issues, []
        _apply_into(work, step)
    return [], steps


# ---------------------------------------------------------------------------
# Built-in catalog
# ---------------------------------------------------------------------------

GROUP_DISCIPLINE = "Discipline Variations"
GROUP_WORK_PRODUCT = "Work Product Variations"
GROUP_TOPIC = "Topic Variations"
GROUP_ACTIVITY = "Activity Variations"
GROUP_TASK = "Task Variations"
GROUP_ROLE = "Role Variations"
GROUP_TAILORING = "Tailoring Variations"
GROUP_DECISION_GATE = "Decision Gate Variations"
GROUP_DESCRIPTION_REPLACEMENTS = "Description Replacements"
GROUP_DESCRIPTION_ADD_ONS = "Description Add-ons"
GROUP_DESCRIPTION_REARRANGEMENTS = "Description Re-Arragements"
GROUP_DESCRIPTION_REMOVEMENTS = "Description Removements"
GROUP_TOOL_METHOD = "Tool/Method Ref. Variations"
GROUP_MAPPING = "Mapping Variations"
GROUP_APPENDIX = "Appendix Variations"

OPERATION_GROUPS = (
    GROUP_DISCIPLINE,
    GROUP_WORK_PRODUCT,
    GROUP_TOPIC,
    GROUP_ACTIVITY,
    GROUP_TASK,
    GROUP_ROLE,
    GROUP_TAILORING,
    GROUP_DECISION_GATE,
    GROUP_DESCRIPTION_REPLACEMENTS,
    GROUP_DESCRIPTION_ADD_ONS,
    GROUP_DESCRIPTION_REARRANGEMENTS,
    GROUP_DESCRIPTION_REMOVEMENTS,
    GROUP_TOOL_METHOD,
    GROUP_MAPPING,
    GROUP_APPENDIX,
)

_MM13 = MetamodelVersion.V1_3
_MM13B = MetamodelVersion.V1_3B


def _step(atomic: AtomicKind, **args: str) -> StepTemplate:
    return StepTemplate(atomic=atomic, target="{target}", args=args)


def _rename() -> tuple[StepTemplate, ...]:
    return (_step(AtomicKind.RENAME_ELEMENT, newName="{newName}"),)


def _replace_description() -> tuple[StepTemplate, ...]:
    return (_step(AtomicKind.REPLACE_TEXT, field="description", text="{text}"),)


def _replace_block() -> tuple[StepTemplate, ...]:
    return (_step(AtomicKind.REPLACE_TEXT, field="textBlock", blockId="{blockId}", text="{text}"),)


def _add_description(position: str) -> tuple[StepTemplate, ...]:
    return (_step(AtomicKind.ADD_TEXT, field="description", position=position, text="{text}"),)


def _add_block(position: str) -> tuple[StepTemplate, ...]:
    return (
        _step(
            AtomicKind.ADD_TEXT,
            field="textBlock",
            blockId="{blockId}",
            position=position,
            text="{text}",
        ),
    )


def _move() -> tuple[StepTemplate, ...]:
    return (_step(AtomicKind.MOVE_ELEMENT, newOrderingNumber="{newOrderingNumber}"),)


def _remove_element() -> tuple[StepTemplate, ...]:
    return (_step(AtomicKind.REMOVE_ELEMENT),)


def _remove_reference() -> tuple[StepTemplate, ...]:
    return (_step(AtomicKind.REMOVE_REFERENCE),)


def _set_attribute(key: str, value: str = "{value}") -> tuple[StepTemplate, ...]:
    return (_step(AtomicKind.CHANGE_ATTRIBUTE, key=key, value=value),)


def _named_types() -> list[OperationTypeDef]:
    t = OperationTypeDef
    return [
        # -- discipline level -------------------------------------------------
        t("ChangeDisciplineNumber", GROUP_DISCIPLINE, ElementKind.DISCIPLINE, _MM13B, _move()),
        t("AddDisciplineDescriptionPrefix", GROUP_DISCIPLINE, ElementKind.DISCIPLINE, _MM13, _add_description("prefix")),
        t("AddDisciplineDescriptionPostfix", GROUP_DISCIPLINE, ElementKind.DISCIPLINE, _MM13, _add_description("postfix")),
        # -- work products ----------------------------------------------------
        t("RenameWorkProduct", GROUP_WORK_PRODUCT, ElementKind.WORK_PRODUCT, _MM13, _rename()),
        t("DeleteWorkProduct", GROUP_WORK_PRODUCT, ElementKind.WORK_PRODUCT, _MM13B, _remove_element()),
        t("ChangeWorkProduktDiscipline", GROUP_WORK_PRODUCT, ElementKind.WORK_PRODUCT, _MM13B, _set_attribute("discipline", "{newDiscipline}")),
        # -- topics -----------------------------------------------------------
        t("RemoveTopicAssignment", GROUP_TOPIC, ReferenceKind.TOPIC_ASSIGNMENT, _MM13B, _remove_reference()),
        t("ArrangeSubTopic", GROUP_TOPIC, ElementKind.SUB_TOPIC, _MM13, _move()),
        # -- activities and tasks ----------------------------------------------
        t("AddActivityDescriptionPrefix", GROUP_ACTIVITY, ElementKind.ACTIVITY, _MM13, _add_description("prefix")),
        t("AddActivityDescriptionPostfix", GROUP_ACTIVITY, ElementKind.ACTIVITY, _MM13, _add_description("postfix")),
        t("RemoveTask", GROUP_TASK, ElementKind.TASK, _MM13B, _remove_element()),
        t("RenameTask", GROUP_TASK, ElementKind.TASK, _MM13B, _rename()),
        t("ReplaceTaskDescription", GROUP_TASK, ElementKind.TASK, _MM13B, _replace_description()),
        # -- roles and responsibilities -----------------------------------------
        t("RenameRole", GROUP_ROLE, ElementKind.ROLE, _MM13, _rename()),
        t("ReplaceRoleDescription", GROUP_ROLE, ElementKind.ROLE, _MM13B, _replace_description()),
        t("ChangeRoleClass", GROUP_ROLE, ElementKind.ROLE, _MM13B, _set_attribute("roleClass", "{roleClass}")),
        t("ChangeResponsibility", GROUP_ROLE, ReferenceKind.RESPONSIBILITY, _MM13, (_step(AtomicKind.SWAP_REFERENCES, newTarget="{newRole}"),)),
        t("RemoveResponsibility", GROUP_ROLE, ReferenceKind.RESPONSIBILITY, _MM13, _remove_reference()),
        t("RemoveSupportingRole", GROUP_ROLE, ReferenceKind.SUPPORTING_ROLE, _MM13B, _remove_reference()),
        t("AddRoleDescriptionPrefix", GROUP_ROLE, ElementKind.ROLE, _MM13, _add_description("prefix")),
        t("RefineRole", GROUP_ROLE, ElementKind.ROLE, _MM13, _set_attribute("refines", "{baseRole}")),
        # -- tailoring and dependencies -----------------------------------------
        t("AddProcessModule", GROUP_TAILORING, ElementKind.PROJECT_TYPE_VARIANT, _MM13, (
            StepTemplate(
                atomic=AtomicKind.ADD_REFERENCE,
                target="{target}",
                args={
                    "refId": "{refId}",
                    "refKind": ReferenceKind.CONFIGURATION_ENTRY.value,
                    "source": "{target}",
                    "target": "{module}",
                },
            ),
        )),
        t("RenameCreatingDependency", GROUP_TAILORING, ReferenceKind.CREATING_DEPENDENCY, _MM13B, _set_attribute("name", "{newName}")),
        t("RenameTailoringDependency", GROUP_TAILORING, ReferenceKind.TAILORING_DEPENDENCY, _MM13B, _set_attribute("name", "{newName}")),
        t("ReplaceTailoringDependencyDescription", GROUP_TAILORING, ReferenceKind.TAILORING_DEPENDENCY, _MM13B, (
            _step(AtomicKind.REPLACE_TEXT, field="attribute", key="description", text="{text}"),
        )),
        # -- decision gates -----------------------------------------------------
        t("AddDecisionGateDescriptionPrefix", GROUP_DECISION_GATE, ElementKind.DECISION_GATE, _MM13, _add_description("prefix")),
        # -- running text -------------------------------------------------------
        t("ReplaceSectionText", GROUP_DESCRIPTION_REPLACEMENTS, ElementKind.SECTION, _MM13, _replace_block()),
        t("AddChapterTextPrefix", GROUP_DESCRIPTION_ADD_ONS, ElementKind.CHAPTER, _MM13, _add_block("prefix")),
        t("AddSectionTextPrefix", GROUP_DESCRIPTION_ADD_ONS, ElementKind.SECTION, _MM13, _add_block("prefix")),
        t("ArrangeSection", GROUP_DESCRIPTION_REARRANGEMENTS, ElementKind.SECTION, _MM13, _move()),
        t("ChangeSectionNumber", GROUP_DESCRIPTION_REARRANGEMENTS, ElementKind.SECTION, _MM13B, _move()),
        t("RemoveChapter", GROUP_DESCRIPTION_REMOVEMENTS, ElementKind.CHAPTER, _MM13B, _remove_element()),
        # -- appendix material ---------------------------------------------------
        t("RemoveLiteratureReference", GROUP_APPENDIX, ElementKind.LITERATURE_REFERENCE, _MM13B, _remove_element()),
        t("RemoveGlossaryItem", GROUP_APPENDIX, ElementKind.GLOSSARY_ITEM, _MM13B, _remove_element()),
        t("ReplaceGlossaryItemDescription", GROUP_APPENDIX, ElementKind.GLOSSARY_ITEM, _MM13B, _replace_description()),
        t("RemoveAbbreviation", GROUP_APPENDIX, ElementKind.ABBREVIATION, _MM13B, _remove_element()),
    ]


#: (name, group, target kind, defining metamodel) for the placeholder types.
_SYNTHETIC_SPECS: tuple[tuple[str, str, ElementKind, MetamodelVersion], ...] = (
    ("SyntheticDisciplineOp01", GROUP_DISCIPLINE, ElementKind.DISCIPLINE, _MM13),
    ("SyntheticDisciplineOp02", GROUP_DISCIPLINE, ElementKind.DISCIPLINE, _MM13B),
    ("SyntheticWorkProductOp01", GROUP_WORK_PRODUCT, ElementKind.WORK_PRODUCT, _MM13),
    ("SyntheticWorkProductOp02", GROUP_WORK_PRODUCT, ElementKind.WORK_PRODUCT, _MM13B),
    ("SyntheticWorkProductOp03", GROUP_WORK_PRODUCT, ElementKind.WORK_PRODUCT, _MM13B),
    ("SyntheticWorkProductOp04", GROUP_WORK_PRODUCT, ElementKind.WORK_PRODUCT, _MM13B),
    ("SyntheticTopicOp01", GROUP_TOPIC, ElementKind.TOPIC, _MM13),
    ("SyntheticTopicOp02", GROUP_TOPIC, ElementKind.TOPIC, _MM13),
    ("SyntheticTopicOp03", GROUP_TOPIC, ElementKind.TOPIC, _MM13),
    ("SyntheticTopicOp04", GROUP_TOPIC, ElementKind.TOPIC, _MM13B),
    ("SyntheticActivityOp01", GROUP_ACTIVITY, ElementKind.ACTIVITY, _MM13),
    ("SyntheticActivityOp02", GROUP_ACTIVITY, ElementKind.ACTIVITY, _MM13B),
    ("SyntheticRoleOp01", GROUP_ROLE, ElementKind.ROLE, _MM13),
    ("SyntheticTailoringOp01", GROUP_TAILORING, ElementKind.PROCESS_MODULE, _MM13),
    ("SyntheticTailoringOp02", GROUP_TAILORING, ElementKind.PROCESS_MODULE, _MM13B),
    ("SyntheticTailoringOp03", GROUP_TAILORING, ElementKind.PROCESS_MODULE, _MM13B),
    ("SyntheticDecisionGateOp01", GROUP_DECISION_GATE, ElementKind.DECISION_GATE, _MM13),
    ("SyntheticDecisionGateOp02", GROUP_DECISION_GATE, ElementKind.DECISION_GATE, _MM13B),
    ("SyntheticDecisionGateOp03", GROUP_DECISION_GATE, ElementKind.DECISION_GATE, _MM13B),
    ("SyntheticDescriptionReplacementOp01", GROUP_DESCRIPTION_REPLACEMENTS, ElementKind.SECTION, _MM13),
    ("SyntheticDescriptionReplacementOp02", GROUP_DESCRIPTION_REPLACEMENTS, ElementKind.SECTION, _MM13),
    ("SyntheticDescriptionAddOnOp01", GROUP_DESCRIPTION_ADD_ONS, ElementKind.CHAPTER, _MM13),
    ("SyntheticDescriptionAddOnOp02", GROUP_DESCRIPTION_ADD_ONS, ElementKind.CHAPTER, _MM13),
    ("SyntheticDescriptionRearrangementOp01", GROUP_DESCRIPTION_REARRANGEMENTS, ElementKind.SECTION, _MM13),
    ("SyntheticDescriptionRearrangementOp02", GROUP_DESCRIPTION_REARRANGEMENTS, ElementKind.SECTION, _MM13B),
    ("SyntheticDescriptionRemovementOp01", GROUP_DESCRIPTION_REMOVEMENTS, ElementKind.SECTION, _MM13B),
    ("SyntheticDescriptionRemovementOp02", GROUP_DESCRIPTION_REMOVEMENTS, ElementKind.SECTION, _MM13B),
    ("SyntheticToolMethodRefOp01", GROUP_TOOL_METHOD, ElementKind.METHOD_REFERENCE, _MM13),
    ("SyntheticToolMethodRefOp02", GROUP_TOOL_METHOD, ElementKind.TOOL_REFERENCE, _MM13),
    ("SyntheticToolMethodRefOp03", GROUP_TOOL_METHOD, ElementKind.METHOD_REFERENCE, _MM13),
    ("SyntheticMappingOp01", GROUP_MAPPING, ElementKind.MAPPING_ENTRY, _MM13B),
    ("SyntheticMappingOp02", GROUP_MAPPING, ElementKind.MAPPING_ENTRY, _MM13B),
    ("SyntheticAppendixOp01", GROUP_APPENDIX, ElementKind.APPENDIX_ENTRY, _MM13B),
)


def _synthetic_types() -> list[OperationTypeDef]:
    types = []
    for name, group, target_kind, metamodel in _SYNTHETIC_SPECS:
        marker_key = name[0].lower() + name[1:]
        types.append(
            OperationTypeDef(
                name=name,
                group=group,
                target_kind=target_kind,
                defining_metamodel=metamodel,
                recipe=_set_attribute(marker_key),
                synthetic=True,
            )
        )
    return types


def builtin_catalog() -> OperationCatalog:
    """The catalog shipped with the package: 69 types, 33 of them placeholders."""
    return OperationCatalog(_named_types() + _synthetic_types())

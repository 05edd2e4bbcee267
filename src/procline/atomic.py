"""Atomic model transformation steps, and the exemplars that expand into them.

These are the building blocks operation types are assembled from. Each step
names a target (element or reference id) and carries string arguments. The
same checks back both entry points: :func:`validate_step` collects findings,
:func:`apply_atomic` raises on the first one and otherwise returns the
transformed model. One step body, ``_apply_into``, writes a validated step
into a working model: a merge's own, or for :func:`apply_atomic` a copy of
the input's maps. A step never touches anything beyond its target, the
endpoints it rewires, and references cascaded by an element removal.

``_field_text`` reads the text a ReplaceText or AddText step addresses, for
its check and its write, and ``_with_field_text`` writes it; a reference has
attribute text only. The endpoints a step names are checked by
:func:`procline.model.endpoint_problems`, as a merge's are.

Exemplars run here too, next to the steps they expand into:
:func:`expand_exemplar`, :func:`validate_exemplar` and a merge go through
``_expand`` and ``_run_exemplar``. The step kinds are
:class:`procline.catalog.AtomicKind`, the type of a recipe's templates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .catalog import TARGET_PLACEHOLDER, AtomicKind, OperationCatalog, OperationExemplar, OperationTypeDef
from .errors import (
    DuplicateIdError,
    FieldNotFoundError,
    IllegalTargetError,
    Issue,
    IssueCode,
    MissingArgumentError,
    UnknownIdError,
)
from .model import (
    ORDERING_ATTRIBUTE,
    ProcessElement,
    ProcessModel,
    Reference,
    ReferenceKind,
    _trusted,
    _WorkingModel,
    endpoint_problems,
    ordering_number,
)


# The kinds as module constants, for the two dispatches below: on Python
# 3.10 and 3.11 every attribute read on an Enum class goes through
# EnumType.__getattr__, 110-140 ns a read against 10-25 ns for a module
# constant (3.12 dropped that hook: about 30 ns against 10-20), and each
# step is compared with up to nine kinds twice, once to validate it and once
# to apply it.
_RENAME_ELEMENT = AtomicKind.RENAME_ELEMENT
_REPLACE_TEXT = AtomicKind.REPLACE_TEXT
_ADD_TEXT = AtomicKind.ADD_TEXT
_SWAP_REFERENCES = AtomicKind.SWAP_REFERENCES
_REMOVE_ELEMENT = AtomicKind.REMOVE_ELEMENT
_REMOVE_REFERENCE = AtomicKind.REMOVE_REFERENCE
_ADD_REFERENCE = AtomicKind.ADD_REFERENCE
_CHANGE_ATTRIBUTE = AtomicKind.CHANGE_ATTRIBUTE
_MOVE_ELEMENT = AtomicKind.MOVE_ELEMENT

# Text-bearing field selectors used by ReplaceText and AddText.
FIELD_SELECTOR_DESCRIPTION = "description"
FIELD_SELECTOR_TEXT_BLOCK = "textBlock"
FIELD_SELECTOR_ATTRIBUTE = "attribute"

POSITION_PREFIX = "prefix"
POSITION_POSTFIX = "postfix"


@dataclass(frozen=True, slots=True)
class AtomicStep:
    """One atomic transformation: a kind, a target id, and string args.

    For ``AddReference`` the target is the element the new reference is
    anchored to; the reference's own data lives in the args.
    """

    kind: AtomicKind
    target: str
    args: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", AtomicKind(self.kind))
        object.__setattr__(self, "args", dict(self.args))


def field_key(step_args: Mapping[str, str]) -> str:
    """Canonical identity of the text field a ReplaceText/AddText step hits.

    Two steps with the same target and the same field key write the same
    storage location; that identity drives conflict detection.
    """
    selector = step_args.get("field", "")
    if selector == FIELD_SELECTOR_TEXT_BLOCK:
        return f"{selector}:{step_args.get('blockId', '')}"
    if selector == FIELD_SELECTOR_ATTRIBUTE:
        return f"{selector}:{step_args.get('key', '')}"
    return selector


def _issue(code: IssueCode, step: AtomicStep, message: str) -> Issue:
    return Issue(code, step.target, f"{step.kind.value}: {message}")


def _missing_args(step: AtomicStep, *names: str) -> list[Issue]:
    issues = []
    for name in names:
        if not step.args.get(name):
            issues.append(_issue(IssueCode.MISSING_ARGUMENT, step, f"argument {name!r} is required"))
    return issues


def _field_selector_issues(step: AtomicStep) -> list[Issue]:
    selector = step.args.get("field")
    if not selector:
        return _missing_args(step, "field")
    if selector not in (FIELD_SELECTOR_DESCRIPTION, FIELD_SELECTOR_TEXT_BLOCK, FIELD_SELECTOR_ATTRIBUTE):
        return [_issue(IssueCode.ILLEGAL_TARGET, step, f"unknown field selector {selector!r}")]
    if selector == FIELD_SELECTOR_TEXT_BLOCK:
        return _missing_args(step, "blockId")
    if selector == FIELD_SELECTOR_ATTRIBUTE:
        return _missing_args(step, "key")
    return []


def _text_field_issues(model: ProcessModel, step: AtomicStep) -> list[Issue]:
    """Shared checks for ReplaceText and AddText; 'text' may be empty but must be present."""
    issues = _field_selector_issues(step)
    if "text" not in step.args:
        issues.append(_issue(IssueCode.MISSING_ARGUMENT, step, "argument 'text' is required"))
    if issues:
        return issues
    args = step.args
    selector = args["field"]
    asset = model.elements.get(step.target)
    if asset is None:
        asset = model.references.get(step.target)
        if asset is None:
            return [_issue(IssueCode.UNKNOWN_ID, step, "target does not resolve")]
        if selector != FIELD_SELECTOR_ATTRIBUTE:
            message = f"references only carry attribute text, not {selector!r}"
            return [_issue(IssueCode.ILLEGAL_TARGET, step, message)]
    if _field_text(asset, args) is not None:
        return []
    if selector == FIELD_SELECTOR_TEXT_BLOCK:
        return [_issue(IssueCode.FIELD_NOT_FOUND, step, f"no text block {args['blockId']!r}")]
    return [_issue(IssueCode.FIELD_NOT_FOUND, step, f"no attribute {args['key']!r}")]


def _field_text(asset: ProcessElement | Reference, args: Mapping[str, str]) -> str | None:
    """The text of ``asset`` that ``args``' field, blockId and key select, or None if it has no such field."""
    selector = args["field"]
    if selector == FIELD_SELECTOR_ATTRIBUTE:
        return asset.attributes.get(args["key"])
    if selector == FIELD_SELECTOR_TEXT_BLOCK:
        block = asset.find_block(args["blockId"])
        return None if block is None else block.text
    return asset.description


def _with_field_text(
    asset: ProcessElement | Reference, args: Mapping[str, str], text: str
) -> ProcessElement | Reference:
    """``asset`` with ``text`` in the field :func:`_field_text` reads; the field must exist."""
    selector = args["field"]
    if selector == FIELD_SELECTOR_ATTRIBUTE:
        return asset.with_attribute(args["key"], text)
    if selector == FIELD_SELECTOR_TEXT_BLOCK:
        return asset.with_block_text(args["blockId"], text)
    return asset.with_description(text)


def _target_issues(model: ProcessModel, step: AtomicStep, reference: bool) -> list[Issue]:
    """What keeps ``step``'s target from being a reference (``reference`` true) or an element."""
    wanted, other = (model.references, model.elements) if reference else (model.elements, model.references)
    if step.target in wanted:
        return []
    if step.target in other:
        wrong = "a reference, not an element" if reference else "an element, not a reference"
        return [_issue(IssueCode.ILLEGAL_TARGET, step, f"target must be {wrong}")]
    return [_issue(IssueCode.UNKNOWN_ID, step, "target does not resolve")]


def _endpoint_issues(
    model: ProcessModel, step: AtomicStep, kind: ReferenceKind, source: str | None, target: str | None, prefix: str
) -> list[Issue]:
    issues = []
    for side, endpoint, why in endpoint_problems(model.elements, kind, source, target):
        code = IssueCode.UNKNOWN_ID if why is None else IssueCode.ILLEGAL_TARGET
        issues.append(_issue(code, step, why or f"{prefix}{side} {endpoint!r} does not resolve"))
    return issues


def validate_step(model: ProcessModel, step: AtomicStep) -> list[Issue]:
    """Everything that would make :func:`apply_atomic` fail on this model."""
    kind = step.kind
    if kind is _RENAME_ELEMENT:
        return _missing_args(step, "newName") or _target_issues(model, step, reference=False)
    if kind in (_REPLACE_TEXT, _ADD_TEXT):
        issues = _text_field_issues(model, step)
        if kind is _ADD_TEXT:
            position = step.args.get("position")
            if not position:
                issues.extend(_missing_args(step, "position"))
            elif position not in (POSITION_PREFIX, POSITION_POSTFIX):
                issues.append(
                    _issue(IssueCode.ILLEGAL_TARGET, step, f"position must be prefix or postfix, got {position!r}")
                )
        return issues
    if kind is _SWAP_REFERENCES:
        issues = _target_issues(model, step, reference=True)
        new_source = step.args.get("newSource")
        new_target = step.args.get("newTarget")
        if not new_source and not new_target:
            issues.append(
                _issue(IssueCode.MISSING_ARGUMENT, step, "needs newSource and/or newTarget")
            )
        if issues:
            return issues
        ref_kind = model.references[step.target].kind
        return _endpoint_issues(model, step, ref_kind, new_source, new_target, "new ")
    if kind is _REMOVE_ELEMENT:
        return _target_issues(model, step, reference=False)
    if kind is _REMOVE_REFERENCE:
        return _target_issues(model, step, reference=True)
    if kind is _ADD_REFERENCE:
        issues = _missing_args(step, "refId", "refKind", "source", "target")
        if not model.has_id(step.target):
            issues.append(_issue(IssueCode.UNKNOWN_ID, step, "anchor target does not resolve"))
        if issues:
            return issues
        try:
            ref_kind = ReferenceKind(step.args["refKind"])
        except ValueError:
            return [_issue(IssueCode.ILLEGAL_TARGET, step, f"unknown reference kind {step.args['refKind']!r}")]
        if model.has_id(step.args["refId"]):
            issues.append(
                Issue(IssueCode.DUPLICATE_ID, step.args["refId"], "AddReference: id already in use")
            )
        return issues + _endpoint_issues(model, step, ref_kind, step.args["source"], step.args["target"], "")
    if kind is _CHANGE_ATTRIBUTE:
        issues = _missing_args(step, "key")
        if "value" not in step.args:
            issues.append(_issue(IssueCode.MISSING_ARGUMENT, step, "argument 'value' is required"))
        if not model.has_id(step.target):
            issues.append(_issue(IssueCode.UNKNOWN_ID, step, "target does not resolve"))
        return issues
    if kind is _MOVE_ELEMENT:
        issues = _missing_args(step, "newOrderingNumber")
        if not issues and ordering_number(step.args["newOrderingNumber"]) is None:
            issues.append(
                _issue(
                    IssueCode.ILLEGAL_TARGET,
                    step,
                    f"newOrderingNumber must be a finite decimal string, got {step.args['newOrderingNumber']!r}",
                )
            )
        return issues + _target_issues(model, step, reference=False)
    raise AssertionError(f"unhandled atomic kind {kind!r}")


_ISSUE_EXCEPTIONS = {
    IssueCode.UNKNOWN_ID: UnknownIdError,
    IssueCode.FIELD_NOT_FOUND: FieldNotFoundError,
    IssueCode.MISSING_ARGUMENT: MissingArgumentError,
    IssueCode.ILLEGAL_TARGET: IllegalTargetError,
    IssueCode.DUPLICATE_ID: DuplicateIdError,
}


def _raise_first(issues: list[Issue]) -> None:
    if issues:
        first = issues[0]
        raise _ISSUE_EXCEPTIONS.get(first.code, IllegalTargetError)(str(first))


def apply_atomic(model: ProcessModel, step: AtomicStep) -> ProcessModel:
    """Apply one step, returning the transformed model.

    Raises the exception matching the first finding :func:`validate_step`
    reports. The input model is never modified: the step is written into a
    copy of its maps.
    """
    _raise_first(validate_step(model, step))
    work = _WorkingModel(model)
    _apply_into(work, step)
    return work.model


def _apply_into(work: _WorkingModel, step: AtomicStep) -> None:
    """Write a validated step into the working model: the one step body."""
    kind, target, args = step.kind, step.target, step.args
    if kind is _RENAME_ELEMENT:
        work.put_element(target, work.elements[target].with_name(args["newName"]))
    elif kind is _REPLACE_TEXT or kind is _ADD_TEXT:
        ref = work.references.get(target)
        asset = work.elements[target] if ref is None else ref
        text = args["text"]
        if kind is _ADD_TEXT:
            current = _field_text(asset, args)
            text = text + current if args["position"] == POSITION_PREFIX else current + text
        (work.put_element if ref is None else work.put_reference)(target, _with_field_text(asset, args, text))
    elif kind is _SWAP_REFERENCES:
        ref = work.references[target]
        work.put_reference(
            target, ref.with_endpoints(source=args.get("newSource"), target=args.get("newTarget"))
        )
    elif kind is _REMOVE_ELEMENT:
        work.remove_element(target)
    elif kind is _REMOVE_REFERENCE:
        work.put_reference(target, None)
    elif kind is _ADD_REFERENCE:
        ref_id = args["refId"]
        work.put_reference(
            ref_id, Reference(ref_id, ReferenceKind(args["refKind"]), args["source"], args["target"])
        )
    elif kind is _CHANGE_ATTRIBUTE:
        key, value = args["key"], args["value"]
        ref = work.references.get(target)
        if ref is not None:
            work.put_reference(target, ref.with_attribute(key, value))
        else:
            work.put_element(target, work.elements[target].with_attribute(key, value))
    elif kind is _MOVE_ELEMENT:
        elem = work.elements[target]
        work.put_element(target, elem.with_attribute(ORDERING_ATTRIBUTE, args["newOrderingNumber"]))
    else:
        raise AssertionError(f"unhandled atomic kind {kind!r}")


# -- exemplars: a type's recipe expanded into steps, checked and run ----------------

_new_step = _trusted(AtomicStep)


def expand_exemplar(catalog: OperationCatalog, exemplar: OperationExemplar) -> list[AtomicStep]:
    """Instantiate the recipe of an exemplar's type with its arguments."""
    type_def = catalog.lookup(exemplar.type_name)
    try:
        return _expand(type_def, exemplar)
    except KeyError as exc:
        raise MissingArgumentError(
            f"exemplar of {exemplar.type_name!r} on {exemplar.target!r}: "
            f"missing argument {exc.args[0]!r}"
        ) from None


def _expand(type_def: OperationTypeDef, exemplar: OperationExemplar) -> list[AtomicStep]:
    """The steps of ``type_def``'s recipe for ``exemplar``; KeyError names a missing argument."""
    given = {**exemplar.args, TARGET_PLACEHOLDER: exemplar.target}
    # trusted: a template's kind is an AtomicKind, and each step gets a new args dict
    return [
        _new_step(
            kind=atomic,
            target=given[target_name] if target_name else target,
            args={key: given[name] if name else value for key, (name, value) in args},
        )
        for atomic, (target_name, target), args in type_def._bound_recipe
    ]


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
    placeholders = type_def.placeholders
    if not exemplar.args.keys() >= placeholders:
        for name in sorted(placeholders.difference(exemplar.args)):
            issues.append(
                Issue(
                    IssueCode.MISSING_ARGUMENT,
                    exemplar.type_name,
                    f"exemplar on {exemplar.target!r} lacks argument {name!r}",
                )
            )
    if issues:
        return issues, []
    steps = _expand(type_def, exemplar)  # every placeholder is given
    for step in steps:
        # work.model reads the live maps, so each step sees the earlier ones
        issues = validate_step(model, step)
        if issues:
            return issues, []
        _apply_into(work, step)
    return [], steps

"""Variant derivation: chain resolution and merging.

A merge runs in three phases: declared assets are integrated first, then
exclusions are applied (cascading over incident references), then operation
exemplars execute in document order. A merge either returns a consistent
model or raises; the inputs are never modified. Every effect lands in an
auditable :class:`MergeTrace` whose entries carry replayable change sets.
Every merged model is checked by one rule (see :func:`merge_once`) and
leaves marked as consistent, and :func:`merge_chain` is a fold of
:func:`merge_once` over a chain whose root it checks once. A variant set
keeps each link it has merged, so its later chains start from their
deepest kept ancestor and each ancestor is merged once per set.

The family types it reads live in :mod:`procline.family`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .atomic import _run_exemplar, field_key
from .catalog import AtomicKind, OperationCatalog
from .errors import (
    ConflictError,
    CycleError,
    Issue,
    IssueCode,
    MissingParentError,
    UnknownVariantError,
    ValidationFailedError,
)
from .family import ExtensionModel, VariantSet
from .model import (
    CONFIGURATION_CONTAINER_KINDS,
    ChangeSet,
    MetamodelVersion,
    ProcessModel,
    _apply_change_set_into,
    _consistency_issues,
    _new_model,
    _trusted,
    _WorkingModel,
    endpoint_problems,
)

_EMPTY_CHANGE_SET = ChangeSet()


class TraceEntryKind(str, Enum):
    ASSET_ADDED = "AssetAdded"
    EXCLUSION_APPLIED = "ExclusionApplied"
    OPERATION_EXECUTED = "OperationExecuted"
    UNTYPED_CHANGE = "UntypedChange"


@dataclass(frozen=True, slots=True)
class TraceEntry:
    """One audited merge effect.

    ``subject`` holds the added asset id, the excluded id, the operation
    type name, or a short tag for untyped changes. ``change_set`` is the
    model delta this entry caused; replaying all entry deltas over the root
    reconstructs the merged model.
    """

    kind: TraceEntryKind
    variant_id: str
    subject: str
    target: str = ""
    detail: str = ""
    cascade_count: int = 0
    step_count: int = 0
    change_set: ChangeSet = _EMPTY_CHANGE_SET


_new_entry = _trusted(TraceEntry)


@dataclass(frozen=True)
class MergeTrace:
    """Ordered audit log of one merge (or one merged chain)."""

    entries: tuple[TraceEntry, ...] = ()
    final_metamodel: MetamodelVersion | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def by_kind(self, kind: TraceEntryKind) -> list[TraceEntry]:
        return [e for e in self.entries if e.kind is kind]

    def untyped_changes(self) -> list[TraceEntry]:
        return self.by_kind(TraceEntryKind.UNTYPED_CHANGE)

    def replay(self, root: ProcessModel) -> ProcessModel:
        """Reconstruct the merged model from the recorded change sets.

        The root's maps are copied once and every change set is applied into
        them, with the per-id checks of :func:`apply_change_set`.
        """
        metamodel = root.metamodel
        elements, references = dict(root.elements), dict(root.references)
        for entry in self.entries:
            metamodel = _apply_change_set_into(metamodel, elements, references, entry.change_set)
        if self.final_metamodel is not None:
            metamodel = MetamodelVersion(self.final_metamodel)
        return _new_model(metamodel, elements, references)


def resolve_chain(variant_set: VariantSet, leaf_id: str) -> list[ExtensionModel]:
    """Extensions from the root's direct child down to the leaf, in merge order."""
    if leaf_id not in variant_set.extensions:
        raise UnknownVariantError(f"no variant named {leaf_id!r}")
    chain: list[ExtensionModel] = []
    seen: set[str] = set()
    current = leaf_id
    while True:
        if current in seen:
            raise CycleError(f"parent chain of {leaf_id!r} cycles at {current!r}")
        seen.add(current)
        ext = variant_set.extensions[current]
        chain.append(ext)
        parent = ext.parent_id
        if parent == variant_set.root_id:
            break
        if parent not in variant_set.extensions:
            raise MissingParentError(
                f"variant {current!r} declares parent {parent!r}, which is neither "
                f"the root ({variant_set.root_id!r}) nor a known variant"
            )
        current = parent
    chain.reverse()
    return chain


def _tagged(issues: Iterable[Issue], variant_id: str) -> list[Issue]:
    return [
        Issue(i.code, i.subject, i.message, variant_id) if not i.variant_id else i
        for i in issues
    ]


def merge_once(
    base: ProcessModel,
    extension: ExtensionModel,
    catalog: OperationCatalog,
    *,
    last_wins: bool = False,
) -> tuple[ProcessModel, MergeTrace]:
    """Merge one extension over its base model.

    All-or-nothing: either a consistent merged model and its trace are
    returned, or :class:`ValidationFailedError` (carrying every collected
    issue) or :class:`ConflictError` is raised and the base is untouched.
    The merged model is checked by one rule. Over a base marked as having
    no issues (``ProcessModel._issues``), such as a merge's result, only the
    references this merge added or modified that are still there can break
    one, since no step rewrites an element's kind and every element removal
    cascades over its incident references: those are checked, in id order.
    Over any other base the whole result is, so what the base breaks fails
    the merge too. Either way the issues and their order are those of a
    full check, and the returned model is marked as having none.

    Two exemplars of the same extension replacing the same text field are a
    conflict. ``last_wins=True`` downgrades that to an ``UntypedChange``
    trace entry and lets the later exemplar win. A conflict is raised as
    soon as it is seen, even when other validation issues are pending.

    The base maps are copied once into a :class:`~procline.model._WorkingModel`:
    every asset, exclusion and step writes into it, and the base is never
    written. An exemplar that fails validation is rolled back, and each
    recorded entry takes the working model's change set of the writes since
    the previous one, so an entry costs what it changes, not the size of the
    model, and a metamodel upgrade made up front lands in the first entry.
    Entries and their change sets are trusted builds (``model._trusted``):
    every value in them was checked by the step or the merge that wrote it.
    """
    variant = extension.variant_id
    issues: list[Issue] = []
    work = _WorkingModel(base)
    entries: list[TraceEntry] = []

    def record(
        kind: TraceEntryKind, subject: str, *, target: str = "", cascade_count: int = 0, step_count: int = 0
    ) -> None:
        """Append an entry for the writes since the previous one."""
        entries.append(
            _new_entry(kind, variant, subject, target, "", cascade_count, step_count, work.change_set())
        )

    def flag(subject: str, detail: str, target: str = "") -> None:
        """Append an ``UntypedChange`` entry; it changes nothing by itself."""
        entries.append(
            _new_entry(TraceEntryKind.UNTYPED_CHANGE, variant, subject, target, detail, 0, 0, _EMPTY_CHANGE_SET)
        )

    if extension.metamodel > base.metamodel:
        work.set_metamodel(extension.metamodel)

    # phase 1: integrate declared assets
    for elem in extension.new_elements:
        if work.model.has_id(elem.id):
            issues.append(
                Issue(IssueCode.DUPLICATE_ID, elem.id, "new element id already in use", variant)
            )
            continue
        work.put_element(elem.id, elem)
        record(TraceEntryKind.ASSET_ADDED, elem.id)
    for ref in extension.new_references:
        if work.model.has_id(ref.id):
            issues.append(
                Issue(IssueCode.DUPLICATE_ID, ref.id, "new reference id already in use", variant)
            )
            continue
        problems = endpoint_problems(work.elements, ref.kind, ref.source, ref.target)
        for side, endpoint, why in problems:
            code = IssueCode.DANGLING_REFERENCE if why is None else IssueCode.KIND_CONSTRAINT_VIOLATION
            message = why or f"new reference {side} {endpoint!r} does not resolve"
            issues.append(Issue(code, ref.id, message, variant))
        if not problems:  # a reference that does not fit is not added
            work.put_reference(ref.id, ref)
            record(TraceEntryKind.ASSET_ADDED, ref.id)

    # phase 2: exclusions, cascading over incident references; excluding a
    # configuration container while adding one of its kind is masking, the
    # one substitution no typed operation expresses, so it is flagged
    added_kinds = {elem.kind for elem in extension.new_elements}
    for excluded_id in extension.exclusions:
        excluded = work.elements.get(excluded_id)
        if excluded is not None:
            cascaded = work.remove_element(excluded_id)
            record(TraceEntryKind.EXCLUSION_APPLIED, excluded_id, cascade_count=len(cascaded))
            kind = excluded.kind
            if kind in CONFIGURATION_CONTAINER_KINDS and kind in added_kinds:
                flag(
                    excluded_id,
                    f"masking substitution: {kind.value} {excluded_id!r} excluded "
                    f"and replaced by newly added {kind.value} content",
                )
        elif excluded_id in work.references:
            work.put_reference(excluded_id, None)
            record(TraceEntryKind.EXCLUSION_APPLIED, excluded_id)
        else:
            issues.append(
                Issue(IssueCode.UNKNOWN_ID, excluded_id, "exclusion does not resolve", variant)
            )

    # phase 3: exemplars in document order, each written into the working
    # model as its validation runs, and rolled back if that fails
    replaced_fields: dict[tuple[str, str], str] = {}
    for exemplar in extension.exemplars:
        exemplar_issues, steps = _run_exemplar(catalog, work, exemplar)
        if exemplar_issues:
            work.rollback()
            issues.extend(_tagged(exemplar_issues, variant))
            continue
        for step in steps:
            if step.kind is not AtomicKind.REPLACE_TEXT:
                continue
            location = (step.target, field_key(step.args))
            earlier = replaced_fields.get(location)
            if earlier is None:
                continue
            if not last_wins:
                raise ConflictError(
                    f"variant {variant!r}: {exemplar.type_name} and {earlier} both replace "
                    f"{location[1]!r} of {location[0]!r}",
                    element_id=location[0],
                    field=location[1],
                )
            flag(
                exemplar.type_name,
                f"conflict override (last wins): {exemplar.type_name} replaces "
                f"{location[1]!r} of {location[0]!r} already written by {earlier}",
                target=location[0],
            )
        for step in steps:
            if step.kind is AtomicKind.REPLACE_TEXT:
                replaced_fields[(step.target, field_key(step.args))] = exemplar.type_name
        record(
            TraceEntryKind.OPERATION_EXECUTED,
            exemplar.type_name,
            target=exemplar.target,
            step_count=len(steps),
        )

    if issues:
        raise ValidationFailedError(issues)
    # the working model is dropped on return, so its maps can leave
    model = work.model
    if vars(base).get("_issues") == ():
        references = model.references
        written = {
            ref.id
            for entry in entries
            for ref in (*entry.change_set.added_references, *entry.change_set.modified_references)
        }
        consistency = _consistency_issues(model.elements, [references[i] for i in sorted(written) if i in references])
    else:
        consistency = model.check_consistency()
    if consistency:
        raise ValidationFailedError(_tagged(consistency, variant))
    vars(model)["_issues"] = ()
    return model, MergeTrace(tuple(entries), final_metamodel=model.metamodel)


def merge_chain(
    variant_set: VariantSet,
    leaf_id: str,
    catalog: OperationCatalog,
    *,
    last_wins: bool = False,
) -> tuple[ProcessModel, MergeTrace]:
    """Merge the whole parent chain of ``leaf_id`` over the root model.

    A fold of :func:`merge_once` over the chain. The root is checked in full
    once, and the model keeps the issues, so over a root without issues each
    link checks only the references it wrote; over an inconsistent root the
    first link checks its whole result, so every issue the root brings is
    reported.

    Each ancestor is merged once per set. Every link that merges is kept,
    under its variant id and ``last_wins``, in a memo in the set's
    ``__dict__``: its model, the entries of its chain so far, and the root,
    catalog and chain extensions it was merged from. A later call starts
    from the deepest ancestor whose kept sources are the very objects
    (``is``) of this call, so a replaced extension, another catalog or a
    failed link merges again; the leaf is merged on every call. What is
    kept is immutable, so the trace is the same either way.
    """
    chain = resolve_chain(variant_set, leaf_id)
    root = variant_set.root
    root._issues  # the root's one full check, which merge_once reads as its mark
    merged = vars(variant_set).setdefault("_merged", {})
    sources = (root, catalog, *chain)
    model, entries, start = root, (), 0
    for depth in range(len(chain) - 1, 0, -1):
        kept = merged.get((chain[depth - 1].variant_id, last_wins))
        if kept and len(kept[0]) == depth + 2 and all(map(operator.is_, kept[0], sources)):
            _, model, entries = kept
            start = depth
            break
    for depth in range(start, len(chain)):
        model, trace = merge_once(model, chain[depth], catalog, last_wins=last_wins)
        entries += trace.entries
        merged[(chain[depth].variant_id, last_wins)] = (sources[: depth + 3], model, entries)
    return model, MergeTrace(entries, final_metamodel=model.metamodel)

"""Core process model: typed elements, typed references, and model diffs.

A :class:`ProcessModel` is an immutable value: a metamodel version and two
maps, read through lookups and :meth:`ProcessModel.check_consistency`. A new
model comes from the public constructor (which copies and checks both maps),
from :func:`apply_change_set`, or from a merge; callers can therefore hold on
to any intermediate state (merge bases, trace snapshots) without defensive
copies. Elements and references have their own ``with_*`` updates; each
builds a new object from the fields (:func:`_replacer`) and changes none.

Every write of a merge goes through one path: the base maps are copied once
into a :class:`_WorkingModel`, every step writes into them, the old value of
each written id is logged (a failed exemplar is undone from the log, and a
trace entry's change set is read off it), and an element id -> incident
reference ids index makes a removal cost the element's degree. Only the
finished maps leave it, wrapped as a ``ProcessModel``.

Values the engine has already checked are built by trusted build
functions (:func:`_trusted`): each takes every field of its dataclass and
stores it as the frozen ``__init__`` does, but runs no ``__post_init__``
check, coercion or copy. The working model's view, applied change sets and
replays, each trace entry and its change set and nested changes, expanded
steps and parsed exemplars are built so.

Identity lives in one namespace: element ids and reference ids must not
collide, so a bare id always resolves to exactly one thing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from decimal import Decimal, InvalidOperation
from enum import Enum
from typing import Any, Callable, Iterable, Mapping, Sequence, TypeVar

from .errors import (
    DuplicateIdError,
    FieldNotFoundError,
    Issue,
    IssueCode,
    UnknownIdError,
)

_D = TypeVar("_D")


class MetamodelVersion(str, Enum):
    """Metamodel generations, ordered oldest to newest."""

    V1_3 = "1.3"
    V1_3B = "1.3B"
    V1_3Z = "1.3Z"

    @property
    def rank(self) -> int:
        return _METAMODEL_RANK[self]

    # written out rather than via functools.total_ordering: on a str mixin
    # that decorator finds str's comparisons and fills in nothing
    def __lt__(self, other: object) -> bool:
        if isinstance(other, MetamodelVersion):
            return _METAMODEL_RANK[self] < _METAMODEL_RANK[other]
        return NotImplemented

    def __le__(self, other: object) -> bool:
        if isinstance(other, MetamodelVersion):
            return _METAMODEL_RANK[self] <= _METAMODEL_RANK[other]
        return NotImplemented

    def __gt__(self, other: object) -> bool:
        if isinstance(other, MetamodelVersion):
            return _METAMODEL_RANK[self] > _METAMODEL_RANK[other]
        return NotImplemented

    def __ge__(self, other: object) -> bool:
        if isinstance(other, MetamodelVersion):
            return _METAMODEL_RANK[self] >= _METAMODEL_RANK[other]
        return NotImplemented


_METAMODEL_RANK = {
    MetamodelVersion.V1_3: 0,
    MetamodelVersion.V1_3B: 1,
    MetamodelVersion.V1_3Z: 2,
}


class ElementKind(str, Enum):
    DISCIPLINE = "Discipline"
    WORK_PRODUCT = "WorkProduct"
    TOPIC = "Topic"
    SUB_TOPIC = "SubTopic"
    ACTIVITY = "Activity"
    TASK = "Task"
    ROLE = "Role"
    DECISION_GATE = "DecisionGate"
    PROCESS_MODULE = "ProcessModule"
    PROJECT_TYPE_VARIANT = "ProjectTypeVariant"
    CHAPTER = "Chapter"
    SECTION = "Section"
    GLOSSARY_ITEM = "GlossaryItem"
    ABBREVIATION = "Abbreviation"
    LITERATURE_REFERENCE = "LiteratureReference"
    METHOD_REFERENCE = "MethodReference"
    TOOL_REFERENCE = "ToolReference"
    MAPPING_ENTRY = "MappingEntry"
    APPENDIX_ENTRY = "AppendixEntry"


class ReferenceKind(str, Enum):
    RESPONSIBILITY = "Responsibility"
    SUPPORTING_ROLE = "SupportingRole"
    TOPIC_ASSIGNMENT = "TopicAssignment"
    CREATING_DEPENDENCY = "CreatingDependency"
    TAILORING_DEPENDENCY = "TailoringDependency"
    MODULE_CONTAINMENT = "ModuleContainment"
    CONFIGURATION_ENTRY = "ConfigurationEntry"
    LITERATURE_LINK = "LiteratureLink"
    METHOD_LINK = "MethodLink"
    TOOL_LINK = "ToolLink"
    MAPPING_LINK = "MappingLink"


#: Admissible (source kinds, target kinds) per reference kind. A reference
#: whose endpoints fall outside these sets is a consistency violation.
REFERENCE_CONSTRAINTS: Mapping[ReferenceKind, tuple[frozenset[ElementKind], frozenset[ElementKind]]] = {
    ReferenceKind.RESPONSIBILITY: (
        frozenset({ElementKind.WORK_PRODUCT}),
        frozenset({ElementKind.ROLE}),
    ),
    ReferenceKind.SUPPORTING_ROLE: (
        frozenset({ElementKind.WORK_PRODUCT}),
        frozenset({ElementKind.ROLE}),
    ),
    ReferenceKind.TOPIC_ASSIGNMENT: (
        frozenset({ElementKind.WORK_PRODUCT}),
        frozenset({ElementKind.TOPIC}),
    ),
    ReferenceKind.CREATING_DEPENDENCY: (
        frozenset({ElementKind.ACTIVITY}),
        frozenset({ElementKind.WORK_PRODUCT}),
    ),
    ReferenceKind.TAILORING_DEPENDENCY: (
        frozenset({ElementKind.PROCESS_MODULE}),
        frozenset({ElementKind.PROCESS_MODULE}),
    ),
    ReferenceKind.MODULE_CONTAINMENT: (
        frozenset({ElementKind.PROCESS_MODULE}),
        frozenset(
            {
                ElementKind.DISCIPLINE,
                ElementKind.WORK_PRODUCT,
                ElementKind.TOPIC,
                ElementKind.SUB_TOPIC,
                ElementKind.ACTIVITY,
                ElementKind.TASK,
                ElementKind.ROLE,
                ElementKind.DECISION_GATE,
            }
        ),
    ),
    ReferenceKind.CONFIGURATION_ENTRY: (
        frozenset({ElementKind.PROJECT_TYPE_VARIANT}),
        frozenset({ElementKind.PROCESS_MODULE}),
    ),
    ReferenceKind.LITERATURE_LINK: (
        frozenset(
            {
                ElementKind.CHAPTER,
                ElementKind.SECTION,
                ElementKind.TOPIC,
                ElementKind.WORK_PRODUCT,
            }
        ),
        frozenset({ElementKind.LITERATURE_REFERENCE}),
    ),
    ReferenceKind.METHOD_LINK: (
        frozenset({ElementKind.ACTIVITY, ElementKind.TASK}),
        frozenset({ElementKind.METHOD_REFERENCE}),
    ),
    ReferenceKind.TOOL_LINK: (
        frozenset({ElementKind.ACTIVITY, ElementKind.TASK}),
        frozenset({ElementKind.TOOL_REFERENCE}),
    ),
    ReferenceKind.MAPPING_LINK: (
        frozenset({ElementKind.MAPPING_ENTRY}),
        frozenset(
            {
                ElementKind.DISCIPLINE,
                ElementKind.WORK_PRODUCT,
                ElementKind.TOPIC,
                ElementKind.ACTIVITY,
                ElementKind.TASK,
                ElementKind.ROLE,
                ElementKind.DECISION_GATE,
                ElementKind.PROCESS_MODULE,
            }
        ),
    ),
}

#: Element kinds that configure which content a tailored process contains.
#: Excluding one of these while substituting a copy is the masking pattern.
CONFIGURATION_CONTAINER_KINDS = frozenset(
    {ElementKind.PROJECT_TYPE_VARIANT, ElementKind.PROCESS_MODULE}
)

#: Attribute key that carries an element's position among its siblings.
ORDERING_ATTRIBUTE = "orderingNumber"


def ordering_number(raw: str) -> Decimal | None:
    """``raw`` as an ordering number, or None unless it is a finite decimal."""
    try:
        number = Decimal(raw)
    except InvalidOperation:
        return None
    # Decimal also parses NaN, sNaN and Infinity: no position, and NaN does not even compare
    return number if number.is_finite() else None


def _compiled(
    cls: type[_D], name: str, params: str, values: Iterable[str], **namespace: Any
) -> Callable[..., _D]:
    """The function ``name(params)`` that stores each of ``values``, given as source, in a new ``cls``."""
    source = "\n".join(
        [f"def {name}({params}):", "    __obj = __new(__cls)"]
        + [f"    __store(__obj, {f.name!r}, {value})" for f, value in zip(fields(cls), values, strict=True)]
        + ["    return __obj"]
    )
    namespace.update(__new=object.__new__, __store=object.__setattr__, __cls=cls)
    exec(source, namespace)
    return namespace[name]


def _trusted(cls: type[_D]) -> Callable[..., _D]:
    """A function that builds the dataclass ``cls`` from values the caller has checked.

    It takes every field of ``cls`` in order, none optional, and stores each
    through ``object.__setattr__``, as the frozen ``__init__`` does, so an
    instance is laid out as a constructed one is. It skips the constructor's
    call and ``__post_init__`` with its checks, coercions and copies: the
    caller passes checked values of each field's type and gives up any map it
    passes. A build cannot leave out a field, not even one added to ``cls``
    later.
    """
    names = [f.name for f in fields(cls)]
    return _compiled(cls, f"_trusted_{cls.__name__}", ", ".join(names), names)


_KEEP = object()  # the default of every parameter of a _replacer function


def _replacer(cls: type[_D]) -> Callable[..., _D]:
    """A function ``(obj, **updates)`` that builds ``obj`` of class ``cls`` with ``updates`` applied.

    Every field not updated is read off ``obj``, and the result is stored
    field by field, as :func:`_trusted` builds: unchecked, laid out as a
    constructed instance, and holding nothing but the fields. ``obj`` itself
    is only read, so what else it holds stays with it.
    """
    names = [f.name for f in fields(cls)]
    return _compiled(
        cls,
        f"_replace_{cls.__name__}",
        "__src, *, " + ", ".join(f"{name}=__keep" for name in names),
        [f"__src.{name} if {name} is __keep else {name}" for name in names],
        __keep=_KEEP,
    )


@dataclass(frozen=True)
class TextBlock:
    """One named block of running text inside an element."""

    id: str
    text: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("text block id must be non-empty")


@dataclass(frozen=True)
class ProcessElement:
    """A named, typed asset of the process model.

    ``attributes`` is an ordered string map (insertion order is kept for
    iteration; equality ignores order). ``text_blocks`` is an ordered list
    and its order is meaningful.
    """

    id: str
    kind: ElementKind
    name: str
    description: str = ""
    attributes: Mapping[str, str] = field(default_factory=dict)
    text_blocks: tuple[TextBlock, ...] = ()

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("element id must be non-empty")
        if not self.name:
            raise ValueError(f"element {self.id!r}: name must be non-empty")
        object.__setattr__(self, "kind", ElementKind(self.kind))
        object.__setattr__(self, "attributes", dict(self.attributes))
        blocks = tuple(self.text_blocks)
        object.__setattr__(self, "text_blocks", blocks)
        seen = set()
        for block in blocks:
            if block.id in seen:
                raise ValueError(f"element {self.id!r}: duplicate text block id {block.id!r}")
            seen.add(block.id)

    # The updates below build their result with _replace_element, which
    # skips __post_init__: each checks only what it changes, and shares the rest.

    def with_name(self, name: str) -> "ProcessElement":
        if not name:
            raise ValueError(f"element {self.id!r}: name must be non-empty")
        return _replace_element(self, name=name)

    def with_description(self, description: str) -> "ProcessElement":
        return _replace_element(self, description=description)

    def with_kind(self, kind: ElementKind) -> "ProcessElement":
        return _replace_element(self, kind=ElementKind(kind))

    def with_attribute(self, key: str, value: str) -> "ProcessElement":
        attrs = dict(self.attributes)
        attrs[key] = value
        return _replace_element(self, attributes=attrs)

    def without_attribute(self, key: str) -> "ProcessElement":
        attrs = {k: v for k, v in self.attributes.items() if k != key}
        return _replace_element(self, attributes=attrs)

    def find_block(self, block_id: str) -> TextBlock | None:
        for block in self.text_blocks:
            if block.id == block_id:
                return block
        return None

    def with_block_text(self, block_id: str, text: str) -> "ProcessElement":
        if self.find_block(block_id) is None:
            raise FieldNotFoundError(f"element {self.id!r} has no text block {block_id!r}")
        blocks = tuple(
            TextBlock(b.id, text) if b.id == block_id else b for b in self.text_blocks
        )
        return _replace_element(self, text_blocks=blocks)

    def with_text_blocks(self, blocks: Iterable[TextBlock]) -> "ProcessElement":
        blocks = tuple(blocks)
        seen = set()
        for block in blocks:
            if block.id in seen:
                raise ValueError(f"element {self.id!r}: duplicate text block id {block.id!r}")
            seen.add(block.id)
        return _replace_element(self, text_blocks=blocks)


@dataclass(frozen=True)
class Reference:
    """A typed, directed link between two elements."""

    id: str
    kind: ReferenceKind
    source: str
    target: str
    attributes: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("reference id must be non-empty")
        if not self.source or not self.target:
            raise ValueError(f"reference {self.id!r}: source and target must be non-empty")
        object.__setattr__(self, "kind", ReferenceKind(self.kind))
        object.__setattr__(self, "attributes", dict(self.attributes))

    def with_endpoints(self, source: str | None = None, target: str | None = None) -> "Reference":
        source = self.source if source is None else source
        target = self.target if target is None else target
        if not source or not target:
            raise ValueError(f"reference {self.id!r}: source and target must be non-empty")
        return _replace_reference(self, source=source, target=target)

    def with_attribute(self, key: str, value: str) -> "Reference":
        attrs = dict(self.attributes)
        attrs[key] = value
        return _replace_reference(self, attributes=attrs)

    def without_attribute(self, key: str) -> "Reference":
        attrs = {k: v for k, v in self.attributes.items() if k != key}
        return _replace_reference(self, attributes=attrs)


@dataclass(frozen=True)
class ProcessModel:
    """An immutable process model: a metamodel version plus typed content."""

    metamodel: MetamodelVersion
    elements: Mapping[str, ProcessElement] = field(default_factory=dict)
    references: Mapping[str, Reference] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "metamodel", MetamodelVersion(self.metamodel))
        elements = dict(self.elements)
        references = dict(self.references)
        for key, elem in elements.items():
            if key != elem.id:
                raise ValueError(f"element map key {key!r} does not match element id {elem.id!r}")
        for key, ref in references.items():
            if key != ref.id:
                raise ValueError(f"reference map key {key!r} does not match reference id {ref.id!r}")
        overlap = elements.keys() & references.keys()
        if overlap:
            raise DuplicateIdError(
                f"ids used for both an element and a reference: {sorted(overlap)}"
            )
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "references", references)

    @classmethod
    def of(
        cls,
        metamodel: MetamodelVersion,
        elements: Iterable[ProcessElement] = (),
        references: Iterable[Reference] = (),
    ) -> "ProcessModel":
        """Build a model from element/reference sequences, rejecting duplicate ids."""
        elem_map: dict[str, ProcessElement] = {}
        ref_map: dict[str, Reference] = {}
        for elem in elements:
            if elem.id in elem_map:
                raise DuplicateIdError(f"duplicate element id {elem.id!r}")
            elem_map[elem.id] = elem
        for ref in references:
            if ref.id in ref_map or ref.id in elem_map:
                raise DuplicateIdError(f"duplicate id {ref.id!r}")
            ref_map[ref.id] = ref
        return cls(metamodel=metamodel, elements=elem_map, references=ref_map)

    # -- lookup -------------------------------------------------------------

    def element(self, element_id: str) -> ProcessElement:
        try:
            return self.elements[element_id]
        except KeyError:
            raise UnknownIdError(f"no element with id {element_id!r}") from None

    def reference(self, reference_id: str) -> Reference:
        try:
            return self.references[reference_id]
        except KeyError:
            raise UnknownIdError(f"no reference with id {reference_id!r}") from None

    def has_id(self, some_id: str) -> bool:
        return some_id in self.elements or some_id in self.references

    # -- validation ----------------------------------------------------------

    def check_consistency(self) -> list[Issue]:
        """Report dangling endpoints and endpoint-kind violations.

        Duplicate ids cannot occur in a constructed model (construction
        rejects them), so no issues of that code originate here. One issue
        is produced per offending endpoint, in reference id order.
        """
        issues: list[Issue] = []
        for ref in sorted(self.references.values(), key=lambda r: r.id):
            for side, endpoint in (("source", ref.source), ("target", ref.target)):
                elem = self.elements.get(endpoint)
                if elem is None:
                    issues.append(
                        Issue(
                            IssueCode.DANGLING_REFERENCE,
                            ref.id,
                            f"{side} {endpoint!r} does not resolve to an element",
                        )
                    )
                    continue
                violation = endpoint_kind_violation(ref.kind, side, elem.kind)
                if violation:
                    issues.append(Issue(IssueCode.KIND_CONSTRAINT_VIOLATION, ref.id, violation))
        return issues


_new_model = _trusted(ProcessModel)
_replace_element = _replacer(ProcessElement)
_replace_reference = _replacer(Reference)


def endpoint_kind_violation(kind: ReferenceKind, side: str, elem_kind: ElementKind) -> str | None:
    """Why an element of ``elem_kind`` may not be the ``side`` end of a ``kind`` reference.

    ``side`` is ``"source"`` or ``"target"``. Returns ``None`` when the kind
    is admissible there (see :data:`REFERENCE_CONSTRAINTS`).
    """
    allowed_sources, allowed_targets = REFERENCE_CONSTRAINTS[kind]
    allowed = allowed_sources if side == "source" else allowed_targets
    if elem_kind in allowed:
        return None
    return (
        f"{kind.value} {side} must be one of {sorted(k.value for k in allowed)}, "
        f"got {elem_kind.value}"
    )


# -- the working model of a merge --------------------------------------------

class _WorkingModel:
    """A model's maps, copied once and then written in place.

    ``model`` is a :class:`ProcessModel` over the live maps, for reading. It
    changes under its holder, so it leaves only when the writing is done.
    Every write appends ``(map, id, old value)`` to ``log`` (``None`` for an
    id that was absent): :meth:`rollback` undoes the writes since the log was
    last cleared, and a trace entry takes each id's first logged value as
    the value before its writes.
    ``incident`` maps each endpoint id to the ids of the references that name
    it, so :meth:`remove_element` costs the element's degree.
    """

    __slots__ = ("elements", "references", "model", "incident", "log")

    def __init__(self, model: ProcessModel):
        self.elements = dict(model.elements)
        self.references = dict(model.references)
        self.model = _new_model(model.metamodel, self.elements, self.references)
        self.incident: dict[str, set[str]] = {}
        self.log: list[tuple[dict, str, ProcessElement | Reference | None]] = []
        for ref in self.references.values():
            self._link(ref)

    def set_metamodel(self, metamodel: MetamodelVersion) -> None:
        self.model = _new_model(metamodel, self.elements, self.references)

    def _link(self, ref: Reference) -> None:
        incident = self.incident
        for endpoint in (ref.source, ref.target):
            ids = incident.get(endpoint)
            if ids is None:
                incident[endpoint] = {ref.id}
            else:
                ids.add(ref.id)

    def _unlink(self, ref: Reference) -> None:
        incident = self.incident
        for endpoint in (ref.source, ref.target):
            ids = incident.get(endpoint)
            if ids is not None:  # None on the second pass over a self-loop
                ids.discard(ref.id)
                if not ids:
                    del incident[endpoint]

    def _set_reference(self, ref_id: str, old: Reference | None, new: Reference | None) -> None:
        if old is not None:
            self._unlink(old)
        if new is None:
            del self.references[ref_id]
        else:
            self.references[ref_id] = new
            self._link(new)

    def put_element(self, element_id: str, element: ProcessElement | None) -> None:
        """Set the element under ``element_id``, or remove it when ``element`` is None."""
        elements = self.elements
        self.log.append((elements, element_id, elements.get(element_id)))
        if element is None:
            del elements[element_id]
        else:
            elements[element_id] = element

    def put_reference(self, reference_id: str, reference: Reference | None) -> None:
        """Set the reference under ``reference_id``, or remove it when ``reference`` is None."""
        old = self.references.get(reference_id)
        self.log.append((self.references, reference_id, old))
        self._set_reference(reference_id, old, reference)

    def remove_element(self, element_id: str) -> tuple[str, ...]:
        """Remove an element and its incident references; returns their ids, ascending."""
        cascaded = tuple(sorted(self.incident.get(element_id, ())))
        for reference_id in cascaded:
            self.put_reference(reference_id, None)
        self.put_element(element_id, None)
        return cascaded

    def rollback(self) -> None:
        """Undo every logged write, newest first, and clear the log."""
        references = self.references
        for mapping, some_id, old in reversed(self.log):
            if mapping is references:
                self._set_reference(some_id, references.get(some_id), old)
            elif old is None:
                del mapping[some_id]
            else:
                mapping[some_id] = old
        self.log.clear()


# -- change sets -------------------------------------------------------------

FIELD_KIND = "kind"
FIELD_NAME = "name"
FIELD_DESCRIPTION = "description"
FIELD_SOURCE = "source"
FIELD_TARGET = "target"
ATTRIBUTE_FIELD_PREFIX = "attribute:"
TEXT_BLOCK_FIELD_PREFIX = "textblock:"
TEXT_BLOCK_ORDER_FIELD = "textblock-order"


@dataclass(frozen=True)
class FieldChange:
    """A before/after pair for one logical field. ``None`` means absent."""

    field: str
    before: str | None
    after: str | None


@dataclass(frozen=True)
class ElementChange:
    element_id: str
    changes: tuple[FieldChange, ...]


@dataclass(frozen=True)
class ReferenceChange:
    reference_id: str
    changes: tuple[FieldChange, ...]


@dataclass(frozen=True)
class ChangeSet:
    """Difference between two models, applicable with :func:`apply_change_set`."""

    added_elements: tuple[ProcessElement, ...] = ()
    removed_elements: tuple[str, ...] = ()
    modified_elements: tuple[ElementChange, ...] = ()
    added_references: tuple[Reference, ...] = ()
    removed_references: tuple[str, ...] = ()
    modified_references: tuple[ReferenceChange, ...] = ()
    metamodel_change: tuple[MetamodelVersion, MetamodelVersion] | None = None

    def is_empty(self) -> bool:
        return (
            not self.added_elements
            and not self.removed_elements
            and not self.modified_elements
            and not self.added_references
            and not self.removed_references
            and not self.modified_references
            and self.metamodel_change is None
        )

    def change_count(self) -> int:
        return (
            len(self.added_elements)
            + len(self.removed_elements)
            + len(self.modified_elements)
            + len(self.added_references)
            + len(self.removed_references)
            + len(self.modified_references)
            + (1 if self.metamodel_change else 0)
        )


_new_field_change = _trusted(FieldChange)
_new_element_change = _trusted(ElementChange)
_new_reference_change = _trusted(ReferenceChange)
_new_change_set = _trusted(ChangeSet)


# TEXT_BLOCK_ORDER_FIELD values: block ids joined by spaces, each with the
# escape character and whitespace written as "\\<hex code point>;", so every id
# round-trips and an id without either is written as it is
_BLOCK_ID_ESCAPE = "\\"
_ESCAPED_CHAR = re.compile(r"\\([0-9a-f]+);")


def _block_order(block_ids: Iterable[str]) -> str:
    return " ".join(
        "".join(f"\\{ord(c):x};" if c.isspace() or c == _BLOCK_ID_ESCAPE else c for c in block_id)
        for block_id in block_ids
    )


def _block_ids(order: str) -> list[str]:
    return [_ESCAPED_CHAR.sub(lambda m: chr(int(m.group(1), 16)), token) for token in order.split()]


def _diff_attributes(before: Mapping[str, str], after: Mapping[str, str], changes: list[FieldChange]) -> None:
    for key in sorted(before.keys() | after.keys()):
        old, new = before.get(key), after.get(key)
        if old != new:
            changes.append(_new_field_change(ATTRIBUTE_FIELD_PREFIX + key, old, new))


def _diff_element(a: ProcessElement, b: ProcessElement) -> ElementChange | None:
    changes: list[FieldChange] = []
    if a.kind != b.kind:
        changes.append(_new_field_change(FIELD_KIND, a.kind.value, b.kind.value))
    if a.name != b.name:
        changes.append(_new_field_change(FIELD_NAME, a.name, b.name))
    if a.description != b.description:
        changes.append(_new_field_change(FIELD_DESCRIPTION, a.description, b.description))
    # updates share the parts they leave alone, and a part is equal to itself
    if a.attributes is not b.attributes:
        _diff_attributes(a.attributes, b.attributes, changes)
    if a.text_blocks is not b.text_blocks:
        a_blocks = {blk.id: blk.text for blk in a.text_blocks}
        b_blocks = {blk.id: blk.text for blk in b.text_blocks}
        for block_id in sorted(a_blocks.keys() | b_blocks.keys()):
            old, new = a_blocks.get(block_id), b_blocks.get(block_id)
            if old != new:
                changes.append(_new_field_change(TEXT_BLOCK_FIELD_PREFIX + block_id, old, new))
        if list(a_blocks) != list(b_blocks):
            # emitted last so application can reorder after per-block edits
            changes.append(
                _new_field_change(TEXT_BLOCK_ORDER_FIELD, _block_order(a_blocks), _block_order(b_blocks))
            )
    if not changes:
        return None
    return _new_element_change(a.id, tuple(changes))


def _diff_reference(a: Reference, b: Reference) -> ReferenceChange | None:
    changes: list[FieldChange] = []
    if a.kind != b.kind:
        changes.append(_new_field_change(FIELD_KIND, a.kind.value, b.kind.value))
    if a.source != b.source:
        changes.append(_new_field_change(FIELD_SOURCE, a.source, b.source))
    if a.target != b.target:
        changes.append(_new_field_change(FIELD_TARGET, a.target, b.target))
    if a.attributes is not b.attributes:
        _diff_attributes(a.attributes, b.attributes, changes)
    if not changes:
        return None
    return _new_reference_change(a.id, tuple(changes))


def compare_models(a: ProcessModel, b: ProcessModel) -> ChangeSet:
    """Minimal field-level difference between two models.

    The result is empty exactly when ``a == b``, and applying it to ``a``
    yields ``b``. All parts are listed in ascending id order.
    """

    def rows(old: Mapping, new: Mapping) -> list[tuple]:
        return [(some_id, old.get(some_id), new.get(some_id)) for some_id in sorted(old.keys() | new.keys())]

    return _change_set(
        a.metamodel, b.metamodel, rows(a.elements, b.elements), rows(a.references, b.references)
    )


_Row = tuple[str, ProcessElement | Reference | None, ProcessElement | Reference | None]


def _parts(rows: Sequence[_Row], diff) -> tuple[tuple, tuple, tuple]:
    """The added values, removed ids and changes of ``rows``."""
    if len(rows) == 1:  # most trace entries: no lists
        ((some_id, before, after),) = rows
        if before is after:
            return (), (), ()
        if before is None:
            return (after,), (), ()
        if after is None:
            return (), (some_id,), ()
        change = diff(before, after)
        return (), (), () if change is None else (change,)
    added, removed, modified = [], [], []
    for some_id, before, after in rows:
        # models share unchanged parts, and a part is equal to itself
        if before is after:
            continue
        if before is None:
            added.append(after)
        elif after is None:
            removed.append(some_id)
        elif (change := diff(before, after)) is not None:
            modified.append(change)
    return tuple(added), tuple(removed), tuple(modified)


def _change_set(
    old_metamodel: MetamodelVersion,
    new_metamodel: MetamodelVersion,
    element_rows: Sequence[_Row],
    reference_rows: Sequence[_Row],
) -> ChangeSet:
    """The change set of ``(id, before, after)`` rows in ascending id order; ``None`` is absent.

    :func:`compare_models` passes one row per id of either model, and a
    merge's trace entry one per id written since the previous entry. A map
    without rows leaves its three parts empty without a pass.
    """
    added_elements = removed_elements = modified_elements = ()
    added_references = removed_references = modified_references = ()
    if element_rows:
        added_elements, removed_elements, modified_elements = _parts(element_rows, _diff_element)
    if reference_rows:
        added_references, removed_references, modified_references = _parts(reference_rows, _diff_reference)
    metamodel_change = None if old_metamodel == new_metamodel else (old_metamodel, new_metamodel)
    return _new_change_set(
        added_elements, removed_elements, modified_elements,
        added_references, removed_references, modified_references,
        metamodel_change,
    )


def _apply_element_change(elem: ProcessElement, change: ElementChange) -> ProcessElement:
    for fc in change.changes:
        if fc.field == FIELD_KIND:
            elem = elem.with_kind(ElementKind(fc.after))
        elif fc.field == FIELD_NAME:
            elem = elem.with_name(fc.after or "")
        elif fc.field == FIELD_DESCRIPTION:
            elem = elem.with_description(fc.after or "")
        elif fc.field.startswith(ATTRIBUTE_FIELD_PREFIX):
            key = fc.field[len(ATTRIBUTE_FIELD_PREFIX):]
            elem = elem.without_attribute(key) if fc.after is None else elem.with_attribute(key, fc.after)
        elif fc.field.startswith(TEXT_BLOCK_FIELD_PREFIX):
            block_id = fc.field[len(TEXT_BLOCK_FIELD_PREFIX):]
            if fc.after is None:
                elem = elem.with_text_blocks(b for b in elem.text_blocks if b.id != block_id)
            elif elem.find_block(block_id) is None:
                elem = elem.with_text_blocks((*elem.text_blocks, TextBlock(block_id, fc.after)))
            else:
                elem = elem.with_block_text(block_id, fc.after)
        elif fc.field == TEXT_BLOCK_ORDER_FIELD:
            wanted = _block_ids(fc.after or "")
            by_id = {b.id: b for b in elem.text_blocks}
            if sorted(wanted) != sorted(by_id):
                raise FieldNotFoundError(
                    f"element {elem.id!r}: block order {wanted} does not match blocks {sorted(by_id)}"
                )
            elem = elem.with_text_blocks(by_id[block_id] for block_id in wanted)
        else:
            raise FieldNotFoundError(f"element {elem.id!r}: unknown field {fc.field!r}")
    return elem


def _apply_reference_change(ref: Reference, change: ReferenceChange) -> Reference:
    for fc in change.changes:
        if fc.field == FIELD_KIND:
            ref = Reference(ref.id, ReferenceKind(fc.after), ref.source, ref.target, ref.attributes)
        elif fc.field == FIELD_SOURCE:
            ref = ref.with_endpoints(source=fc.after)
        elif fc.field == FIELD_TARGET:
            ref = ref.with_endpoints(target=fc.after)
        elif fc.field.startswith(ATTRIBUTE_FIELD_PREFIX):
            key = fc.field[len(ATTRIBUTE_FIELD_PREFIX):]
            ref = ref.without_attribute(key) if fc.after is None else ref.with_attribute(key, fc.after)
        else:
            raise FieldNotFoundError(f"reference {ref.id!r}: unknown field {fc.field!r}")
    return ref


def apply_change_set(model: ProcessModel, change_set: ChangeSet) -> ProcessModel:
    """Apply a change set produced by :func:`compare_models`.

    Raises :class:`UnknownIdError` or :class:`DuplicateIdError` when the
    change set does not fit the model it is applied to. Removals listed in
    the change set are literal; no cascading happens here.
    """
    elements, references = dict(model.elements), dict(model.references)
    metamodel = _apply_change_set_into(model.metamodel, elements, references, change_set)
    # every id was checked, and the two maps are this call's own copies
    return _new_model(metamodel, elements, references)


def _apply_change_set_into(
    metamodel: MetamodelVersion,
    elements: dict[str, ProcessElement],
    references: dict[str, Reference],
    change_set: ChangeSet,
) -> MetamodelVersion:
    """The body of :func:`apply_change_set`: writes into the two maps, returns the metamodel."""
    for reference_id in change_set.removed_references:
        if reference_id not in references:
            raise UnknownIdError(f"cannot remove unknown reference {reference_id!r}")
        del references[reference_id]
    for element_id in change_set.removed_elements:
        if element_id not in elements:
            raise UnknownIdError(f"cannot remove unknown element {element_id!r}")
        del elements[element_id]
    for elem in change_set.added_elements:
        if elem.id in elements or elem.id in references:
            raise DuplicateIdError(f"cannot add element {elem.id!r}: id already in use")
        elements[elem.id] = elem
    for ref in change_set.added_references:
        if ref.id in references or ref.id in elements:
            raise DuplicateIdError(f"cannot add reference {ref.id!r}: id already in use")
        references[ref.id] = ref
    for element_change in change_set.modified_elements:
        if element_change.element_id not in elements:
            raise UnknownIdError(f"cannot modify unknown element {element_change.element_id!r}")
        elements[element_change.element_id] = _apply_element_change(
            elements[element_change.element_id], element_change
        )
    for reference_change in change_set.modified_references:
        if reference_change.reference_id not in references:
            raise UnknownIdError(
                f"cannot modify unknown reference {reference_change.reference_id!r}"
            )
        references[reference_change.reference_id] = _apply_reference_change(
            references[reference_change.reference_id], reference_change
        )
    if change_set.metamodel_change is None:
        return metamodel
    return MetamodelVersion(change_set.metamodel_change[1])

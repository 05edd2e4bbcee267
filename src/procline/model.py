"""Core process model: typed elements, typed references, and change sets.

A :class:`ProcessModel` is an immutable value: a metamodel version and two
maps, read through lookups and :meth:`ProcessModel.check_consistency`. A new
model comes from the public constructor (which copies and checks both maps),
from :func:`apply_change_set`, from a merge, or from the reader; callers can
therefore hold on to any intermediate state (merge bases, trace snapshots)
without defensive copies. A model may also carry a mark: the issues of its
one full check, cached by ``ProcessModel._issues`` where no field, equality,
repr, :func:`compare_models` or writer sees them. A merge marks the model it
returns as having none. Elements and references have their own ``with_*``
updates; each checks what it changes, builds a new object (:func:`_trusted`)
that shares the fields it leaves alone, and changes none.

Every write of a merge goes through one path: the base maps are copied once
into a :class:`_WorkingModel`, every step writes into them, and the working
model records its own writes. Per map it keeps each written id's value from
before the first write since its last change set: a failed exemplar is
undone by giving each id that value back (:meth:`_WorkingModel.rollback`),
and a trace entry's change set compares it with the live value
(:meth:`_WorkingModel.change_set`). An element id -> incident reference ids
index, built by the first removal, makes a removal cost the element's
degree. Only the finished maps leave it, wrapped as a ``ProcessModel``: the
live view, unmarked until the merge has checked it.

Values the engine has already checked are built by trusted build
functions (:func:`_trusted`): each takes every field of its dataclass and
stores it past the frozen ``__setattr__`` as ``__init__`` does (a slotted
record's through each slot's own descriptor), but runs no ``__post_init__``
check, coercion or copy. The working model's view, applied change sets and
replays, each trace entry and its change set, expanded steps, updated
elements and references, and everything the reader builds (models, their
elements, references and text blocks, extensions, exemplars, and the
catalog's types and steps) are built so. A rule a constructor enforces on its fields is
stated once, in a check the constructor and the reader both call
(:func:`_check_element`, :func:`_check_reference` and their kin), so a
trusted build skips no rule a document must keep. The records a
family holds by the thousand (text blocks, change sets, trace entries,
steps, exemplars, issues) are slotted: no instance has a ``__dict__``.
Elements and references keep theirs, since the XML writer keeps each one's
finished block in it.

A change set names what changed asset by asset: it holds each added or
modified element and reference as the later model holds it, and each
removed one by id, so applying it writes those assets and patches no field.

Identity lives in one namespace: element ids and reference ids must not
collide, so a bare id always resolves to exactly one thing. Which elements a
reference may name is decided in one place, :func:`endpoint_problems`: the
consistency check, a merge's declared references and the atomic steps that
set a reference's endpoints all call it.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field, fields
from decimal import Decimal, InvalidOperation
from enum import Enum
from functools import cached_property, wraps
from typing import Callable, Iterable, Mapping, ParamSpec, Sequence, TypeVar

from .errors import (
    DuplicateIdError,
    FieldNotFoundError,
    Issue,
    IssueCode,
    UnknownIdError,
)

_D = TypeVar("_D")
_P = ParamSpec("_P")
_R = TypeVar("_R")


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


def _gc_paused(func: Callable[_P, _R]) -> Callable[_P, _R]:
    """``func``, run with Python's cyclic garbage collector paused.

    What parsing and counting build holds no reference cycles, so reference
    counting frees it and the collector's passes over it find nothing. The
    caller's setting comes back on every exit, a raise included, and a call
    nested in a paused one leaves the collector off. The setting is
    process-wide: every thread runs paused while this call does, and one
    that disables the collector meanwhile may find it on again afterwards.
    """

    @wraps(func)
    def paused(*args: _P.args, **kwargs: _P.kwargs) -> _R:
        enabled = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


def _trusted(cls: type[_D]) -> Callable[..., _D]:
    """A function that builds the dataclass ``cls`` from values the caller has checked.

    It takes every field of ``cls`` in order, none optional, and stores each
    past the frozen ``__setattr__``, as the frozen ``__init__`` does, so an
    instance is laid out as a constructed one is. A slotted class's field is
    stored by its slot's own descriptor (``__set__``), which writes the slot
    without looking the name up; any other class's goes through
    ``object.__setattr__``, so its ``__dict__`` fills in field order and keeps
    the layout its constructed instances share. It skips the constructor's
    call and ``__post_init__`` with its checks, coercions and copies: the
    caller passes checked values of each field's type and gives up any map it
    passes. A build cannot leave out a field, not even one added to ``cls``
    later.
    """
    names = [f.name for f in fields(cls)]
    namespace = {"__new": object.__new__, "__store": object.__setattr__, "__cls": cls}
    if "__slots__" in vars(cls):
        namespace |= {f"__set_{field_name}": vars(cls)[field_name].__set__ for field_name in names}
        stores = [f"    __set_{field_name}(__obj, {field_name})" for field_name in names]
    else:
        stores = [f"    __store(__obj, {field_name!r}, {field_name})" for field_name in names]
    name = f"_trusted_{cls.__name__}"
    lines = [f"def {name}({', '.join(names)}):", "    __obj = __new(__cls)", *stores, "    return __obj"]
    exec("\n".join(lines), namespace)
    return namespace[name]


# The rules on an asset's own fields, each stated once: the constructors
# and updates below call them, and so does the reader, which builds what it
# has checked through the trusted builds. Each raises ValueError.


def _check_text_block(block_id: str) -> None:
    if not block_id:
        raise ValueError("text block id must be non-empty")


def _check_element(elem_id: str, name: str) -> None:
    if not elem_id:
        raise ValueError("element id must be non-empty")
    if not name:
        raise ValueError(f"element {elem_id!r}: name must be non-empty")


def _unique_blocks(elem_id: str, blocks: Iterable[TextBlock]) -> tuple[TextBlock, ...]:
    """``blocks`` as a tuple; raises ValueError if two share an id."""
    blocks = tuple(blocks)
    seen = set()
    for block in blocks:
        if block.id in seen:
            raise ValueError(f"element {elem_id!r}: duplicate text block id {block.id!r}")
        seen.add(block.id)
    return blocks


def _check_reference(ref_id: str, source: str, target: str) -> None:
    if not ref_id:
        raise ValueError("reference id must be non-empty")
    if not source or not target:
        raise ValueError(f"reference {ref_id!r}: source and target must be non-empty")


@dataclass(frozen=True, slots=True)
class TextBlock:
    """One named block of running text inside an element."""

    id: str
    text: str

    def __post_init__(self) -> None:
        _check_text_block(self.id)


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
        _check_element(self.id, self.name)
        object.__setattr__(self, "kind", ElementKind(self.kind))
        object.__setattr__(self, "attributes", dict(self.attributes))
        object.__setattr__(self, "text_blocks", _unique_blocks(self.id, self.text_blocks))

    # The updates below build their result with _new_element, which skips
    # __post_init__: each checks only what it changes, and shares the rest.

    def with_name(self, name: str) -> "ProcessElement":
        _check_element(self.id, name)
        return _new_element(self.id, self.kind, name, self.description, self.attributes, self.text_blocks)

    def with_description(self, description: str) -> "ProcessElement":
        return _new_element(self.id, self.kind, self.name, description, self.attributes, self.text_blocks)

    def with_kind(self, kind: ElementKind) -> "ProcessElement":
        kind = ElementKind(kind)
        return _new_element(self.id, kind, self.name, self.description, self.attributes, self.text_blocks)

    def with_attribute(self, key: str, value: str) -> "ProcessElement":
        attrs = {**self.attributes, key: value}
        return _new_element(self.id, self.kind, self.name, self.description, attrs, self.text_blocks)

    def without_attribute(self, key: str) -> "ProcessElement":
        attrs = {k: v for k, v in self.attributes.items() if k != key}
        return _new_element(self.id, self.kind, self.name, self.description, attrs, self.text_blocks)

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
        return _new_element(self.id, self.kind, self.name, self.description, self.attributes, blocks)

    def with_text_blocks(self, blocks: Iterable[TextBlock]) -> "ProcessElement":
        blocks = _unique_blocks(self.id, blocks)
        return _new_element(self.id, self.kind, self.name, self.description, self.attributes, blocks)


@dataclass(frozen=True)
class Reference:
    """A typed, directed link between two elements."""

    id: str
    kind: ReferenceKind
    source: str
    target: str
    attributes: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_reference(self.id, self.source, self.target)
        object.__setattr__(self, "kind", ReferenceKind(self.kind))
        object.__setattr__(self, "attributes", dict(self.attributes))

    def with_endpoints(self, source: str | None = None, target: str | None = None) -> "Reference":
        source = self.source if source is None else source
        target = self.target if target is None else target
        _check_reference(self.id, source, target)
        return _new_reference(self.id, self.kind, source, target, self.attributes)

    def with_attribute(self, key: str, value: str) -> "Reference":
        return _new_reference(self.id, self.kind, self.source, self.target, {**self.attributes, key: value})

    def without_attribute(self, key: str) -> "Reference":
        attrs = {k: v for k, v in self.attributes.items() if k != key}
        return _new_reference(self.id, self.kind, self.source, self.target, attrs)


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
        return _consistency_issues(self.elements, sorted(self.references.values(), key=lambda r: r.id))

    @cached_property
    def _issues(self) -> tuple[Issue, ...]:
        """The mark: this model's consistency issues, from one :meth:`check_consistency`.

        ``cached_property`` keeps it in the instance ``__dict__``, past the
        frozen ``__setattr__``; no field holds it, so equality, repr,
        :func:`compare_models` and the writer never see it. A merge stores
        ``()`` on the model it returns once its own check passes.
        """
        return tuple(self.check_consistency())


_new_text_block = _trusted(TextBlock)
_new_element = _trusted(ProcessElement)
_new_reference = _trusted(Reference)
_new_model = _trusted(ProcessModel)


def endpoint_problems(
    elements: Mapping[str, ProcessElement], kind: ReferenceKind, source: str | None, target: str | None
) -> list[tuple[str, str, str | None]]:
    """The endpoints a ``kind`` reference from ``source`` to ``target`` may not name.

    One ``(side, endpoint, why)`` per such endpoint, source first, where
    ``side`` is ``"source"`` or ``"target"``. ``why`` says which element kinds
    that side admits (see :data:`REFERENCE_CONSTRAINTS`), or is None when no
    element of ``elements`` has the id. A None endpoint is not checked. Each
    caller words its own issues from these.
    """
    problems = []
    allowed_sources, allowed_targets = REFERENCE_CONSTRAINTS[kind]
    for side, endpoint, allowed in (("source", source, allowed_sources), ("target", target, allowed_targets)):
        if endpoint is None:
            continue
        elem = elements.get(endpoint)
        if elem is None:
            problems.append((side, endpoint, None))
        elif elem.kind not in allowed:
            why = f"{kind.value} {side} must be one of {sorted(k.value for k in allowed)}, got {elem.kind.value}"
            problems.append((side, endpoint, why))
    return problems


def _consistency_issues(elements: Mapping[str, ProcessElement], references: Iterable[Reference]) -> list[Issue]:
    """The consistency issues of ``references`` over ``elements``, in the order the references come.

    One issue per endpoint :func:`endpoint_problems` reports, source first.
    :meth:`ProcessModel.check_consistency` passes every reference of a model
    in id order, and a merge over a consistent base only those it wrote, so
    both word and order their issues alike.
    """
    issues: list[Issue] = []
    for ref in references:
        for side, endpoint, why in endpoint_problems(elements, ref.kind, ref.source, ref.target):
            code = IssueCode.DANGLING_REFERENCE if why is None else IssueCode.KIND_CONSTRAINT_VIOLATION
            issues.append(Issue(code, ref.id, why or f"{side} {endpoint!r} does not resolve to an element"))
    return issues


# -- the working model of a merge --------------------------------------------

class _WorkingModel:
    """A model's maps, copied once and then written in place.

    ``model`` is a :class:`ProcessModel` over the live maps, for reading. It
    changes under its holder, so it leaves only when the writing is done, and
    no one marks it (``ProcessModel._issues``) until then.
    The undo log is one dict per map, ``old_elements`` and ``old_references``:
    each id written since the last :meth:`change_set` maps to its value
    before the first of those writes (``None`` for an id that was absent).
    :meth:`rollback` gives each id that value back, and :meth:`change_set`
    compares it with the live value.
    ``incident`` maps each endpoint id to the ids of the references that name
    it, so :meth:`remove_element` costs the element's degree. It is None
    until the first removal builds it from the live references (a merge that
    removes no element never pays for it), and every write after that keeps
    it up to date.
    """

    __slots__ = (
        "elements", "references", "model", "incident", "old_elements", "old_references", "_recorded_metamodel"
    )

    def __init__(self, model: ProcessModel):
        self.elements = dict(model.elements)
        self.references = dict(model.references)
        self.model = _new_model(model.metamodel, self.elements, self.references)
        self.incident: dict[str, set[str]] | None = None
        self.old_elements: dict[str, ProcessElement | None] = {}
        self.old_references: dict[str, Reference | None] = {}
        self._recorded_metamodel = model.metamodel

    def set_metamodel(self, metamodel: MetamodelVersion) -> None:
        self.model = _new_model(metamodel, self.elements, self.references)

    def _index(self) -> dict[str, set[str]]:
        """The incidence index, built from the live references on first use."""
        incident = self.incident
        if incident is None:
            incident = self.incident = {}
            for ref in self.references.values():
                self._link(ref)
        return incident

    def _link(self, ref: Reference) -> None:
        incident = self.incident
        if incident is None:
            return
        for endpoint in (ref.source, ref.target):
            ids = incident.get(endpoint)
            if ids is None:
                incident[endpoint] = {ref.id}
            else:
                ids.add(ref.id)

    def _unlink(self, ref: Reference) -> None:
        incident = self.incident
        if incident is None:
            return
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
        self.old_elements.setdefault(element_id, elements.get(element_id))
        if element is None:
            del elements[element_id]
        else:
            elements[element_id] = element

    def put_reference(self, reference_id: str, reference: Reference | None) -> None:
        """Set the reference under ``reference_id``, or remove it when ``reference`` is None."""
        old = self.references.get(reference_id)
        self.old_references.setdefault(reference_id, old)
        self._set_reference(reference_id, old, reference)

    def remove_element(self, element_id: str) -> tuple[str, ...]:
        """Remove an element and its incident references; returns their ids, ascending."""
        cascaded = tuple(sorted(self._index().get(element_id, ())))
        for reference_id in cascaded:
            self.put_reference(reference_id, None)
        self.put_element(element_id, None)
        return cascaded

    def rollback(self) -> None:
        """Give every id written since the last change set its value from then back, and clear the log."""
        elements, references = self.elements, self.references
        for element_id, old in self.old_elements.items():
            if old is None:
                elements.pop(element_id, None)  # absent if it was added and removed again
            else:
                elements[element_id] = old
        for reference_id, old in self.old_references.items():
            current = references.get(reference_id)
            if current is not old:
                self._set_reference(reference_id, current, old)
        self.old_elements.clear()
        self.old_references.clear()

    def change_set(self) -> ChangeSet:
        """The change set of the writes since the last one, which clears the log.

        It lists each logged id whose live value differs from its logged one,
        so it costs what was written, not the size of the model, and a
        metamodel change since the last change set lands in this one.
        """
        old_elements, old_references = self.old_elements, self.old_references
        metamodel = self.model.metamodel
        if len(old_elements) + len(old_references) == 1 and metamodel is self._recorded_metamodel:
            # most entries write one id: its change set is built from that one
            # row, with no sorting and no metamodel comparison
            is_element = bool(old_elements)
            ((some_id, before),) = (old_elements if is_element else old_references).items()
            parts = _parts(((some_id, before, (self.elements if is_element else self.references).get(some_id)),))
            if is_element:
                change_set = _new_change_set(*parts, (), (), (), None)
            else:
                change_set = _new_change_set((), (), (), *parts, None)
        else:
            elements, references = self.elements, self.references
            element_rows = [(i, old_elements[i], elements.get(i)) for i in sorted(old_elements)]
            reference_rows = [(i, old_references[i], references.get(i)) for i in sorted(old_references)]
            change_set = _change_set(self._recorded_metamodel, metamodel, element_rows, reference_rows)
        old_elements.clear()
        old_references.clear()
        self._recorded_metamodel = metamodel
        return change_set


# -- change sets -------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ChangeSet:
    """Difference between two models, applicable with :func:`apply_change_set`.

    Added and modified assets are held as they are in the later model (the
    same frozen objects, shared with it), removed ones by id.
    """

    added_elements: tuple[ProcessElement, ...] = ()
    removed_elements: tuple[str, ...] = ()
    modified_elements: tuple[ProcessElement, ...] = ()
    added_references: tuple[Reference, ...] = ()
    removed_references: tuple[str, ...] = ()
    modified_references: tuple[Reference, ...] = ()
    metamodel_change: tuple[MetamodelVersion, MetamodelVersion] | None = None

    def is_empty(self) -> bool:
        return self.change_count() == 0

    def change_count(self) -> int:
        return (
            len(self.added_elements)
            + len(self.removed_elements)
            + len(self.modified_elements)
            + len(self.added_references)
            + len(self.removed_references)
            + len(self.modified_references)
            + (self.metamodel_change is not None)
        )


_new_change_set = _trusted(ChangeSet)


def compare_models(a: ProcessModel, b: ProcessModel) -> ChangeSet:
    """The difference between two models, asset by asset.

    An asset of ``b`` is listed as modified when it differs from the asset
    ``a`` holds under its id. The result is empty exactly when ``a == b``,
    and applying it to ``a`` yields ``b``. All parts are listed in
    ascending id order.
    """

    def rows(old: Mapping, new: Mapping) -> list[tuple]:
        return [(some_id, old.get(some_id), new.get(some_id)) for some_id in sorted(old.keys() | new.keys())]

    return _change_set(
        a.metamodel, b.metamodel, rows(a.elements, b.elements), rows(a.references, b.references)
    )


_Row = tuple[str, ProcessElement | Reference | None, ProcessElement | Reference | None]


def _parts(rows: Sequence[_Row]) -> tuple[tuple, tuple, tuple]:
    """The added assets, removed ids and modified assets of ``rows``."""
    added, removed, modified = [], [], []
    for some_id, before, after in rows:
        # models share unchanged assets, and an asset is equal to itself
        if before is after:
            continue
        if before is None:
            added.append(after)
        elif after is None:
            removed.append(some_id)
        elif before != after:
            modified.append(after)
    return tuple(added), tuple(removed), tuple(modified)


def _change_set(
    old_metamodel: MetamodelVersion,
    new_metamodel: MetamodelVersion,
    element_rows: Sequence[_Row],
    reference_rows: Sequence[_Row],
) -> ChangeSet:
    """The change set of ``(id, before, after)`` rows in ascending id order; ``None`` is absent.

    :func:`compare_models` passes one row per id of either model, and a
    merge's trace entry one per id written since the previous entry.
    """
    metamodel_change = None if old_metamodel == new_metamodel else (old_metamodel, new_metamodel)
    return _new_change_set(*_parts(element_rows), *_parts(reference_rows), metamodel_change)


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
    for elem in change_set.modified_elements:
        if elem.id not in elements:
            raise UnknownIdError(f"cannot modify unknown element {elem.id!r}")
        elements[elem.id] = elem
    for ref in change_set.modified_references:
        if ref.id not in references:
            raise UnknownIdError(f"cannot modify unknown reference {ref.id!r}")
        references[ref.id] = ref
    if change_set.metamodel_change is None:
        return metamodel
    return MetamodelVersion(change_set.metamodel_change[1])

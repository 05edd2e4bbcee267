"""Strict XML reading of models, extensions and catalogs.

Parsing is strict: unknown tags or attributes, missing required attributes,
bad enum values, wrong schema versions, and duplicate ids are all rejected
with :class:`SchemaError` (syntactic problems surface as
:class:`ParseError`). One table, ``_SCHEMA``, holds each tag's required and
allowed attributes and what it may contain: the child tags allowed, or text
only, or nothing; an entry is the same under every parent. One check,
``_checked``, holds a node to that table as the node is visited: its tag
is allowed under its parent, its attributes fit, and its content fits. Text
after a node's end tag (its ``tail``) belongs to the parent, and no tag that
holds child tags holds text, so only whitespace may follow a child. That
is XML's whitespace: space, tab, CR and LF. A no-break space, U+2028 or
U+3000 where no text may stand is unexpected text, as any other character.

Each checked value is built once. A kind, metamodel or atomic kind string
becomes its member by one lookup in a table of members. An element and a
reference are held to the rules their constructors call
(``model._check_element``, ``_check_reference`` and ``_unique_blocks``), in
the constructors' order and with their messages, and are then built, like
exemplars and the model itself, by the trusted builds of
:mod:`procline.model`, with no second check or copy. A model's maps are the
reader's own: ``seen`` has already made every id unique across both. Text
blocks, a catalog's types and steps, and an extension are built by their
public constructors, whose ValueError becomes a SchemaError: a document
holds a few dozen blocks or one extension, and the catalog is read once
per process, so a trusted build of these would save microseconds.

Parsed exemplars share one string per type name and per argument name:
both come from the catalog's fixed vocabulary, so the parser interns them,
and a family of thousands of exemplars holds each name once. Targets and
argument values are model ids and free text, which interning would keep for
the life of the process (on CPython 3.12 an interned string is immortal),
so they are shared through a memo dict instead: each is replaced by the
first equal string the memo holds. The memo lives for one document unless
the caller passes ``parse_extension`` a ``shared`` dict, which then holds
the values of every document parsed with it and is freed with the last
reference to it; a family loader passes one per family.

The canonical writers live in :mod:`procline.xmlio`. A command that only
reads loads this module alone, and this module loads only the errors, the model, the catalog and the family types,
no merge or step engine.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from enum import Enum
from sys import intern
from typing import Any, Callable, Mapping, TypeVar

from .catalog import (
    AtomicKind,
    OperationCatalog,
    OperationExemplar,
    OperationTypeDef,
    StepTemplate,
    _TARGET_KINDS,
    _new_exemplar,
)
from .errors import (
    DuplicateTypeNameError,
    MissingParentDeclarationError,
    ParseError,
    SchemaError,
)
from .family import ExtensionModel
from .model import (
    ElementKind,
    MetamodelVersion,
    ProcessElement,
    ProcessModel,
    Reference,
    ReferenceKind,
    TextBlock,
    _check_element,
    _check_reference,
    _gc_paused,
    _new_element,
    _new_model,
    _new_reference,
    _unique_blocks,
)

SCHEMA_VERSION = "1"


# content kinds of a tag that holds no child tags
_LEAF = "leaf"  # text, no child tags
_EMPTY = "empty"  # neither text nor child tags


def _tag(
    *required: str, optional: tuple[str, ...] = (), content: tuple[str, ...] | str = ()
) -> tuple[tuple[str, ...], frozenset[str], frozenset[str], tuple[str, ...] | str]:
    return required, frozenset(required), frozenset(required + optional), content


# tag -> (required attributes in message order, required set, allowed set,
# content): the content is the tuple of child tags allowed, _LEAF or _EMPTY.
# A tag has the same entry under every parent.
_SCHEMA = {
    "processModel": _tag("schemaVersion", "metamodel", content=("element", "reference")),
    "element": _tag("id", "kind", "name", content=("description", "attribute", "textBlock")),
    "reference": _tag("id", "kind", "source", "target", content=("attribute",)),
    "description": _tag(content=_LEAF),
    "attribute": _tag("key", content=_LEAF),
    "textBlock": _tag("id", content=_LEAF),
    "extensionModel": _tag(
        "schemaVersion", "id", "metamodel", optional=("parent",),
        content=("newElements", "newReferences", "exclusions", "operations"),
    ),
    "newElements": _tag(content=("element",)),
    "newReferences": _tag(content=("reference",)),
    "exclusions": _tag(content=("exclude",)),
    "exclude": _tag("id", content=_EMPTY),
    "operations": _tag(content=("exemplar",)),
    "exemplar": _tag("type", "target", content=("arg",)),
    "arg": _tag("name", content=_LEAF),
    "operationCatalog": _tag("schemaVersion", content=("operationType",)),
    "operationType": _tag(
        "name", "group", "targetKind", "metamodel", optional=("synthetic",), content=("step",)
    ),
    "step": _tag("atomic", "target", content=("arg",)),
}


def _blank(text: str | None) -> bool:
    """Whether ``text`` is absent or holds XML whitespace only.

    ``str.isspace`` also takes U+00A0, U+2028, U+3000 and others. Among the
    ASCII characters a parsed document can hold, it takes exactly space,
    tab, CR and LF, and ``isascii`` costs no pass.
    """
    return not text or (text.isspace() and text.isascii())


def _checked(node: ET.Element, source: str, parent: str | None) -> None:
    """Check that ``node`` may stand under ``parent`` and that its attributes and content fit its tag."""
    tag = node.tag
    if parent is not None:
        if tag not in _SCHEMA[parent][3]:
            raise SchemaError(f"unexpected <{tag}> inside <{parent}>", path=source)
        if not _blank(node.tail):
            raise SchemaError(f"<{parent}> holds unexpected text", path=source)
    ordered, required, allowed, content = _SCHEMA[tag]
    keys = node.attrib.keys()
    if not required <= keys <= allowed:
        for name in ordered:
            if name not in keys:
                raise SchemaError(f"<{tag}> lacks attribute {name!r}", path=source)
        for name in keys:
            if name not in allowed:
                raise SchemaError(f"<{tag}> has unexpected attribute {name!r}", path=source)
    if content is _LEAF:
        if len(node):
            raise SchemaError(f"<{tag}> must not have child tags", path=source)
    elif content is _EMPTY:
        if len(node) or not _blank(node.text):
            raise SchemaError(f"<{tag}> must be empty", path=source)
    elif not _blank(node.text):
        raise SchemaError(f"<{tag}> holds unexpected text", path=source)


def _root_node(text: str | bytes, expected_tag: str, source: str) -> ET.Element:
    # bytes are decoded by expat as their XML declaration says (UTF-8 without one)
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        line = exc.position[0] if exc.position else None
        raise ParseError(str(exc), source=source, line=line) from exc
    except (LookupError, ValueError) as exc:
        # a declared encoding Python lacks, or one expat cannot use
        raise ParseError(f"cannot decode: {exc}", source=source) from exc
    if root.tag != expected_tag:
        raise SchemaError(f"expected <{expected_tag}> document, got <{root.tag}>", path=source)
    _checked(root, source, None)
    version = root.attrib["schemaVersion"]
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"<{root.tag}> declares schemaVersion {version!r}, expected {SCHEMA_VERSION!r}", path=source
        )
    if expected_tag == "extensionModel" and "parent" not in root.attrib:
        raise MissingParentDeclarationError(
            f"extension {root.attrib['id']!r} declares no parent", path=source
        )
    return root


_T = TypeVar("_T")


def _members(kind: type[Enum]) -> dict[str, Any]:
    """Each member of ``kind`` under its value."""
    return {member.value: member for member in kind}


_METAMODELS = _members(MetamodelVersion)
_ELEMENT_KINDS = _members(ElementKind)
_REFERENCE_KINDS = _members(ReferenceKind)
_ATOMIC_KINDS = _members(AtomicKind)


def _enum(members: Mapping[str, _T], value: str, what: str, source: str) -> _T:
    """The member of ``members`` under ``value``, by one lookup; a SchemaError names an unknown one."""
    try:
        return members[value]
    except KeyError:
        raise SchemaError(f"unknown {what} {value!r}", path=source) from None


def _build(make: Callable[..., _T], source: str, /, *values: Any, **fields: Any) -> _T:
    """``make(*values, **fields)``, a constructor or a rule, with its ValueError as a SchemaError."""
    try:
        return make(*values, **fields)
    except ValueError as exc:
        raise SchemaError(str(exc), path=source) from None


# leaf tags that map a name to their text: tag -> (name attribute, what a repeat is called)
_KEYS = {"attribute": ("key", "attribute key"), "arg": ("name", "argument")}


def _keyed(values: dict[str, str], node: ET.Element, owner: str, source: str) -> None:
    """Add the text of the checked leaf ``node`` to ``values`` under its name."""
    key, what = _KEYS[node.tag]
    name = node.attrib[key]
    if name in values:
        raise SchemaError(f"{owner} repeats {what} {name!r}", path=source)
    values[name] = node.text or ""


def _claim_id(seen: set[str], new_id: str, source: str) -> None:
    if new_id in seen:
        raise SchemaError(f"duplicate id {new_id!r} in document", path=source)
    seen.add(new_id)


def _element(node: ET.Element, seen: set[str], source: str) -> ProcessElement:
    attrib = node.attrib
    elem_id = attrib["id"]
    _claim_id(seen, elem_id, source)
    kind = _enum(_ELEMENT_KINDS, attrib["kind"], "element kind", source)
    description: str | None = None
    attributes: dict[str, str] = {}
    blocks: list[TextBlock] = []
    try:  # _build's work, for every rule here at once: elements are most of a model
        for child in node:
            _checked(child, source, "element")
            tag = child.tag
            if tag == "attribute":
                _keyed(attributes, child, f"element {elem_id!r}", source)
            elif tag == "textBlock":
                blocks.append(TextBlock(child.attrib["id"], child.text or ""))
            elif description is None:
                description = child.text or ""
            else:
                raise SchemaError(f"element {elem_id!r} repeats <description>", path=source)
        name = attrib["name"]
        _check_element(elem_id, name)
        text_blocks = _unique_blocks(elem_id, blocks)
    except ValueError as exc:
        raise SchemaError(str(exc), path=source) from None
    return _new_element(elem_id, kind, name, description or "", attributes, text_blocks)


def _reference(node: ET.Element, seen: set[str], source: str) -> Reference:
    attrib = node.attrib
    ref_id = attrib["id"]
    _claim_id(seen, ref_id, source)
    kind = _enum(_REFERENCE_KINDS, attrib["kind"], "reference kind", source)
    attributes: dict[str, str] = {}
    for child in node:
        _checked(child, source, "reference")
        _keyed(attributes, child, f"reference {ref_id!r}", source)
    ref_source, target = attrib["source"], attrib["target"]
    _build(_check_reference, source, ref_id, ref_source, target)
    return _new_reference(ref_id, kind, ref_source, target, attributes)


@_gc_paused
def parse_model(text: str | bytes, *, source: str = "") -> ProcessModel:
    """Read a reference/process model document."""
    root = _root_node(text, "processModel", source)
    metamodel = _enum(_METAMODELS, root.attrib["metamodel"], "metamodel version", source)
    seen: set[str] = set()
    elements: dict[str, ProcessElement] = {}
    references: dict[str, Reference] = {}
    for child in root:
        _checked(child, source, "processModel")
        if child.tag == "element":
            elem = _element(child, seen, source)
            elements[elem.id] = elem
        else:
            ref = _reference(child, seen, source)
            references[ref.id] = ref
    # seen holds every id once, so no key repeats across the maps, and both are this call's own
    return _new_model(metamodel, elements, references)


def _exemplars(section: ET.Element, source: str, memo: dict[str, str]) -> list[OperationExemplar]:
    # exemplars and their args are nearly every node of an extension, so
    # the common case of _checked runs inline here: a node that fails this
    # quicker test goes to _checked, which names what is wrong. A node whose
    # attributes are as many as its tag allows and include the ones it needs
    # holds exactly those; the text tests are _blank's, inline. Type names
    # and argument names are interned, targets and argument values are
    # shared through memo (see the module docstring).
    share = memo.setdefault
    exemplars = []
    for node in section:
        attrib = node.attrib
        type_name, target = attrib.get("type"), attrib.get("target")
        text, tail = node.text, node.tail
        if (
            node.tag != "exemplar"
            or len(attrib) != 2
            or type_name is None
            or target is None
            or (text and not (text.isspace() and text.isascii()))
            or (tail and not (tail.isspace() and tail.isascii()))
        ):
            _checked(node, source, "operations")
        args: dict[str, str] = {}
        for child in node:
            child_attrib = child.attrib
            name, tail = child_attrib.get("name"), child.tail
            if (
                child.tag != "arg"
                or len(child_attrib) != 1
                or name is None
                or len(child)
                or (tail and not (tail.isspace() and tail.isascii()))
            ):
                _checked(child, source, "exemplar")
            if name in args:
                raise SchemaError(f"exemplar of {type_name!r} repeats argument {name!r}", path=source)
            value = child.text or ""
            args[intern(name)] = share(value, value)
        if not (type_name and target):  # __post_init__'s checks, which name the empty one
            _build(OperationExemplar, source, type_name=type_name, target=target)
        exemplars.append(_new_exemplar(intern(type_name), share(target, target), args))  # args is its own
    return exemplars


@_gc_paused
def parse_extension(
    text: str | bytes, *, source: str = "", shared: dict[str, str] | None = None
) -> ExtensionModel:
    """Read an extension model document.

    The ``parent`` attribute is how a variant anchors itself in the family
    tree, so its absence is reported as the dedicated
    :class:`MissingParentDeclarationError`. Exemplar targets and argument
    values are shared through ``shared`` when it is given (one dict for a
    whole family), else through a memo of this document's own.
    """
    root = _root_node(text, "extensionModel", source)
    attrib = root.attrib
    metamodel = _enum(_METAMODELS, attrib["metamodel"], "metamodel version", source)
    seen: set[str] = set()
    sections: dict[str, list] = {}
    for section in root:
        tag = section.tag
        if tag in sections:
            raise SchemaError(f"repeated <{tag}> section", path=source)
        _checked(section, source, "extensionModel")
        if tag == "operations":
            sections[tag] = _exemplars(section, source, {} if shared is None else shared)
            continue
        sections[tag] = items = []
        for child in section:
            _checked(child, source, tag)
            if tag == "newElements":
                items.append(_element(child, seen, source))
            elif tag == "newReferences":
                items.append(_reference(child, seen, source))
            else:
                items.append(child.attrib["id"])
    return _build(
        ExtensionModel,
        source,
        attrib["id"],
        attrib["parent"],
        metamodel,
        tuple(sections.get("newElements", ())),
        tuple(sections.get("newReferences", ())),
        tuple(sections.get("exclusions", ())),
        tuple(sections.get("operations", ())),
    )


@_gc_paused
def parse_catalog(text: str | bytes, *, source: str = "") -> OperationCatalog:
    """Read an operation catalog document."""
    root = _root_node(text, "operationCatalog", source)
    type_defs: list[OperationTypeDef] = []
    for node in root:
        _checked(node, source, "operationCatalog")
        attrib = node.attrib
        synthetic = attrib.get("synthetic", "false")
        if synthetic not in ("true", "false"):
            raise SchemaError(f"synthetic must be 'true' or 'false', got {synthetic!r}", path=source)
        recipe = []
        for step in node:
            _checked(step, source, "operationType")
            atomic = _enum(_ATOMIC_KINDS, step.attrib["atomic"], "atomic kind", source)
            args: dict[str, str] = {}
            for child in step:
                _checked(child, source, "step")
                _keyed(args, child, "step", source)
            recipe.append(StepTemplate(atomic, step.attrib["target"], args))
        target_kind = _enum(_TARGET_KINDS, attrib["targetKind"], "target kind", source)
        metamodel = _enum(_METAMODELS, attrib["metamodel"], "metamodel version", source)
        name, group, steps, is_synthetic = attrib["name"], attrib["group"], tuple(recipe), synthetic == "true"
        type_defs.append(_build(OperationTypeDef, source, name, group, target_kind, metamodel, steps, is_synthetic))
    try:
        return OperationCatalog(type_defs)
    except DuplicateTypeNameError as exc:
        raise DuplicateTypeNameError(f"{source}: {exc}" if source else str(exc)) from None

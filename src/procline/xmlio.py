"""XML reading and writing for models, extensions, catalogs, and traces.

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

Serialization is canonical: UTF-8 text, LF line ends, two-space indent,
elements and references sorted by id, attribute tags sorted by key, text
blocks in model order, CR written as ``&#13;``. Canonical files are a fixed
point of parse-then-serialize, which is what makes them diffable. Each
writer appends finished lines, indents included, to one list and joins it
once; an element or reference is one entry, its lines joined by LF. Each
value is scanned once, for the characters that need escaping (``& < > "``,
LF, CR and tab in attributes; ``& < >`` and CR in text) and for those XML
cannot carry at all; a value holding neither is written as it is, and enum
values (read as ``_value_``) and counts are never scanned. A value holding
a character XML cannot carry raises :class:`IllegalCharacterError`, naming
its output line, instead of producing a broken file.

Elements and references, their attribute maps included, are never changed
in place: an update builds a new object. So :func:`serialize_model` keeps
each one's block on the object the first time it writes that block without
error, and joins kept blocks in id order. A merged model shares the assets
its merge left alone with its base, and formats only the ones it made. The
kept block is no field: ``==``, ``repr`` and ``compare_models`` do not see
it, and it lives in the instance's own attribute storage (no new gc-tracked
object on CPython 3.11).

Statistics exports (CSV and plain text) live here too, next to the other
output formats.
"""

from __future__ import annotations

import csv
import io
import re
import xml.etree.ElementTree as ET
from typing import Any, Callable, Mapping, TypeVar

from .analytics import UsageReport, top_n, unused_report
from .atomic import AtomicKind
from .catalog import (
    OperationCatalog,
    OperationExemplar,
    OperationTypeDef,
    StepTemplate,
    _new_exemplar,
)
from .errors import (
    DuplicateTypeNameError,
    IllegalCharacterError,
    MissingParentDeclarationError,
    ParseError,
    SchemaError,
)
from .merge import ExtensionModel, MergeTrace, TraceEntryKind
from .model import (
    ElementKind,
    MetamodelVersion,
    ProcessElement,
    ProcessModel,
    Reference,
    ReferenceKind,
    TextBlock,
)

SCHEMA_VERSION = "1"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

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


def _enum(kind: Callable[[str], _T], value: str, what: str, source: str) -> _T:
    try:
        return kind(value)
    except ValueError:
        raise SchemaError(f"unknown {what} {value!r}", path=source) from None


def _target_kind(value: str) -> ElementKind | ReferenceKind:
    try:
        return ElementKind(value)
    except ValueError:
        return ReferenceKind(value)


def _build(cls: Callable[..., _T], source: str, /, **fields: Any) -> _T:
    """``cls(**fields)``, with the ValueError of a check on the values as a SchemaError."""
    try:
        return cls(**fields)
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
    kind = _enum(ElementKind, attrib["kind"], "element kind", source)
    description: str | None = None
    attributes: dict[str, str] = {}
    blocks: list[TextBlock] = []
    for child in node:
        _checked(child, source, "element")
        if child.tag == "attribute":
            _keyed(attributes, child, f"element {elem_id!r}", source)
        elif child.tag == "textBlock":
            blocks.append(_build(TextBlock, source, id=child.attrib["id"], text=child.text or ""))
        elif description is None:
            description = child.text or ""
        else:
            raise SchemaError(f"element {elem_id!r} repeats <description>", path=source)
    return _build(
        ProcessElement,
        source,
        id=elem_id,
        kind=kind,
        name=attrib["name"],
        description=description or "",
        attributes=attributes,
        text_blocks=tuple(blocks),
    )


def _reference(node: ET.Element, seen: set[str], source: str) -> Reference:
    attrib = node.attrib
    ref_id = attrib["id"]
    _claim_id(seen, ref_id, source)
    kind = _enum(ReferenceKind, attrib["kind"], "reference kind", source)
    attributes: dict[str, str] = {}
    for child in node:
        _checked(child, source, "reference")
        _keyed(attributes, child, f"reference {ref_id!r}", source)
    return _build(
        Reference,
        source,
        id=ref_id,
        kind=kind,
        source=attrib["source"],
        target=attrib["target"],
        attributes=attributes,
    )


def parse_model(text: str | bytes, *, source: str = "") -> ProcessModel:
    """Read a reference/process model document."""
    root = _root_node(text, "processModel", source)
    metamodel = _enum(MetamodelVersion, root.attrib["metamodel"], "metamodel version", source)
    seen: set[str] = set()
    elements: list[ProcessElement] = []
    references: list[Reference] = []
    for child in root:
        _checked(child, source, "processModel")
        if child.tag == "element":
            elements.append(_element(child, seen, source))
        else:
            references.append(_reference(child, seen, source))
    return ProcessModel.of(metamodel, elements, references)


def _exemplars(section: ET.Element, source: str) -> list[OperationExemplar]:
    # exemplars and their args are nearly every node of an extension, so
    # the common case of _checked runs inline here: a node that fails this
    # quicker test goes to _checked, which names what is wrong (the text
    # tests are _blank's, inline)
    exemplar_attributes, arg_attributes = _SCHEMA["exemplar"][2], _SCHEMA["arg"][2]
    exemplars = []
    for node in section:
        attrib = node.attrib
        text, tail = node.text, node.tail
        if (
            node.tag != "exemplar"
            or attrib.keys() != exemplar_attributes
            or (text and not (text.isspace() and text.isascii()))
            or (tail and not (tail.isspace() and tail.isascii()))
        ):
            _checked(node, source, "operations")
        args: dict[str, str] = {}
        for child in node:
            tail = child.tail
            if (
                child.tag != "arg"
                or child.attrib.keys() != arg_attributes
                or len(child)
                or (tail and not (tail.isspace() and tail.isascii()))
            ):
                _checked(child, source, "exemplar")
            name = child.attrib["name"]
            if name in args:
                raise SchemaError(
                    f"exemplar of {attrib['type']!r} repeats argument {name!r}", path=source
                )
            args[name] = child.text or ""
        type_name, target = attrib["type"], attrib["target"]
        if type_name and target:  # the checks of __post_init__; and args is this node's own
            exemplars.append(_new_exemplar(type_name, target, args))
        else:
            exemplars.append(_build(OperationExemplar, source, type_name=type_name, target=target, args=args))
    return exemplars


def parse_extension(text: str | bytes, *, source: str = "") -> ExtensionModel:
    """Read an extension model document.

    The ``parent`` attribute is how a variant anchors itself in the family
    tree, so its absence is reported as the dedicated
    :class:`MissingParentDeclarationError`.
    """
    root = _root_node(text, "extensionModel", source)
    attrib = root.attrib
    metamodel = _enum(MetamodelVersion, attrib["metamodel"], "metamodel version", source)
    seen: set[str] = set()
    sections: dict[str, list] = {}
    for section in root:
        tag = section.tag
        if tag in sections:
            raise SchemaError(f"repeated <{tag}> section", path=source)
        _checked(section, source, "extensionModel")
        if tag == "operations":
            sections[tag] = _exemplars(section, source)
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
        variant_id=attrib["id"],
        parent_id=attrib["parent"],
        metamodel=metamodel,
        new_elements=tuple(sections.get("newElements", ())),
        new_references=tuple(sections.get("newReferences", ())),
        exclusions=tuple(sections.get("exclusions", ())),
        exemplars=tuple(sections.get("operations", ())),
    )


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
            atomic = _enum(AtomicKind, step.attrib["atomic"], "atomic kind", source)
            args: dict[str, str] = {}
            for child in step:
                _checked(child, source, "step")
                _keyed(args, child, "step", source)
            recipe.append(StepTemplate(atomic=atomic, target=step.attrib["target"], args=args))
        type_defs.append(
            _build(
                OperationTypeDef,
                source,
                name=attrib["name"],
                group=attrib["group"],
                target_kind=_enum(_target_kind, attrib["targetKind"], "target kind", source),
                defining_metamodel=_enum(MetamodelVersion, attrib["metamodel"], "metamodel version", source),
                recipe=tuple(recipe),
                synthetic=synthetic == "true",
            )
        )
    try:
        return OperationCatalog(type_defs)
    except DuplicateTypeNameError as exc:
        raise DuplicateTypeNameError(f"{source}: {exc}" if source else str(exc)) from None


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

_DECLARATION = '<?xml version="1.0" encoding="UTF-8"?>'

# characters XML 1.0 cannot carry, not even as character references
_ILLEGAL = "\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff"
_NOT_XML_CHAR = re.compile(f"[{_ILLEGAL}]")
# values holding none of these are written as they are; any other goes to
# the slow path, which escapes it or rejects a character XML cannot carry
_ATTR_SPECIAL = re.compile(f'[&<>"\n\r\t{_ILLEGAL}]').search
_TEXT_SPECIAL = re.compile(f"[&<>\r{_ILLEGAL}]").search


class _Unwritable(Exception):
    """A value holds a character XML cannot carry; :func:`_document` names it."""


# a value escaper: _attr and _text, or their counterparts that let anything through
_Escaper = Callable[[str], str]


# the output of xml.sax.saxutils.escape and quoteattr, without importing
# saxutils: it loads urllib, http and email, a third of the CLI's import time
def _escape(data: str) -> str:
    """``&``, ``<`` and ``>`` escaped for XML character data."""
    return data.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _quoteattr(data: str) -> str:
    """``data`` escaped and quoted as an XML attribute value, LF, CR and tab included."""
    data = _escape(data).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in data:
        return f'"{data}"'
    if "'" not in data:
        return f"'{data}'"
    return '"{}"'.format(data.replace('"', "&quot;"))


def _escape_text(data: str) -> str:
    """``data`` as element text: escaped, and CR as ``&#13;`` (a literal CR reads back as LF)."""
    return _escape(data).replace("\r", "&#13;")


def _attr(value: str) -> str:
    """``_quoteattr(value)``; a value without special characters is only quoted."""
    if _ATTR_SPECIAL(value) is None:
        return f'"{value}"'
    if _NOT_XML_CHAR.search(value) is not None:
        raise _Unwritable
    return _quoteattr(value)


def _text(value: str) -> str:
    """``_escape_text(value)``; a value without special characters is written as it is."""
    if _TEXT_SPECIAL(value) is None:
        return value
    if _NOT_XML_CHAR.search(value) is not None:
        raise _Unwritable
    return _escape_text(value)


def _document(build: Callable[[Any, _Escaper, _Escaper], list[str]], subject: Any) -> str:
    """The lines ``build(subject, attr, text)`` writes, joined by LF, as one document.

    The writers take the value escapers as arguments. With :func:`_attr`
    and :func:`_text` each value is scanned once; when one holds a character
    XML cannot carry, the document is written again with escapers that let
    it through, so the error names the first such character and its output
    line.
    """
    try:
        return "\n".join(build(subject, _attr, _text)) + "\n"
    except _Unwritable:
        pass
    text = "\n".join(build(subject, _quoteattr, _escape_text)) + "\n"
    bad = _NOT_XML_CHAR.search(text)
    start = bad.start()
    line_no = text.count("\n", 0, start) + 1
    line = text[text.rfind("\n", 0, start) + 1 : text.find("\n", start)].strip()
    raise IllegalCharacterError(
        f"character U+{ord(bad.group()):04X} cannot be written as XML "
        f"(output line {line_no}: {line[:80]!r})"
    )


def _keyed_lines(
    pad: str, tag: str, key: str, values: Mapping[str, str], attr: _Escaper, text: _Escaper
) -> str:
    """One ``<tag key="name">value</tag>`` line per entry of ``values``, sorted by name, each after an LF."""
    block = ""
    for name in sorted(values):
        value = values[name]
        head = f"\n{pad}<{tag} {key}={attr(name)}"
        block += f"{head}>{text(value)}</{tag}>" if value else head + "/>"
    return block


def _element_block(elem: ProcessElement, pad: str, attr: _Escaper, text: _Escaper) -> str:
    """The lines of ``elem`` indented by ``pad``, as one string."""
    head = f'{pad}<element id={attr(elem.id)} kind="{elem.kind._value_}" name={attr(elem.name)}'
    description, attributes, blocks = elem.description, elem.attributes, elem.text_blocks
    if not (description or attributes or blocks):
        return head + "/>"
    inner = pad + "  "
    block = head + ">"
    if description:
        block += f"\n{inner}<description>{text(description)}</description>"
    if attributes:
        block += _keyed_lines(inner, "attribute", "key", attributes, attr, text)
    for text_block in blocks:
        opening = f"\n{inner}<textBlock id={attr(text_block.id)}"
        block += f"{opening}>{text(text_block.text)}</textBlock>" if text_block.text else opening + "/>"
    return f"{block}\n{pad}</element>"


def _reference_block(ref: Reference, pad: str, attr: _Escaper, text: _Escaper) -> str:
    """The lines of ``ref`` indented by ``pad``, as one string."""
    head = (
        f'{pad}<reference id={attr(ref.id)} kind="{ref.kind._value_}"'
        f" source={attr(ref.source)} target={attr(ref.target)}"
    )
    if not ref.attributes:
        return head + "/>"
    attributes = _keyed_lines(pad + "  ", "attribute", "key", ref.attributes, attr, text)
    return f"{head}>{attributes}\n{pad}</reference>"


# the attribute under which serialize_model keeps an element's or reference's
# block, written by the checking escapers _attr and _text
_KEPT_BLOCK = "_xmlio_block"


def serialize_model(model: ProcessModel) -> str:
    return _document(_model_lines, model)


def _model_lines(model: ProcessModel, attr: _Escaper, text: _Escaper) -> list[str]:
    head = f'<processModel schemaVersion="{SCHEMA_VERSION}" metamodel="{model.metamodel._value_}"'
    if not model.elements and not model.references:
        return [_DECLARATION, head + "/>"]
    lines = [_DECLARATION, head + ">"]
    # a kept block is the same for every pair of escapers, but only a block
    # the checking ones wrote is known to hold no character XML cannot carry
    keep = attr is _attr
    for assets, write in ((model.elements, _element_block), (model.references, _reference_block)):
        for some_id in sorted(assets):
            asset = assets[some_id]
            block = getattr(asset, _KEPT_BLOCK, None)
            if block is None:
                block = write(asset, "  ", attr, text)
                if keep:
                    object.__setattr__(asset, _KEPT_BLOCK, block)
            lines.append(block)
    lines.append("</processModel>")
    return lines


def serialize_extension(ext: ExtensionModel) -> str:
    return _document(_extension_lines, ext)


def _extension_lines(ext: ExtensionModel, attr: _Escaper, text: _Escaper) -> list[str]:
    head = (
        f'<extensionModel schemaVersion="{SCHEMA_VERSION}" id={attr(ext.variant_id)}'
        f' parent={attr(ext.parent_id)} metamodel="{ext.metamodel._value_}"'
    )
    if not (ext.new_elements or ext.new_references or ext.exclusions or ext.exemplars):
        return [_DECLARATION, head + "/>"]
    lines = [_DECLARATION, head + ">"]
    if ext.new_elements:
        lines.append("  <newElements>")
        lines.extend(_element_block(elem, "    ", attr, text) for elem in ext.new_elements)
        lines.append("  </newElements>")
    if ext.new_references:
        lines.append("  <newReferences>")
        lines.extend(_reference_block(ref, "    ", attr, text) for ref in ext.new_references)
        lines.append("  </newReferences>")
    if ext.exclusions:
        lines.append("  <exclusions>")
        lines.extend(f"    <exclude id={attr(excluded_id)}/>" for excluded_id in ext.exclusions)
        lines.append("  </exclusions>")
    if ext.exemplars:
        lines.append("  <operations>")
        for exemplar in ext.exemplars:
            head = f"    <exemplar type={attr(exemplar.type_name)} target={attr(exemplar.target)}"
            if exemplar.args:
                args = _keyed_lines("      ", "arg", "name", exemplar.args, attr, text)
                lines.append(f"{head}>{args}\n    </exemplar>")
            else:
                lines.append(head + "/>")
        lines.append("  </operations>")
    lines.append("</extensionModel>")
    return lines


def serialize_catalog(catalog: OperationCatalog) -> str:
    return _document(_catalog_lines, catalog)


def _catalog_lines(catalog: OperationCatalog, attr: _Escaper, text: _Escaper) -> list[str]:
    head = f'<operationCatalog schemaVersion="{SCHEMA_VERSION}"'
    if len(catalog) == 0:
        return [_DECLARATION, head + "/>"]
    lines = [_DECLARATION, head + ">"]
    for type_def in catalog:
        lines.append(
            f"  <operationType name={attr(type_def.name)} group={attr(type_def.group)}"
            f' targetKind="{type_def.target_kind._value_}"'
            f' metamodel="{type_def.defining_metamodel._value_}"'
            + (' synthetic="true">' if type_def.synthetic else ">")
        )
        for step in type_def.recipe:
            head = f'    <step atomic="{step.atomic._value_}" target={attr(step.target)}'
            if step.args:
                args = _keyed_lines("      ", "arg", "name", step.args, attr, text)
                lines.append(f"{head}>{args}\n    </step>")
            else:
                lines.append(head + "/>")
        lines.append("  </operationType>")
    lines.append("</operationCatalog>")
    return lines


def serialize_trace(trace: MergeTrace) -> str:
    """Trace metadata as XML. Change sets are runtime data and stay out."""
    return _document(_trace_lines, trace)


def _trace_lines(trace: MergeTrace, attr: _Escaper, text: _Escaper) -> list[str]:
    head = f'<mergeTrace schemaVersion="{SCHEMA_VERSION}"'
    if trace.final_metamodel is not None:
        head += f' finalMetamodel="{trace.final_metamodel._value_}"'
    if not trace.entries:
        return [_DECLARATION, head + "/>"]
    lines = [_DECLARATION, head + ">"]
    for entry in trace.entries:
        kind = entry.kind
        line = (
            f'  <entry kind="{kind._value_}" variant={attr(entry.variant_id)}'
            f" subject={attr(entry.subject)}"
        )
        if entry.target:
            line += f" target={attr(entry.target)}"
        if kind is TraceEntryKind.EXCLUSION_APPLIED:
            line += f' cascadeCount="{entry.cascade_count}"'
        if kind is TraceEntryKind.OPERATION_EXECUTED:
            line += f' stepCount="{entry.step_count}"'
        if entry.detail:
            line += f" detail={attr(entry.detail)}"
        lines.append(line + "/>")
    lines.append("</mergeTrace>")
    return lines


def render_trace_text(trace: MergeTrace) -> str:
    """One line per trace entry, for terminal output."""
    final = trace.final_metamodel._value_ if trace.final_metamodel else "unchanged"
    lines = [f"merge trace: {len(trace.entries)} entries, final metamodel {final}"]
    for entry in trace.entries:
        parts = [f"[{entry.variant_id}] {entry.kind._value_} {entry.subject}"]
        if entry.target:
            parts.append(f"on {entry.target}")
        if entry.kind is TraceEntryKind.EXCLUSION_APPLIED:
            parts.append(f"(cascaded references: {entry.cascade_count})")
        if entry.kind is TraceEntryKind.OPERATION_EXECUTED:
            steps = "step" if entry.step_count == 1 else "steps"
            parts.append(f"({entry.step_count} {steps})")
        if entry.detail:
            parts.append(f"- {entry.detail}")
        lines.append("  " + " ".join(parts))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# statistics exports
# ---------------------------------------------------------------------------

CSV_HEADER = ("variantId", "operationGroup", "operationType", "definingMetamodel", "exemplarCount")

UNKNOWN_GROUP = "(unknown)"


def export_stats_csv(report: UsageReport) -> str:
    """Usage statistics as CSV, one row per variant and operation type.

    Types without exemplars keep their zero rows so the output schema does
    not depend on the data. Exemplars of types missing from the catalog get
    the reserved group ``(unknown)`` and an empty metamodel column. Rows are
    sorted by variant, group and type.
    """
    # the catalog types in row order, sorted once for every variant
    types = sorted(
        (group, name, report.type_metamodels[name].value) for name, group in report.type_groups.items()
    )
    unknown: dict[str, list[tuple[str, str, str, str, int]]] = {}
    for (variant_id, type_name), count in report.unknown_types.items():
        unknown.setdefault(variant_id, []).append((variant_id, UNKNOWN_GROUP, type_name, "", count))
    cells = report.cells
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(CSV_HEADER)
    for variant_id in sorted(report.variant_ids):
        rows = [(variant_id, group, name, mm, cells[variant_id, name]) for group, name, mm in types]
        if variant_id in unknown:
            rows += unknown[variant_id]
            rows.sort()  # (group, type) is unique, so the later columns never decide
        writer.writerows(rows)
    return buffer.getvalue()


def _format_count_table(rows: list[tuple[str, str]], indent: str = "  ") -> list[str]:
    width = max(len(label) for label, _ in rows)
    return [f"{indent}{label.ljust(width)}  {value}" for label, value in rows]


def render_stats_text(report: UsageReport) -> str:
    """Usage statistics as a small plain-text report."""
    defined = report.defined_per_metamodel
    total_defined = sum(defined.values())
    per_mm = ", ".join(f"{mm.value}: {defined[mm]}" for mm in MetamodelVersion)
    unused = unused_report(report)
    lines = [
        f"defined operation types: {total_defined} ({per_mm})",
        f"used: {len(report.used_types)}  "
        f"unused: {unused.overall.unused_count} ({unused.overall.fraction:.1%})",
        "",
        "exemplars per variant:",
    ]
    variant_rows = [(v, str(report.variant_totals[v])) for v in report.variant_ids]
    variant_rows.append(("total", str(report.total_exemplars)))
    lines.extend(_format_count_table(variant_rows))
    leaders = top_n(report)
    if leaders:
        lines.append("")
        lines.append("most used types:")
        leader_rows = [
            (
                name,
                f"{count}  ({report.type_metamodels[name].value}, {report.type_groups[name]})",
            )
            for name, count in leaders
        ]
        lines.extend(_format_count_table(leader_rows))
    if report.unknown_types:
        lines.append("")
        lines.append("exemplars of unknown types:")
        unknown_rows = [
            (f"{variant_id}: {type_name}", str(count))
            for (variant_id, type_name), count in sorted(report.unknown_types.items())
        ]
        lines.extend(_format_count_table(unknown_rows))
    return "\n".join(lines) + "\n"

"""Canonical XML writing for models, extensions, catalogs and traces.

The readers live in :mod:`procline.xmlread`; this module re-exports
:func:`parse_model`, :func:`parse_extension`, :func:`parse_catalog` and
``SCHEMA_VERSION`` from there, so both halves are reachable here.

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

The statistics exports live in :mod:`procline.analytics`; their four
public names still read from here (PEP 562).
"""

from __future__ import annotations

import re
from typing import Any, Callable, Mapping

from .catalog import OperationCatalog
from .errors import DuplicateIdError, IllegalCharacterError
from .family import ExtensionModel
from .merge import MergeTrace, TraceEntryKind
from .model import ProcessElement, ProcessModel, Reference
from .xmlread import SCHEMA_VERSION, parse_catalog, parse_extension, parse_model  # noqa: F401  (re-exported)

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
    """The canonical document of ``ext``.

    A document names each new element and reference id once, and its parser
    rejects a repeat, so an extension that repeats one raises
    :class:`DuplicateIdError` here rather than being written as a document
    that does not parse back. A merge reports such an extension as a
    ``DuplicateId`` issue.
    """
    seen: set[str] = set()
    for asset in (*ext.new_elements, *ext.new_references):
        if asset.id in seen:
            raise DuplicateIdError(f"extension {ext.variant_id!r} declares id {asset.id!r} more than once")
        seen.add(asset.id)
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


def __getattr__(name: str):
    # the statistics exports live in procline.analytics; read here, they
    # import it on first use (PEP 562), so a merge, which loads this
    # module, loads no statistics
    if name in ("CSV_HEADER", "UNKNOWN_GROUP", "export_stats_csv", "render_stats_text"):
        from . import analytics

        return getattr(analytics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Correctness checks that do not trust the program under test.

Outputs are read back with ElementTree (or ``csv``) and compared against
``tests/oracle.py``'s plain-dict merge, against the counts the paper
publishes, against an ElementTree count of the input files, or against a
property every merge must have. Each ``check_*`` function returns a list
of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import re
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

from gen import split_copy

#: operation types the paper's catalog defines, and how many of them the
#: study family never uses
DEFINED_TYPES = 69
UNUSED_TYPES = 25


# -- XML to the oracle's plain dicts ----------------------------------------

def _plain_element(node):
    desc = node.find("description")
    return {
        "kind": node.get("kind"),
        "name": node.get("name"),
        "description": "" if desc is None else desc.text or "",
        "attributes": {a.get("key"): a.text or "" for a in node.findall("attribute")},
        "textBlocks": [[b.get("id"), b.text or ""] for b in node.findall("textBlock")],
    }


def _plain_reference(node):
    return {
        "kind": node.get("kind"),
        "source": node.get("source"),
        "target": node.get("target"),
        "attributes": {a.get("key"): a.text or "" for a in node.findall("attribute")},
    }


def plain_model(text):
    root = ET.fromstring(text)
    return {
        "metamodel": root.get("metamodel"),
        "elements": {n.get("id"): _plain_element(n) for n in root.findall("element")},
        "references": {n.get("id"): _plain_reference(n) for n in root.findall("reference")},
    }


def _section(root, tag, child):
    node = root.find(tag)
    return [] if node is None else node.findall(child)


def plain_extension(text):
    root = ET.fromstring(text)
    return {
        "variant": root.get("id"),
        "parent": root.get("parent"),
        "metamodel": root.get("metamodel"),
        "newElements": [
            {"id": n.get("id"), **_plain_element(n)} for n in _section(root, "newElements", "element")
        ],
        "newReferences": [
            {"id": n.get("id"), **_plain_reference(n)}
            for n in _section(root, "newReferences", "reference")
        ],
        "exclusions": [n.get("id") for n in _section(root, "exclusions", "exclude")],
        "exemplars": [
            {
                "type": n.get("type"),
                "target": n.get("target"),
                "args": {a.get("name"): a.text or "" for a in n.findall("arg")},
            }
            for n in _section(root, "operations", "exemplar")
        ],
    }


def plain_catalog(text, reference_kinds):
    plain = {}
    for op in ET.fromstring(text):
        plain[op.get("name")] = {
            "group": op.get("group"),
            "targetKind": op.get("targetKind"),
            "targetIsReference": op.get("targetKind") in reference_kinds,
            "metamodel": op.get("metamodel"),
            "recipe": [
                {
                    "atomic": s.get("atomic"),
                    "target": s.get("target"),
                    "args": {a.get("name"): a.text or "" for a in s.findall("arg")},
                }
                for s in op.findall("step")
            ],
        }
    return plain


def oracle_derivations(oracle, family_dir, chains, catalog_text):
    """{variant: (plain model, [(kind, subject)])} by folding the oracle's merge."""
    family_dir = Path(family_dir)
    catalog = plain_catalog(catalog_text, set(oracle.REF_RULES))
    root = plain_model((family_dir / "root.xml").read_text(encoding="utf-8"))
    result = {}
    for variant, chain in chains.items():
        model, pairs = root, []
        for name in chain:
            ext = plain_extension((family_dir / name).read_text(encoding="utf-8"))
            outcome, model, trace = oracle.merge(model, ext, catalog)
            if outcome != "ok":
                raise ValueError(f"oracle cannot derive {variant!r}: {outcome} at {name}")
            pairs.extend(trace)
        result[variant] = (model, [tuple(p) for p in pairs])
    return result


# -- derived models and traces ------------------------------------------------

def trace_entries(text):
    return [dict(n.attrib) for n in ET.fromstring(text).findall("entry")]


def _copies(model, tag, k):
    """Split a plain model into k suffix-stripped copies."""
    problems = []
    copies = [
        {"metamodel": model["metamodel"], "elements": {}, "references": {}} for _ in range(k)
    ]
    for elem_id, elem in model["elements"].items():
        base, index = split_copy(elem_id, tag)
        if index >= k:
            problems.append(f"element {elem_id!r} belongs to no copy")
            continue
        copies[index]["elements"][base] = elem
    for ref_id, ref in model["references"].items():
        base, index = split_copy(ref_id, tag)
        source, s_index = split_copy(ref["source"], tag)
        target, t_index = split_copy(ref["target"], tag)
        if not index == s_index == t_index < k:
            problems.append(f"reference {ref_id!r} crosses copies")
            continue
        copies[index]["references"][base] = {**ref, "source": source, "target": target}
    return copies, problems


def _trace_copies(entries, tag, k):
    copies = [[] for _ in range(k)]
    for entry in entries:
        key = entry.get("target") or entry["subject"]
        base, index = split_copy(key, tag)
        if index >= k:
            return None
        stripped = dict(entry)
        for name in ("subject", "target"):
            if name in stripped:
                stripped[name] = split_copy(stripped[name], tag)[0]
        if index and "detail" in stripped:
            stripped["detail"] = stripped["detail"].replace(key[len(base):], "")
        copies[index].append(stripped)
    return copies


def check_derived(variant, expected, model_text, trace_text, tag="", k=1):
    """A derived model and trace against the oracle, copy by copy.

    Every copy of a scaled result, with its suffix stripped, must equal the
    oracle's model of the unscaled family, and its trace entries must equal
    the oracle's (kind, subject) pairs; all copies must carry the same
    stripped entries (disjoint copies must not interact).
    """
    want_model, want_pairs = expected
    try:
        model = plain_model(model_text)
        entries = trace_entries(trace_text)
    except ET.ParseError as exc:
        return [f"{variant}: output does not parse: {exc}"]
    copies, problems = _copies(model, tag, k)
    for index, copy in enumerate(copies):
        if copy != want_model:
            problems.append(f"{variant}: copy {index} of the model differs from the oracle")
    traces = _trace_copies(entries, tag, k)
    if traces is None:
        return problems + [f"{variant}: a trace entry belongs to no copy"]
    for index, copy in enumerate(traces):
        if [(e["kind"], e["subject"]) for e in copy] != want_pairs:
            problems.append(f"{variant}: copy {index} of the trace differs from the oracle")
        elif copy != traces[0]:
            problems.append(f"{variant}: copy {index} of the trace differs from copy 0")
    return problems


def check_replay(procline, variant, root, model, trace):
    """``MergeTrace.replay(root)`` must rebuild the derived model."""
    if trace.replay(root) != model:
        return [f"{variant}: replaying the trace does not rebuild the merged model"]
    return []


def check_fixed_point(procline, variant, text):
    """serialize(parse(serialized)) must give the same bytes back."""
    again = procline.serialize_model(procline.parse_model(text))
    if again != text:
        return [f"{variant}: serialize -> parse -> serialize is not a fixed point"]
    return []


# -- usage statistics -----------------------------------------------------------

def count_exemplars(paths):
    """{(variant, type): n} from a plain ElementTree count of <exemplar> tags."""
    counts = Counter()
    variants = []
    for path in paths:
        root = ET.parse(path).getroot()
        variants.append(root.get("id"))
        for node in root.iter("exemplar"):
            counts[(root.get("id"), node.get("type"))] += 1
    return counts, variants


def check_stats_csv(text, counts, variants):
    """Per-(variant, type) cells against the independent count, and the
    paper's 69 defined and 25 unused operation types."""
    try:
        rows = list(csv.DictReader(io.StringIO(text)))
        cells = {(r["variantId"], r["operationType"]): int(r["exemplarCount"]) for r in rows}
    except (KeyError, ValueError, csv.Error) as exc:
        return [f"stats CSV does not read: {exc}"]
    problems = []
    if len(cells) != len(rows):
        problems.append("stats CSV repeats a (variant, type) row")
    types = {t for _, t in cells}
    if {v for v, _ in cells} != set(variants):
        problems.append("stats CSV does not list exactly the input variants")
    if len(types) != DEFINED_TYPES:
        problems.append(f"stats CSV lists {len(types)} operation types, not {DEFINED_TYPES}")
    if len(cells) != len(types) * len(set(variants)):
        problems.append("stats CSV is not one row per variant and type")
    for key in set(cells) | set(counts):
        if cells.get(key, 0) != counts.get(key, 0):
            problems.append(f"stats CSV counts {cells.get(key, 0)} for {key}, files hold {counts.get(key, 0)}")
            break
    totals = Counter()
    for (_, type_name), count in cells.items():
        totals[type_name] += count
    unused = sum(1 for t in types if totals[t] == 0)
    if unused != UNUSED_TYPES:
        problems.append(f"stats CSV shows {unused} unused types, not {UNUSED_TYPES}")
    return problems


_VARIANT_ROW = re.compile(r"^  (\S+)\s+(\d+)$")


def check_stats_text(text, counts, variants):
    """Header figures and the per-variant exemplar totals of the text report."""
    lines = text.splitlines()
    problems = []
    if not lines or not lines[0].startswith(f"defined operation types: {DEFINED_TYPES} "):
        problems.append("stats text does not report the defined operation types")
    if not any(line.endswith(f"unused: {UNUSED_TYPES} ({UNUSED_TYPES / DEFINED_TYPES:.1%})") for line in lines):
        problems.append("stats text does not report the unused operation types")
    try:
        start = lines.index("exemplars per variant:") + 1
        end = lines.index("", start)
    except ValueError:
        return problems + ["stats text has no per-variant table"]
    seen = {}
    for line in lines[start:end]:
        match = _VARIANT_ROW.match(line)
        if match is None:
            return problems + [f"stats text row does not read: {line!r}"]
        seen[match.group(1)] = int(match.group(2))
    want = Counter()
    for (variant, _), count in counts.items():
        want[variant] += count
    expected = {v: want[v] for v in variants}
    expected["total"] = sum(want.values())
    if seen != expected:
        problems.append("stats text per-variant totals differ from the files")
    return problems

"""Input generators for the benchmark: the scaled family and the wide family.

Both work on the bundled XML fixtures with ElementTree and write canonical
XML with their own small writer, so the program under test only ever sees
the generated files. Neither imports procline.

* ``scaled_family(data_dir, k, seed)`` replicates the study family k times as disjoint
  copies inside one reference model and one extension per variant. Copy 0
  keeps the original ids; copy i > 0 appends ``~<tag><i>`` to every id, to
  every reference endpoint, exclusion, exemplar target, and to every
  exemplar argument the catalog feeds into an id position (``newRole``,
  ``refId``, ``module``). The two-letter tag comes from the seed.
* ``wide_family(data_dir, n, draws, seed)`` is the study family plus ``n`` extra
  variants ``W000``..; each extra variant holds ``draws`` exemplars drawn
  uniformly, with replacement, from every exemplar the study extensions
  declare. The extra variants are only counted, never derived.

Run as a script it writes one family into a directory and prints a JSON
manifest (root file, extension files, each variant's chain, copy tag, k)::

    python3 perfbench/gen.py --family scaled --k 2 --seed 1 --data src/procline/data --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
import string
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.sax.saxutils import escape, quoteattr

ROOT_FILE = "root.xml"
CATALOG_FILE = "catalog.xml"
#: extension files of the study family, in the order the CLI gets them
STUDY_FILES = {
    "A": "ext-a.xml",
    "B": "ext-b.xml",
    "Bund": "ext-bund.xml",
    "C": "ext-c.xml",
    "D": "ext-d.xml",
    "Mask": "ext-masking.xml",
}
#: step arguments that name an element or reference id
ID_STEP_ARGS = ("newSource", "newTarget", "refId", "source", "target")
COPY_MARK = "~"


# -- canonical writer (mirrors the documented on-disk format) ---------------

def _attrs(pairs):
    return "".join(f" {name}={quoteattr(value)}" for name, value in pairs)


def _leaf(tag, pairs, text):
    if text == "":
        return f"<{tag}{_attrs(pairs)}/>"
    return f"<{tag}{_attrs(pairs)}>{escape(text)}</{tag}>"


def _container(lines, depth, tag, pairs, body):
    pad = "  " * depth
    if not body:
        lines.append(f"{pad}<{tag}{_attrs(pairs)}/>")
        return
    lines.append(f"{pad}<{tag}{_attrs(pairs)}>")
    lines.extend(body)
    lines.append(f"{pad}</{tag}>")


def _element_lines(node, depth):
    pad = "  " * (depth + 1)
    body = []
    desc = node.find("description")
    if desc is not None and (desc.text or "") != "":
        body.append(pad + _leaf("description", (), desc.text))
    attrs = {a.get("key"): a.text or "" for a in node.findall("attribute")}
    for key in sorted(attrs):
        body.append(pad + _leaf("attribute", [("key", key)], attrs[key]))
    for block in node.findall("textBlock"):
        body.append(pad + _leaf("textBlock", [("id", block.get("id"))], block.text or ""))
    lines = []
    pairs = [(n, node.get(n)) for n in ("id", "kind", "name")]
    _container(lines, depth, "element", pairs, body)
    return lines


def _reference_lines(node, depth):
    pad = "  " * (depth + 1)
    attrs = {a.get("key"): a.text or "" for a in node.findall("attribute")}
    body = [pad + _leaf("attribute", [("key", k)], attrs[k]) for k in sorted(attrs)]
    lines = []
    pairs = [(n, node.get(n)) for n in ("id", "kind", "source", "target")]
    _container(lines, depth, "reference", pairs, body)
    return lines


def _finish(lines):
    return "\n".join(['<?xml version="1.0" encoding="UTF-8"?>', *lines]) + "\n"


def write_model(metamodel, elements, references):
    """Canonical model document from ElementTree ``element``/``reference`` nodes."""
    pairs = [("schemaVersion", "1"), ("metamodel", metamodel)]
    body = []
    for node in sorted(elements, key=lambda n: n.get("id")):
        body.extend(_element_lines(node, 1))
    for node in sorted(references, key=lambda n: n.get("id")):
        body.extend(_reference_lines(node, 1))
    lines = []
    _container(lines, 0, "processModel", pairs, body)
    return _finish(lines)


def write_extension(variant, parent, metamodel, elements=(), references=(), exclusions=(), exemplars=()):
    """Canonical extension document; sections keep document order."""
    pairs = [("schemaVersion", "1"), ("id", variant), ("parent", parent), ("metamodel", metamodel)]
    body = []
    sections = (
        ("newElements", [line for n in elements for line in _element_lines(n, 2)]),
        ("newReferences", [line for n in references for line in _reference_lines(n, 2)]),
        ("exclusions", [f"    <exclude{_attrs([('id', i)])}/>" for i in exclusions]),
        ("operations", [line for x in exemplars for line in _exemplar_lines(x)]),
    )
    for tag, section in sections:
        if section:
            _container(body, 1, tag, (), section)
    lines = []
    _container(lines, 0, "extensionModel", pairs, body)
    return _finish(lines)


def _exemplar_lines(node):
    args = {a.get("name"): a.text or "" for a in node.findall("arg")}
    body = ["      " + _leaf("arg", [("name", n)], args[n]) for n in sorted(args)]
    lines = []
    _container(lines, 2, "exemplar", [("type", node.get("type")), ("target", node.get("target"))], body)
    return lines


# -- reading the bundled family ---------------------------------------------

def _section(root, tag, child):
    node = root.find(tag)
    return [] if node is None else node.findall(child)


def read_extension(path):
    root = ET.parse(path).getroot()
    return {
        "id": root.get("id"),
        "parent": root.get("parent"),
        "metamodel": root.get("metamodel"),
        "elements": _section(root, "newElements", "element"),
        "references": _section(root, "newReferences", "reference"),
        "exclusions": [n.get("id") for n in _section(root, "exclusions", "exclude")],
        "exemplars": _section(root, "operations", "exemplar"),
    }


def id_arguments(catalog_path):
    """Per operation type, the exemplar arguments its recipe uses as ids."""
    found = {}
    for op in ET.parse(catalog_path).getroot():
        names = set()
        for step in op.findall("step"):
            values = [step.get("target")] + [
                a.text or "" for a in step.findall("arg") if a.get("name") in ID_STEP_ARGS
            ]
            for value in values:
                if value.startswith("{") and value.endswith("}") and value != "{target}":
                    names.add(value[1:-1])
        found[op.get("name")] = names
    return found


# -- the scaled family --------------------------------------------------------

def copy_suffix(tag, index):
    return "" if index == 0 else f"{COPY_MARK}{tag}{index}"


def split_copy(some_id, tag):
    """(original id, copy index) of an id written by :func:`scaled_family`."""
    base, mark, tail = some_id.rpartition(COPY_MARK)
    if mark and tail.startswith(tag) and tail[len(tag):].isdigit():
        return base, int(tail[len(tag):])
    return some_id, 0


def seed_tag(seed):
    rng = random.Random(f"tag-{seed}")
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(2))


def _renamed(node, suffix, id_attrs, id_args=()):
    clone = ET.Element(node.tag, dict(node.attrib))
    clone.text = node.text
    for name in id_attrs:
        clone.set(name, node.get(name) + suffix)
    for child in node:
        sub = ET.SubElement(clone, child.tag, dict(child.attrib))
        sub.text = child.text
        if child.tag == "arg" and child.get("name") in id_args:
            sub.text = (child.text or "") + suffix
    return clone


def scaled_family(data_dir, k, seed):
    """{file name: text} of the study family replicated k times."""
    data_dir = Path(data_dir)
    tag = seed_tag(seed)
    suffixes = [copy_suffix(tag, i) for i in range(k)]
    id_args = id_arguments(data_dir / CATALOG_FILE)
    root = ET.parse(data_dir / ROOT_FILE).getroot()
    elements = [_renamed(n, s, ("id",)) for s in suffixes for n in root.findall("element")]
    references = [
        _renamed(n, s, ("id", "source", "target")) for s in suffixes for n in root.findall("reference")
    ]
    files = {ROOT_FILE: write_model(root.get("metamodel"), elements, references)}
    for name in STUDY_FILES.values():
        ext = read_extension(data_dir / name)
        files[name] = write_extension(
            ext["id"],
            ext["parent"],
            ext["metamodel"],
            [_renamed(n, s, ("id",)) for s in suffixes for n in ext["elements"]],
            [_renamed(n, s, ("id", "source", "target")) for s in suffixes for n in ext["references"]],
            [i + s for s in suffixes for i in ext["exclusions"]],
            [
                _renamed(n, s, ("target",), id_args.get(n.get("type"), ()))
                for s in suffixes
                for n in ext["exemplars"]
            ],
        )
    return files


# -- the wide family ----------------------------------------------------------

def wide_family(data_dir, n, draws, seed):
    """{file name: text}: the study family plus n drawn, count-only variants."""
    data_dir = Path(data_dir)
    files = {ROOT_FILE: (data_dir / ROOT_FILE).read_text(encoding="utf-8")}
    pool = []
    for name in STUDY_FILES.values():
        files[name] = (data_dir / name).read_text(encoding="utf-8")
        pool.extend(read_extension(data_dir / name)["exemplars"])
    rng = random.Random(f"wide-{seed}")
    for index in range(n):
        picked = [pool[rng.randrange(len(pool))] for _ in range(draws)]
        variant = f"W{index:03d}"
        files[f"ext-{variant.lower()}.xml"] = write_extension(
            variant, "root", "1.3B", exemplars=picked
        )
    return files


def chains(family_files):
    """Extension files each derivable variant needs, root's child first."""
    parents = {}
    files = {}
    for name in STUDY_FILES.values():
        node = ET.fromstring(family_files[name])
        parents[node.get("id")] = node.get("parent")
        files[node.get("id")] = name
    result = {}
    for variant in STUDY_FILES:
        chain, current = [], variant
        while current != "root":
            chain.insert(0, files[current])
            current = parents[current]
        result[variant] = chain
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", choices=("study", "scaled", "wide"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--data", required=True, help="directory of the bundled fixtures")
    parser.add_argument("--out", required=True)
    parser.add_argument("--k", type=int, default=1, help="copies (scaled family)")
    parser.add_argument("--variants", type=int, default=0, help="drawn variants (wide family)")
    parser.add_argument("--draws", type=int, default=0, help="exemplars per drawn variant")
    args = parser.parse_args(argv)
    if args.family == "wide":
        files = wide_family(args.data, args.variants, args.draws, args.seed)
    else:
        files = scaled_family(args.data, args.k if args.family == "scaled" else 1, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8", newline="")
    manifest = {
        "root": ROOT_FILE,
        "extensions": [n for n in files if n != ROOT_FILE],
        "chains": chains(files),
        "tag": seed_tag(args.seed) if args.family == "scaled" else "",
        "k": args.k if args.family == "scaled" else 1,
    }
    json.dump(manifest, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Straight-line reference interpreter used as a merge oracle.

Everything here works on plain dicts and deliberately avoids the package's
engine code paths. Models, catalogs, and extensions are converted to plain
data at the boundary; the merge semantics themselves (argument checks,
atomic step effects, cascades, gating, conflicts, consistency) are restated
from scratch so the two implementations can disagree.
"""

import copy
import re
from decimal import Decimal, InvalidOperation

METAMODEL_RANK = {"1.3": 0, "1.3B": 1, "1.3Z": 2}

CONTAINER_KINDS = {"ProjectTypeVariant", "ProcessModule"}

# reference kind -> (allowed source kinds, allowed target kinds)
REF_RULES = {
    "Responsibility": ({"WorkProduct"}, {"Role"}),
    "SupportingRole": ({"WorkProduct"}, {"Role"}),
    "TopicAssignment": ({"WorkProduct"}, {"Topic"}),
    "CreatingDependency": ({"Activity"}, {"WorkProduct"}),
    "TailoringDependency": ({"ProcessModule"}, {"ProcessModule"}),
    "ModuleContainment": (
        {"ProcessModule"},
        {"Discipline", "WorkProduct", "Topic", "SubTopic", "Activity", "Task", "Role", "DecisionGate"},
    ),
    "ConfigurationEntry": ({"ProjectTypeVariant"}, {"ProcessModule"}),
    "LiteratureLink": ({"Chapter", "Section", "Topic", "WorkProduct"}, {"LiteratureReference"}),
    "MethodLink": ({"Activity", "Task"}, {"MethodReference"}),
    "ToolLink": ({"Activity", "Task"}, {"ToolReference"}),
    "MappingLink": (
        {"MappingEntry"},
        {"Discipline", "WorkProduct", "Topic", "Activity", "Task", "Role", "DecisionGate", "ProcessModule"},
    ),
}

_PLACEHOLDER = re.compile(r"^\{([A-Za-z][A-Za-z0-9]*)\}$")


# -- converters (dataclasses in, plain dicts out) ---------------------------

def model_to_plain(model):
    return {
        "metamodel": str(model.metamodel.value),
        "elements": {
            e.id: {
                "kind": e.kind.value,
                "name": e.name,
                "description": e.description,
                "attributes": dict(e.attributes),
                "textBlocks": [[b.id, b.text] for b in e.text_blocks],
            }
            for e in model.elements.values()
        },
        "references": {
            r.id: {
                "kind": r.kind.value,
                "source": r.source,
                "target": r.target,
                "attributes": dict(r.attributes),
            }
            for r in model.references.values()
        },
    }


def catalog_to_plain(catalog):
    plain = {}
    for t in catalog:
        plain[t.name] = {
            "group": t.group,
            "targetKind": t.target_kind.value,
            "targetIsReference": t.targets_reference,
            "metamodel": t.defining_metamodel.value,
            "recipe": [
                {"atomic": s.atomic.value, "target": s.target, "args": dict(s.args)}
                for s in t.recipe
            ],
        }
    return plain


def extension_to_plain(ext):
    return {
        "variant": ext.variant_id,
        "parent": ext.parent_id,
        "metamodel": ext.metamodel.value,
        "newElements": [
            {
                "id": e.id,
                "kind": e.kind.value,
                "name": e.name,
                "description": e.description,
                "attributes": dict(e.attributes),
                "textBlocks": [[b.id, b.text] for b in e.text_blocks],
            }
            for e in ext.new_elements
        ],
        "newReferences": [
            {
                "id": r.id,
                "kind": r.kind.value,
                "source": r.source,
                "target": r.target,
                "attributes": dict(r.attributes),
            }
            for r in ext.new_references
        ],
        "exclusions": list(ext.exclusions),
        "exemplars": [
            {"type": x.type_name, "target": x.target, "args": dict(x.args)}
            for x in ext.exemplars
        ],
    }


# -- small helpers -----------------------------------------------------------

def field_key(args):
    field = args.get("field", "")
    if field == "textBlock":
        return "textBlock:" + args.get("blockId", "")
    if field == "attribute":
        return "attribute:" + args.get("key", "")
    return field


def _find_block(elem, block_id):
    for pair in elem["textBlocks"]:
        if pair[0] == block_id:
            return pair
    return None


def _has_id(plain, some_id):
    return some_id in plain["elements"] or some_id in plain["references"]


def check_consistency(plain):
    bad = []
    for ref_id in sorted(plain["references"]):
        ref = plain["references"][ref_id]
        sources, targets = REF_RULES[ref["kind"]]
        for side, allowed in (("source", sources), ("target", targets)):
            endpoint = ref[side]
            elem = plain["elements"].get(endpoint)
            if elem is None:
                bad.append(("DanglingReference", ref_id))
            elif elem["kind"] not in allowed:
                bad.append(("KindConstraintViolation", ref_id))
    return bad


# -- atomic steps ------------------------------------------------------------

def _check_text_field(plain, step):
    """Shared ReplaceText/AddText checks; returns (code, subject) pairs."""
    out = []
    args = step["args"]
    field = args.get("field")
    if not field:
        out.append(("MissingArgument", step["target"]))
    elif field not in ("description", "textBlock", "attribute"):
        out.append(("IllegalTarget", step["target"]))
    elif field == "textBlock" and not args.get("blockId"):
        out.append(("MissingArgument", step["target"]))
    elif field == "attribute" and not args.get("key"):
        out.append(("MissingArgument", step["target"]))
    if "text" not in args:
        out.append(("MissingArgument", step["target"]))
    if out:
        return out
    target = step["target"]
    if target in plain["elements"]:
        elem = plain["elements"][target]
        if field == "textBlock" and _find_block(elem, args["blockId"]) is None:
            out.append(("FieldNotFound", target))
        elif field == "attribute" and args["key"] not in elem["attributes"]:
            out.append(("FieldNotFound", target))
    elif target in plain["references"]:
        if field != "attribute":
            out.append(("IllegalTarget", target))
        elif args["key"] not in plain["references"][target]["attributes"]:
            out.append(("FieldNotFound", target))
    else:
        out.append(("UnknownId", target))
    return out


def _check_element_target(plain, step):
    target = step["target"]
    if target in plain["elements"]:
        return []
    if target in plain["references"]:
        return [("IllegalTarget", target)]
    return [("UnknownId", target)]


def _check_reference_target(plain, step):
    target = step["target"]
    if target in plain["references"]:
        return []
    if target in plain["elements"]:
        return [("IllegalTarget", target)]
    return [("UnknownId", target)]


def _check_endpoint(step, ref_kind, side, elem_kind):
    sources, targets = REF_RULES[ref_kind]
    allowed = sources if side == "source" else targets
    if elem_kind in allowed:
        return []
    return [("IllegalTarget", step["target"])]


def check_step(plain, step):
    """Mirror of the engine's per-step validation, as (code, subject) pairs."""
    kind = step["atomic"]
    args = step["args"]
    target = step["target"]
    if kind == "RenameElement":
        if not args.get("newName"):
            return [("MissingArgument", target)]
        return _check_element_target(plain, step)
    if kind in ("ReplaceText", "AddText"):
        out = _check_text_field(plain, step)
        if kind == "AddText":
            position = args.get("position")
            if not position:
                out.append(("MissingArgument", target))
            elif position not in ("prefix", "postfix"):
                out.append(("IllegalTarget", target))
        return out
    if kind == "SwapReferences":
        out = _check_reference_target(plain, step)
        new_source = args.get("newSource")
        new_target = args.get("newTarget")
        if not new_source and not new_target:
            out.append(("MissingArgument", target))
        if out:
            return out
        ref = plain["references"][target]
        for side, endpoint in (("source", new_source), ("target", new_target)):
            if endpoint is None:
                continue
            elem = plain["elements"].get(endpoint)
            if elem is None:
                out.append(("UnknownId", target))
            else:
                out.extend(_check_endpoint(step, ref["kind"], side, elem["kind"]))
        return out
    if kind == "RemoveElement":
        return _check_element_target(plain, step)
    if kind == "RemoveReference":
        return _check_reference_target(plain, step)
    if kind == "AddReference":
        out = []
        for name in ("refId", "refKind", "source", "target"):
            if not args.get(name):
                out.append(("MissingArgument", target))
        if not _has_id(plain, target):
            out.append(("UnknownId", target))
        if out:
            return out
        if args["refKind"] not in REF_RULES:
            return [("IllegalTarget", target)]
        if _has_id(plain, args["refId"]):
            out.append(("DuplicateId", args["refId"]))
        for side in ("source", "target"):
            elem = plain["elements"].get(args[side])
            if elem is None:
                out.append(("UnknownId", target))
            else:
                out.extend(_check_endpoint(step, args["refKind"], side, elem["kind"]))
        return out
    if kind == "ChangeAttribute":
        out = []
        if not args.get("key"):
            out.append(("MissingArgument", target))
        if "value" not in args:
            out.append(("MissingArgument", target))
        if not _has_id(plain, target):
            out.append(("UnknownId", target))
        return out
    if kind == "MoveElement":
        out = []
        if not args.get("newOrderingNumber"):
            out.append(("MissingArgument", target))
        else:
            try:
                finite = Decimal(args["newOrderingNumber"]).is_finite()
            except InvalidOperation:
                finite = False
            if not finite:
                out.append(("IllegalTarget", target))
        return out + _check_element_target(plain, step)
    raise AssertionError("unhandled atomic kind " + kind)


def run_step(plain, step):
    """Apply one already-checked step; returns a fresh plain model."""
    plain = copy.deepcopy(plain)
    kind = step["atomic"]
    args = step["args"]
    target = step["target"]
    if kind == "RenameElement":
        plain["elements"][target]["name"] = args["newName"]
        return plain
    if kind in ("ReplaceText", "AddText"):
        def combined(current):
            if kind == "ReplaceText":
                return args["text"]
            if args["position"] == "prefix":
                return args["text"] + current
            return current + args["text"]

        field = args["field"]
        if target in plain["references"]:
            attrs = plain["references"][target]["attributes"]
            attrs[args["key"]] = combined(attrs[args["key"]])
            return plain
        elem = plain["elements"][target]
        if field == "description":
            elem["description"] = combined(elem["description"])
        elif field == "textBlock":
            pair = _find_block(elem, args["blockId"])
            pair[1] = combined(pair[1])
        else:
            elem["attributes"][args["key"]] = combined(elem["attributes"][args["key"]])
        return plain
    if kind == "SwapReferences":
        ref = plain["references"][target]
        if args.get("newSource"):
            ref["source"] = args["newSource"]
        if args.get("newTarget"):
            ref["target"] = args["newTarget"]
        return plain
    if kind == "RemoveElement":
        del plain["elements"][target]
        for ref_id in [
            r for r, ref in plain["references"].items()
            if ref["source"] == target or ref["target"] == target
        ]:
            del plain["references"][ref_id]
        return plain
    if kind == "RemoveReference":
        del plain["references"][target]
        return plain
    if kind == "AddReference":
        plain["references"][args["refId"]] = {
            "kind": args["refKind"],
            "source": args["source"],
            "target": args["target"],
            "attributes": {},
        }
        return plain
    if kind == "ChangeAttribute":
        if target in plain["references"]:
            plain["references"][target]["attributes"][args["key"]] = args["value"]
        else:
            plain["elements"][target]["attributes"][args["key"]] = args["value"]
        return plain
    if kind == "MoveElement":
        plain["elements"][target]["attributes"]["orderingNumber"] = args["newOrderingNumber"]
        return plain
    raise AssertionError("unhandled atomic kind " + kind)


# -- exemplars ---------------------------------------------------------------

def recipe_placeholders(type_def):
    names = set()
    for template in type_def["recipe"]:
        for value in [template["target"]] + list(template["args"].values()):
            match = _PLACEHOLDER.match(value)
            if match and match.group(1) != "target":
                names.add(match.group(1))
    return names


def expand(plain_catalog, exemplar):
    type_def = plain_catalog[exemplar["type"]]

    def fill(value):
        match = _PLACEHOLDER.match(value)
        if not match:
            return value
        if match.group(1) == "target":
            return exemplar["target"]
        return exemplar["args"][match.group(1)]

    return [
        {
            "atomic": template["atomic"],
            "target": fill(template["target"]),
            "args": {k: fill(v) for k, v in template["args"].items()},
        }
        for template in type_def["recipe"]
    ]


def check_exemplar(plain_catalog, plain_model, exemplar):
    """Mirror of the engine's exemplar validation, as (code, subject) pairs."""
    type_def = plain_catalog.get(exemplar["type"])
    if type_def is None:
        return [("UnknownOperationType", exemplar["type"])]
    out = []
    if METAMODEL_RANK[type_def["metamodel"]] > METAMODEL_RANK[plain_model["metamodel"]]:
        out.append(("MetamodelGate", exemplar["type"]))
    target = exemplar["target"]
    if type_def["targetIsReference"]:
        ref = plain_model["references"].get(target)
        if ref is None:
            code = "TypeMismatch" if target in plain_model["elements"] else "UnknownTargetId"
            out.append((code, target))
        elif ref["kind"] != type_def["targetKind"]:
            out.append(("TypeMismatch", target))
    else:
        elem = plain_model["elements"].get(target)
        if elem is None:
            code = "TypeMismatch" if target in plain_model["references"] else "UnknownTargetId"
            out.append((code, target))
        elif elem["kind"] != type_def["targetKind"]:
            out.append(("TypeMismatch", target))
    for name in recipe_placeholders(type_def):
        if name not in exemplar["args"]:
            out.append(("MissingArgument", exemplar["type"]))
    if out:
        return out
    simulated = plain_model
    for step in expand(plain_catalog, exemplar):
        step_issues = check_step(simulated, step)
        if step_issues:
            return step_issues
        simulated = run_step(simulated, step)
    return []


# -- the merge itself --------------------------------------------------------

def merge(plain_base, plain_ext, plain_catalog, last_wins=False):
    """Merge one extension the slow, obvious way.

    Returns ("ok", model, trace) with trace as (kind, subject) pairs,
    ("invalid", issue set), or ("conflict", None). Mirrors the engine's
    phase order: assets, exclusions, exemplars.
    """
    issues = set()
    trace = []
    working = copy.deepcopy(plain_base)
    if METAMODEL_RANK[plain_ext["metamodel"]] > METAMODEL_RANK[working["metamodel"]]:
        working["metamodel"] = plain_ext["metamodel"]

    for elem in plain_ext["newElements"]:
        if _has_id(working, elem["id"]):
            issues.add(("DuplicateId", elem["id"]))
            continue
        working["elements"][elem["id"]] = {
            "kind": elem["kind"],
            "name": elem["name"],
            "description": elem["description"],
            "attributes": dict(elem["attributes"]),
            "textBlocks": [list(pair) for pair in elem["textBlocks"]],
        }
        trace.append(("AssetAdded", elem["id"]))
    for ref in plain_ext["newReferences"]:
        if _has_id(working, ref["id"]):
            issues.add(("DuplicateId", ref["id"]))
            continue
        ref_issues = set()
        sources, targets = REF_RULES[ref["kind"]]
        for side, allowed in (("source", sources), ("target", targets)):
            elem = working["elements"].get(ref[side])
            if elem is None:
                ref_issues.add(("DanglingReference", ref["id"]))
            elif elem["kind"] not in allowed:
                ref_issues.add(("KindConstraintViolation", ref["id"]))
        if ref_issues:
            issues |= ref_issues
            continue
        working["references"][ref["id"]] = {
            "kind": ref["kind"],
            "source": ref["source"],
            "target": ref["target"],
            "attributes": dict(ref["attributes"]),
        }
        trace.append(("AssetAdded", ref["id"]))

    added_kinds = {elem["kind"] for elem in plain_ext["newElements"]}
    for excluded in plain_ext["exclusions"]:
        if excluded in working["elements"]:
            kind = working["elements"][excluded]["kind"]
            working = run_step(
                working, {"atomic": "RemoveElement", "target": excluded, "args": {}}
            )
            trace.append(("ExclusionApplied", excluded))
            if kind in CONTAINER_KINDS and kind in added_kinds:
                trace.append(("UntypedChange", excluded))
        elif excluded in working["references"]:
            del working["references"][excluded]
            trace.append(("ExclusionApplied", excluded))
        else:
            issues.add(("UnknownId", excluded))

    replaced = {}
    for exemplar in plain_ext["exemplars"]:
        found = check_exemplar(plain_catalog, working, exemplar)
        if found:
            issues |= set(found)
            continue
        steps = expand(plain_catalog, exemplar)
        for step in steps:
            if step["atomic"] != "ReplaceText":
                continue
            location = (step["target"], field_key(step["args"]))
            if location in replaced:
                if not last_wins:
                    return ("conflict", None, None)
                trace.append(("UntypedChange", exemplar["type"]))
        for step in steps:
            if step["atomic"] == "ReplaceText":
                replaced[(step["target"], field_key(step["args"]))] = exemplar["type"]
            working = run_step(working, step)
        trace.append(("OperationExecuted", exemplar["type"]))

    if issues:
        return ("invalid", issues, None)
    dirty = check_consistency(working)
    if dirty:
        return ("invalid", set(dirty), None)
    return ("ok", working, trace)


def resolve_chain(plain_extensions, leaf, root_id="root"):
    """The extensions from the root's child down to ``leaf``, or why there are none.

    Returns ``("ok", chain)``, or ``("unknown-variant", None)``,
    ``("missing-parent", None)`` or ``("cycle", None)``. A chain names each
    variant once, so a walk up the parents that is longer than the family
    without reaching the root goes round.
    """
    by_id = {ext["variant"]: ext for ext in plain_extensions}
    if leaf not in by_id:
        return ("unknown-variant", None)
    chain = [by_id[leaf]]
    while chain[0]["parent"] != root_id:
        if chain[0]["parent"] not in by_id:
            return ("missing-parent", None)
        if len(chain) == len(by_id):
            return ("cycle", None)
        chain.insert(0, by_id[chain[0]["parent"]])
    return ("ok", chain)


def merge_chain(plain_root, plain_extensions, leaf, plain_catalog, last_wins=False, root_id="root"):
    """Fold :func:`merge` over the chain of ``leaf``, the root's child first.

    ``plain_extensions`` is the whole family. A chain that does not resolve
    gives the reason as its outcome. Each link merges over the model the
    previous one returned, and its own consistency check covers the whole
    result. The first link that does not merge gives the outcome; otherwise
    the traces are concatenated.
    """
    outcome, chain = resolve_chain(plain_extensions, leaf, root_id)
    if outcome != "ok":
        return (outcome, None, None)
    working, trace = plain_root, []
    for plain_ext in chain:
        outcome, model, link_trace = merge(working, plain_ext, plain_catalog, last_wins)
        if outcome != "ok":
            return (outcome, model, None)
        working = model
        trace.extend(link_trace)
    return ("ok", working, trace)


# -- usage statistics --------------------------------------------------------

def usage_counts(plain_catalog, plain_extensions):
    """Count every declared exemplar, one nested loop, all cells present.

    Keys mirror the usage report: per type, per (variant, type), per
    (variant, group, metamodel), per variant, and per (variant, type) for
    type names the catalog lacks. Unknown ones count toward their variant.
    """
    variants = sorted(ext["variant"] for ext in plain_extensions)
    groups = sorted({t["group"] for t in plain_catalog.values()})
    per_type = {name: 0 for name in plain_catalog}
    cells = {}
    matrix = {}
    for variant in variants:
        for name in plain_catalog:
            cells[(variant, name)] = 0
        for group in groups:
            for metamodel in METAMODEL_RANK:
                matrix[(variant, group, metamodel)] = 0
    totals = {variant: 0 for variant in variants}
    unknown = {}
    for ext in plain_extensions:
        variant = ext["variant"]
        for exemplar in ext["exemplars"]:
            totals[variant] += 1
            name = exemplar["type"]
            type_def = plain_catalog.get(name)
            if type_def is None:
                unknown[(variant, name)] = unknown.get((variant, name), 0) + 1
                continue
            per_type[name] += 1
            cells[(variant, name)] += 1
            matrix[(variant, type_def["group"], type_def["metamodel"])] += 1
    return {
        "per_type": per_type,
        "cells": cells,
        "matrix": matrix,
        "totals": totals,
        "unknown": unknown,
    }

"""Seeded random models, extensions, and edits shared across the test suite.

Every function takes an explicit ``random.Random`` so any failure reproduces
from its seed. Construction is biased toward well-formed output; the paths
that produce broken input do so deliberately and say what they broke. The
bookkeeping that tracks what earlier choices removed or replaced is a light
simulation, just enough to keep the valid-aiming paths mostly valid; the
oracle, not this module, decides what an input actually means.

Text holds tabs, carriage returns and line feeds, which the canonical XML
must carry unchanged, but no other control characters: XML cannot carry
those at all, and serialization rejects them.
"""

import dataclasses
import itertools
import random
import sys
from pathlib import Path

from procline import model as model_module
from procline.catalog import AtomicKind, OperationExemplar
from procline.family import ExtensionModel, VariantSet
from procline.model import (
    CONFIGURATION_CONTAINER_KINDS,
    REFERENCE_CONSTRAINTS,
    ElementKind,
    MetamodelVersion,
    ProcessElement,
    ProcessModel,
    Reference,
    ReferenceKind,
    TextBlock,
)
from procline.xmlread import parse_extension, parse_model

_WORDS = (
    "analysis", "baseline", "draft", "review", "handover", "estimate",
    "Pruefung", "Abnahme", "Entwurf", "Freigabe", "Zulieferung",
    "scope & detail", "a <short> note", 'the "final" cut', "it's done",
    "line\rbreak", "crlf\r\nend", "tab\tstop",
    "Qualität", "Übergabe", "café", "two words",
)

_NAME_WORDS = (
    "Review", "Handover", "Baseline", "Estimate", "Audit", "Draft",
    "Abnahme", "Freigabe", "Zulieferung", "Planung", "Q&A", "V-Check",
)


def random_name(rng: random.Random) -> str:
    return " ".join(rng.choice(_NAME_WORDS) for _ in range(rng.randint(1, 3)))


def random_text(rng: random.Random, allow_empty: bool = True) -> str:
    if allow_empty and rng.random() < 0.1:
        return ""
    text = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(1, 10)))
    if rng.random() < 0.15:
        text = text.replace(" ", "\n", 1)
    return text


_NON_FINITE = ("NaN", "sNaN", "Infinity", "-Infinity")


def random_decimal(rng: random.Random, *, finite: bool = False) -> str:
    if not finite and rng.random() < 0.05:
        # Decimal parses these too, but they are no ordering number
        return rng.choice(_NON_FINITE)
    whole = rng.randint(0, 99)
    if rng.random() < 0.4:
        return f"{whole}.{rng.randint(0, 9)}"
    return str(whole)


_BLOCK_RICH_KINDS = (ElementKind.SECTION, ElementKind.CHAPTER)

# text block ids may hold any character but must be non-empty: these hold
# whitespace, which the XML writer and every change set must carry unchanged
_BLOCK_IDS = ("b1", "b 2", "b\t3")
_FRESH_BLOCK_IDS = ("b\n7", " ", "\t")

# kinds guaranteed to appear so extensions always find targets to aim at
_GUARANTEED_KINDS = (
    ElementKind.SECTION,
    ElementKind.ROLE,
    ElementKind.WORK_PRODUCT,
    ElementKind.TOPIC,
    ElementKind.PROCESS_MODULE,
    ElementKind.PROCESS_MODULE,
    ElementKind.PROJECT_TYPE_VARIANT,
    ElementKind.DISCIPLINE,
)


def random_element(rng: random.Random, elem_id: str, kind: ElementKind) -> ProcessElement:
    attributes = {}
    if kind in (ElementKind.SECTION, ElementKind.DISCIPLINE, ElementKind.SUB_TOPIC):
        if rng.random() < 0.8:
            attributes["orderingNumber"] = random_decimal(rng)
    if kind is ElementKind.ROLE and rng.random() < 0.8:
        attributes["roleClass"] = rng.choice(("responsible", "supporting", "informed"))
    if kind is ElementKind.WORK_PRODUCT and rng.random() < 0.5:
        attributes["discipline"] = random_name(rng)
    if rng.random() < 0.15:
        attributes["note"] = random_text(rng)
    blocks = ()
    if kind in _BLOCK_RICH_KINDS:
        blocks = tuple(
            TextBlock(_BLOCK_IDS[i], random_text(rng)) for i in range(rng.randint(1, 3))
        )
    elif rng.random() < 0.1:
        blocks = (TextBlock("b1", random_text(rng)),)
    return ProcessElement(
        id=elem_id,
        kind=kind,
        name=random_name(rng),
        description=random_text(rng) if rng.random() < 0.7 else "",
        attributes=attributes,
        text_blocks=blocks,
    )


def _reference_attributes(rng: random.Random, kind: ReferenceKind) -> dict:
    if kind is ReferenceKind.TAILORING_DEPENDENCY:
        return {"name": random_name(rng), "description": random_text(rng, allow_empty=False)}
    if kind is ReferenceKind.CREATING_DEPENDENCY:
        return {"name": random_name(rng)}
    if rng.random() < 0.1:
        return {"note": random_text(rng)}
    return {}


def random_model(
    rng: random.Random, max_elements: int = 50, metamodel: MetamodelVersion | None = None
) -> ProcessModel:
    """A consistent model with broad kind coverage, at most ``max_elements`` big."""
    if metamodel is None:
        metamodel = rng.choice(tuple(MetamodelVersion))
    count = rng.randint(len(_GUARANTEED_KINDS), max(max_elements, len(_GUARANTEED_KINDS)))
    all_kinds = tuple(ElementKind)
    elements = []
    for index in range(count):
        kind = _GUARANTEED_KINDS[index] if index < len(_GUARANTEED_KINDS) else rng.choice(all_kinds)
        elements.append(random_element(rng, f"n{index:02d}", kind))
    by_kind: dict[ElementKind, list[str]] = {}
    for elem in elements:
        by_kind.setdefault(elem.kind, []).append(elem.id)
    references = []
    for index in range(rng.randint(1, count)):
        ref_kind = rng.choice(tuple(ReferenceKind))
        allowed_sources, allowed_targets = REFERENCE_CONSTRAINTS[ref_kind]
        source_pool = [i for k in sorted(allowed_sources) for i in by_kind.get(k, ())]
        target_pool = [i for k in sorted(allowed_targets) for i in by_kind.get(k, ())]
        if not source_pool or not target_pool:
            continue
        references.append(
            Reference(
                id=f"r{index:02d}",
                kind=ref_kind,
                source=rng.choice(source_pool),
                target=rng.choice(target_pool),
                attributes=_reference_attributes(rng, ref_kind),
            )
        )
    return ProcessModel.of(metamodel, elements, references)


# ---------------------------------------------------------------------------
# Extensions
# ---------------------------------------------------------------------------

def _fresh_ids(prefix: str, taken: set):
    for n in itertools.count():
        candidate = f"{prefix}{n:02d}"
        if candidate not in taken:
            yield candidate


def _placeholder_names(type_def) -> list:
    return sorted(type_def.placeholders)


class _Pools:
    """What the working model will roughly look like when an exemplar runs."""

    def __init__(self, elements: dict, references: dict, taken: set):
        self.elements = elements        # id -> ProcessElement
        self.references = references    # id -> Reference
        self.taken = taken              # every id in use anywhere

    def elements_of(self, kind: ElementKind) -> list:
        return sorted(e.id for e in self.elements.values() if e.kind is kind)

    def references_of(self, kind: ReferenceKind) -> list:
        return sorted(r.id for r in self.references.values() if r.kind is kind)

    def drop_element(self, elem_id: str) -> None:
        self.elements.pop(elem_id, None)
        for ref_id in [
            r.id
            for r in self.references.values()
            if r.source == elem_id or r.target == elem_id
        ]:
            del self.references[ref_id]


def _fill_placeholder(rng: random.Random, name: str, target, pools: _Pools):
    """A valid value for one recipe argument, or None when the model can't supply it."""
    if name == "newName":
        return random_name(rng)
    if name == "text":
        return random_text(rng)
    if name == "blockId":
        if not isinstance(target, ProcessElement) or not target.text_blocks:
            return None
        return rng.choice([b.id for b in target.text_blocks])
    if name == "newOrderingNumber":
        return random_decimal(rng, finite=True)
    if name == "newRole":
        roles = pools.elements_of(ElementKind.ROLE)
        return rng.choice(roles) if roles else None
    if name == "module":
        modules = pools.elements_of(ElementKind.PROCESS_MODULE)
        return rng.choice(modules) if modules else None
    if name == "refId":
        fresh = next(_fresh_ids("q", pools.taken))
        pools.taken.add(fresh)
        return fresh
    if name == "baseRole":
        roles = pools.elements_of(ElementKind.ROLE)
        if roles and rng.random() < 0.7:
            return rng.choice(roles)
        return random_name(rng)
    # newDiscipline, roleClass, value, and anything a future recipe invents:
    # ChangeAttribute only needs the argument present
    if rng.random() < 0.1:
        return ""
    return random_name(rng)


def _replace_locations(type_def, target, args) -> list:
    """(target, field key) pairs the expanded exemplar would overwrite."""
    locations = []
    for template in type_def.recipe:
        if template.atomic is not AtomicKind.REPLACE_TEXT:
            continue
        selector = template.args.get("field", "")
        if selector == "textBlock":
            key = "textBlock:" + args.get("blockId", "")
        elif selector == "attribute":
            key = "attribute:" + template.args.get("key", "")
        else:
            key = selector
        locations.append((target, key))
    return locations


def _aim_valid(rng: random.Random, catalog, effective_mm, pools: _Pools, replaced: dict):
    """Build an exemplar intended to validate and execute cleanly."""
    candidates = [t for t in catalog if t.defining_metamodel <= effective_mm]
    rng.shuffle(candidates)
    for type_def in candidates:
        if type_def.targets_reference:
            ids = pools.references_of(type_def.target_kind)
            targets = [pools.references[i] for i in ids]
        else:
            ids = pools.elements_of(type_def.target_kind)
            targets = [pools.elements[i] for i in ids]
        rng.shuffle(targets)
        for target in targets:
            args = {}
            for name in _placeholder_names(type_def):
                value = _fill_placeholder(rng, name, target, pools)
                if value is None:
                    args = None
                    break
                args[name] = value
            if args is None:
                continue
            # replacing a field attribute-wise needs the attribute to exist
            needs_attr = [
                t.args["key"]
                for t in type_def.recipe
                if t.atomic in (AtomicKind.REPLACE_TEXT, AtomicKind.ADD_TEXT)
                and t.args.get("field") == "attribute"
            ]
            if needs_attr and any(k not in target.attributes for k in needs_attr):
                continue
            target_id = target.id
            locations = _replace_locations(type_def, target_id, args)
            if any(loc in replaced for loc in locations):
                continue
            # bookkeeping so later exemplars in this extension stay plausible
            for template in type_def.recipe:
                # a step aims at the exemplar's target or at one of its arguments
                step_target = args.get(template.target[1:-1], target_id)
                if template.atomic is AtomicKind.REMOVE_ELEMENT:
                    pools.drop_element(step_target)
                elif template.atomic is AtomicKind.REMOVE_REFERENCE:
                    pools.references.pop(step_target, None)
                elif template.atomic is AtomicKind.ADD_REFERENCE:
                    ref = {
                        key: args.get(value[1:-1], target_id) if value.startswith("{") else value
                        for key, value in template.args.items()
                    }
                    pools.references[ref["refId"]] = Reference(
                        ref["refId"], ReferenceKind(ref["refKind"]), ref["source"], ref["target"]
                    )
            for loc in locations:
                replaced[loc] = type_def.name
            return OperationExemplar(type_def.name, target_id, args)
    return None


_REPLACERS_BY_KIND = {
    ElementKind.ROLE: "ReplaceRoleDescription",
    ElementKind.TASK: "ReplaceTaskDescription",
    ElementKind.GLOSSARY_ITEM: "ReplaceGlossaryItemDescription",
}


def _aim_broken(rng: random.Random, catalog, effective_mm, pools: _Pools, replaced: dict):
    """Build an exemplar that is wrong in one deliberate way."""
    any_id = rng.choice(sorted(pools.taken)) if pools.taken else "ghost"
    sabotages = ["unknown-type", "unknown-target"]
    if effective_mm < MetamodelVersion.V1_3B:
        sabotages.append("future-metamodel")
    if pools.elements:
        sabotages += ["wrong-kind", "missing-arg", "empty-arg", "bad-number"]
    if pools.references:
        sabotages.append("namespace-mix")
    if replaced:
        sabotages.append("conflict")
    choice = rng.choice(sabotages)

    if choice == "unknown-type":
        return OperationExemplar(f"NoSuchOp{rng.randint(0, 99)}", any_id)
    if choice == "unknown-target":
        type_def = rng.choice([t for t in catalog])
        args = {name: "x" for name in _placeholder_names(type_def)}
        return OperationExemplar(type_def.name, f"ghost-{rng.randint(0, 999)}", args)
    if choice == "future-metamodel":
        gated = [t for t in catalog if t.defining_metamodel > effective_mm]
        type_def = rng.choice(gated)
        args = {name: "x" for name in _placeholder_names(type_def)}
        return OperationExemplar(type_def.name, any_id, args)
    if choice == "namespace-mix":
        element_defs = [t for t in catalog if not t.targets_reference]
        type_def = rng.choice(element_defs)
        ref_id = rng.choice(sorted(pools.references))
        args = {name: "x" for name in _placeholder_names(type_def)}
        return OperationExemplar(type_def.name, ref_id, args)
    if choice == "wrong-kind":
        type_def = rng.choice([t for t in catalog if not t.targets_reference])
        misfits = [e for e in pools.elements.values() if e.kind is not type_def.target_kind]
        if not misfits:
            return OperationExemplar(f"NoSuchOp{rng.randint(0, 99)}", any_id)
        args = {name: "x" for name in _placeholder_names(type_def)}
        return OperationExemplar(type_def.name, rng.choice(misfits).id, args)
    if choice == "conflict":
        location = rng.choice(sorted(replaced))
        target_id, key = location
        if key.startswith("textBlock:"):
            return OperationExemplar(
                "ReplaceSectionText",
                target_id,
                {"blockId": key.split(":", 1)[1], "text": random_text(rng)},
            )
        if key.startswith("attribute:"):
            return OperationExemplar(
                "ReplaceTailoringDependencyDescription",
                target_id,
                {"text": random_text(rng)},
            )
        elem = pools.elements.get(target_id)
        type_name = _REPLACERS_BY_KIND.get(elem.kind) if elem is not None else None
        if type_name is None:
            return OperationExemplar(f"NoSuchOp{rng.randint(0, 99)}", any_id)
        return OperationExemplar(type_name, target_id, {"text": random_text(rng)})

    # the remaining sabotages start from a valid build and then damage it
    built = _aim_valid(rng, catalog, effective_mm, pools, replaced)
    if built is None:
        return OperationExemplar(f"NoSuchOp{rng.randint(0, 99)}", any_id)
    args = dict(built.args)
    if choice == "missing-arg" and args:
        del args[rng.choice(sorted(args))]
    elif choice == "empty-arg" and ("newName" in args or "newOrderingNumber" in args):
        key = "newName" if "newName" in args else "newOrderingNumber"
        args[key] = ""
    elif choice == "bad-number" and "newOrderingNumber" in args:
        args["newOrderingNumber"] = rng.choice(("later", "3,5", "first") + _NON_FINITE)
    elif args:
        del args[rng.choice(sorted(args))]
    else:
        return OperationExemplar(f"NoSuchOp{rng.randint(0, 99)}", built.target)
    return OperationExemplar(built.type_name, built.target, args)


_NEW_ELEMENT_KINDS = (
    ElementKind.ROLE,
    ElementKind.WORK_PRODUCT,
    ElementKind.PROCESS_MODULE,
    ElementKind.PROJECT_TYPE_VARIANT,
    ElementKind.SECTION,
    ElementKind.TASK,
)


def random_extension(
    rng: random.Random,
    model: ProcessModel,
    catalog,
    *,
    variant_id: str = "X",
    parent_id: str = "root",
    max_exemplars: int = 20,
    clean: bool | None = None,
) -> ExtensionModel:
    """An extension over ``model``; roughly half of them aim to merge cleanly.

    With ``clean=True`` every declaration is built to validate; what the
    merge makes of the whole is still for the engine and oracle to agree on.
    With ``clean=False`` a few declarations are deliberately broken. The
    default flips a coin.
    """
    if clean is None:
        clean = rng.random() < 0.5
    metamodel = rng.choice(
        (
            MetamodelVersion.V1_3,
            MetamodelVersion.V1_3,
            MetamodelVersion.V1_3B,
            MetamodelVersion.V1_3B,
            MetamodelVersion.V1_3B,
            MetamodelVersion.V1_3Z,
        )
    )
    effective_mm = metamodel if metamodel > model.metamodel else model.metamodel
    taken = set(model.elements) | set(model.references)
    fresh = _fresh_ids("x", taken)

    new_elements = []
    for _ in range(rng.randint(0, 3)):
        if not clean and rng.random() < 0.12:
            elem_id = rng.choice(sorted(taken))  # deliberate id collision
        else:
            elem_id = next(fresh)
        new_elements.append(random_element(rng, elem_id, rng.choice(_NEW_ELEMENT_KINDS)))
        taken.add(elem_id)

    # ids phase 1 will actually accept: first declaration of a free id wins
    integrated: dict[str, ProcessElement] = {}
    for elem in new_elements:
        if elem.id not in model.elements and elem.id not in model.references:
            integrated.setdefault(elem.id, elem)

    exclusions = []
    if rng.random() < 0.3:
        containers = sorted(
            e.id for e in model.elements.values() if e.kind in CONFIGURATION_CONTAINER_KINDS
        )
        if containers:
            victim_id = rng.choice(containers)
            exclusions.append(victim_id)
            substitute_id = next(fresh)
            substitute = random_element(
                rng, substitute_id, model.elements[victim_id].kind
            )
            new_elements.append(substitute)
            integrated[substitute_id] = substitute
            taken.add(substitute_id)

    new_references = []
    phase1_elements = dict(model.elements)
    phase1_elements.update(integrated)
    elements_by_kind: dict[ElementKind, list] = {}
    for elem in phase1_elements.values():
        if clean and elem.id in exclusions:
            continue  # a clean extension never wires references to its own victim
        elements_by_kind.setdefault(elem.kind, []).append(elem.id)
    for _ in range(rng.randint(0, 3)):
        ref_kind = rng.choice(tuple(ReferenceKind))
        allowed_sources, allowed_targets = REFERENCE_CONSTRAINTS[ref_kind]
        roll = rng.random() if not clean else 1.0
        if roll < 0.1:
            ref_id = rng.choice(sorted(taken))  # deliberate id collision
        else:
            ref_id = next(fresh)
        taken.add(ref_id)
        if roll < 0.2:
            source, target = f"ghost-{rng.randint(0, 999)}", f"ghost-{rng.randint(0, 999)}"
        elif roll < 0.3:
            wrong = [i for k, ids in elements_by_kind.items() if k not in allowed_sources for i in ids]
            target_pool = [i for k in allowed_targets for i in elements_by_kind.get(k, ())]
            if not wrong or not target_pool:
                continue
            source, target = rng.choice(sorted(wrong)), rng.choice(sorted(target_pool))
        else:
            source_pool = [i for k in allowed_sources for i in elements_by_kind.get(k, ())]
            target_pool = [i for k in allowed_targets for i in elements_by_kind.get(k, ())]
            if not source_pool or not target_pool:
                continue
            source, target = rng.choice(sorted(source_pool)), rng.choice(sorted(target_pool))
        new_references.append(
            Reference(ref_id, ref_kind, source, target, _reference_attributes(rng, ref_kind))
        )

    # clean extensions must not exclude what their own new references rely on,
    # and must not exclude anything twice (the second hit would not resolve),
    # not even a reference an excluded element's cascade has already removed
    pinned = {r.source for r in new_references} | {r.target for r in new_references}
    for _ in range(rng.randint(0, 2)):
        roll = rng.random()
        if not clean and roll < 0.15:
            exclusions.append(f"ghost-{rng.randint(0, 999)}")
        elif roll < 0.6:
            candidates = sorted(
                i for i in model.elements if not clean or (i not in pinned and i not in exclusions)
            )
            if candidates:
                exclusions.append(rng.choice(candidates))
        elif model.references:
            candidates = sorted(
                i
                for i, r in model.references.items()
                if not clean or not {i, r.source, r.target}.intersection(exclusions)
            )
            if candidates:
                exclusions.append(rng.choice(candidates))

    # what phase 3 will see: integrated assets minus whatever got excluded
    pools = _Pools(dict(phase1_elements), dict(model.references), taken)
    for ref in new_references:
        if ref.id not in pools.references and ref.id not in pools.elements:
            if ref.source in pools.elements and ref.target in pools.elements:
                pools.references[ref.id] = ref
    for excluded_id in exclusions:
        if excluded_id in pools.elements:
            pools.drop_element(excluded_id)
        else:
            pools.references.pop(excluded_id, None)

    replaced: dict = {}
    exemplars = []
    for _ in range(rng.randint(0, max_exemplars)):
        if clean or rng.random() < 0.6:
            built = _aim_valid(rng, catalog, effective_mm, pools, replaced)
        else:
            built = _aim_broken(rng, catalog, effective_mm, pools, replaced)
        if built is not None:
            exemplars.append(built)

    return ExtensionModel(
        variant_id=variant_id,
        parent_id=parent_id,
        metamodel=metamodel,
        new_elements=tuple(new_elements),
        new_references=tuple(new_references),
        exclusions=tuple(exclusions),
        exemplars=tuple(exemplars),
    )


def random_variant_set(rng: random.Random, catalog) -> VariantSet:
    """A one-level family over a random model, for counting rather than merging.

    Variant ids are drawn, so their sorted order is not their creation
    order. One variant always declares no exemplars, and one always holds
    an extra exemplar of a type the catalog lacks.
    """
    root = random_model(rng, max_elements=20)
    ids = rng.sample([f"{letter}{n}" for letter in "KQZ" for n in range(10)], rng.randint(2, 8))
    extensions = [random_extension(rng, root, catalog, variant_id=v) for v in ids]
    extensions[0] = dataclasses.replace(extensions[0], exemplars=())
    exemplars = list(extensions[-1].exemplars)
    stranger = OperationExemplar(f"NoSuchOp{rng.randint(0, 99)}", "ghost")
    exemplars.insert(rng.randint(0, len(exemplars)), stranger)
    extensions[-1] = dataclasses.replace(extensions[-1], exemplars=tuple(exemplars))
    return VariantSet.of(root, extensions)


def well_typed_exemplar(rng: random.Random, model: ProcessModel, catalog):
    """An exemplar that must validate cleanly against the model as given."""
    pools = _Pools(dict(model.elements), dict(model.references), set(model.elements) | set(model.references))
    return _aim_valid(rng, catalog, model.metamodel, pools, {})


def ill_typed_exemplar(rng: random.Random, model: ProcessModel, catalog):
    """An exemplar that is wrong by construction. Returns (exemplar, reason).

    Only sabotage classes whose invalidity does not depend on recipe details
    are used here, so rejection is provably required.
    """
    reasons = ["unknown-type", "unknown-target", "wrong-kind"]
    if model.metamodel < MetamodelVersion.V1_3B:
        reasons.append("future-metamodel")
    if model.references:
        reasons.append("namespace-mix")
    reason = rng.choice(reasons)
    any_id = rng.choice(sorted(model.elements))
    if reason == "unknown-type":
        return OperationExemplar(f"NoSuchOp{rng.randint(0, 99)}", any_id), reason
    if reason == "unknown-target":
        type_def = rng.choice([t for t in catalog])
        args = {name: "x" for name in _placeholder_names(type_def)}
        return OperationExemplar(type_def.name, f"ghost-{rng.randint(0, 999)}", args), reason
    if reason == "future-metamodel":
        gated = [t for t in catalog if t.defining_metamodel > model.metamodel]
        type_def = rng.choice(gated)
        args = {name: "x" for name in _placeholder_names(type_def)}
        target = any_id
        if not type_def.targets_reference:
            same_kind = [e.id for e in model.elements.values() if e.kind is type_def.target_kind]
            if same_kind:
                target = rng.choice(sorted(same_kind))
        return OperationExemplar(type_def.name, target, args), reason
    if reason == "namespace-mix":
        element_defs = [t for t in catalog if not t.targets_reference]
        type_def = rng.choice(element_defs)
        args = {name: "x" for name in _placeholder_names(type_def)}
        return OperationExemplar(type_def.name, rng.choice(sorted(model.references)), args), reason
    type_def = rng.choice([t for t in catalog if not t.targets_reference])
    misfits = [e.id for e in model.elements.values() if e.kind is not type_def.target_kind]
    args = {name: "x" for name in _placeholder_names(type_def)}
    return OperationExemplar(type_def.name, rng.choice(sorted(misfits)), args), reason


# ---------------------------------------------------------------------------
# Model mutation (for change-set round trips)
# ---------------------------------------------------------------------------

def mutate_model(rng: random.Random, model: ProcessModel) -> ProcessModel:
    """A randomly edited copy of the model, touching every change-set field."""
    metamodel = model.metamodel
    elements, references = dict(model.elements), dict(model.references)
    for _ in range(rng.randint(1, 8)):
        op = rng.randrange(12)
        element_ids = sorted(elements)
        reference_ids = sorted(references)
        if op == 0:
            fresh = next(_fresh_ids("m", set(elements) | set(references)))
            elements[fresh] = random_element(rng, fresh, rng.choice(tuple(ElementKind)))
        elif op == 1 and element_ids:
            removed = rng.choice(element_ids)
            del elements[removed]
            for ref in list(references.values()):
                if removed in (ref.source, ref.target):
                    del references[ref.id]
        elif op == 2 and element_ids:
            fresh = next(_fresh_ids("m", set(elements) | set(references)))
            ref_kind = rng.choice(tuple(ReferenceKind))
            # change sets do not need consistency; endpoints may dangle
            references[fresh] = Reference(
                fresh, ref_kind, rng.choice(element_ids), rng.choice(element_ids)
            )
        elif op == 3 and reference_ids:
            del references[rng.choice(reference_ids)]
        elif op == 4 and element_ids:
            elem = elements[rng.choice(element_ids)]
            elements[elem.id] = elem.with_name(random_name(rng))
        elif op == 5 and element_ids:
            elem = elements[rng.choice(element_ids)]
            elements[elem.id] = elem.with_description(random_text(rng))
        elif op == 6 and element_ids:
            elem = elements[rng.choice(element_ids)]
            if elem.attributes and rng.random() < 0.4:
                elements[elem.id] = elem.without_attribute(rng.choice(sorted(elem.attributes)))
            else:
                elements[elem.id] = elem.with_attribute(
                    rng.choice(("note", "tag", "level")), random_text(rng)
                )
        elif op == 7 and element_ids:
            elem = elements[rng.choice(element_ids)]
            if elem.text_blocks:
                block = rng.choice(elem.text_blocks)
                elements[elem.id] = elem.with_block_text(block.id, random_text(rng))
        elif op == 8 and element_ids:
            elem = elements[rng.choice(element_ids)]
            block_ids = {b.id for b in elem.text_blocks}
            fresh_block = next(b for b in _FRESH_BLOCK_IDS if b not in block_ids)
            elements[elem.id] = elem.with_text_blocks(
                (*elem.text_blocks, TextBlock(fresh_block, random_text(rng)))
            )
        elif op == 9 and element_ids:
            elem = elements[rng.choice(element_ids)]
            if len(elem.text_blocks) > 1:
                shuffled = list(elem.text_blocks)
                rng.shuffle(shuffled)
                elements[elem.id] = elem.with_text_blocks(shuffled)
        elif op == 10 and reference_ids and element_ids:
            ref = references[rng.choice(reference_ids)]
            references[ref.id] = ref.with_endpoints(source=rng.choice(element_ids))
        elif op == 11:
            metamodel = rng.choice(tuple(MetamodelVersion))
    return ProcessModel(metamodel, elements, references)


def scaled_variant_set(k: int) -> VariantSet:
    """The benchmark's scaled family with ``k`` copies (``perfbench/gen.py``, seed 0), parsed."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    sys.path.insert(0, str(perfbench))
    try:
        import gen
    finally:
        sys.path.remove(str(perfbench))
    files = gen.scaled_family(Path(model_module.__file__).parent / "data", k, 0)
    root = parse_model(files.pop("root.xml"))
    return VariantSet.of(root, [parse_extension(text) for text in files.values()])

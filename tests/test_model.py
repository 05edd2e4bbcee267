"""Core model invariants: construction, lookup, consistency, change sets."""

import dataclasses
import gc
import hashlib
import itertools
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

import genmodels
from procline.errors import (
    DuplicateIdError,
    FieldNotFoundError,
    UnknownIdError,
)
from procline.model import (
    ChangeSet,
    ElementKind,
    MetamodelVersion,
    ProcessElement,
    ProcessModel,
    Reference,
    ReferenceKind,
    TextBlock,
    _WorkingModel,
    apply_change_set,
    compare_models,
)
from procline.xmlio import serialize_model


def _element(elem_id, kind=ElementKind.ROLE, **kwargs):
    kwargs.setdefault("name", elem_id.upper())
    return ProcessElement(id=elem_id, kind=kind, **kwargs)


def _with(model, *parts, metamodel=None):
    """``model`` with each element or reference of ``parts`` put under its id."""
    elements, references = dict(model.elements), dict(model.references)
    for part in parts:
        (elements if isinstance(part, ProcessElement) else references)[part.id] = part
    return ProcessModel(metamodel or model.metamodel, elements, references)


def _wp_role_pair():
    wp = _element("wp", ElementKind.WORK_PRODUCT)
    role = _element("role", ElementKind.ROLE)
    ref = Reference("resp", ReferenceKind.RESPONSIBILITY, "wp", "role")
    return ProcessModel.of(MetamodelVersion.V1_3, [wp, role], [ref])


# -- construction -------------------------------------------------------------

def test_duplicate_element_id_rejected():
    with pytest.raises(DuplicateIdError):
        ProcessModel.of(MetamodelVersion.V1_3, [_element("a"), _element("a")])


def test_element_and_reference_share_one_namespace():
    elems = [_element("wp", ElementKind.WORK_PRODUCT), _element("role")]
    with pytest.raises(DuplicateIdError):
        ProcessModel.of(
            MetamodelVersion.V1_3,
            elems,
            [Reference("wp", ReferenceKind.RESPONSIBILITY, "wp", "role")],
        )


def test_map_key_must_match_id():
    with pytest.raises(ValueError):
        ProcessModel(MetamodelVersion.V1_3, elements={"other": _element("a")})
    ref = Reference("r", ReferenceKind.RESPONSIBILITY, "a", "a")
    with pytest.raises(ValueError):
        ProcessModel(MetamodelVersion.V1_3, references={"other": ref})


def test_public_constructor_checks_overlap_and_copies_its_maps():
    elem = _element("a")
    with pytest.raises(DuplicateIdError):
        ProcessModel(
            MetamodelVersion.V1_3,
            {"a": elem},
            {"a": Reference("a", ReferenceKind.RESPONSIBILITY, "a", "a")},
        )
    elements = {"a": elem}
    references = {"r": Reference("r", ReferenceKind.RESPONSIBILITY, "a", "a")}
    model = ProcessModel(MetamodelVersion.V1_3, elements, references)
    elements["b"] = _element("b")
    del references["r"]
    assert set(model.elements) == {"a"}
    assert set(model.references) == {"r"}


def test_empty_ids_and_names_rejected():
    with pytest.raises(ValueError):
        ProcessElement(id="", kind=ElementKind.ROLE, name="x")
    with pytest.raises(ValueError):
        ProcessElement(id="a", kind=ElementKind.ROLE, name="")
    with pytest.raises(ValueError):
        Reference("", ReferenceKind.RESPONSIBILITY, "a", "b")
    with pytest.raises(ValueError):
        Reference("r", ReferenceKind.RESPONSIBILITY, "", "b")
    with pytest.raises(ValueError):
        TextBlock("", "text")


def test_duplicate_text_block_ids_rejected():
    with pytest.raises(ValueError):
        _element("a", text_blocks=(TextBlock("b1", "x"), TextBlock("b1", "y")))


def test_functional_updates_keep_their_input_checks():
    # updates skip the constructor's re-check, but not the check of what they change
    elem = _element("a", attributes={"k": "v"}, text_blocks=(TextBlock("b1", "x"),))
    with pytest.raises(ValueError, match="name must be non-empty"):
        elem.with_name("")
    with pytest.raises(ValueError, match="duplicate text block id 'b1'"):
        elem.with_text_blocks((TextBlock("b1", "x"), TextBlock("b1", "y")))
    with pytest.raises(FieldNotFoundError, match="element 'a' has no text block 'b9'"):
        elem.with_block_text("b9", "y")
    with pytest.raises(ValueError):
        elem.with_kind("NoSuchKind")
    assert elem.with_kind("Task").kind is ElementKind.TASK
    ref = Reference("r", ReferenceKind.RESPONSIBILITY, "a", "b", {"k": "v"})
    for endpoints in ({"source": ""}, {"target": ""}):
        with pytest.raises(ValueError, match="source and target must be non-empty"):
            ref.with_endpoints(**endpoints)
    # and each shares the parts it leaves alone
    renamed = elem.with_name("B")
    assert renamed.attributes is elem.attributes and renamed.text_blocks is elem.text_blocks
    assert ref.with_endpoints(target="c").attributes is ref.attributes


# each update, and the tracked objects it must make besides its result: a
# new text block tuple, and a new text block
_UPDATES = {
    "with_name": (lambda elem, ref: elem.with_name("B"), 0),
    "with_description": (lambda elem, ref: elem.with_description("d"), 0),
    "with_kind": (lambda elem, ref: elem.with_kind(ElementKind.TASK), 0),
    "with_attribute": (lambda elem, ref: elem.with_attribute("k", "w"), 0),
    "without_attribute": (lambda elem, ref: elem.without_attribute("k"), 0),
    "with_block_text": (lambda elem, ref: elem.with_block_text("b1", "y"), 2),
    "with_text_blocks": (lambda elem, ref: elem.with_text_blocks(elem.text_blocks[::-1]), 1),
    "with_endpoints": (lambda elem, ref: ref.with_endpoints(target="c"), 0),
    "reference with_attribute": (lambda elem, ref: ref.with_attribute("k", "w"), 0),
    "reference without_attribute": (lambda elem, ref: ref.without_attribute("k"), 0),
}


@pytest.mark.parametrize("update, parts", _UPDATES.values(), ids=_UPDATES)
def test_an_update_adds_no_tracked_object_a_constructed_one_lacks(update, parts):
    # an update is built from the fields: it creates no __dict__ on its
    # source or its result, and takes nothing else the source holds
    def sources(i):
        blocks = (TextBlock("b1", "x"), TextBlock("b2", "z"))
        elem = _element(f"e{i}", attributes={"k": "v"}, text_blocks=blocks)
        return elem, Reference(f"r{i}", ReferenceKind.RESPONSIBILITY, elem.id, "b", {"k": "v"})

    def constructed_twin(value):
        return type(value)(**{f.name: getattr(value, f.name) for f in dataclasses.fields(value)})

    pairs = [sources(i) for i in range(500)]
    for elem, ref in pairs:
        object.__setattr__(elem, "_held", "what only the source holds")
        object.__setattr__(ref, "_held", "what only the source holds")
    updated = [update(elem, ref) for elem, ref in pairs]
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        twins = [constructed_twin(value) for value in updated]
        constructed = len(gc.get_objects()) - before
        del twins
        before = len(gc.get_objects())
        again = [update(elem, ref) for elem, ref in pairs]
        made = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert again == updated
    assert constructed == len(pairs) + 1  # one per element, and the list
    assert made == constructed + parts * len(pairs)
    assert not any(hasattr(value, "_held") for value in again)


def test_enum_coercion_from_strings():
    elem = ProcessElement(id="a", kind="Role", name="A")
    assert elem.kind is ElementKind.ROLE
    ref = Reference("r", "Responsibility", "a", "b")
    assert ref.kind is ReferenceKind.RESPONSIBILITY
    model = ProcessModel("1.3B", {"a": elem})
    assert model.metamodel is MetamodelVersion.V1_3B


def test_attribute_equality_ignores_insertion_order():
    one = _element("a", attributes={"x": "1", "y": "2"})
    two = _element("a", attributes={"y": "2", "x": "1"})
    assert one == two


def test_text_block_order_is_significant():
    one = _element("a", text_blocks=(TextBlock("b1", "x"), TextBlock("b2", "y")))
    two = _element("a", text_blocks=(TextBlock("b2", "y"), TextBlock("b1", "x")))
    assert one != two


# -- metamodel ordering --------------------------------------------------------

def test_metamodel_versions_are_ordered():
    assert MetamodelVersion.V1_3 < MetamodelVersion.V1_3B < MetamodelVersion.V1_3Z
    assert MetamodelVersion.V1_3B >= MetamodelVersion.V1_3B
    assert not MetamodelVersion.V1_3Z <= MetamodelVersion.V1_3
    # the string values happen to sort the same way, so also check that no
    # operator is left to str
    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert name in vars(MetamodelVersion), name
    for a, b in itertools.product(MetamodelVersion, repeat=2):
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            assert compare(a, b) is compare(a.rank, b.rank), (compare.__name__, a, b)


def test_metamodel_comparison_rejects_foreign_types():
    # plain strings fall back to str comparison (the enum derives from str);
    # anything else has no ordering against a version
    with pytest.raises(TypeError):
        MetamodelVersion.V1_3 < 5  # noqa: B015


# -- lookup and ordering --------------------------------------------------------

def test_lookup_raises_unknown_id():
    model = _wp_role_pair()
    with pytest.raises(UnknownIdError):
        model.element("nope")
    with pytest.raises(UnknownIdError):
        model.reference("nope")
    assert model.has_id("wp") and model.has_id("resp")
    assert not model.has_id("nope")


# -- removal -------------------------------------------------------------------

def test_remove_element_cascades_incident_references():
    wp = _element("wp", ElementKind.WORK_PRODUCT)
    roles = [_element(f"role{i}") for i in range(2)]
    refs = [
        Reference("r2", ReferenceKind.RESPONSIBILITY, "wp", "role0"),
        Reference("r1", ReferenceKind.SUPPORTING_ROLE, "wp", "role1"),
        Reference("r3", ReferenceKind.RESPONSIBILITY, "wp", "role1"),
    ]
    model = ProcessModel.of(MetamodelVersion.V1_3, [wp, *roles], refs)
    work = _WorkingModel(model)
    cascaded = work.remove_element("wp")
    assert cascaded == ("r1", "r2", "r3")  # ascending id order
    assert not work.model.references and "wp" not in work.model.elements
    assert len(work.model.elements) == 2
    assert not work.incident
    # the input model is untouched
    assert len(model.references) == 3 and "wp" in model.elements


# -- consistency ----------------------------------------------------------------

def test_check_consistency_clean_model():
    assert _wp_role_pair().check_consistency() == []


def test_check_consistency_flags_each_bad_endpoint():
    wp = _element("wp", ElementKind.WORK_PRODUCT)
    topic = _element("top", ElementKind.TOPIC)
    refs = {
        # both endpoints dangling: two findings for one reference
        "ra": Reference("ra", ReferenceKind.RESPONSIBILITY, "gone1", "gone2"),
        # wrong target kind
        "rb": Reference("rb", ReferenceKind.RESPONSIBILITY, "wp", "top"),
    }
    model = ProcessModel(MetamodelVersion.V1_3, {"wp": wp, "top": topic}, refs)
    issues = model.check_consistency()
    assert [(i.code.value, i.subject) for i in issues] == [
        ("DanglingReference", "ra"),
        ("DanglingReference", "ra"),
        ("KindConstraintViolation", "rb"),
    ]


# -- change sets ------------------------------------------------------------------

def test_compare_models_empty_iff_equal():
    model = _wp_role_pair()
    assert compare_models(model, model).is_empty()
    renamed = _with(model, model.elements["wp"].with_name("Other"))
    delta = compare_models(model, renamed)
    assert not delta.is_empty()
    assert delta.change_count() == 1


def test_compare_models_lists_the_modified_asset():
    base = _wp_role_pair()
    changed = _with(
        base,
        base.elements["role"]
        .with_name("New Name")
        .with_description("now described")
        .with_attribute("roleClass", "supporting")
    )
    delta = compare_models(base, changed)
    assert delta == ChangeSet(modified_elements=(changed.elements["role"],))
    # the later model's own asset, not a copy of it
    assert delta.modified_elements[0] is changed.elements["role"]


def test_compare_models_tracks_block_text_and_order():
    one = ProcessModel.of(
        MetamodelVersion.V1_3,
        [_element("sec", ElementKind.SECTION, text_blocks=(TextBlock("b1", "x"), TextBlock("b2", "y")))],
    )
    swapped = _with(
        one, one.elements["sec"].with_text_blocks((TextBlock("b2", "y"), TextBlock("b1", "z")))
    )
    delta = compare_models(one, swapped)
    assert delta == ChangeSet(modified_elements=(swapped.elements["sec"],))
    assert apply_change_set(one, delta) == swapped


def test_compare_models_tracks_metamodel():
    model = _wp_role_pair()
    lifted = _with(model, metamodel=MetamodelVersion.V1_3B)
    delta = compare_models(model, lifted)
    assert delta.metamodel_change == (MetamodelVersion.V1_3, MetamodelVersion.V1_3B)
    assert apply_change_set(model, delta) == lifted


def test_apply_change_set_rejects_misfits():
    model = _wp_role_pair()
    with pytest.raises(UnknownIdError):
        apply_change_set(model, ChangeSet(removed_elements=("nope",)))
    with pytest.raises(UnknownIdError):
        apply_change_set(model, ChangeSet(removed_references=("nope",)))
    with pytest.raises(DuplicateIdError):
        apply_change_set(model, ChangeSet(added_elements=(_element("wp"),)))
    # ids are checked one by one; no whole-model re-check stands behind them
    clash = Reference("role", ReferenceKind.RESPONSIBILITY, "wp", "role")
    with pytest.raises(DuplicateIdError, match="'role'"):
        apply_change_set(model, ChangeSet(added_references=(clash,)))
    with pytest.raises(UnknownIdError, match="'nope'"):
        apply_change_set(model, ChangeSet(modified_elements=(_element("nope"),)))
    with pytest.raises(UnknownIdError, match="'nope'"):
        apply_change_set(
            model,
            ChangeSet(modified_references=(Reference("nope", ReferenceKind.RESPONSIBILITY, "wp", "role"),)),
        )


def test_apply_change_set_rejects_a_modified_asset_of_the_other_map():
    # a modified asset must be in its own map under its id: the element
    # and reference maps share one namespace, but a change set names the map
    model = _wp_role_pair()
    with pytest.raises(UnknownIdError, match="cannot modify unknown element 'resp'"):
        apply_change_set(model, ChangeSet(modified_elements=(_element("resp"),)))
    as_reference = Reference("wp", ReferenceKind.RESPONSIBILITY, "wp", "role")
    with pytest.raises(UnknownIdError, match="cannot modify unknown reference 'wp'"):
        apply_change_set(model, ChangeSet(modified_references=(as_reference,)))


# -- one fixed case per kind of write ------------------------------------------------
#
# Each case writes into a merge's working model and names the change set it
# must give by hand, so compare_models and a trace entry recorded off the
# undo log are both checked against a value neither of them built.

_BLOCKS = (TextBlock("b1", "x"), TextBlock("b2", "y"))
_WP = _element("wp", ElementKind.WORK_PRODUCT, attributes={"k": "v"}, text_blocks=_BLOCKS)
_ROLE = _element("role")
_SPARE = _element("spare")
_RESP = Reference("resp", ReferenceKind.RESPONSIBILITY, "wp", "role", {"k": "v"})
_BASE = ProcessModel.of(MetamodelVersion.V1_3, [_WP, _ROLE, _SPARE], [_RESP])

_RENAMED = _ROLE.with_name("Lead")
_ATTRIBUTE_SET = _WP.with_attribute("j", "w")
_ATTRIBUTE_UNSET = _WP.without_attribute("k")
_REFERENCE_ATTRIBUTE_UNSET = _RESP.without_attribute("k")
_BLOCK_ADDED = _WP.with_text_blocks((*_BLOCKS, TextBlock("b3", "z")))
_BLOCK_REMOVED = _WP.with_text_blocks(_BLOCKS[:1])
_BLOCKS_REORDERED = _WP.with_text_blocks(_BLOCKS[::-1])
_ENDPOINT_MOVED = _RESP.with_endpoints(target="spare")
_ELEMENT_KIND_CHANGED = _SPARE.with_kind(ElementKind.TASK)
_REFERENCE_KIND_CHANGED = Reference("resp", ReferenceKind.SUPPORTING_ROLE, "wp", "role", {"k": "v"})
_SPARE_AS_REFERENCE = Reference("spare", ReferenceKind.SUPPORTING_ROLE, "wp", "role")
_RESP_AS_ELEMENT = _element("resp", ElementKind.TASK)


def _putting(*assets):
    def write(work):
        for asset in assets:
            put = work.put_element if isinstance(asset, ProcessElement) else work.put_reference
            put(asset.id, asset)

    return write


_WRITES = {
    "rename": (_putting(_RENAMED), ChangeSet(modified_elements=(_RENAMED,))),
    "attribute set": (_putting(_ATTRIBUTE_SET), ChangeSet(modified_elements=(_ATTRIBUTE_SET,))),
    "attribute unset": (_putting(_ATTRIBUTE_UNSET), ChangeSet(modified_elements=(_ATTRIBUTE_UNSET,))),
    "reference attribute unset": (
        _putting(_REFERENCE_ATTRIBUTE_UNSET),
        ChangeSet(modified_references=(_REFERENCE_ATTRIBUTE_UNSET,)),
    ),
    "text block added": (_putting(_BLOCK_ADDED), ChangeSet(modified_elements=(_BLOCK_ADDED,))),
    "text block removed": (_putting(_BLOCK_REMOVED), ChangeSet(modified_elements=(_BLOCK_REMOVED,))),
    "text blocks reordered": (_putting(_BLOCKS_REORDERED), ChangeSet(modified_elements=(_BLOCKS_REORDERED,))),
    "endpoint moved": (_putting(_ENDPOINT_MOVED), ChangeSet(modified_references=(_ENDPOINT_MOVED,))),
    "element kind changed": (_putting(_ELEMENT_KIND_CHANGED), ChangeSet(modified_elements=(_ELEMENT_KIND_CHANGED,))),
    "reference kind changed": (
        _putting(_REFERENCE_KIND_CHANGED),
        ChangeSet(modified_references=(_REFERENCE_KIND_CHANGED,)),
    ),
    "element id moved to the reference map": (
        lambda work: (work.remove_element("spare"), _putting(_SPARE_AS_REFERENCE)(work)),
        ChangeSet(removed_elements=("spare",), added_references=(_SPARE_AS_REFERENCE,)),
    ),
    "reference id moved to the element map": (
        lambda work: (work.put_reference("resp", None), _putting(_RESP_AS_ELEMENT)(work)),
        ChangeSet(added_elements=(_RESP_AS_ELEMENT,), removed_references=("resp",)),
    ),
    "equal value written": (_putting(_element("role")), ChangeSet()),
    "renamed and renamed back": (_putting(_RENAMED, _element("role")), ChangeSet()),
    "several writes to one id": (
        _putting(_RENAMED, _RENAMED.with_attribute("j", "w")),
        ChangeSet(modified_elements=(_RENAMED.with_attribute("j", "w"),)),
    ),
    "added and removed again": (
        lambda work: (_putting(_element("new"))(work), work.put_element("new", None)),
        ChangeSet(),
    ),
}


@pytest.mark.parametrize("write, expected", _WRITES.values(), ids=_WRITES)
def test_each_kind_of_write_gives_its_change_set(write, expected):
    work = _WorkingModel(_BASE)
    write(work)
    after = ProcessModel(_BASE.metamodel, dict(work.elements), dict(work.references))
    for change_set in (work.change_set(), compare_models(_BASE, after)):
        assert change_set == expected
        # each added or modified asset is the later model's own
        for asset in (*change_set.added_elements, *change_set.modified_elements):
            assert after.elements[asset.id] is asset
        for asset in (*change_set.added_references, *change_set.modified_references):
            assert after.references[asset.id] is asset
    assert apply_change_set(_BASE, expected) == after
    assert apply_change_set(after, compare_models(after, _BASE)) == _BASE


def _random_writes(rng, work, ids, count):
    """``count`` random writes to ``work``, each to one of ``ids``.

    The few ids are written again and again, move between the two maps, and
    are added and removed; a written asset often equals the one it replaces,
    so writes also undo each other.
    """
    endpoints = [some_id for some_id in ids if some_id.startswith("n")] + ["fresh0"]
    for _ in range(count):
        some_id = rng.choice(ids)
        action = rng.randrange(4)
        if action == 0:  # put an element, moving the id out of the reference map
            if some_id in work.references:
                work.put_reference(some_id, None)
            kind = rng.choice((ElementKind.ROLE, ElementKind.TASK))
            work.put_element(some_id, ProcessElement(some_id, kind, rng.choice("AB")))
        elif action == 1:  # put a reference, moving the id out of the element map
            if some_id in work.elements:
                work.remove_element(some_id)
            kind = rng.choice((ReferenceKind.RESPONSIBILITY, ReferenceKind.TOOL_LINK))
            work.put_reference(some_id, Reference(some_id, kind, rng.choice(endpoints), rng.choice(endpoints)))
        elif action == 2 and some_id in work.elements:
            work.remove_element(some_id)
        elif action == 3 and some_id in work.references:
            work.put_reference(some_id, None)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10_000_000))
def test_working_model_change_sets_and_rollbacks_follow_random_writes(seed):
    rng = random.Random(seed)
    base = genmodels.random_model(rng, max_elements=12)
    ids = [*rng.sample(sorted(base.elements), 4), *sorted(base.references)[:3], "fresh0", "fresh1"]
    work = _WorkingModel(base)
    before = base
    for _ in range(6):
        _random_writes(rng, work, ids, rng.randint(0, 6))
        if rng.random() < 0.2:
            work.set_metamodel(rng.choice(tuple(MetamodelVersion)))
        after = ProcessModel(work.model.metamodel, dict(work.elements), dict(work.references))
        change_set = work.change_set()
        assert change_set == compare_models(before, after)
        for asset in (*change_set.added_elements, *change_set.modified_elements):
            assert after.elements[asset.id] is asset
        for asset in (*change_set.added_references, *change_set.modified_references):
            assert after.references[asset.id] is asset
        # writes since that change set are undone, and the next one starts from it
        incident = None if work.incident is None else {endpoint: set(refs) for endpoint, refs in work.incident.items()}
        _random_writes(rng, work, ids, rng.randint(1, 6))
        work.rollback()
        assert work.elements == after.elements and work.references == after.references
        # an index, once a removal built it, is the one a fresh working model builds from scratch
        fresh = _WorkingModel(after)._index()
        if work.incident is not None:
            assert work.incident == fresh
        if incident is not None:
            assert incident == fresh
        before = after


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_diff_patch_round_trip(seed):
    rng = random.Random(seed)
    before = genmodels.random_model(rng, max_elements=25)
    after = genmodels.mutate_model(rng, before)
    delta = compare_models(before, after)
    assert apply_change_set(before, delta) == after
    assert compare_models(after, after).is_empty()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_random_models_are_consistent(seed):
    rng = random.Random(seed)
    model = genmodels.random_model(rng, max_elements=40)
    assert model.check_consistency() == []


@pytest.mark.parametrize(
    "before, after",
    [
        ((("x y", "1"), ("z", "2")), (("z", "2"), ("x y", "1"))),
        ((("b1", "1"),), (("b1", "1"), (" ", "2"))),
        ((("\\", "1"), ("\\20;", "2"), ("a\tb", "3")), (("a\tb", "3"), ("\\20;", "2"), ("\\", "1"))),
        ((("b\n7", "1"), (" ", "2")), ()),
    ],
)
def test_block_order_round_trips_any_block_id(before, after):
    def model(blocks):
        sec = _element("sec", ElementKind.SECTION, text_blocks=tuple(TextBlock(*b) for b in blocks))
        return ProcessModel.of(MetamodelVersion.V1_3, [sec])

    a, b = model(before), model(after)
    delta = compare_models(a, b)
    assert delta == ChangeSet(modified_elements=(b.elements["sec"],))
    assert apply_change_set(a, delta) == b
    assert apply_change_set(b, compare_models(b, a)) == a


def test_a_block_reorder_alone_is_a_modification():
    sec = _element("sec", ElementKind.SECTION, text_blocks=(TextBlock("b1", "x"), TextBlock("b2", "y")))
    one = ProcessModel.of(MetamodelVersion.V1_3, [sec])
    swapped = _with(one, sec.with_text_blocks(reversed(sec.text_blocks)))
    # the same two block objects, in the other order
    assert set(swapped.elements["sec"].text_blocks) == set(sec.text_blocks)
    (modified,) = compare_models(one, swapped).modified_elements
    assert [block.id for block in modified.text_blocks] == ["b2", "b1"]


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=0, max_value=100_000))
def test_change_set_carries_any_model_to_any_other(seed_a, seed_b):
    # two unrelated models share ids ("n00", "r00", ...), so every field can differ
    a = genmodels.random_model(random.Random(seed_a), max_elements=25)
    rng = random.Random(seed_b)
    b = genmodels.mutate_model(rng, genmodels.random_model(rng, max_elements=25))
    assert apply_change_set(a, compare_models(a, b)) == b
    assert apply_change_set(b, compare_models(b, a)) == a


# sha256 over seeds 0-299 of each mutated model's canonical XML, each followed by
# the next 64 bits its generator draws: a rewrite of mutate_model must keep both
_MUTATED_MODELS_SHA256 = "885f5fd0c393e37a2c73b30fbd40a570cbd11940ee43a3545dce696673e8aa8d"


def test_mutate_model_draws_the_same_models_per_seed():
    digest = hashlib.sha256()
    for seed in range(300):
        rng = random.Random(seed)
        mutated = genmodels.mutate_model(rng, genmodels.random_model(rng, max_elements=25))
        digest.update(serialize_model(mutated).encode("utf-8"))
        digest.update(str(rng.getrandbits(64)).encode("ascii"))
    assert digest.hexdigest() == _MUTATED_MODELS_SHA256

"""Core model invariants: construction, lookup, consistency, diff/patch."""

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
    ElementChange,
    ElementKind,
    FieldChange,
    MetamodelVersion,
    ProcessElement,
    ProcessModel,
    Reference,
    ReferenceChange,
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


# -- diff and patch ---------------------------------------------------------------

def test_compare_models_empty_iff_equal():
    model = _wp_role_pair()
    assert compare_models(model, model).is_empty()
    renamed = _with(model, model.elements["wp"].with_name("Other"))
    delta = compare_models(model, renamed)
    assert not delta.is_empty()
    assert delta.change_count() == 1


def test_compare_models_lists_field_changes():
    base = _wp_role_pair()
    changed = _with(
        base,
        base.elements["role"]
        .with_name("New Name")
        .with_description("now described")
        .with_attribute("roleClass", "supporting")
    )
    delta = compare_models(base, changed)
    (mod,) = delta.modified_elements
    assert mod.element_id == "role"
    assert [(c.field, c.before, c.after) for c in mod.changes] == [
        ("name", "ROLE", "New Name"),
        ("description", "", "now described"),
        ("attribute:roleClass", None, "supporting"),
    ]


def test_compare_models_tracks_block_text_and_order():
    one = ProcessModel.of(
        MetamodelVersion.V1_3,
        [_element("sec", ElementKind.SECTION, text_blocks=(TextBlock("b1", "x"), TextBlock("b2", "y")))],
    )
    swapped = _with(
        one, one.elements["sec"].with_text_blocks((TextBlock("b2", "y"), TextBlock("b1", "z")))
    )
    delta = compare_models(one, swapped)
    (mod,) = delta.modified_elements
    assert [c.field for c in mod.changes] == ["textblock:b1", "textblock-order"]
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
        apply_change_set(
            model,
            ChangeSet(modified_elements=(ElementChange("nope", (FieldChange("name", "A", "B"),)),)),
        )
    with pytest.raises(UnknownIdError, match="'nope'"):
        apply_change_set(
            model,
            ChangeSet(
                modified_references=(ReferenceChange("nope", (FieldChange("source", "wp", "x"),)),)
            ),
        )


def test_apply_change_set_rejects_block_order_mismatch():
    sec = _element("sec", ElementKind.SECTION, text_blocks=(TextBlock("b1", "x"),))
    model = ProcessModel.of(MetamodelVersion.V1_3, [sec])
    broken = ChangeSet(
        modified_elements=(
            ElementChange("sec", (FieldChange("textblock-order", "b1", "b1 b9"),)),
        )
    )
    with pytest.raises(FieldNotFoundError):
        apply_change_set(model, broken)


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
    assert delta.modified_elements[0].changes[-1].field == "textblock-order"
    assert apply_change_set(a, delta) == b
    assert apply_change_set(b, compare_models(b, a)) == a


def test_block_order_of_plain_ids_is_space_separated():
    sec = _element("sec", ElementKind.SECTION, text_blocks=(TextBlock("b1", "x"), TextBlock("b2", "y")))
    one = ProcessModel.of(MetamodelVersion.V1_3, [sec])
    swapped = _with(one, sec.with_text_blocks(reversed(sec.text_blocks)))
    (change,) = compare_models(one, swapped).modified_elements[0].changes
    assert (change.before, change.after) == ("b1 b2", "b2 b1")


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

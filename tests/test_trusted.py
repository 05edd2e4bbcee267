"""Trusted builds: values the engine builds past their dataclass constructor.

Trace entries, change sets, expanded steps, the models of replays, updated
elements and references, and the reader's models, elements, references and
exemplars are built by ``model._trusted``. Each must be indistinguishable
from the same value built through its public constructor, and each build
must set every field of its dataclass. The reader builds text blocks,
extensions and the catalog's types and steps by their constructors; they
are twinned and compared field by field all the same.
"""

import copy
import dataclasses
import gc
import importlib
import inspect
import pickle
import pkgutil
import random
import sys
import types
import typing

import pytest
from hypothesis import given, settings, strategies as st

import genmodels
import procline
from procline import xmlio
from procline.atomic import AtomicStep, expand_exemplar
from procline.catalog import AtomicKind, OperationExemplar, OperationTypeDef, StepTemplate
from procline.errors import ConflictError, Issue, IssueCode, ValidationFailedError
from procline.family import ExtensionModel
from procline.merge import TraceEntry, TraceEntryKind, merge_chain, merge_once
from procline.model import (
    ChangeSet,
    ElementKind,
    MetamodelVersion,
    ProcessElement,
    ProcessModel,
    Reference,
    ReferenceKind,
    TextBlock,
    apply_change_set,
    compare_models,
)
from procline.studyline import DATA_FILES, fixture_text, masking_extension
from procline.xmlio import serialize_model
from procline.xmlread import parse_catalog, parse_extension, parse_model

_TRUSTED_TYPES = (
    TraceEntry,
    ChangeSet,
    AtomicStep,
    OperationExemplar,
    ProcessModel,
    ProcessElement,
    Reference,
)
# the records twinned and compared field by field: the trusted ones, and
# those the reader builds by their constructors
_RECORD_TYPES = (*_TRUSTED_TYPES, TextBlock, StepTemplate, OperationTypeDef, ExtensionModel)


def _twin(value):
    """``value`` built again through public constructors, nested values and tuples included."""
    if type(value) is tuple:
        return tuple(_twin(item) for item in value)
    if isinstance(value, _RECORD_TYPES):
        return type(value)(**{f.name: _twin(getattr(value, f.name)) for f in dataclasses.fields(value)})
    return value


def _conforms(value, hint) -> bool:
    """Whether ``value`` is of the declared type ``hint``, items of tuples and maps included."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_conforms(value, arg) for arg in args)
    if origin is None:
        return isinstance(value, hint)
    if not isinstance(value, origin):
        return False
    if origin is tuple:
        items = args[:1] * len(value) if args[1:] == (Ellipsis,) else args
        return len(items) == len(value) and all(map(_conforms, value, items))
    return all(_conforms(k, args[0]) and _conforms(v, args[1]) for k, v in value.items())


def _state(value) -> list[tuple[str, object]]:
    """The fields ``value`` holds, ``(name, value)`` in field order; reading an unset one raises."""
    return [(f.name, getattr(value, f.name)) for f in dataclasses.fields(value)]


def _assert_holds_only_its_fields(value) -> None:
    """``value`` stores its fields, in order, and nothing else.

    A slotted class has one slot per field, in field order, and its
    instances have no ``__dict__``; any other keeps exactly its fields in its
    ``__dict__``, besides the block the XML writer keeps on an element or
    reference it has written, as an earlier test may have written a session
    fixture's, and the mark a checked model carries.
    """
    cls = type(value)
    names = [f.name for f in dataclasses.fields(cls)]
    if "__slots__" in vars(cls):
        assert cls.__slots__ == tuple(names)
        assert not hasattr(value, "__dict__")
    else:
        kept = (xmlio._KEPT_BLOCK, ProcessModel._issues.attrname)
        assert [name for name in vars(value) if name not in kept] == names


def _trusted_functions() -> dict:
    """Every trusted build function bound in the package's modules, by the class it builds.

    Each module of the package is scanned, so a module that starts building
    a class trusted is found without being listed here. A module that binds a
    class's build function binds the one :func:`model._trusted` made for it.
    """
    found = {}
    for info in pkgutil.iter_modules(procline.__path__):
        module = importlib.import_module(f"procline.{info.name}")
        for value in vars(module).values():
            if inspect.isfunction(value) and value.__name__.startswith("_trusted_"):
                cls = value.__globals__["__cls"]
                assert found.setdefault(cls, value) is value, (module.__name__, cls.__name__)
    return found


def _rebuilt(value, functions):
    """``value`` built again through the trusted build functions, nested values and tuples included.

    A record whose class has no trusted build is built again by its constructor.
    """
    if type(value) is tuple:
        return tuple(_rebuilt(item, functions) for item in value)
    if isinstance(value, _RECORD_TYPES):
        fields = dataclasses.fields(value)
        build = functions.get(type(value), type(value))
        return build(*(_rebuilt(getattr(value, f.name), functions) for f in fields))
    return value


def _slotted_records() -> dict:
    """One instance of each slotted record class, nested records and maps included."""
    element = ProcessElement("e1", ElementKind.ROLE, "Role", "d", {"k": "v"}, (TextBlock("b1", "x"),))
    reference = Reference("r1", ReferenceKind.RESPONSIBILITY, "w1", "e1", {"k": "v"})
    change_set = ChangeSet(
        added_elements=(element,),
        removed_elements=("gone",),
        modified_references=(reference,),
        metamodel_change=(MetamodelVersion.V1_3, MetamodelVersion.V1_3B),
    )
    return {
        OperationExemplar: OperationExemplar("RenameRole", "e1", {"newName": "Lead"}),
        AtomicStep: AtomicStep(AtomicKind.RENAME_ELEMENT, "e1", {"newName": "Lead"}),
        TraceEntry: TraceEntry(
            TraceEntryKind.OPERATION_EXECUTED, "V", "RenameRole", "e1", "", 0, 1, change_set
        ),
        ChangeSet: change_set,
        TextBlock: TextBlock("b1", "x"),
        Issue: Issue(IssueCode.DANGLING_REFERENCE, "r1", "target 'x' does not resolve", "V"),
    }


# each slotted record as its constructor builds it, and as its trusted build
# does where it has one, which stores each field through its slot
_SLOTTED_CASES = [pytest.param(cls, False, id=cls.__name__) for cls in _slotted_records()] + [
    pytest.param(cls, True, id=f"{cls.__name__}-trusted") for cls in _slotted_records() if cls in _trusted_functions()
]


@pytest.mark.parametrize("cls, trusted", _SLOTTED_CASES)
def test_a_slotted_record_copies_pickles_and_stays_frozen(cls, trusted):
    record = _slotted_records()[cls]
    if trusted:
        constructed, record = record, _rebuilt(record, _trusted_functions())
        assert record == constructed and _state(record) == _state(constructed)
    _assert_holds_only_its_fields(record)
    assert "__slots__" in vars(cls)
    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is cls
        assert other == record and _state(other) == _state(record)
        _assert_holds_only_its_fields(other)
    name = dataclasses.fields(cls)[0].name
    for target in (record, copies[-1]):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(target, name, getattr(target, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(target, name)
        with pytest.raises(AttributeError):
            object.__setattr__(target, "extra", 1)  # past the frozen check: no __dict__ to take it


def _non_slotted_samples() -> list:
    """One parsed instance of each non-slotted class the readers build trusted."""
    model = parse_model(fixture_text("root.xml"))
    return [model, next(iter(model.elements.values())), next(iter(model.references.values()))]


def test_a_non_slotted_trusted_build_keeps_the_dict_a_constructed_one_has():
    # a non-slotted record's fields stay in its __dict__, stored in field
    # order as __init__ stores them, so its dict takes the layout (and the
    # shared keys) a constructed instance's has
    samples = _non_slotted_samples()
    assert {type(value) for value in samples} == {
        cls for cls in _TRUSTED_TYPES if "__slots__" not in vars(cls)
    }
    functions = _trusted_functions()
    for value in samples:
        constructed = _twin(value)
        built = functions[type(value)](*(getattr(constructed, f.name) for f in dataclasses.fields(value)))
        assert list(vars(built).items()) == list(vars(constructed).items())
        assert sys.getsizeof(vars(built)) == sys.getsizeof(vars(constructed))


def _assert_like(value, twin) -> None:
    """``value`` and ``twin`` are of one type, hold the same fields in order, and read and compare alike.

    Each field of ``value`` also holds a value of the field's declared type:
    the constructors do not coerce these types either, so a twin alone would
    not show a list where a tuple belongs.
    """
    assert type(value) is type(twin)
    if type(value) is tuple:
        assert len(value) == len(twin)
        for item, item_twin in zip(value, twin):
            _assert_like(item, item_twin)
        return
    if not isinstance(value, _RECORD_TYPES):
        assert value == twin
        return
    names = [f.name for f in dataclasses.fields(value)]
    _assert_holds_only_its_fields(value)
    _assert_holds_only_its_fields(twin)
    assert _state(value) == _state(twin)
    assert repr(value) == repr(twin)
    assert value == twin and twin == value
    hints = typing.get_type_hints(type(value))
    for name in names:
        assert _conforms(getattr(value, name), hints[name]), (type(value).__name__, name)
        _assert_like(getattr(value, name), getattr(twin, name))


def _assert_like_twins(*values) -> None:
    for value in values:
        _assert_like(value, _twin(value))


def _assert_merge_like_twins(model: ProcessModel, trace, base: ProcessModel) -> None:
    _assert_like_twins(*trace.entries, model, trace.replay(base))


def test_study_family_traces_equal_their_twins(root, variants, catalog):
    for leaf in variants.variant_ids():
        for last_wins in (False, True):
            model, trace = merge_chain(variants, leaf, catalog, last_wins=last_wins)
            assert trace.entries
            _assert_merge_like_twins(model, trace, root)


def test_masking_traces_equal_their_twins(root, catalog):
    model, trace = merge_once(root, masking_extension(), catalog)
    _assert_merge_like_twins(model, trace, root)
    container = next(e for e in root.elements.values() if e.kind is ElementKind.PROCESS_MODULE)
    stand_in = ProcessElement("stand-in", ElementKind.PROCESS_MODULE, "Stand-in")
    masking = ExtensionModel(
        "mask", "root", root.metamodel, new_elements=(stand_in,), exclusions=(container.id,)
    )
    model, trace = merge_once(root, masking, catalog)
    assert len(trace.untyped_changes()) == 1
    _assert_merge_like_twins(model, trace, root)


def test_scaled_family_traces_equal_their_twins(catalog):
    variant_set = genmodels.scaled_variant_set(2)
    root = variant_set.root
    for leaf in variant_set.variant_ids():
        model, trace = merge_chain(variant_set, leaf, catalog)
        _assert_merge_like_twins(model, trace, root)


def test_parsed_exemplars_and_expanded_steps_equal_their_twins(catalog):
    for name in sorted(DATA_FILES):
        if name.startswith("ext-"):
            for exemplar in parse_extension(fixture_text(name)).exemplars:
                _assert_like_twins(exemplar, *expand_exemplar(catalog, exemplar))


def _assert_model_like_twins(model: ProcessModel) -> None:
    """``model`` and each of its elements and references (text blocks included) equal their twins."""
    _assert_like_twins(model, *model.elements.values(), *model.references.values())


def test_parsed_study_root_and_new_assets_equal_their_twins():
    _assert_model_like_twins(parse_model(fixture_text("root.xml")))
    new_assets = []
    for name in sorted(DATA_FILES):
        if name.startswith("ext-"):
            ext = parse_extension(fixture_text(name))
            new_assets += [*ext.new_elements, *ext.new_references]
    assert {type(asset) for asset in new_assets} == {ProcessElement, Reference}
    _assert_like_twins(*new_assets)


def test_parsed_study_and_scaled_extensions_equal_their_twins():
    extensions = [parse_extension(fixture_text(name)) for name in sorted(DATA_FILES) if name.startswith("ext-")]
    assert len(extensions) == 6
    _assert_like_twins(*extensions, *genmodels.scaled_variant_set(2).extensions.values())


def test_parsed_scaled_root_equals_its_twin():
    _assert_model_like_twins(genmodels.scaled_variant_set(2).root)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000_000))
def test_parsed_random_models_equal_their_twins(seed):
    model = genmodels.random_model(random.Random(seed), max_elements=30)
    parsed = parse_model(serialize_model(model))
    assert parsed == model
    _assert_model_like_twins(parsed)


def test_parsed_catalog_types_and_steps_equal_their_twins():
    type_defs = list(parse_catalog(fixture_text("catalog.xml")))
    assert len(type_defs) == 69
    _assert_like_twins(*type_defs)


def test_model_diffs_equal_their_twins(root):
    edited = dict(root.elements)
    some_id = sorted(edited)[0]
    edited[some_id] = edited[some_id].with_name("Renamed").with_attribute("extra", "1")
    references = dict(root.references)
    ref = references.pop(sorted(references)[0])
    references["moved"] = Reference("moved", ref.kind, ref.source, ref.target, {"k": "v"})
    other = ProcessModel(root.metamodel, edited, references)
    for a, b in ((root, other), (other, root)):
        change_set = compare_models(a, b)
        assert change_set.modified_elements and change_set.added_references
        # a change set holds the later model's own assets, not copies of them
        changed = (*change_set.added_elements, *change_set.modified_elements)
        assert all(b.elements[elem.id] is elem for elem in changed)
        changed = (*change_set.added_references, *change_set.modified_references)
        assert all(b.references[ref.id] is ref for ref in changed)
        _assert_like_twins(change_set, apply_change_set(a, change_set))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000_000), st.booleans(), st.booleans())
def test_random_merge_traces_equal_their_twins(catalog, seed, last_wins, clean):
    rng = random.Random(seed)
    base = genmodels.random_model(rng, max_elements=30)
    ext = genmodels.random_extension(rng, base, catalog, max_exemplars=12, clean=clean)
    try:
        model, trace = merge_once(base, ext, catalog, last_wins=last_wins)
    except (ConflictError, ValidationFailedError):
        return
    _assert_merge_like_twins(model, trace, base)


# -- field sync ---------------------------------------------------------------------


def test_every_trusted_class_has_one_build_function():
    functions = _trusted_functions()
    assert set(functions) == set(_TRUSTED_TYPES)
    for cls, build in functions.items():
        assert build.__name__ == f"_trusted_{cls.__name__}"


@pytest.mark.parametrize("cls", _TRUSTED_TYPES, ids=lambda cls: cls.__name__)
def test_a_trusted_build_takes_every_field_and_cannot_skip_one(cls):
    build = _trusted_functions()[cls]
    names = [f.name for f in dataclasses.fields(cls)]
    parameters = inspect.signature(build).parameters.values()
    assert [p.name for p in parameters] == names
    assert all(p.default is inspect.Parameter.empty and p.kind is p.POSITIONAL_OR_KEYWORD for p in parameters)
    values = [f"value of {name}" for name in names]
    built = build(*values)
    _assert_holds_only_its_fields(built)
    assert _state(built) == list(zip(names, values))
    for skipped in names:
        with pytest.raises(TypeError):
            build(**{name: value for name, value in zip(names, values) if name != skipped})


def test_a_trusted_build_adds_no_object_a_constructed_one_lacks(variants, catalog):
    # trusted builds store fields as __init__ does: a __dict__ filled in one
    # update would add a tracked dict to every entry and change set
    entries = [
        entry for leaf in variants.variant_ids() for entry in merge_chain(variants, leaf, catalog)[1].entries
    ]
    functions = _trusted_functions()

    def tracked_objects_made(make):
        gc.collect()
        before = len(gc.get_objects())
        made = make()
        return len(gc.get_objects()) - before, made

    def model_twin(model):
        elements = {key: _twin(elem) for key, elem in model.elements.items()}
        return ProcessModel(model.metamodel, elements, {key: _twin(ref) for key, ref in model.references.items()})

    text = fixture_text("root.xml")
    parse_model(text)  # anything a first parse sets up is not counted
    gc.disable()
    try:
        trusted, rebuilt = tracked_objects_made(lambda: [_rebuilt(entry, functions) for entry in entries])
        constructed, twins = tracked_objects_made(lambda: [_twin(entry) for entry in entries])
        parsed_count, parsed = tracked_objects_made(lambda: parse_model(text))
        parsed_twin_count, parsed_twin = tracked_objects_made(lambda: model_twin(parsed))
    finally:
        gc.enable()
    assert rebuilt == twins == entries
    assert trusted == constructed
    # the parsed root is built trusted throughout, its twin by the constructors
    assert parsed_twin == parsed
    assert parsed_count == parsed_twin_count

"""Trusted builds: values the engine builds past their dataclass constructor.

Trace entries, change sets and their nested changes, expanded steps, parsed
exemplars and the models of replays are built by ``model._trusted``. Each
must be indistinguishable from the same value built through its public
constructor, and each build must set every field of its dataclass.
"""

import dataclasses
import gc
import inspect
import random
import types
import typing

import pytest
from hypothesis import given, settings, strategies as st

import genmodels
from procline import catalog as catalog_module, merge as merge_module, model as model_module, xmlio
from procline.atomic import AtomicStep
from procline.catalog import OperationExemplar, expand_exemplar
from procline.errors import ConflictError, ValidationFailedError
from procline.merge import TraceEntry, apply_masking, merge_chain, merge_once
from procline.model import (
    ChangeSet,
    ElementChange,
    ElementKind,
    FieldChange,
    ProcessElement,
    ProcessModel,
    Reference,
    ReferenceChange,
    apply_change_set,
    compare_models,
)
from procline.studyline import DATA_FILES, fixture_text, masking_extension
from procline.xmlio import parse_extension

_TRUSTED_TYPES = (
    TraceEntry,
    ChangeSet,
    ElementChange,
    ReferenceChange,
    FieldChange,
    AtomicStep,
    OperationExemplar,
    ProcessModel,
)


def _twin(value):
    """``value`` built again through public constructors, nested values and tuples included."""
    if type(value) is tuple:
        return tuple(_twin(item) for item in value)
    if isinstance(value, _TRUSTED_TYPES):
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
    if not isinstance(value, _TRUSTED_TYPES):
        assert value == twin
        return
    names = [f.name for f in dataclasses.fields(value)]
    assert list(vars(value)) == names == list(vars(twin))
    assert vars(value) == vars(twin)
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
    model, trace = apply_masking(root, [container.id], [stand_in])
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


def _trusted_functions() -> dict:
    """Every trusted build function bound in the package's modules, by the class it builds."""
    found = {}
    for module in (model_module, merge_module, catalog_module, xmlio):
        for value in vars(module).values():
            if inspect.isfunction(value) and value.__name__.startswith("_trusted_"):
                found[value.__globals__["__cls"]] = value
    return found


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
    assert list(vars(built)) == names and list(vars(built).values()) == values
    for skipped in names:
        with pytest.raises(TypeError):
            build(**{name: value for name, value in zip(names, values) if name != skipped})


def _rebuilt(value, functions):
    """``value`` built again through the trusted build functions, nested values and tuples included."""
    if type(value) is tuple:
        return tuple(_rebuilt(item, functions) for item in value)
    if isinstance(value, _TRUSTED_TYPES):
        fields = dataclasses.fields(value)
        return functions[type(value)](*(_rebuilt(getattr(value, f.name), functions) for f in fields))
    return value


def test_a_trusted_build_adds_no_object_a_constructed_one_lacks(variants, catalog):
    # trusted builds store fields as __init__ does: a __dict__ filled in one
    # update would add a tracked dict to every entry, change set and change
    entries = [
        entry for leaf in variants.variant_ids() for entry in merge_chain(variants, leaf, catalog)[1].entries
    ]
    functions = _trusted_functions()

    def tracked_objects_made(make):
        gc.collect()
        before = len(gc.get_objects())
        made = make()
        return len(gc.get_objects()) - before, made

    gc.disable()
    try:
        trusted, rebuilt = tracked_objects_made(lambda: [_rebuilt(entry, functions) for entry in entries])
        constructed, twins = tracked_objects_made(lambda: [_twin(entry) for entry in entries])
    finally:
        gc.enable()
    assert rebuilt == twins == entries
    assert trusted == constructed

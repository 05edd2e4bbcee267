"""Merge semantics: phases, tracing, masking, conflicts, chain resolution."""

import collections
import contextlib
import copy
import random
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import genmodels
import oracle
from procline import atomic, merge as merge_module
from procline.catalog import (
    AtomicKind,
    OperationCatalog,
    OperationExemplar,
    OperationTypeDef,
    StepTemplate,
    builtin_catalog,
)
from procline.errors import (
    ConflictError,
    CycleError,
    DuplicateIdError,
    MissingParentError,
    UnknownIdError,
    UnknownVariantError,
    ValidationFailedError,
)
from procline.family import ExtensionModel, VariantSet
from procline.merge import (
    MergeTrace,
    TraceEntry,
    TraceEntryKind,
    merge_chain,
    merge_once,
    resolve_chain,
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
from procline.studyline import masking_extension
from procline.xmlread import parse_catalog


def _base(metamodel=MetamodelVersion.V1_3):
    return ProcessModel.of(
        metamodel,
        [
            ProcessElement("r1", ElementKind.ROLE, "Role", attributes={"roleClass": "a"}),
            ProcessElement("r2", ElementKind.ROLE, "Role Two"),
            ProcessElement("wp1", ElementKind.WORK_PRODUCT, "WP"),
            ProcessElement("pm1", ElementKind.PROCESS_MODULE, "Module"),
            ProcessElement("ptv1", ElementKind.PROJECT_TYPE_VARIANT, "Variant"),
            ProcessElement(
                "sec1",
                ElementKind.SECTION,
                "Section",
                description="body",
                text_blocks=(TextBlock("b1", "one"),),
            ),
        ],
        [
            Reference("resp1", ReferenceKind.RESPONSIBILITY, "wp1", "r1"),
            Reference("cfg1", ReferenceKind.CONFIGURATION_ENTRY, "ptv1", "pm1"),
        ],
    )


def _ext(**kwargs):
    defaults = dict(variant_id="X", parent_id="root", metamodel=MetamodelVersion.V1_3)
    defaults.update(kwargs)
    return ExtensionModel(**defaults)


# -- study variants ------------------------------------------------------------

STUDY_TRACE_SIZES = {"A": 17, "B": 75, "Bund": 176, "D": 9}


def test_study_single_merges(root, variants, catalog):
    for variant_id, expected in STUDY_TRACE_SIZES.items():
        merged, trace = merge_once(root, variants.extensions[variant_id], catalog)
        assert len(trace) == expected, variant_id
        assert merged.check_consistency() == []
        assert trace.replay(root) == merged


def test_study_chain_for_c(root, variants, catalog):
    merged, trace = merge_chain(variants, "C", catalog)
    assert len(trace) == 262  # Bund's 176 plus C's own 86
    assert {e.variant_id for e in trace.entries} == {"Bund", "C"}
    assert merged.check_consistency() == []
    assert trace.replay(root) == merged


def test_study_untyped_changes(root, variants, catalog):
    _, trace = merge_once(root, variants.extensions["Bund"], catalog)
    assert len(trace.untyped_changes()) == 2


# -- metamodel handling -----------------------------------------------------------

def test_metamodel_raised_to_extension_level():
    base = _base(MetamodelVersion.V1_3)
    ext = _ext(metamodel=MetamodelVersion.V1_3B)
    merged, trace = merge_once(base, ext, builtin_catalog())
    assert merged.metamodel is MetamodelVersion.V1_3B
    assert trace.final_metamodel is MetamodelVersion.V1_3B
    # an otherwise empty extension still records the raise via replay
    assert trace.replay(base).metamodel is MetamodelVersion.V1_3B


def test_metamodel_never_lowered():
    base = _base(MetamodelVersion.V1_3B)
    merged, _ = merge_once(base, _ext(metamodel=MetamodelVersion.V1_3), builtin_catalog())
    assert merged.metamodel is MetamodelVersion.V1_3B


def test_first_entry_change_set_carries_the_raise(catalog):
    base = _base(MetamodelVersion.V1_3)
    ext = _ext(
        metamodel=MetamodelVersion.V1_3B,
        new_elements=(ProcessElement("n1", ElementKind.ROLE, "New"),),
    )
    _, trace = merge_once(base, ext, catalog)
    first = trace.entries[0]
    assert first.kind is TraceEntryKind.ASSET_ADDED
    assert first.change_set.metamodel_change == ("1.3", "1.3B")


def test_raise_enables_gated_operations(catalog):
    # a 1.3B extension may use 1.3B-defined types on a 1.3 base
    ext = _ext(
        metamodel=MetamodelVersion.V1_3B,
        exemplars=(OperationExemplar("ChangeRoleClass", "r1", {"roleClass": "z"}),),
    )
    merged, _ = merge_once(_base(MetamodelVersion.V1_3), ext, catalog)
    assert merged.elements["r1"].attributes["roleClass"] == "z"


# -- phase ordering -----------------------------------------------------------------

def test_operations_see_new_elements(catalog):
    ext = _ext(
        new_elements=(ProcessElement("n1", ElementKind.ROLE, "Fresh"),),
        exemplars=(OperationExemplar("RenameRole", "n1", {"newName": "Named"}),),
    )
    merged, _ = merge_once(_base(), ext, catalog)
    assert merged.elements["n1"].name == "Named"


def test_operations_cannot_see_excluded_elements(catalog):
    ext = _ext(
        exclusions=("r2",),
        exemplars=(OperationExemplar("RenameRole", "r2", {"newName": "Gone"}),),
    )
    with pytest.raises(ValidationFailedError) as exc:
        merge_once(_base(), ext, catalog)
    assert [(i.code.value, i.subject) for i in exc.value.issues] == [("UnknownTargetId", "r2")]


def test_exclusion_of_new_element_works(catalog):
    ext = _ext(
        new_elements=(ProcessElement("n1", ElementKind.ROLE, "Fresh"),),
        exclusions=("n1",),
    )
    merged, trace = merge_once(_base(), ext, catalog)
    assert "n1" not in merged.elements
    kinds = [e.kind for e in trace.entries]
    assert kinds == [TraceEntryKind.ASSET_ADDED, TraceEntryKind.EXCLUSION_APPLIED]


def test_new_reference_after_new_elements(catalog):
    # a new reference may connect two elements that are themselves new
    ext = _ext(
        new_elements=(
            ProcessElement("nw", ElementKind.WORK_PRODUCT, "NW"),
            ProcessElement("nr", ElementKind.ROLE, "NR"),
        ),
        new_references=(Reference("nref", ReferenceKind.RESPONSIBILITY, "nw", "nr"),),
    )
    merged, trace = merge_once(_base(), ext, catalog)
    assert merged.references["nref"].source == "nw"
    subjects = [e.subject for e in trace.by_kind(TraceEntryKind.ASSET_ADDED)]
    assert subjects == ["nw", "nr", "nref"]  # elements first, then references


def test_asset_issue_subjects(catalog):
    dangling = _ext(new_references=(Reference("nref", ReferenceKind.RESPONSIBILITY, "wp1", "ghost"),))
    with pytest.raises(ValidationFailedError) as exc:
        merge_once(_base(), dangling, catalog)
    assert [(i.code.value, i.subject) for i in exc.value.issues] == [
        ("DanglingReference", "nref")
    ]
    misfit = _ext(new_references=(Reference("nref", ReferenceKind.RESPONSIBILITY, "r1", "wp1"),))
    with pytest.raises(ValidationFailedError) as exc:
        merge_once(_base(), misfit, catalog)
    codes = [(i.code.value, i.subject) for i in exc.value.issues]
    assert codes == [("KindConstraintViolation", "nref"), ("KindConstraintViolation", "nref")]


def test_duplicate_new_element_skipped_and_reported(catalog):
    ext = _ext(new_elements=(ProcessElement("r1", ElementKind.ROLE, "Shadow"),))
    with pytest.raises(ValidationFailedError) as exc:
        merge_once(_base(), ext, catalog)
    assert [(i.code.value, i.subject) for i in exc.value.issues] == [("DuplicateId", "r1")]


def test_unknown_exclusion_reported(catalog):
    with pytest.raises(ValidationFailedError) as exc:
        merge_once(_base(), _ext(exclusions=("ghost",)), catalog)
    assert [(i.code.value, i.subject) for i in exc.value.issues] == [("UnknownId", "ghost")]


def test_exclusion_cascade_count(catalog):
    base = ProcessModel.of(
        MetamodelVersion.V1_3,
        [
            ProcessElement("pm1", ElementKind.PROCESS_MODULE, "M"),
            ProcessElement("pm2", ElementKind.PROCESS_MODULE, "M2"),
            ProcessElement("ptv1", ElementKind.PROJECT_TYPE_VARIANT, "V"),
            ProcessElement("t1", ElementKind.TOPIC, "T"),
        ],
        [
            Reference("c1", ReferenceKind.CONFIGURATION_ENTRY, "ptv1", "pm1"),
            Reference("c2", ReferenceKind.MODULE_CONTAINMENT, "pm1", "t1"),
            Reference("c3", ReferenceKind.TAILORING_DEPENDENCY, "pm1", "pm2"),
        ],
    )
    _, trace = merge_once(base, _ext(exclusions=("pm1",)), builtin_catalog())
    (entry,) = trace.by_kind(TraceEntryKind.EXCLUSION_APPLIED)
    assert entry.cascade_count == 3
    assert entry.subject == "pm1"


def test_reference_exclusion_is_plain_removal(catalog):
    merged, trace = merge_once(_base(), _ext(exclusions=("resp1",)), catalog)
    assert "resp1" not in merged.references
    (entry,) = trace.by_kind(TraceEntryKind.EXCLUSION_APPLIED)
    assert entry.cascade_count == 0


# -- masking -------------------------------------------------------------------------

def test_masking_flags_untyped_change(root, catalog):
    _, trace = merge_once(root, masking_extension(), catalog)
    untyped = trace.untyped_changes()
    assert len(untyped) == 1
    assert untyped[0].variant_id == "Mask"


def test_masking_requires_same_kind_addition(catalog):
    # excluding a module while adding only a variant is not a mask
    ext = _ext(
        new_elements=(ProcessElement("nv", ElementKind.PROJECT_TYPE_VARIANT, "NV"),),
        exclusions=("pm1",),
    )
    _, trace = merge_once(_base(), ext, catalog)
    assert trace.untyped_changes() == []


def test_exclusion_without_addition_is_not_masking(catalog):
    _, trace = merge_once(_base(), _ext(exclusions=("pm1",)), catalog)
    assert trace.untyped_changes() == []


def test_addition_without_exclusion_is_not_masking(catalog):
    ext = _ext(new_elements=(ProcessElement("nm", ElementKind.PROCESS_MODULE, "NM"),))
    _, trace = merge_once(_base(), ext, catalog)
    assert trace.untyped_changes() == []


def test_masking_one_flag_per_excluded_container(catalog):
    base = _base()
    ext = _ext(
        new_elements=(ProcessElement("nm", ElementKind.PROCESS_MODULE, "NM"),),
        exclusions=("pm1",),
    )
    _, trace = merge_once(base, ext, catalog)
    untyped = trace.untyped_changes()
    assert [e.subject for e in untyped] == ["pm1"]


def test_plain_element_exclusion_is_not_masking(catalog):
    ext = _ext(
        new_elements=(ProcessElement("nr", ElementKind.ROLE, "NR"),),
        exclusions=("r2",),
    )
    _, trace = merge_once(_base(), ext, catalog)
    assert trace.untyped_changes() == []


# -- work per step -------------------------------------------------------------------

def _count_calls(monkeypatch, function, counts):
    """Count calls to ``function`` through every procline module that binds it."""

    def counted(*args, **kwargs):
        counts[function.__name__] += 1
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "procline" or name.startswith("procline."):
            if getattr(module, function.__name__, None) is function:
                monkeypatch.setattr(module, function.__name__, counted)


def test_each_executed_step_is_validated_once_and_each_exemplar_expanded_once(
    monkeypatch, variants, catalog
):
    counts = collections.Counter()
    _count_calls(monkeypatch, atomic.validate_step, counts)
    # every expansion, expand_exemplar's and the merge's own, goes through _expand
    _count_calls(monkeypatch, atomic._expand, counts)
    executed_steps = executed_exemplars = 0
    for leaf in variants.variant_ids():
        _, trace = merge_chain(variants, leaf, catalog)
        executed = trace.by_kind(TraceEntryKind.OPERATION_EXECUTED)
        executed_steps += sum(entry.step_count for entry in executed)
        executed_exemplars += len(executed)
    assert executed_exemplars > 0
    assert counts["validate_step"] == executed_steps
    assert counts["_expand"] == executed_exemplars


def _outcome(derive):
    try:
        return derive()
    except (ConflictError, ValidationFailedError) as err:
        return repr(err)


def _assert_entries_replay_one_at_a_time(root, model, trace):
    """Each entry's change set is the full diff across it, and the last step is ``model``."""
    previous = root
    for entry in trace.entries:
        current = apply_change_set(previous, entry.change_set)
        assert entry.change_set == compare_models(previous, current), entry
        previous = current
    assert ProcessModel(trace.final_metamodel, previous.elements, previous.references) == model


def test_scoped_change_sets_equal_full_diffs_on_the_study_family(root, variants, catalog):
    for leaf in variants.variant_ids():
        for last_wins in (False, True):
            model, trace = merge_chain(variants, leaf, catalog, last_wins=last_wins)
            _assert_entries_replay_one_at_a_time(root, model, trace)
    model, trace = merge_once(root, masking_extension(), catalog)
    _assert_entries_replay_one_at_a_time(root, model, trace)


def _text_step():
    return StepTemplate(
        AtomicKind.REPLACE_TEXT, "{target}", {"field": "textBlock", "blockId": "{blockId}", "text": "{text}"}
    )


#: removes the target, then reuses its id for a new reference: the id
#: leaves the element map and enters the reference map in one entry
_REUSE_ID_STEPS = (
    StepTemplate(AtomicKind.REMOVE_ELEMENT),
    StepTemplate(
        AtomicKind.ADD_REFERENCE,
        "{module}",
        {
            "refId": "{target}",
            "refKind": ReferenceKind.MODULE_CONTAINMENT.value,
            "source": "{module}",
            "target": "{newRole}",
        },
    ),
)

#: recipes whose steps write one id twice, so an entry's "before" is the
#: first value logged for that id, not a later one
_MULTI_STEP_TYPES = (
    OperationTypeDef(
        "DoubleWrite", "Role Variations", ElementKind.SECTION, MetamodelVersion.V1_3,
        (_text_step(), _text_step()),
    ),
    OperationTypeDef(
        "RenameThenRemove", "Role Variations", ElementKind.ROLE, MetamodelVersion.V1_3,
        (
            StepTemplate(AtomicKind.RENAME_ELEMENT, args={"newName": "{newName}"}),
            StepTemplate(AtomicKind.REMOVE_ELEMENT),
        ),
    ),
    OperationTypeDef(
        "AddThenRemoveConfigurationEntry", "Role Variations", ElementKind.PROJECT_TYPE_VARIANT,
        MetamodelVersion.V1_3,
        (
            StepTemplate(
                AtomicKind.ADD_REFERENCE,
                args={
                    "refId": "{refId}",
                    "refKind": ReferenceKind.CONFIGURATION_ENTRY.value,
                    "source": "{target}",
                    "target": "{module}",
                },
            ),
            StepTemplate(AtomicKind.REMOVE_REFERENCE, "{refId}"),
        ),
    ),
    OperationTypeDef(
        "RemoveThenReuseId", "Role Variations", ElementKind.WORK_PRODUCT, MetamodelVersion.V1_3, _REUSE_ID_STEPS
    ),
)


def test_scoped_change_sets_equal_full_diffs_when_steps_write_one_id_twice():
    catalog = OperationCatalog(_MULTI_STEP_TYPES)
    ext = _ext(
        exemplars=(
            OperationExemplar("DoubleWrite", "sec1", {"blockId": "b1", "text": "twice"}),
            OperationExemplar("RenameThenRemove", "r1", {"newName": "Gone"}),
            OperationExemplar("AddThenRemoveConfigurationEntry", "ptv1", {"refId": "q1", "module": "pm1"}),
        )
    )
    base = _base()
    model, trace = merge_once(base, ext, catalog)
    assert [entry.step_count for entry in trace.entries] == [2, 2, 2]
    assert model.elements["sec1"].text_blocks[0].text == "twice"
    assert "r1" not in model.elements and "resp1" not in model.references
    assert trace.entries[2].change_set.is_empty()
    assert base == _base()
    _assert_entries_replay_one_at_a_time(base, model, trace)


def test_an_id_moved_from_the_element_map_to_the_reference_map_is_recorded_and_rolled_back():
    catalog = OperationCatalog(_MULTI_STEP_TYPES)
    base = _base()
    args = {"module": "pm1", "newRole": "r2"}
    ext = _ext(exemplars=(OperationExemplar("RemoveThenReuseId", "wp1", args),))
    model, trace = merge_once(base, ext, catalog)
    (entry,) = trace.entries
    assert entry.change_set == compare_models(base, model)
    assert entry.change_set.removed_elements == ("wp1",)
    assert entry.change_set.removed_references == ("resp1",)  # it named wp1
    moved = Reference("wp1", ReferenceKind.MODULE_CONTAINMENT, "pm1", "r2")
    assert entry.change_set.added_references == (moved,)
    assert trace.replay(base) == model

    # a later step that fails undoes the writes to both maps
    failing = OperationTypeDef(
        "RemoveThenReuseIdThenRename", "Role Variations", ElementKind.WORK_PRODUCT, MetamodelVersion.V1_3,
        (*_REUSE_ID_STEPS, StepTemplate(AtomicKind.RENAME_ELEMENT, args={"newName": "gone"})),
    )
    work = _WorkingModel(base)
    before = _state(work)
    issues, steps = merge_module._run_exemplar(
        OperationCatalog([failing]), work, OperationExemplar(failing.name, "wp1", args)
    )
    assert [i.subject for i in issues] == ["wp1"] and steps == []
    assert work.references["wp1"] == moved
    work.rollback()
    assert _state(work) == before


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10_000_000), st.booleans(), st.booleans())
def test_scoped_change_sets_equal_full_diffs_on_random_merges(catalog, seed, last_wins, clean):
    catalog = OperationCatalog((*catalog, *_MULTI_STEP_TYPES))
    rng = random.Random(seed)
    base = genmodels.random_model(rng, max_elements=30)
    ext = genmodels.random_extension(rng, base, catalog, max_exemplars=12, clean=clean)
    try:
        model, trace = merge_once(base, ext, catalog, last_wins=last_wins)
    except (ConflictError, ValidationFailedError):
        return
    _assert_entries_replay_one_at_a_time(base, model, trace)


# -- the working model ----------------------------------------------------------------

def _state(work):
    """Everything a working model holds, copied: maps, incidence index, undo log, metamodel."""
    return (
        dict(work.elements),
        dict(work.references),
        {endpoint: set(ids) for endpoint, ids in work.incident.items()},
        (dict(work.old_elements), dict(work.old_references)),
        work.model.metamodel,
    )


def _recount(references):
    incident = collections.defaultdict(set)
    for ref in references.values():
        incident[ref.source].add(ref.id)
        incident[ref.target].add(ref.id)
    return dict(incident)


def test_failing_exemplar_in_the_middle_leaves_the_working_model_as_it_was(catalog):
    # the first step of each broken type applies, then the second fails on
    # what the first did, so the exemplar has written something to undo
    broken = [
        OperationTypeDef(
            name="RemoveThenRename",
            group="Role Variations",
            target_kind=ElementKind.ROLE,
            defining_metamodel=MetamodelVersion.V1_3,
            recipe=(
                StepTemplate(AtomicKind.REMOVE_ELEMENT),
                StepTemplate(AtomicKind.RENAME_ELEMENT, args={"newName": "gone"}),
            ),
        ),
        OperationTypeDef(
            name="SwapThenMissingBlock",
            group="Role Variations",
            target_kind=ReferenceKind.RESPONSIBILITY,
            defining_metamodel=MetamodelVersion.V1_3,
            recipe=(
                StepTemplate(AtomicKind.SWAP_REFERENCES, args={"newTarget": "r2"}),
                StepTemplate(AtomicKind.CHANGE_ATTRIBUTE, args={"key": "k", "value": "v"}),
                StepTemplate(
                    AtomicKind.REPLACE_TEXT,
                    "sec1",
                    {"field": "textBlock", "blockId": "nope", "text": "x"},
                ),
            ),
        ),
    ]
    mixed = OperationCatalog([*catalog, *broken])
    ext = _ext(
        metamodel=MetamodelVersion.V1_3B,
        new_references=(Reference("resp2", ReferenceKind.RESPONSIBILITY, "wp1", "r1"),),
        exemplars=(
            OperationExemplar("RenameRole", "r2", {"newName": "Second"}),
            OperationExemplar("RemoveThenRename", "r1"),
            OperationExemplar("ChangeRoleClass", "r1", {"roleClass": "b"}),
            OperationExemplar("SwapThenMissingBlock", "resp1"),
            OperationExemplar("RenameRole", "r1", {"newName": "First"}),
        ),
    )
    before_call, after_call = [], []
    run_exemplar = merge_module._run_exemplar

    def observed(catalog, work, exemplar):
        before_call.append(_state(work))
        result = run_exemplar(catalog, work, exemplar)
        after_call.append((bool(result[0]), _state(work)))
        return result

    with mock.patch.object(merge_module, "_run_exemplar", observed):
        with pytest.raises(ValidationFailedError) as exc:
            merge_once(_base(), ext, mixed)
    assert [i.subject for i in exc.value.issues] == ["r1", "sec1"]
    assert [failed for failed, _ in after_call] == [False, True, False, True, False]
    for index in (1, 3):
        # the failed exemplar wrote into the maps (r1 and its references, resp1) ...
        assert after_call[index][1] != before_call[index]
        # ... and the next one starts from exactly the state before it
        assert before_call[index + 1] == before_call[index]
    _, references, incident, log, metamodel = before_call[2]
    assert incident == _recount(references) and log == ({}, {})
    assert metamodel is MetamodelVersion.V1_3B


def test_merge_never_writes_the_base_model(catalog):
    base = _base()
    elements, references = copy.deepcopy(base.elements), copy.deepcopy(base.references)
    ok = _ext(
        exclusions=("r2", "cfg1"),
        exemplars=(
            OperationExemplar("RenameRole", "r1", {"newName": "Renamed"}),
            OperationExemplar("ReplaceSectionText", "sec1", {"blockId": "b1", "text": "new"}),
        ),
    )
    merged, _ = merge_once(base, ok, catalog)
    assert merged != base
    failing = _ext(
        exclusions=("wp1",),
        exemplars=(
            OperationExemplar("RenameRole", "r1", {"newName": "Renamed"}),
            OperationExemplar("RenameRole", "ghost", {"newName": "x"}),
        ),
    )
    with pytest.raises(ValidationFailedError):
        merge_once(base, failing, catalog)
    assert base.elements == elements
    assert base.references == references


@contextlib.contextmanager
def _checking_incidence():
    """Recount the incidence index after every change set and every rollback; yields the change sets seen."""
    change_set, rollback = _WorkingModel.change_set, _WorkingModel.rollback
    checked = []

    def checked_change_set(self):
        result = change_set(self)
        assert self.incident == _recount(self.references)
        checked.append(result)
        return result

    def checked_rollback(self):
        rollback(self)
        assert self.incident == _recount(self.references)

    with mock.patch.object(_WorkingModel, "change_set", checked_change_set):
        with mock.patch.object(_WorkingModel, "rollback", checked_rollback):
            yield checked


def test_incidence_index_matches_a_recount_on_the_study_family(root, variants, catalog):
    with _checking_incidence() as checked:
        for leaf in variants.variant_ids():
            merge_chain(variants, leaf, catalog)
        merge_once(root, masking_extension(), catalog)
    assert any(change_set.removed_elements for change_set in checked)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000_000), st.booleans())
def test_incidence_index_matches_a_recount_after_every_entry(catalog, seed, clean):
    rng = random.Random(seed)
    base = genmodels.random_model(rng, max_elements=30)
    ext = genmodels.random_extension(rng, base, catalog, max_exemplars=12, clean=clean)
    with _checking_incidence():
        _outcome(lambda: merge_once(base, ext, catalog))


# -- replay --------------------------------------------------------------------------

def test_every_study_chain_replays_to_its_merged_model(root, variants, catalog):
    for leaf in variants.variant_ids():
        for last_wins in (False, True):
            merged, trace = merge_chain(variants, leaf, catalog, last_wins=last_wins)
            assert trace.replay(root) == merged
    merged, trace = merge_once(root, masking_extension(), catalog)
    assert trace.replay(root) == merged


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000_000))
def test_random_two_level_chains_replay(catalog, seed):
    rng = random.Random(seed)
    base = genmodels.random_model(rng, max_elements=30)
    first = genmodels.random_extension(rng, base, catalog, max_exemplars=12, clean=True)
    try:
        middle, first_trace = merge_once(base, first, catalog, last_wins=True)
        second = genmodels.random_extension(
            rng, middle, catalog, variant_id="Y", parent_id="X", max_exemplars=12, clean=True
        )
        merged, second_trace = merge_once(middle, second, catalog, last_wins=True)
    except ValidationFailedError:
        return
    trace = MergeTrace(first_trace.entries + second_trace.entries, merged.metamodel)
    assert trace.replay(base) == merged
    assert first_trace.replay(base) == middle


def test_replay_rejects_a_misfit_change_set_in_the_middle(root, variants, catalog):
    _, trace = merge_once(root, variants.extensions["Bund"], catalog)
    middle = len(trace.entries) // 2
    some_element = sorted(root.elements)[0]
    misfits = [
        (UnknownIdError, ChangeSet(removed_elements=("no-such-element",))),
        (UnknownIdError, ChangeSet(removed_references=("no-such-reference",))),
        (DuplicateIdError, ChangeSet(added_elements=(root.elements[some_element],))),
    ]
    for error, misfit in misfits:
        entries = list(trace.entries)
        entries.insert(middle, TraceEntry(TraceEntryKind.UNTYPED_CHANGE, "Bund", "misfit", change_set=misfit))
        with pytest.raises(error):
            MergeTrace(entries, trace.final_metamodel).replay(root)
    # the same change set applied twice no longer fits the second time
    added = next(e for e in trace.entries if e.kind is TraceEntryKind.ASSET_ADDED)
    entries = list(trace.entries)
    entries.insert(middle, added)
    with pytest.raises(DuplicateIdError):
        MergeTrace(entries, trace.final_metamodel).replay(root)


# -- conflicts -----------------------------------------------------------------------

def _conflicting_ext(**kwargs):
    return _ext(
        exemplars=(
            OperationExemplar("ReplaceSectionText", "sec1", {"blockId": "b1", "text": "first"}),
            OperationExemplar("ReplaceSectionText", "sec1", {"blockId": "b1", "text": "second"}),
        ),
        **kwargs,
    )


def test_conflict_raises_with_location(catalog):
    with pytest.raises(ConflictError) as exc:
        merge_once(_base(), _conflicting_ext(), catalog)
    assert exc.value.element_id == "sec1"
    assert exc.value.field == "textBlock:b1"


def test_conflict_needs_two_replaces(catalog):
    # AddText on the field a ReplaceText already hit is not a collision
    ext = _ext(
        exemplars=(
            OperationExemplar("ReplaceSectionText", "sec1", {"blockId": "b1", "text": "x"}),
            OperationExemplar("AddSectionTextPrefix", "sec1", {"blockId": "b1", "text": "y"}),
        ),
    )
    merged, _ = merge_once(_base(), ext, catalog)
    assert merged.elements["sec1"].text_blocks[0].text == "yx"


def test_conflict_wins_over_pending_issues(catalog):
    # an unrelated invalid exemplar does not suppress the conflict
    ext = _ext(
        exemplars=(
            OperationExemplar("RenameRole", "ghost", {"newName": "x"}),
            OperationExemplar("ReplaceSectionText", "sec1", {"blockId": "b1", "text": "a"}),
            OperationExemplar("ReplaceSectionText", "sec1", {"blockId": "b1", "text": "b"}),
        )
    )
    with pytest.raises(ConflictError):
        merge_once(_base(), ext, catalog)


def test_last_wins_resolves_conflict(catalog):
    merged, trace = merge_once(_base(), _conflicting_ext(), catalog, last_wins=True)
    assert merged.elements["sec1"].text_blocks[0].text == "second"
    kinds = [e.kind for e in trace.entries]
    # the override flag lands right before the overriding operation
    assert kinds == [
        TraceEntryKind.OPERATION_EXECUTED,
        TraceEntryKind.UNTYPED_CHANGE,
        TraceEntryKind.OPERATION_EXECUTED,
    ]
    flag = trace.untyped_changes()[0]
    assert flag.subject == "ReplaceSectionText"
    assert flag.target == "sec1"


def test_self_conflict_within_one_exemplar_allowed():
    # one type whose recipe rewrites the same field twice: the scan sees the
    # locations only after recording, so a single exemplar never conflicts
    # with itself
    double = OperationTypeDef(
        name="DoubleWrite",
        group="Role Variations",
        target_kind=ElementKind.SECTION,
        defining_metamodel=MetamodelVersion.V1_3,
        recipe=(
            StepTemplate(
                AtomicKind.REPLACE_TEXT,
                "{target}",
                {"field": "textBlock", "blockId": "b1", "text": "{text}"},
            ),
            StepTemplate(
                AtomicKind.REPLACE_TEXT,
                "{target}",
                {"field": "textBlock", "blockId": "b1", "text": "{text}"},
            ),
        ),
    )
    catalog = OperationCatalog([double])
    ext = _ext(exemplars=(OperationExemplar("DoubleWrite", "sec1", {"text": "twice"}),))
    merged, _ = merge_once(_base(), ext, catalog)
    assert merged.elements["sec1"].text_blocks[0].text == "twice"


def test_two_such_exemplars_still_conflict():
    double = OperationTypeDef(
        name="DoubleWrite",
        group="Role Variations",
        target_kind=ElementKind.SECTION,
        defining_metamodel=MetamodelVersion.V1_3,
        recipe=(
            StepTemplate(
                AtomicKind.REPLACE_TEXT,
                "{target}",
                {"field": "textBlock", "blockId": "b1", "text": "{text}"},
            ),
        ),
    )
    catalog = OperationCatalog([double])
    ext = _ext(
        exemplars=(
            OperationExemplar("DoubleWrite", "sec1", {"text": "a"}),
            OperationExemplar("DoubleWrite", "sec1", {"text": "b"}),
        )
    )
    with pytest.raises(ConflictError):
        merge_once(_base(), ext, catalog)


# -- validation aggregation --------------------------------------------------------

def test_all_issues_collected_and_tagged(catalog):
    ext = _ext(
        variant_id="Broken",
        new_references=(Reference("nref", ReferenceKind.RESPONSIBILITY, "wp1", "ghost"),),
        exclusions=("nothing",),
        exemplars=(
            OperationExemplar("RenameRole", "missing", {"newName": "x"}),
            OperationExemplar("NoSuchType", "r1"),
        ),
    )
    with pytest.raises(ValidationFailedError) as exc:
        merge_once(_base(), ext, catalog)
    issues = exc.value.issues
    assert [(i.code.value, i.subject) for i in issues] == [
        ("DanglingReference", "nref"),
        ("UnknownId", "nothing"),
        ("UnknownTargetId", "missing"),
        ("UnknownOperationType", "NoSuchType"),
    ]
    assert all(i.variant_id == "Broken" for i in issues)


def test_invalid_merge_leaves_inputs_alone(catalog):
    base = _base()
    snapshot = compare_models(base, base)
    ext = _ext(exclusions=("ghost",))
    with pytest.raises(ValidationFailedError):
        merge_once(base, ext, catalog)
    assert compare_models(base, _base()) == snapshot  # unchanged


def test_an_inconsistent_root_fails_even_an_empty_merge(catalog):
    # the consistency check covers the whole merged model, so what its base
    # already breaks fails the merge, tagged with the variant being merged
    root = ProcessModel.of(
        MetamodelVersion.V1_3,
        [ProcessElement("r1", ElementKind.ROLE, "Role")],
        [Reference("bad", ReferenceKind.RESPONSIBILITY, "r1", "ghost")],
    )
    ext = ExtensionModel("V", "root", MetamodelVersion.V1_3)
    expected = [
        "[V] KindConstraintViolation(bad): Responsibility source must be one of ['WorkProduct'], got Role",
        "[V] DanglingReference(bad): target 'ghost' does not resolve to an element",
    ]
    with pytest.raises(ValidationFailedError) as once:
        merge_once(root, ext, catalog)
    with pytest.raises(ValidationFailedError) as chain:
        merge_chain(VariantSet.of(root, [ext]), "V", catalog)
    for raised in (once, chain):
        assert [str(issue) for issue in raised.value.issues] == expected


# -- chain resolution -----------------------------------------------------------------

def test_resolve_chain_order(variants):
    chain = resolve_chain(variants, "C")
    assert [e.variant_id for e in chain] == ["Bund", "C"]
    assert [e.variant_id for e in resolve_chain(variants, "A")] == ["A"]


def test_resolve_chain_errors(root):
    a = _ext(variant_id="A", parent_id="root")
    b = _ext(variant_id="B", parent_id="missing")
    c1 = _ext(variant_id="C1", parent_id="C2")
    c2 = _ext(variant_id="C2", parent_id="C1")
    vs = VariantSet.of(root, [a, b, c1, c2])
    with pytest.raises(UnknownVariantError):
        resolve_chain(vs, "nope")
    with pytest.raises(MissingParentError):
        resolve_chain(vs, "B")
    with pytest.raises(CycleError):
        resolve_chain(vs, "C1")


def test_merge_chain_concatenates(root, variants, catalog):
    merged, chain_trace = merge_chain(variants, "C", catalog)
    bund_model, bund_trace = merge_once(root, variants.extensions["Bund"], catalog)
    c_model, c_trace = merge_once(bund_model, variants.extensions["C"], catalog)
    assert merged == c_model
    assert chain_trace.entries == bund_trace.entries + c_trace.entries
    assert chain_trace.final_metamodel is merged.metamodel


def test_constructor_guards(root):
    with pytest.raises(ValueError):
        ExtensionModel(variant_id="", parent_id="root", metamodel=MetamodelVersion.V1_3)
    with pytest.raises(ValueError):
        ExtensionModel(variant_id="X", parent_id="", metamodel=MetamodelVersion.V1_3)
    with pytest.raises(ValueError):
        VariantSet(root=root, extensions={"Y": _ext(variant_id="X")})
    with pytest.raises(ValueError):
        VariantSet(root=root, extensions={"root": _ext(variant_id="root")})
    with pytest.raises(ValueError):
        VariantSet.of(root, [_ext(variant_id="X"), _ext(variant_id="X")])


# -- randomized equivalence -------------------------------------------------------------

def _engine_outcome(base, ext, catalog, last_wins):
    try:
        model, trace = merge_once(base, ext, catalog, last_wins=last_wins)
    except ConflictError:
        return ("conflict", None, None)
    except ValidationFailedError as err:
        return ("invalid", {(i.code.value, i.subject) for i in err.issues}, None)
    return (
        "ok",
        oracle.model_to_plain(model),
        [(e.kind.value, e.subject) for e in trace.entries],
    )


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000_000),
    st.booleans(),
)
def test_merge_agrees_with_oracle(catalog, seed, last_wins):
    rng = random.Random(seed)
    base = genmodels.random_model(rng, max_elements=30)
    ext = genmodels.random_extension(rng, base, catalog, max_exemplars=12)
    got = _engine_outcome(base, ext, catalog, last_wins)
    want = oracle.merge(
        oracle.model_to_plain(base),
        oracle.extension_to_plain(ext),
        oracle.catalog_to_plain(catalog),
        last_wins=last_wins,
    )
    assert got == want
    # the merge never mutates its inputs
    assert base == genmodels.random_model(random.Random(seed), max_elements=30)


#: a catalog as ``--catalog`` reads one, with types that write an element's
#: attribute text; the built-in catalog has such types for references only
_ATTRIBUTE_TEXT_CATALOG = """\
<?xml version="1.0" encoding="UTF-8"?>
<operationCatalog schemaVersion="1">
  <operationType name="AddRoleClassPostfix" group="Role Variations" targetKind="Role" metamodel="1.3">
    <step atomic="AddText" target="{target}">
      <arg name="field">attribute</arg>
      <arg name="key">roleClass</arg>
      <arg name="position">postfix</arg>
      <arg name="text">{text}</arg>
    </step>
  </operationType>
  <operationType name="AddRoleClassPrefix" group="Role Variations" targetKind="Role" metamodel="1.3">
    <step atomic="AddText" target="{target}">
      <arg name="field">attribute</arg>
      <arg name="key">roleClass</arg>
      <arg name="position">prefix</arg>
      <arg name="text">{text}</arg>
    </step>
  </operationType>
  <operationType name="ReplaceRoleClass" group="Role Variations" targetKind="Role" metamodel="1.3">
    <step atomic="ReplaceText" target="{target}">
      <arg name="field">attribute</arg>
      <arg name="key">roleClass</arg>
      <arg name="text">{text}</arg>
    </step>
  </operationType>
</operationCatalog>
"""


def test_a_parsed_type_writes_element_attribute_text_as_the_oracle_does():
    catalog = parse_catalog(_ATTRIBUTE_TEXT_CATALOG)
    ext = _ext(
        exemplars=(
            OperationExemplar("ReplaceRoleClass", "r1", {"text": "lead"}),
            OperationExemplar("AddRoleClassPrefix", "r1", {"text": "co-"}),
            OperationExemplar("AddRoleClassPostfix", "r1", {"text": " (acting)"}),
        )
    )
    base = _base()
    merged, _ = merge_once(base, ext, catalog)
    assert merged.elements["r1"] == ProcessElement(
        "r1", ElementKind.ROLE, "Role", attributes={"roleClass": "co-lead (acting)"}
    )
    want = oracle.merge(
        oracle.model_to_plain(base), oracle.extension_to_plain(ext), oracle.catalog_to_plain(catalog)
    )
    assert _engine_outcome(base, ext, catalog, False) == want


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000_000))
def test_merged_models_replay_and_stay_consistent(catalog, seed):
    rng = random.Random(seed)
    base = genmodels.random_model(rng, max_elements=30)
    ext = genmodels.random_extension(rng, base, catalog, max_exemplars=12, clean=True)
    try:
        merged, trace = merge_once(base, ext, catalog)
    except (ValidationFailedError, ConflictError):
        return
    assert merged.check_consistency() == []
    assert trace.replay(base) == merged


def test_clean_random_extensions_merge(catalog):
    # every declaration of a clean extension is built to validate, so each
    # must reach the success path; before the generator skipped references an
    # excluded element's cascade had removed, 12 of these 400 excluded such a
    # reference again and failed with UnknownId
    failures = {}
    for seed in range(400):
        rng = random.Random(seed)
        base = genmodels.random_model(rng, max_elements=30)
        ext = genmodels.random_extension(rng, base, catalog, max_exemplars=12, clean=True)
        try:
            merge_once(base, ext, catalog)
        except (ValidationFailedError, ConflictError) as exc:
            failures[seed] = str(exc)
    assert failures == {}

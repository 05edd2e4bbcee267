"""Usage statistics over variant sets."""

import random

from hypothesis import given, settings, strategies as st

import genmodels
import oracle
from procline.analytics import UnusedSlice, top_n, unused_report, usage_report
from procline.catalog import OperationExemplar
from procline.merge import ExtensionModel, VariantSet
from procline.model import ElementKind, MetamodelVersion, ProcessElement, ProcessModel

STUDY_TOTALS = {"Bund": 167, "A": 17, "B": 72, "C": 84, "D": 0}


def test_study_variant_totals(variants, catalog):
    report = usage_report(variants, catalog)
    assert report.variant_ids == ("A", "B", "Bund", "C", "D")
    assert dict(report.variant_totals) == STUDY_TOTALS
    assert report.total_exemplars == 340
    assert report.unknown_types == {}


def test_study_defined_split(variants, catalog):
    report = usage_report(variants, catalog)
    assert report.defined_per_metamodel == {
        MetamodelVersion.V1_3: 34,
        MetamodelVersion.V1_3B: 35,
        MetamodelVersion.V1_3Z: 0,
    }


def test_matrix_is_dense(variants, catalog):
    report = usage_report(variants, catalog)
    assert len(report.cells) == 5 * 69
    assert len(report.matrix) == 5 * 15 * 3
    assert all(count >= 0 for count in report.matrix.values())
    # no variant uses anything defined by the newest metamodel
    assert all(
        count == 0 for (v, g, mm), count in report.matrix.items() if mm is MetamodelVersion.V1_3Z
    )


def test_matrix_agrees_with_declared_exemplars(variants, catalog):
    report = usage_report(variants, catalog)
    # independent recount for one variant straight off its exemplar list
    bund = variants.extensions["Bund"]
    role_13 = sum(
        1
        for x in bund.exemplars
        if (d := catalog.get(x.type_name)) is not None
        and d.group == "Role Variations"
        and d.defining_metamodel is MetamodelVersion.V1_3
    )
    assert report.matrix[("Bund", "Role Variations", MetamodelVersion.V1_3)] == role_13
    role_cells = sum(
        count for (v, g, _), count in report.matrix.items() if (v, g) == ("Bund", "Role Variations")
    )
    assert role_cells == sum(
        1
        for x in bund.exemplars
        if (d := catalog.get(x.type_name)) is not None and d.group == "Role Variations"
    )


def test_cells_sum_to_variant_totals(variants, catalog):
    report = usage_report(variants, catalog)
    for variant_id in report.variant_ids:
        assert (
            sum(count for (v, _), count in report.cells.items() if v == variant_id)
            == report.variant_totals[variant_id]
        )
    assert sum(report.per_type_counts.values()) == report.total_exemplars


def _mini_set(exemplars_by_variant):
    root = ProcessModel.of(
        MetamodelVersion.V1_3,
        [ProcessElement("r1", ElementKind.ROLE, "R")],
        [],
    )
    extensions = [
        ExtensionModel(
            variant_id=variant_id,
            parent_id="root",
            metamodel=MetamodelVersion.V1_3,
            exemplars=tuple(exemplars),
        )
        for variant_id, exemplars in exemplars_by_variant.items()
    ]
    return VariantSet.of(root, extensions)


def test_unknown_types_counted_separately(catalog):
    vs = _mini_set(
        {
            "X": [
                OperationExemplar("RenameRole", "r1", {"newName": "a"}),
                OperationExemplar("HouseRule", "r1"),
                OperationExemplar("HouseRule", "r1"),
            ]
        }
    )
    report = usage_report(vs, catalog)
    assert report.variant_totals == {"X": 3}  # unknown ones still count here
    assert report.total_exemplars == 3
    assert report.unknown_types == {("X", "HouseRule"): 2}
    assert report.per_type_counts["RenameRole"] == 1
    assert "HouseRule" not in report.per_type_counts
    assert sum(report.cells.values()) == 1  # typed exemplars only


def test_top_n_orders_by_count_then_name(catalog):
    vs = _mini_set(
        {
            "X": [
                OperationExemplar("RenameRole", "r1", {"newName": "a"}),
                OperationExemplar("RenameRole", "r1", {"newName": "b"}),
                OperationExemplar("RemoveTask", "r1"),
                OperationExemplar("RemoveChapter", "r1"),
                OperationExemplar("ArrangeSection", "r1", {"newOrderingNumber": "1"}),
            ]
        }
    )
    report = usage_report(vs, catalog)
    assert top_n(report, 4) == [
        ("RenameRole", 2),
        ("ArrangeSection", 1),  # ties broken alphabetically
        ("RemoveChapter", 1),
        ("RemoveTask", 1),
    ]
    assert top_n(report, 100) == top_n(report, 4)  # zero-count types never appear


def test_used_and_unused_partition(variants, catalog):
    report = usage_report(variants, catalog)
    used = set(report.used_types)
    unused = set(report.unused_types)
    assert used | unused == {t.name for t in catalog}
    assert used & unused == set()
    assert len(unused) == 25


def test_unused_report_slices(variants, catalog):
    report = usage_report(variants, catalog)
    unused = unused_report(report)
    assert unused.unused_types == report.unused_types
    assert unused.overall.unused_count == 25
    assert unused.overall.defined_count == 69
    per_mm = unused.per_metamodel
    assert per_mm[MetamodelVersion.V1_3].defined_count == 34
    assert per_mm[MetamodelVersion.V1_3B].defined_count == 35
    assert (
        per_mm[MetamodelVersion.V1_3].unused_count
        + per_mm[MetamodelVersion.V1_3B].unused_count
        == 25
    )
    assert per_mm[MetamodelVersion.V1_3Z] == UnusedSlice(0, 0)
    assert per_mm[MetamodelVersion.V1_3Z].fraction == 0.0  # no division blowup


def test_study_unused_split_by_metamodel(variants, catalog):
    report = usage_report(variants, catalog)
    per_mm = unused_report(report).per_metamodel
    assert per_mm[MetamodelVersion.V1_3].unused_count == 12
    assert per_mm[MetamodelVersion.V1_3B].unused_count == 13


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=1_000_000))
def test_usage_report_agrees_with_oracle_counts(catalog, seed):
    rng = random.Random(seed)
    family = genmodels.random_variant_set(rng, catalog)
    report = usage_report(family, catalog)
    expected = oracle.usage_counts(
        oracle.catalog_to_plain(catalog),
        [oracle.extension_to_plain(ext) for ext in family.extensions.values()],
    )
    assert dict(report.per_type_counts) == expected["per_type"]
    assert dict(report.cells) == expected["cells"]
    assert {(v, g, mm.value): n for (v, g, mm), n in report.matrix.items()} == expected["matrix"]
    assert dict(report.variant_totals) == expected["totals"]
    assert dict(report.unknown_types) == expected["unknown"]
    assert report.total_exemplars == sum(expected["totals"].values())
    assert expected["unknown"] and 0 in expected["totals"].values()

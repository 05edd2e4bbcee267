"""Acceptance gate: the seven headline guarantees, each as one test.

Every test prints a single PASS/FAIL line (visible with ``pytest -s``; the
``-v`` listing gives the same verdict per criterion). The expected numbers
are written out literally on purpose: they are the published results for
the bundled study data set and must never be recomputed from the code
under test.
"""

import random
import time
from contextlib import contextmanager

import genmodels
import oracle
from procline.analytics import top_n, unused_report, usage_report
from procline.atomic import validate_exemplar
from procline.catalog import builtin_catalog
from procline.errors import ConflictError, ValidationFailedError
from procline.merge import merge_chain, merge_once
from procline.model import MetamodelVersion
from procline.studyline import (
    DATA_FILES,
    fixture_text,
    masking_extension,
    reference_model,
    study_variant_set,
)
from procline.xmlio import serialize_model
from procline.xmlread import parse_catalog, parse_extension, parse_model


@contextmanager
def _criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


# -- 1: catalog structure ------------------------------------------------------------

def test_criterion_1_catalog_structure():
    with _criterion(1, "catalog holds 69 types (34 + 35 + 0) in 15 groups, built < 1s"):
        start = time.perf_counter()
        catalog = builtin_catalog()
        counts = catalog.counts_by_metamodel()
        groups = catalog.groups()
        elapsed = time.perf_counter() - start
        assert len(catalog) == 69
        assert counts == {
            MetamodelVersion.V1_3: 34,
            MetamodelVersion.V1_3B: 35,
            MetamodelVersion.V1_3Z: 0,
        }
        assert len(groups) == 15
        assert sum(1 for t in catalog if t.synthetic) == 33
        assert elapsed < 1.0, f"catalog construction took {elapsed:.3f}s"


# -- 2: usage matrix ----------------------------------------------------------------

# (count defined by 1.3, count defined by 1.3B) per group and variant;
# variants and cells absent from this table hold zeros
PUBLISHED_MATRIX = {
    "Discipline Variations": {"Bund": (1, 12), "C": (2, 1)},
    "Work Product Variations": {"Bund": (1, 11), "A": (3, 0), "B": (3, 2), "C": (0, 1)},
    "Topic Variations": {"Bund": (2, 19), "A": (5, 0), "B": (9, 0), "C": (1, 0)},
    "Activity Variations": {"Bund": (0, 1), "A": (1, 0)},
    "Task Variations": {},
    "Role Variations": {"Bund": (4, 47), "B": (24, 17), "C": (14, 18)},
    "Tailoring Variations": {"Bund": (0, 4), "A": (1, 0), "B": (1, 0)},
    "Decision Gate Variations": {"Bund": (0, 10), "A": (3, 0), "B": (1, 0)},
    "Description Replacements": {"Bund": (25, 0), "A": (1, 0), "B": (4, 0), "C": (24, 0)},
    "Description Add-ons": {"A": (2, 0), "B": (4, 0), "C": (1, 0)},
    "Description Re-Arragements": {"Bund": (1, 1), "A": (1, 0), "B": (6, 0), "C": (5, 0)},
    "Description Removements": {"Bund": (0, 3), "B": (0, 1), "C": (0, 5)},
    "Tool/Method Ref. Variations": {"C": (11, 0)},
    "Mapping Variations": {"Bund": (0, 4), "C": (0, 1)},
    "Appendix Variations": {"Bund": (0, 21)},
}

PUBLISHED_TOTALS = {"Bund": 167, "A": 17, "B": 72, "C": 84, "D": 0}
PUBLISHED_SPLITS = {"Bund": (34, 133), "A": (17, 0), "B": (52, 20), "C": (58, 26), "D": (0, 0)}


def test_criterion_2_usage_matrix():
    with _criterion(2, "usage matrix matches the published table cell for cell, < 5s"):
        start = time.perf_counter()
        catalog = builtin_catalog()
        variants = study_variant_set()
        report = usage_report(variants, catalog)
        elapsed = time.perf_counter() - start
        for group in catalog.groups():
            for variant in report.variant_ids:
                want_13, want_13b = PUBLISHED_MATRIX[group].get(variant, (0, 0))
                cell = (variant, group)
                assert report.matrix[(*cell, MetamodelVersion.V1_3)] == want_13, cell
                assert report.matrix[(*cell, MetamodelVersion.V1_3B)] == want_13b, cell
                assert report.matrix[(*cell, MetamodelVersion.V1_3Z)] == 0, cell
        assert dict(report.variant_totals) == PUBLISHED_TOTALS
        for variant, (want_13, want_13b) in PUBLISHED_SPLITS.items():
            got_13 = sum(
                count
                for (v, _, mm), count in report.matrix.items()
                if v == variant and mm is MetamodelVersion.V1_3
            )
            got_13b = sum(
                count
                for (v, _, mm), count in report.matrix.items()
                if v == variant and mm is MetamodelVersion.V1_3B
            )
            assert (got_13, got_13b) == (want_13, want_13b), variant
        assert report.total_exemplars == 340
        assert elapsed < 5.0, f"matrix computation took {elapsed:.3f}s"


# -- 3: usage ranking and dead weight ----------------------------------------------

PUBLISHED_TOP_10 = [
    ("ReplaceSectionText", 46),
    ("ChangeRoleClass", 36),
    ("ReplaceRoleDescription", 34),
    ("RenameRole", 22),
    ("RemoveLiteratureReference", 19),
    ("ChangeResponsibility", 16),
    ("RemoveTopicAssignment", 16),
    ("ArrangeSection", 12),
    ("RemoveSupportingRole", 12),
    ("ChangeDisciplineNumber", 11),
]

PUBLISHED_UNUSED = (
    "AddActivityDescriptionPostfix",
    "AddActivityDescriptionPrefix",
    "AddChapterTextPrefix",
    "AddDecisionGateDescriptionPrefix",
    "AddDisciplineDescriptionPostfix",
    "AddDisciplineDescriptionPrefix",
    "AddProcessModule",
    "AddRoleDescriptionPrefix",
    "AddSectionTextPrefix",
    "ArrangeSubTopic",
    "ChangeSectionNumber",
    "ChangeWorkProduktDiscipline",
    "DeleteWorkProduct",
    "RefineRole",
    "RemoveAbbreviation",
    "RemoveChapter",
    "RemoveGlossaryItem",
    "RemoveResponsibility",
    "RemoveTask",
    "RenameCreatingDependency",
    "RenameTailoringDependency",
    "RenameTask",
    "ReplaceGlossaryItemDescription",
    "ReplaceTailoringDependencyDescription",
    "ReplaceTaskDescription",
)


def test_criterion_3_top_types_and_unused():
    with _criterion(3, "top 10 types and the 25 never-used types match exactly"):
        report = usage_report(study_variant_set(), builtin_catalog())
        ranked = top_n(report, 10)
        assert ranked == PUBLISHED_TOP_10
        top_sum = sum(count for _, count in ranked)
        assert top_sum == 224
        assert round(100 * top_sum / report.total_exemplars, 1) == 65.9
        unused = unused_report(report)
        assert unused.unused_types == PUBLISHED_UNUSED
        assert round(100 * unused.overall.fraction, 1) == 36.2
        per_mm = unused.per_metamodel
        assert round(100 * per_mm[MetamodelVersion.V1_3].fraction, 1) == 35.3
        assert round(100 * per_mm[MetamodelVersion.V1_3B].fraction, 1) == 37.1


# -- 4: determinism and equivalence ---------------------------------------------------

def _outcome(base, ext, catalog, last_wins=False):
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


def test_criterion_4_determinism_and_oracle_equivalence():
    with _criterion(
        4, "100 repeated derivations byte-identical; 1000 random merges agree with the oracle, < 60s"
    ):
        start = time.perf_counter()
        catalog = builtin_catalog()
        variants = study_variant_set()
        first = {
            v: serialize_model(merge_chain(variants, v, catalog)[0])
            for v in variants.variant_ids()
        }
        for _ in range(99):
            for v, baseline in first.items():
                assert serialize_model(merge_chain(variants, v, catalog)[0]) == baseline, v

        plain_catalog = oracle.catalog_to_plain(catalog)
        divergences = 0
        for seed in range(1000):
            rng = random.Random(seed)
            base = genmodels.random_model(rng, max_elements=50)
            ext = genmodels.random_extension(rng, base, catalog, max_exemplars=20)
            last_wins = seed % 3 == 0
            got = _outcome(base, ext, catalog, last_wins)
            want = oracle.merge(
                oracle.model_to_plain(base),
                oracle.extension_to_plain(ext),
                plain_catalog,
                last_wins=last_wins,
            )
            if got != want:
                divergences += 1
            if got[0] == "ok":
                merged, _ = merge_once(base, ext, catalog, last_wins=last_wins)
                assert merged.check_consistency() == [], seed
            # inputs must come out untouched
            assert base == genmodels.random_model(random.Random(seed), max_elements=50), seed
        elapsed = time.perf_counter() - start
        assert divergences == 0
        assert elapsed < 60.0, f"criterion 4 took {elapsed:.1f}s"


# -- 5: typing and gating ---------------------------------------------------------------

def test_criterion_5_typing_discipline():
    with _criterion(
        5, "ill-typed and future-metamodel exemplars 100% rejected, well-typed 100% accepted"
    ):
        catalog = builtin_catalog()
        plain_catalog = oracle.catalog_to_plain(catalog)
        false_accepts = 0
        false_rejects = 0
        oracle_disagreements = 0
        for seed in range(400):
            rng = random.Random(seed)
            model = genmodels.random_model(rng, max_elements=25)
            plain_model = oracle.model_to_plain(model)

            bad, reason = genmodels.ill_typed_exemplar(rng, model, catalog)
            engine_bad = validate_exemplar(catalog, model, bad)
            if engine_bad == []:
                false_accepts += 1
            plain_bad = {"type": bad.type_name, "target": bad.target, "args": dict(bad.args)}
            if bool(engine_bad) != bool(oracle.check_exemplar(plain_catalog, plain_model, plain_bad)):
                oracle_disagreements += 1

            good_model = genmodels.random_model(
                random.Random(seed + 1_000_000), max_elements=25, metamodel=MetamodelVersion.V1_3B
            )
            good = genmodels.well_typed_exemplar(rng, good_model, catalog)
            engine_good = validate_exemplar(catalog, good_model, good)
            if engine_good != []:
                false_rejects += 1
            plain_good = {"type": good.type_name, "target": good.target, "args": dict(good.args)}
            if oracle.check_exemplar(
                plain_catalog, oracle.model_to_plain(good_model), plain_good
            ) != []:
                oracle_disagreements += 1

        assert false_accepts == 0
        assert false_rejects == 0
        assert oracle_disagreements == 0


# -- 6: masking -------------------------------------------------------------------------

def test_criterion_6_masking_flagged_once():
    with _criterion(6, "the masking fixture yields exactly one untyped-change flag"):
        merged, trace = merge_once(reference_model(), masking_extension(), builtin_catalog())
        untyped = trace.untyped_changes()
        assert len(untyped) == 1
        assert merged.check_consistency() == []


# -- 7: serialization stability ------------------------------------------------------------

def test_criterion_7_fixture_byte_stability():
    with _criterion(7, "parse -> serialize is byte-stable on all 8 bundled files"):
        from procline.xmlio import serialize_catalog, serialize_extension

        parsers = {
            "root.xml": (parse_model, serialize_model),
            "catalog.xml": (parse_catalog, serialize_catalog),
        }
        assert len(DATA_FILES) == 8
        for name in DATA_FILES:
            parse, serialize = parsers.get(name, (parse_extension, serialize_extension))
            text = fixture_text(name)
            parsed = parse(text)
            assert serialize(parsed) == text, f"{name} is not byte-stable"
            assert parse(serialize(parsed)) == parsed, f"{name} is not a parse fixed point"

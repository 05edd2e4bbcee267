"""The bulk builders run with the cyclic garbage collector paused.

``parse_model``, ``parse_extension``, ``parse_catalog`` and ``usage_report``
pause Python's cyclic collector while they run and give the caller's
setting back on every exit. That is safe because what they build holds no
reference cycles: once their results are dropped, a collection under
``gc.DEBUG_SAVEALL`` finds nothing.
"""

import gc
import random

import pytest

import genmodels
from procline import xmlread
from procline.analytics import export_stats_csv, render_stats_text, usage_report
from procline.catalog import builtin_catalog
from procline.cli import main
from procline.errors import DuplicateIdError, DuplicateTypeNameError, ParseError, ProclineError, SchemaError
from procline.family import VariantSet
from procline.studyline import DATA_FILES, fixture_text, study_variant_set
from procline.xmlio import serialize_extension, serialize_model
from procline.xmlread import parse_catalog, parse_extension, parse_model
from test_xmlio import _ONE_DEFECT_EXTENSIONS, _TYPE_ATTRS, CATALOG_OPEN

_STUDY_EXTENSIONS = sorted(name for name in DATA_FILES if name.startswith("ext-"))
_TWICE = f'<operationType {_TYPE_ATTRS}><step atomic="RenameElement" target="{{target}}"/></operationType>' * 2
# parsed here, so that a call below parses only what it names
_STUDY = study_variant_set()
_CATALOG = builtin_catalog()


# entry point and outcome -> (the call, the error it raises or None)
_CALLS = {
    "parse_model-ok": (lambda: parse_model(fixture_text("root.xml")), None),
    "parse_model-ParseError": (lambda: parse_model("<processModel"), ParseError),
    "parse_model-SchemaError": (lambda: parse_model(fixture_text("ext-a.xml")), SchemaError),
    "parse_extension-ok": (lambda: parse_extension(fixture_text("ext-a.xml")), None),
    "parse_extension-ParseError": (lambda: parse_extension("<extensionModel>&</extensionModel>"), ParseError),
    "parse_extension-SchemaError": (lambda: parse_extension(_ONE_DEFECT_EXTENSIONS["empty-type"][0]), SchemaError),
    "parse_catalog-ok": (lambda: parse_catalog(fixture_text("catalog.xml")), None),
    "parse_catalog-ParseError": (lambda: parse_catalog(CATALOG_OPEN), ParseError),
    "parse_catalog-SchemaError": (lambda: parse_catalog(fixture_text("root.xml")), SchemaError),
    "parse_catalog-DuplicateTypeNameError": (
        lambda: parse_catalog(f"{CATALOG_OPEN}{_TWICE}</operationCatalog>"),
        DuplicateTypeNameError,
    ),
    "usage_report-ok": (lambda: usage_report(_STUDY, _CATALOG), None),
    "usage_report-TypeError": (lambda: usage_report(_STUDY, None), TypeError),
}


def _spy_on_the_work(monkeypatch):
    """Record ``gc.isenabled()`` inside every parse and every count."""
    seen = []

    def spying(original):
        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return original(*args, **kwargs)

        return spy

    monkeypatch.setattr(xmlread, "_root_node", spying(xmlread._root_node))
    monkeypatch.setattr(VariantSet, "variant_ids", spying(VariantSet.variant_ids))
    return seen


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("name", sorted(_CALLS))
def test_builder_works_paused_and_leaves_the_collector_as_it_found_it(name, enabled, monkeypatch, gc_restored):
    call, error = _CALLS[name]
    seen = _spy_on_the_work(monkeypatch)
    (gc.enable if enabled else gc.disable)()
    if error is None:
        call()
    else:
        with pytest.raises(error):
            call()
    assert seen == [False]
    assert gc.isenabled() is enabled


def test_a_builder_inside_a_command_leaves_the_collector_paused(monkeypatch, tmp_path, capsys, gc_restored):
    for name in ["root.xml", *_STUDY_EXTENSIONS]:
        (tmp_path / name).write_text(fixture_text(name), encoding="utf-8", newline="")
    argv = ["stats", "--root", str(tmp_path / "root.xml")]
    for name in _STUDY_EXTENSIONS:
        argv += ["--extension", str(tmp_path / name)]
    seen = _spy_on_the_work(monkeypatch)
    after = []

    def parse_and_look(*args, **kwargs):
        result = parse_extension(*args, **kwargs)
        after.append(gc.isenabled())  # back in the command, outside the nested pause
        return result

    monkeypatch.setattr("procline.xmlread.parse_extension", parse_and_look)  # the command imports it when it runs
    gc.enable()
    assert main(argv) == 0
    capsys.readouterr()
    assert seen == [False] * (len(_STUDY_EXTENSIONS) + 2)  # the root, the extensions, the count
    assert after == [False] * len(_STUDY_EXTENSIONS)
    assert gc.isenabled()


def _cyclic_garbage(build):
    """The objects a collection finds unreachable after ``build()`` runs and its results are dropped."""
    gc.collect()
    before = len(gc.garbage)
    gc.set_debug(gc.DEBUG_SAVEALL)  # the collector keeps what it finds in gc.garbage
    try:
        build()
        gc.collect()
        return gc.garbage[before:]
    finally:
        gc.set_debug(0)
        del gc.garbage[before:]


def _study_family():
    catalog = parse_catalog(fixture_text("catalog.xml"))
    root = parse_model(fixture_text("root.xml"))
    extensions = [parse_extension(fixture_text(name)) for name in _STUDY_EXTENSIONS]
    report = usage_report(VariantSet.of(root, extensions), catalog)
    export_stats_csv(report)
    render_stats_text(report)


def _random_families(catalog):
    rng = random.Random(19)
    families = []
    for _ in range(20):
        family = genmodels.random_variant_set(rng, catalog)
        families.append((serialize_model(family.root), [_document(e) for e in family.extensions.values()]))

    def build():
        for root_text, extension_texts in families:
            root = parse_model(root_text)
            extensions = [parse_extension(text) for text in extension_texts if text is not None]
            usage_report(VariantSet.of(root, extensions), catalog)

    return build


def _document(extension):
    """The document of ``extension``, or None for one that repeats an id, which the writer refuses."""
    ids = [asset.id for asset in (*extension.new_elements, *extension.new_references)]
    if len(set(ids)) == len(ids):
        return serialize_extension(extension)
    with pytest.raises(DuplicateIdError):
        serialize_extension(extension)
    return None


def _defect_documents():
    for text, _ in _ONE_DEFECT_EXTENSIONS.values():
        try:
            parse_extension(text, source="x.xml")
        except ProclineError:
            pass
        else:
            raise AssertionError("a defect document parsed")


def test_the_builders_leave_no_cyclic_garbage(gc_restored):
    gc.enable()
    builds = {
        "study family": _study_family,
        "random families": _random_families(_CATALOG),
        "defect documents": _defect_documents,
    }
    found = {name: [type(obj).__qualname__ for obj in _cyclic_garbage(build)] for name, build in builds.items()}
    assert found == dict.fromkeys(builds, [])

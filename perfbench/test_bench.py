"""Tests of the benchmark's own parts: generators, checks and tracer.

Each check must pass on procline's real output and fail on an output that
was corrupted on purpose, so that none of them is vacuous. Run from the
checkout root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import dataclasses
import importlib.util
import sys
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
DATA = CHECKOUT / "src" / "procline" / "data"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(CHECKOUT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import procline  # noqa: E402
import tracer as tracing  # noqa: E402


@pytest.fixture(scope="module")
def oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", CHECKOUT / "tests" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(tmp_path, files):
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8", newline="")
    return tmp_path


def derive(directory, variant):
    root = procline.parse_model((directory / "root.xml").read_text(encoding="utf-8"))
    exts = [procline.parse_extension((directory / n).read_text(encoding="utf-8")) for n in gen.STUDY_FILES.values()]
    variant_set = procline.VariantSet.of(root, exts)
    model, trace = procline.merge_chain(variant_set, variant, procline.builtin_catalog())
    return variant_set, model, trace


@pytest.fixture(scope="module")
def expected(oracle, tmp_path_factory):
    directory = write(tmp_path_factory.mktemp("study"), gen.scaled_family(DATA, 1, 0))
    chains = gen.chains(gen.scaled_family(DATA, 1, 0))
    return checks.oracle_derivations(oracle, directory, chains, (DATA / "catalog.xml").read_text(encoding="utf-8"))


# -- generators ---------------------------------------------------------------

def test_scaled_family_at_k1_is_the_bundled_fixtures():
    for name, text in gen.scaled_family(DATA, 1, 5).items():
        assert text == (DATA / name).read_text(encoding="utf-8"), name


def test_scaled_family_copies_every_id():
    files = gen.scaled_family(DATA, 3, 5)
    tag = gen.seed_tag(5)
    root = ET.fromstring(files["root.xml"])
    ids = [n.get("id") for n in root]
    assert len(ids) == len(set(ids)) == 3 * len(ET.parse(DATA / "root.xml").getroot())
    assert Counter(gen.split_copy(i, tag)[1] for i in ids) == {0: 270, 1: 270, 2: 270}
    c = ET.fromstring(files["ext-c.xml"])
    role_args = [a.text for a in c.iter("arg") if a.get("name") == "newRole"]
    assert role_args and all(gen.split_copy(r, tag)[0] + gen.copy_suffix(tag, gen.split_copy(r, tag)[1]) == r for r in role_args)
    assert {gen.split_copy(r, tag)[1] for r in role_args} == {0, 1, 2}


def test_scaled_family_depends_on_the_seed_only():
    assert gen.scaled_family(DATA, 2, 1) == gen.scaled_family(DATA, 2, 1)
    assert gen.seed_tag(1) != gen.seed_tag(2)


def test_wide_family_draws_from_the_study_exemplars():
    files = gen.wide_family(DATA, 7, 30, 3)
    assert files == gen.wide_family(DATA, 7, 30, 3)
    assert files != gen.wide_family(DATA, 7, 30, 4)
    study_types = {n.get("type") for f in gen.STUDY_FILES.values() for n in ET.parse(DATA / f).getroot().iter("exemplar")}
    drawn = [n for name, text in files.items() if name.startswith("ext-w") for n in ET.fromstring(text).iter("exemplar")]
    assert len(drawn) == 7 * 30
    assert {n.get("type") for n in drawn} <= study_types


# -- derived models and traces ------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2])
def test_check_derived_accepts_procline_output(tmp_path, expected, k):
    directory = write(tmp_path, gen.scaled_family(DATA, k, 9))
    for variant in gen.STUDY_FILES:
        _, model, trace = derive(directory, variant)
        text, trace_text = procline.serialize_model(model), procline.serialize_trace(trace)
        assert checks.check_derived(variant, expected[variant], text, trace_text, gen.seed_tag(9), k) == []


def _corrupt_model(text, old, new):
    assert old in text
    return text.replace(old, new, 1)


def test_check_derived_rejects_a_renamed_element(tmp_path, expected):
    directory = write(tmp_path, gen.scaled_family(DATA, 1, 0))
    _, model, trace = derive(directory, "C")
    text = _corrupt_model(procline.serialize_model(model), 'name="AG"', 'name="AG!"')
    assert checks.check_derived("C", expected["C"], text, procline.serialize_trace(trace))


def test_check_derived_rejects_a_dropped_trace_entry(tmp_path, expected):
    directory = write(tmp_path, gen.scaled_family(DATA, 1, 0))
    _, model, trace = derive(directory, "C")
    shorter = dataclasses.replace(trace, entries=trace.entries[:-1])
    assert checks.check_derived("C", expected["C"], procline.serialize_model(model), procline.serialize_trace(shorter))


def test_check_derived_rejects_copies_that_interact(tmp_path, expected):
    tag = gen.seed_tag(4)
    directory = write(tmp_path, gen.scaled_family(DATA, 2, 4))
    _, model, trace = derive(directory, "A")
    text = procline.serialize_model(model)
    # one copy's element changed: the copies no longer agree
    changed = _corrupt_model(text, f'id="abbr-01{gen.copy_suffix(tag, 1)}" kind="Abbreviation" name="AG"',
                             f'id="abbr-01{gen.copy_suffix(tag, 1)}" kind="Abbreviation" name="AG2"')
    assert checks.check_derived("A", expected["A"], changed, procline.serialize_trace(trace), tag, 2)
    # a reference rewired across copies
    ref = next(r for r in model.references.values() if gen.split_copy(r.id, tag)[1] == 1)
    crossed = _corrupt_model(text, f'source="{ref.source}"', f'source="{gen.split_copy(ref.source, tag)[0]}"')
    assert checks.check_derived("A", expected["A"], crossed, procline.serialize_trace(trace), tag, 2)


def test_check_replay_rejects_a_dropped_trace_entry(tmp_path):
    directory = write(tmp_path, gen.scaled_family(DATA, 1, 0))
    variant_set, model, trace = derive(directory, "B")
    assert checks.check_replay(procline, "B", variant_set.root, model, trace) == []
    shorter = dataclasses.replace(trace, entries=trace.entries[:-1])
    assert checks.check_replay(procline, "B", variant_set.root, model, shorter)


def test_check_fixed_point_rejects_non_canonical_text(tmp_path):
    directory = write(tmp_path, gen.scaled_family(DATA, 1, 0))
    _, model, _ = derive(directory, "D")
    text = procline.serialize_model(model)
    assert checks.check_fixed_point(procline, "D", text) == []
    assert checks.check_fixed_point(procline, "D", text.replace("  <element", "  <element ", 1))


# -- statistics -----------------------------------------------------------------

@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    directory = write(tmp_path_factory.mktemp("wide"), gen.wide_family(DATA, 12, 40, 2))
    paths = sorted(directory.glob("ext-*.xml"))
    root = procline.parse_model((directory / "root.xml").read_text(encoding="utf-8"))
    exts = [procline.parse_extension(p.read_text(encoding="utf-8")) for p in paths]
    report = procline.usage_report(procline.VariantSet.of(root, exts), procline.builtin_catalog())
    counts, variants = checks.count_exemplars(paths)
    return procline.export_stats_csv(report), procline.render_stats_text(report), counts, variants


def test_stats_checks_accept_procline_output(wide):
    csv_text, text, counts, variants = wide
    assert checks.check_stats_csv(csv_text, counts, variants) == []
    assert checks.check_stats_text(text, counts, variants) == []


def test_check_stats_csv_rejects_a_miscounted_cell(wide):
    csv_text, _, counts, variants = wide
    lines = csv_text.splitlines(keepends=True)
    index = next(i for i, line in enumerate(lines) if line.startswith("W003,") and not line.rstrip().endswith(",0"))
    head, _, count = lines[index].rstrip("\r\n").rpartition(",")
    lines[index] = f"{head},{int(count) + 1}\r\n"
    assert checks.check_stats_csv("".join(lines), counts, variants)


def test_check_stats_csv_rejects_a_dropped_row_and_the_wrong_unused_count(wide):
    csv_text, _, counts, variants = wide
    lines = csv_text.splitlines(keepends=True)
    assert checks.check_stats_csv("".join(lines[:-1]), counts, variants)
    # the paper's 25 unused types: counting one of them once breaks the figure
    used = {type_name for _, type_name in counts}
    unused = next(i for i, line in enumerate(lines) if line.startswith("A,") and line.split(",")[2] not in used)
    counted = dict(counts)
    counted[("A", lines[unused].split(",")[2])] = 1
    lines[unused] = lines[unused].rstrip("\r\n")[:-1] + "1\r\n"
    assert any("unused" in p for p in checks.check_stats_csv("".join(lines), counted, variants))


def test_check_stats_text_rejects_a_miscounted_total(wide):
    _, text, counts, variants = wide
    line = next(line for line in text.splitlines() if line.startswith("  W005"))
    number = line.split()[-1]
    assert checks.check_stats_text(text.replace(line, line[: -len(number)] + str(int(number) + 1)), counts, variants)


# -- tracer ---------------------------------------------------------------------------

def test_tracer_counts_calls_and_restores_every_original(tmp_path):
    import procline.cli  # noqa: F401

    directory = write(tmp_path, gen.scaled_family(DATA, 1, 0))
    before = {m: dict(vars(sys.modules[f"procline.{m}"])) for m in ("merge", "cli", "catalog", "atomic")}
    tr = tracing.Tracer()
    tr.install()
    try:
        derive(directory, "A")
    finally:
        tr.restore()
    assert tr.absent == []
    assert tr.counts["merge.merge_once"] == 1
    assert tr.counts["atomic.validate_step"] == 3 * tr.counts["merge.atomic_steps"]
    for name, namespace in before.items():
        assert dict(vars(sys.modules[f"procline.{name}"])) == namespace, name
    spans = tr.spans
    own = tracing.self_times(spans)
    root = next(i for i, s in enumerate(spans) if s[0] == "merge.merge_chain")
    inside = [i for i, s in enumerate(spans) if s[1] >= spans[root][1] and s[2] <= spans[root][2]]
    assert sum(own[i] for i in inside) == spans[root][2] - spans[root][1]


def test_tracer_reports_a_missing_function_as_absent(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("merge", "no_such_function", None),))
    tr = tracing.Tracer()
    tr.install()
    tr.restore()
    assert tr.absent == ["merge.no_such_function"]

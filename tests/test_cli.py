"""Command line behavior, driven in-process through main(argv)."""

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from procline.analytics import usage_report
from procline import cli
from procline.cli import main
from procline.catalog import AtomicKind, OperationCatalog, OperationExemplar, OperationTypeDef, StepTemplate
from procline.errors import DuplicateIdError, Issue, IssueCode, ProclineError, ValidationFailedError
from procline.family import ExtensionModel
from procline.merge import merge_chain, merge_once
from procline.model import ElementKind, MetamodelVersion, ProcessElement, ProcessModel, Reference, ReferenceKind
from procline.studyline import DATA_FILES, fixture_text, study_variant_set
from procline.xmlio import serialize_catalog, serialize_extension, serialize_model
from procline.xmlread import parse_model


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("data")
    for name in DATA_FILES:
        (directory / name).write_text(fixture_text(name), encoding="utf-8", newline="")
    return directory


def _args(data_dir, command, *extensions, extra=()):
    argv = [command, "--root", str(data_dir / "root.xml")]
    for name in extensions:
        argv += ["--extension", str(data_dir / name)]
    return argv + list(extra)


def test_merge_chain_to_files(data_dir, tmp_path, capsys, catalog):
    out = tmp_path / "c.xml"
    trace_file = tmp_path / "c-trace.xml"
    code = main(
        _args(
            data_dir,
            "merge",
            "ext-bund.xml",
            "ext-c.xml",
            extra=["--leaf", "C", "--out", str(out), "--trace", str(trace_file)],
        )
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    assert "merged variant 'C'" in captured.err
    expected, _ = merge_chain(study_variant_set(), "C", catalog)
    assert parse_model(out.read_text(encoding="utf-8")) == expected
    assert trace_file.read_text(encoding="utf-8").startswith(
        '<?xml version="1.0" encoding="UTF-8"?>\n<mergeTrace '
    )


def test_merge_single_extension_to_stdout(data_dir, capsys, catalog):
    code = main(_args(data_dir, "merge", "ext-a.xml"))
    captured = capsys.readouterr()
    assert code == 0
    merged = parse_model(captured.out)
    expected, _ = merge_chain(study_variant_set(), "A", catalog)
    assert merged == expected


def test_validate_ok(data_dir, capsys):
    code = main(_args(data_dir, "validate", "ext-d.xml"))
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("OK: variant 'D'")


def _gated_validation(data_dir, tmp_path):
    """argv of a ``validate`` that fails: a 1.3 extension uses a type the 1.3B metamodel introduced."""
    root = parse_model((data_dir / "root.xml").read_text(encoding="utf-8"))
    role_id = next(e.id for e in root.elements.values() if e.kind is ElementKind.ROLE)
    ext = ExtensionModel(
        variant_id="Gated",
        parent_id="root",
        metamodel="1.3",
        exemplars=(OperationExemplar("ChangeRoleClass", role_id, {"roleClass": "x"}),),
    )
    path = tmp_path / "gated.xml"
    path.write_text(serialize_extension(ext), encoding="utf-8")
    return ["validate", "--root", str(data_dir / "root.xml"), "--extension", str(path)]


def test_validate_rejects_gated_operation(data_dir, tmp_path, capsys):
    code = main(_gated_validation(data_dir, tmp_path))
    captured = capsys.readouterr()
    assert code == 2
    assert "MetamodelGate" in captured.err
    assert "validation failed" in captured.err


def test_validate_reports_every_issue_of_an_inconsistent_root(tmp_path, capsys):
    root = ProcessModel.of(
        MetamodelVersion.V1_3,
        [ProcessElement("r1", ElementKind.ROLE, "Role")],
        [Reference("bad", ReferenceKind.RESPONSIBILITY, "r1", "ghost")],
    )
    (tmp_path / "root.xml").write_text(serialize_model(root), encoding="utf-8")
    ext = ExtensionModel("V", "root", MetamodelVersion.V1_3)
    (tmp_path / "v.xml").write_text(serialize_extension(ext), encoding="utf-8")
    code = main(["validate", "--root", str(tmp_path / "root.xml"), "--extension", str(tmp_path / "v.xml")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "[V] KindConstraintViolation(bad): Responsibility source must be one of ['WorkProduct'], got Role",
        "[V] DanglingReference(bad): target 'ghost' does not resolve to an element",
        "validation failed: 2 issue(s)",
    ]


def test_stats_csv(data_dir, capsys):
    code = main(
        _args(
            data_dir,
            "stats",
            "ext-a.xml",
            "ext-b.xml",
            "ext-bund.xml",
            "ext-c.xml",
            "ext-d.xml",
            extra=["--format", "csv"],
        )
    )
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert len(lines) == 1 + 5 * 69
    assert lines[0] == "variantId,operationGroup,operationType,definingMetamodel,exemplarCount"


def test_stats_text(data_dir, capsys):
    code = main(
        _args(
            data_dir,
            "stats",
            "ext-a.xml",
            "ext-b.xml",
            "ext-bund.xml",
            "ext-c.xml",
            "ext-d.xml",
        )
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "340" in captured.out


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_stats_write_the_same_text_to_a_text_only_stdout(data_dir, capsysbinary, fmt):
    # perfbench's traced pass runs main(argv) under redirect_stdout(io.StringIO()),
    # which has no buffer to take bytes
    argv = _args(data_dir, "stats", "ext-a.xml", "ext-bund.xml", "ext-c.xml", extra=["--format", fmt])
    assert main(argv) == 0
    written = capsysbinary.readouterr().out
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    assert not hasattr(stdout, "buffer")
    assert stdout.getvalue() == written.decode("utf-8")
    assert capsysbinary.readouterr().out == b""


def test_merge_of_an_extension_that_declares_nothing_writes_an_empty_trace(data_dir, tmp_path, capsys):
    path = tmp_path / "nothing.xml"
    nothing = ExtensionModel("Nothing", "root", MetamodelVersion.V1_3)
    path.write_text(serialize_extension(nothing), encoding="utf-8")
    out, trace_file = tmp_path / "merged.xml", tmp_path / "trace.xml"
    argv = ["merge", "--root", str(data_dir / "root.xml"), "--extension", str(path)]
    assert main(argv + ["--out", str(out), "--trace", str(trace_file)]) == 0
    capsys.readouterr()
    assert trace_file.read_bytes() == (
        b'<?xml version="1.0" encoding="UTF-8"?>\n<mergeTrace schemaVersion="1" finalMetamodel="1.3"/>\n'
    )
    assert out.read_bytes() == (data_dir / "root.xml").read_bytes()


def test_stats_with_explicit_catalog_file(data_dir, capsys):
    code = main(
        _args(
            data_dir,
            "stats",
            "ext-a.xml",
            extra=["--catalog", str(data_dir / "catalog.xml")],
        )
    )
    assert code == 0
    capsys.readouterr()


def test_catalog_listing(capsys):
    code = main(["catalog", "--metamodel", "1.3B"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert len(lines) == 35
    assert all(line.count("\t") == 5 for line in lines)
    assert "35 of 69 operation types listed" in captured.err


def test_catalog_csv_header(capsys):
    code = main(["catalog", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert lines[0] == "name,group,targetKind,definingMetamodel,synthetic,steps"
    assert len(lines) == 1 + 69


@pytest.mark.parametrize(
    "argv, sha256",
    [
        (["catalog"], "572a41636342c14264116778148decd9fd11273cc77a8ce3d26335e67de56cda"),
        (["catalog", "--format", "csv"], "387424f3220d912468e2f2572932ba273d6bb54678825b7cec96b5110fc3a3b7"),
    ],
)
def test_catalog_listing_bytes(argv, sha256, capsys):
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == sha256


def test_catalog_csv_quotes_a_group_with_a_comma(tmp_path, capsys):
    catalog = OperationCatalog(
        [
            OperationTypeDef(
                name="RenameRole",
                group="Roles, misc",
                target_kind=ElementKind.ROLE,
                defining_metamodel=MetamodelVersion.V1_3,
                recipe=(StepTemplate(AtomicKind.RENAME_ELEMENT, args={"newName": "{newName}"}),),
            )
        ]
    )
    path = tmp_path / "catalog.xml"
    path.write_text(serialize_catalog(catalog), encoding="utf-8")
    code = main(["catalog", "--catalog", str(path), "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 0
    rows = list(csv.reader(io.StringIO(captured.out)))
    assert len(rows) == 2
    assert all(len(row) == 6 for row in rows)
    assert rows[1][1] == "Roles, misc"


def _latin1_extension_d(data_dir, tmp_path):
    text = (data_dir / "ext-d.xml").read_text(encoding="utf-8")
    text = text.replace('encoding="UTF-8"', 'encoding="ISO-8859-1"', 1)
    text = text.replace('name="PM Wartung"', 'name="PM Wartung \u00e4"', 1)
    path = tmp_path / "ext-d-latin1.xml"
    path.write_bytes(text.encode("iso-8859-1"))
    return path


def test_validate_honours_the_declared_encoding(data_dir, tmp_path, capsys):
    path = _latin1_extension_d(data_dir, tmp_path)
    assert b"\xe4" in path.read_bytes()
    code = main(["validate", "--root", str(data_dir / "root.xml"), "--extension", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("OK: variant 'D'")


def test_invalid_utf8_without_declaration_is_an_input_error(data_dir, tmp_path, capsys):
    text = (data_dir / "ext-d.xml").read_text(encoding="utf-8")
    body = text.split("\n", 1)[1].replace('name="PM Wartung"', 'name="PM Wartung \u00e4"', 1)
    path = tmp_path / "ext-d-bad.xml"
    path.write_bytes(body.encode("iso-8859-1"))
    code = main(["validate", "--root", str(data_dir / "root.xml"), "--extension", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


def test_unusable_declared_encoding_is_an_input_error(data_dir, tmp_path, capsys):
    for encoding in ("no-such-codec", "rot13", "shift_jis"):
        text = (data_dir / "ext-d.xml").read_text(encoding="utf-8")
        path = tmp_path / f"ext-d-{encoding}.xml"
        declared = text.replace('encoding="UTF-8"', f'encoding="{encoding}"', 1)
        path.write_text(declared, encoding="utf-8")
        code = main(["validate", "--root", str(data_dir / "root.xml"), "--extension", str(path)])
        captured = capsys.readouterr()
        assert code == 1, encoding
        assert captured.err.startswith("error:"), encoding


def test_ambiguous_leaf_is_usage_error(data_dir, capsys):
    code = main(_args(data_dir, "merge", "ext-a.xml", "ext-b.xml"))
    captured = capsys.readouterr()
    assert code == 1
    assert "--leaf" in captured.err


def test_missing_file(data_dir, capsys):
    code = main(_args(data_dir, "merge", "no-such-file.xml"))
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err


def _malformed_merge(data_dir, tmp_path):
    bad = tmp_path / "bad.xml"
    bad.write_text("<extensionModel", encoding="utf-8")
    return ["merge", "--root", str(data_dir / "root.xml"), "--extension", str(bad)]


def test_malformed_xml(data_dir, tmp_path, capsys):
    code = main(_malformed_merge(data_dir, tmp_path))
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err


_MODEL_HEAD = '<?xml version="1.0" encoding="UTF-8"?>\n<processModel schemaVersion="1" metamodel="1.3">\n'
_ROLE = '  <element id="x1" kind="Role" name="A"/>\n'

_HOSTILE_ROOTS = {
    "empty": b"",
    "truncated": (_MODEL_HEAD + _ROLE).encode()[:-9],
    "wrong-root-tag": b'<mergeTrace schemaVersion="1"/>',
    "binary-garbage": bytes(range(0, 256, 7)) * 3,
    "utf16-bom-without-declaration": b"\xff\xfe" + _MODEL_HEAD.split("\n", 1)[1].encode(),
    "undefined-entity": (_MODEL_HEAD + '  <element id="x1" kind="Role" name="&bogus;"/>\n</processModel>\n').encode(),
    "duplicate-element-id": (_MODEL_HEAD + _ROLE + _ROLE + "</processModel>\n").encode(),
    "nul-byte": b'<processModel schemaVersion="1"\x00 metamodel="1.3"/>',
    "text-after-child-end-tags": (
        b'<processModel schemaVersion="1" metamodel="1.3"><element id="e" kind="Role" name="R">'
        b"<description>d</description>lost words</element>more lost</processModel>"
    ),
    "text-after-description": (
        _MODEL_HEAD + '  <element id="x1" kind="Role" name="A"><description>d</description>lost</element>\n'
        "</processModel>\n"
    ).encode(),
    "no-break-space-after-an-element": (_MODEL_HEAD + _ROLE[:-1] + "\u00a0\n</processModel>\n").encode(),
    "empty-text-block-id": (
        _MODEL_HEAD + '  <element id="x1" kind="Section" name="A"><textBlock id=""/></element>\n</processModel>\n'
    ).encode(),
}


@pytest.mark.parametrize("name", sorted(_HOSTILE_ROOTS))
def test_hostile_input_is_an_input_error(name, data_dir, tmp_path, capsys):
    path = tmp_path / f"{name}.xml"
    path.write_bytes(_HOSTILE_ROOTS[name])
    code = main(["validate", "--root", str(path), "--extension", str(data_dir / "ext-d.xml")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


def test_catalog_with_a_repeated_type_is_an_input_error(data_dir, tmp_path, capsys):
    text = fixture_text("catalog.xml")
    start = text.index("  <operationType ")
    end = text.index("</operationType>\n", start) + len("</operationType>\n")
    path = tmp_path / "twice.xml"
    path.write_text(text[:end] + text[start:end] + text[end:], encoding="utf-8")
    code = main(_args(data_dir, "validate", "ext-d.xml", extra=["--catalog", str(path)]))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {path}: duplicate operation type name 'AddActivityDescriptionPostfix'\n"


def test_unknown_leaf(data_dir, capsys):
    code = main(_args(data_dir, "merge", "ext-a.xml", extra=["--leaf", "Z"]))
    captured = capsys.readouterr()
    assert code == 1
    assert "Z" in captured.err


def test_missing_parent_in_chain(data_dir, capsys):
    # C's parent Bund is not among the given extensions
    code = main(_args(data_dir, "validate", "ext-c.xml"))
    captured = capsys.readouterr()
    assert code == 2
    assert "Bund" in captured.err


def test_conflict_exit_code_and_last_wins(data_dir, tmp_path, capsys):
    root = parse_model((data_dir / "root.xml").read_text(encoding="utf-8"))
    section = next(e for e in root.elements.values() if e.text_blocks)
    block_id = section.text_blocks[0].id
    ext = ExtensionModel(
        variant_id="Clash",
        parent_id="root",
        metamodel="1.3",
        exemplars=(
            OperationExemplar(
                "ReplaceSectionText", section.id, {"blockId": block_id, "text": "one"}
            ),
            OperationExemplar(
                "ReplaceSectionText", section.id, {"blockId": block_id, "text": "two"}
            ),
        ),
    )
    path = tmp_path / "clash.xml"
    path.write_text(serialize_extension(ext), encoding="utf-8")
    argv = ["merge", "--root", str(data_dir / "root.xml"), "--extension", str(path)]
    code = main(argv + ["--out", str(tmp_path / "ignored.xml")])
    captured = capsys.readouterr()
    assert code == 2
    assert "both replace" in captured.err
    out = tmp_path / "resolved.xml"
    code = main(argv + ["--last-wins", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    merged = parse_model(out.read_text(encoding="utf-8"))
    blocks = {b.id: b.text for b in merged.elements[section.id].text_blocks}
    assert blocks[block_id] == "two"


def test_duplicate_variant_ids_rejected(data_dir, capsys):
    code = main(_args(data_dir, "validate", "ext-a.xml", "ext-a.xml"))
    captured = capsys.readouterr()
    assert code == 1
    assert "duplicate" in captured.err


def test_bad_usage_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["merge", "--frobnicate"])
    assert exc.value.code == 1
    capsys.readouterr()


def _error_classes(cls):
    yield cls
    for subclass in cls.__subclasses__():
        yield from _error_classes(subclass)


@pytest.mark.parametrize("error_class", sorted(_error_classes(ProclineError), key=lambda c: c.__name__))
def test_every_procline_error_of_a_command_has_an_exit_code(error_class, monkeypatch, capsys):
    if error_class is ValidationFailedError:
        error = error_class([Issue(IssueCode.UNKNOWN_ID, "x", "boom")])
    else:
        error = error_class("boom")

    def failing(args):
        raise error

    monkeypatch.setattr(cli, "_cmd_catalog", failing)
    code = main(["catalog"])
    err = capsys.readouterr().err
    assert code in (1, 2)
    assert "error: " in err or "validation failed: " in err
    assert "Traceback" not in err


def test_merge_output_is_canonical(data_dir, tmp_path, capsys, catalog):
    out = tmp_path / "a.xml"
    code = main(_args(data_dir, "merge", "ext-a.xml", extra=["--out", str(out)]))
    capsys.readouterr()
    assert code == 0
    text = out.read_text(encoding="utf-8")
    expected, _ = merge_chain(study_variant_set(), "A", catalog)
    assert text == serialize_model(expected)


def _fresh_interpreter_env(**extra):
    """Environment for a child interpreter that imports this procline; a variable given as None is unset."""
    import procline

    src = str(Path(procline.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath, **extra)
    return {name: value for name, value in env.items() if value is not None}


def test_cli_import_leaves_the_network_stack_out():
    # a fresh interpreter, since this one has imported much more by now
    probe = "import sys, procline.cli; print(sorted({'urllib.request', 'http.client'} & sys.modules.keys()))"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_fresh_interpreter_env(), check=True
    )
    assert result.stdout.strip() == "[]"


_FAMILY = ["--root", "{data}/root.xml", "--extension", "{data}/ext-bund.xml", "--extension", "{data}/ext-c.xml"]
# what only derivation runs: the merge and step engines and the XML writers
_ENGINE = {"procline.merge", "procline.atomic", "procline.xmlio"}

# case -> (command line, modules the command must not load)
_UNLOADED = {
    "validate": (["validate", *_FAMILY, "--leaf", "C"], {"procline.xmlio", "procline.analytics", "csv"}),
    "merge": (["merge", *_FAMILY, "--leaf", "C", "--out", "{tmp}/c.xml"], {"procline.analytics", "csv"}),
    "stats-text": (["stats", *_FAMILY, "--format", "text"], {*_ENGINE, "csv"}),
    "stats-csv": (["stats", *_FAMILY, "--format", "csv"], _ENGINE),
    "catalog": (["catalog"], {*_ENGINE, "procline.analytics"}),
}


def _last_line_in_a_fresh_interpreter(probe: str, *argv: str) -> str:
    """The last line ``probe`` prints, run in a fresh interpreter, since this one has imported every module."""
    result = subprocess.run(
        [sys.executable, "-c", probe, *argv], capture_output=True, text=True, env=_fresh_interpreter_env(), check=True
    )
    return result.stdout.splitlines()[-1]


@pytest.mark.parametrize("case", sorted(_UNLOADED))
def test_a_command_loads_only_the_modules_it_runs(case, data_dir, tmp_path):
    argv, unloaded = _UNLOADED[case]
    probe = (
        "import sys\nfrom procline.cli import main\ncode = main(sys.argv[1:])\n"
        f"print(code, sorted({sorted(unloaded)!r} & sys.modules.keys()))"
    )
    argv = [arg.format(data=data_dir, tmp=tmp_path) for arg in argv]
    assert _last_line_in_a_fresh_interpreter(probe, *argv) == "0 []"


def test_reading_a_family_and_the_catalog_loads_no_engine(data_dir):
    probe = (
        "import sys\nfrom pathlib import Path\n"
        "from procline.catalog import builtin_catalog\nfrom procline.xmlread import parse_extension, parse_model\n"
        "builtin_catalog()\n"
        "parse_model(Path(sys.argv[1], 'root.xml').read_bytes())\n"
        "parse_extension(Path(sys.argv[1], 'ext-c.xml').read_bytes())\n"
        f"print(sorted({sorted(_ENGINE)!r} & sys.modules.keys()))"
    )
    assert _last_line_in_a_fresh_interpreter(probe, str(data_dir)) == "[]"


def test_importing_the_package_loads_no_submodule():
    probe = "import sys, procline; print(sorted(m for m in sys.modules if m.startswith('procline.')))"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_fresh_interpreter_env(), check=True
    )
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("encoding", ["latin-1", "ascii"])
def test_stdout_is_utf8_whatever_the_stream_encoding(encoding, data_dir, tmp_path):
    # a variant id and an element name neither encoding can hold
    role = ProcessElement("role-cm", ElementKind.ROLE, "Änderungsverantwortlicher")
    ext = ExtensionModel("Änderung", "root", MetamodelVersion.V1_3, new_elements=(role,))
    ext_path = tmp_path / "ext-aenderung.xml"
    ext_path.write_text(serialize_extension(ext), encoding="utf-8", newline="")
    inputs = ("--root", str(data_dir / "root.xml"), "--extension", str(ext_path))
    env = _fresh_interpreter_env(PYTHONIOENCODING=encoding)

    def run(*argv):
        result = subprocess.run(
            [sys.executable, "-m", "procline.cli", *argv], capture_output=True, env=env
        )
        assert (result.returncode, b"Traceback" in result.stderr) == (0, False), result.stderr
        return result.stdout

    merged = tmp_path / "merged.xml"
    assert run("merge", *inputs, "--out", str(merged)) == b""
    assert run("merge", *inputs) == merged.read_bytes()
    assert parse_model(merged.read_bytes()).elements["role-cm"].name == role.name
    for fmt in ("text", "csv"):
        stats = tmp_path / f"stats.{fmt}"
        assert run("stats", *inputs, "--format", fmt, "--out", str(stats)) == b""
        assert run("stats", *inputs, "--format", fmt) == stats.read_bytes()
        assert ext.variant_id.encode("utf-8") in stats.read_bytes()
    assert run("validate", *inputs).startswith("OK: variant 'Änderung' validates".encode("utf-8"))
    assert run("catalog").count(b"\n") == 69


_STUDY_EXTENSIONS = sorted(name for name in DATA_FILES if name.startswith("ext-"))


class _Trickle(io.RawIOBase):
    """A raw stream whose write takes at most 4 KiB of the data and returns that count, as a pipe's may."""

    def __init__(self):
        self.taken = bytearray()

    def writable(self):
        return True

    def write(self, data):
        part = bytes(data[:4096])
        self.taken += part
        return len(part)


def test_stdout_gets_every_byte_from_a_raw_stream_that_takes_a_part(data_dir, tmp_path, monkeypatch):
    # under python -u, sys.stdout.buffer is such a raw stream
    raw = _Trickle()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8", write_through=True))
    argv = _args(data_dir, "stats", *_STUDY_EXTENSIONS, extra=["--format", "csv"])
    out = tmp_path / "stats.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert len(out.read_bytes()) > 4 * 4096
    assert main(argv) == 0
    assert bytes(raw.taken) == out.read_bytes()


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
def test_a_stdout_closed_early_is_an_error(unbuffered, tmp_path):
    (tmp_path / "root.xml").write_text(fixture_text("root.xml"), encoding="utf-8", newline="")
    argv = ["stats", "--format", "csv", "--root", str(tmp_path / "root.xml")]
    for index in range(60):  # about 230 KB of CSV, more than a pipe holds (64 KiB on Linux)
        path = tmp_path / f"v{index}.xml"
        path.write_text(serialize_extension(ExtensionModel(f"V{index:02}", "root", "1.3")), encoding="utf-8")
        argv += ["--extension", str(path)]
    child = subprocess.Popen(
        [sys.executable, "-m", "procline.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_fresh_interpreter_env(PYTHONUNBUFFERED=unbuffered),
    )
    assert len(child.stdout.read(100)) == 100
    child.stdout.close()  # the reader has seen enough, as `head -c 100` has
    _, err = child.communicate(timeout=60)
    assert (child.returncode, err) == (1, b"error: [Errno 32] Broken pipe\n")


# argv for one command per exit path of main, and the exit code it must give
_EXIT_PATHS = {
    "merge": (0, lambda d, t: _args(d, "merge", "ext-a.xml", extra=["--out", str(t / "a.xml")])),
    "missing-file": (1, lambda d, t: _args(d, "merge", "no-such-file.xml")),
    "malformed-xml": (1, _malformed_merge),
    "usage-error": (1, lambda d, t: ["merge", "--frobnicate"]),
    "validation-failure": (2, _gated_validation),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("path", sorted(_EXIT_PATHS))
def test_main_leaves_the_collector_as_it_found_it(path, enabled, data_dir, tmp_path, capsys, gc_restored):
    expected, argv = _EXIT_PATHS[path]
    (gc.enable if enabled else gc.disable)()
    frozen = gc.get_freeze_count()
    try:
        code = main(argv(data_dir, tmp_path))
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
    capsys.readouterr()
    assert code == expected
    assert gc.isenabled() is enabled
    assert gc.get_freeze_count() == frozen


# how a process enters main: as the console script and perfbench do, here
# with an atexit handler registered first, and as ``python -m procline.cli``
_ENTRIES = {
    "main()": [
        "-c",
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('atexit: frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
        "from procline.cli import main\n"
        "raise SystemExit(main())",
    ],
    "-m": ["-m", "procline.cli"],
}
_ATEXIT_LINE = {"main()": b"atexit: frozen True\n", "-m": b""}

# argv given the data and output directories, and the exit code it must give
_ENTRY_COMMANDS = {
    "merge-to-stdout": (
        0,
        lambda d, o: _args(d, "merge", "ext-bund.xml", "ext-c.xml", extra=["--leaf", "C", "--trace", str(o / "t.xml")]),
    ),
    "merge-to-file": (0, lambda d, o: _args(d, "merge", "ext-a.xml", extra=["--out", str(o / "a.xml")])),
    "validate": (0, lambda d, o: _args(d, "validate", "ext-d.xml")),
    "stats-csv": (0, lambda d, o: _args(d, "stats", *_STUDY_EXTENSIONS, extra=["--format", "csv"])),
    "missing-file": (1, lambda d, o: _args(d, "merge", "no-such-file.xml")),
    "missing-parent": (2, lambda d, o: _args(d, "validate", "ext-c.xml")),
}


def _written(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


@pytest.mark.parametrize("entry", sorted(_ENTRIES))
@pytest.mark.parametrize("command", sorted(_ENTRY_COMMANDS))
def test_the_process_entry_writes_what_main_argv_writes(command, entry, data_dir, tmp_path, capsysbinary):
    expected, argv = _ENTRY_COMMANDS[command]
    here, there = tmp_path / "in-process", tmp_path / "child"
    here.mkdir()
    there.mkdir()
    assert main(argv(data_dir, here)) == expected
    captured = capsysbinary.readouterr()
    child = subprocess.run(
        [sys.executable, *_ENTRIES[entry], *argv(data_dir, there)], capture_output=True, env=_fresh_interpreter_env()
    )
    assert child.returncode == expected
    assert child.stdout == captured.out
    assert child.stderr == captured.err + _ATEXIT_LINE[entry]
    assert _written(there) == _written(here)


def _other_interpreters() -> dict[tuple[int, ...], str]:
    """Each installed interpreter that ``requires-python`` admits, by version, but this one's.

    Interpreters are looked for as ``$PYENV_ROOT/versions/*/bin/python3``
    and asked their version, so a name need not tell it.
    """
    pyenv_root = os.environ.get("PYENV_ROOT")
    if not pyenv_root:
        return {}
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    minimum = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()))
    found = {}
    for python in sorted(Path(pyenv_root).glob("versions/*/bin/python3")):
        probe = subprocess.run(
            [str(python), "-c", "import sys; print(*sys.version_info[:3])"], capture_output=True, text=True, timeout=60
        )
        version = tuple(map(int, probe.stdout.split())) if probe.returncode == 0 else ()
        if version[:2] >= minimum and version != sys.version_info[:3]:
            found[version] = str(python)
    return found


def test_every_admitted_interpreter_writes_the_study_bytes(data_dir, tmp_path):
    # the merge of C with its trace and the stats CSV, run by each installed
    # interpreter as a child on this source, are byte for byte this one's
    others = _other_interpreters()
    if not others:
        pytest.skip("no other interpreter under $PYENV_ROOT/versions admitted by requires-python")
    import procline

    env = dict(os.environ, PYTHONPATH=str(Path(procline.__file__).resolve().parents[1]))

    def run(python, name):
        out = tmp_path / name
        out.mkdir()
        outputs = {}
        for command in ("merge-to-stdout", "stats-csv"):
            expected, argv = _ENTRY_COMMANDS[command]
            child = subprocess.run(
                [python, "-m", "procline.cli", *argv(data_dir, out)], capture_output=True, env=env, timeout=120
            )
            assert child.returncode == expected, (name, command, child.stderr)
            outputs[command] = (child.stdout, child.stderr)
        return outputs, _written(out)

    reference = run(sys.executable, "this")
    for version, python in sorted(others.items()):
        assert run(python, ".".join(map(str, version))) == reference, version


@pytest.mark.parametrize("command", ["stats", "validate"])
def test_a_command_parses_its_family_with_one_shared_memo(command, data_dir, monkeypatch, capsys):
    # every extension of one run shares one memo of exemplar values, so
    # equal targets and values across the family are one string
    from procline import xmlread

    parse, memos = xmlread.parse_extension, []

    def spy(text, **kwargs):
        memos.append(kwargs.get("shared"))
        return parse(text, **kwargs)

    monkeypatch.setattr("procline.xmlread.parse_extension", spy)  # the command imports it when it runs
    extra = [] if command == "stats" else ["--leaf", "C"]
    assert main(_args(data_dir, command, "ext-bund.xml", "ext-c.xml", extra=extra)) == 0
    capsys.readouterr()
    assert len(memos) == 2 and memos[0] is memos[1] is not None


def test_command_runs_with_the_collector_paused(data_dir, monkeypatch, capsys, gc_restored):
    seen = []

    def spy(*args):
        seen.append(gc.isenabled())
        return usage_report(*args)

    monkeypatch.setattr("procline.analytics.usage_report", spy)  # stats imports it when it runs
    gc.enable()
    assert main(_args(data_dir, "stats", "ext-a.xml")) == 0
    capsys.readouterr()
    assert seen == [False]
    assert gc.isenabled()


def test_paused_collector_has_nothing_of_procline_to_collect(data_dir, tmp_path, capsys, gc_restored):
    study = [name for name in DATA_FILES if name.startswith("ext-")]
    commands = {
        "merge": (
            0,
            _args(
                data_dir,
                "merge",
                "ext-bund.xml",
                "ext-c.xml",
                extra=["--leaf", "C", "--out", str(tmp_path / "c.xml"), "--trace", str(tmp_path / "t.xml")],
            ),
        ),
        "validate": (0, _args(data_dir, "validate", "ext-d.xml")),
        "validate-failing": (2, _gated_validation(data_dir, tmp_path)),
        "stats-csv": (0, _args(data_dir, "stats", *study, extra=["--format", "csv"])),
        "stats-text": (0, _args(data_dir, "stats", *study, extra=["--format", "text"])),
        "catalog": (0, ["catalog"]),
    }
    garbage_types = {}
    for name, (expected, argv) in commands.items():
        gc.collect()
        before = len(gc.garbage)
        gc.set_debug(gc.DEBUG_SAVEALL)  # the collector keeps what it finds in gc.garbage
        try:
            assert main(argv) == expected, name
            gc.collect()
            garbage_types[name] = [type(obj) for obj in gc.garbage[before:]]
        finally:
            gc.set_debug(0)
            del gc.garbage[before:]
        capsys.readouterr()
    # the argument parser (argparse's objects, one class of them subclassed in
    # procline.cli) is the only cyclic structure a command leaves behind
    procline_types = {
        name: {
            t.__qualname__
            for t in types
            if t.__module__.split(".")[0] == "procline" and not issubclass(t, argparse.ArgumentParser)
        }
        for name, types in garbage_types.items()
    }
    assert procline_types == dict.fromkeys(commands, set())
    counts = {name: len(types) for name, types in garbage_types.items()}
    assert len(set(counts.values())) == 1, counts


def test_an_extension_repeating_an_id_is_refused_on_every_route(data_dir, tmp_path, capsys, catalog):
    # the type admits two new assets under one id; no route merges or writes it
    root = parse_model((data_dir / "root.xml").read_text(encoding="utf-8"))
    first = ProcessElement("x", ElementKind.ROLE, "First")
    repeats = {
        "element": ExtensionModel("Twice", "root", "1.3", new_elements=(first, ProcessElement("x", "Role", "Again"))),
        "reference": ExtensionModel(
            "Twice",
            "root",
            "1.3",
            new_elements=(first,),
            new_references=(Reference("x", ReferenceKind.SUPPORTING_ROLE, "x", "x"),),
        ),
    }
    for ext in repeats.values():
        # the library's merge: a DuplicateId issue, which the CLI reports with exit 2
        with pytest.raises(ValidationFailedError) as failed:
            merge_once(root, ext, catalog)
        assert [(i.code, i.subject) for i in failed.value.issues] == [(IssueCode.DUPLICATE_ID, "x")]
        # the writer: no document, since a document that repeats an id does not parse
        with pytest.raises(DuplicateIdError, match="declares id 'x' more than once"):
            serialize_extension(ext)
    # such a document, written by hand, is malformed: exit 1
    single = serialize_extension(ExtensionModel("Twice", "root", "1.3", new_elements=(first,)))
    line = '    <element id="x" kind="Role" name="First"/>\n'
    assert line in single
    path = tmp_path / "twice.xml"
    path.write_text(single.replace(line, line * 2), encoding="utf-8")
    code = main(["validate", "--root", str(data_dir / "root.xml"), "--extension", str(path)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {path}: duplicate id 'x' in document\n"

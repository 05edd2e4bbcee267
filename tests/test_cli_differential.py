"""The command line as a function of the library, over random families.

Each family drawn by ``genmodels.random_variant_set`` is written to files with
the canonical writers. Every command then runs in-process through
``main(argv)``, and must report what the library reports for the same family:
stdout holds the library's bytes, the exit code is the one ``_EXIT_CODES``
gives the library's outcome, and stderr holds the CLI's ``error:`` or
``validation failed:`` lines and no traceback.
"""

import random

import pytest

import genmodels
from procline.analytics import usage_report
from procline.cli import main
from procline.errors import (
    ConflictError,
    CycleError,
    DuplicateIdError,
    MissingParentError,
    ProclineError,
    ValidationFailedError,
)
from procline.merge import VariantSet, merge_chain
from procline.xmlio import export_stats_csv, render_stats_text, serialize_extension, serialize_model

_SEEDS = range(150)

# the library's outcome -> the command's exit code; an error class maps
# through the first of its bases listed here
_EXIT_CODES = {
    None: 0,
    ValidationFailedError: 2,
    ConflictError: 2,
    CycleError: 2,
    MissingParentError: 2,
    DuplicateIdError: 2,
    ProclineError: 1,
}


def _exit_code(error):
    if error is None:
        return _EXIT_CODES[None]
    return next(_EXIT_CODES[cls] for cls in type(error).__mro__ if cls in _EXIT_CODES)


def _written_family(rng, catalog, directory):
    """Draw a family and write it; returns it as written, and each variant's file."""
    family = genmodels.random_variant_set(rng, catalog)
    root = directory / "root.xml"
    root.write_text(serialize_model(family.root), encoding="utf-8", newline="")
    files = {}
    for variant_id, extension in family.extensions.items():
        try:
            text = serialize_extension(extension)
        except DuplicateIdError:
            # an extension whose new assets repeat an id has no document
            # (README, exit codes), so it cannot be given as a file
            continue
        files[variant_id] = directory / f"{variant_id}.xml"
        files[variant_id].write_text(text, encoding="utf-8", newline="")
    written = VariantSet.of(family.root, [family.extensions[variant_id] for variant_id in files])
    return written, root, files


def _library_merge(variant_set, variant_id, catalog, last_wins):
    try:
        return merge_chain(variant_set, variant_id, catalog, last_wins=last_wins), None
    except ProclineError as error:
        return None, error


def _check_stderr(err, code, error):
    assert "Traceback" not in err
    lines = err.splitlines()
    if code == 1:
        assert lines == [f"error: {error}"]
    elif isinstance(error, ValidationFailedError):
        assert lines == [*map(str, error.issues), f"validation failed: {len(error.issues)} issue(s)"]
    elif code == 2:
        assert lines == [f"validation failed: {error}"]


@pytest.mark.parametrize("seed", _SEEDS)
def test_commands_report_what_the_library_reports(seed, catalog, tmp_path, capsysbinary):
    family, root, files = _written_family(random.Random(seed), catalog, tmp_path)

    def run(*argv):
        code = main([argv[0], "--root", str(root), *argv[1:]])
        captured = capsysbinary.readouterr()
        return code, captured.out, captured.err.decode("utf-8")

    for variant_id, path in files.items():
        outcomes = {last_wins: _library_merge(family, variant_id, catalog, last_wins) for last_wins in (False, True)}
        for last_wins, (merged, error) in outcomes.items():
            code = _exit_code(error)
            flag = ["--last-wins"] if last_wins else []
            out_code, out, err = run("merge", "--extension", str(path), *flag)
            assert out_code == code, (variant_id, last_wins, err)
            assert out == (serialize_model(merged[0]).encode("utf-8") if merged else b"")
            if merged:
                assert err.startswith(f"merged variant {variant_id!r}: ")
            else:
                _check_stderr(err, code, error)
        merged, error = outcomes[False]
        code = _exit_code(error)
        out_code, out, err = run("validate", "--extension", str(path))
        assert out_code == code, (variant_id, err)
        if merged:
            model, trace = merged
            assert out.decode("utf-8") == (
                f"OK: variant {variant_id!r} validates and merges ({len(trace)} trace entries, "
                f"{len(trace.untyped_changes())} untyped changes, final metamodel {model.metamodel.value})\n"
            )
            assert err == ""
        else:
            assert out == b""
            _check_stderr(err, code, error)

    report = usage_report(family, catalog)
    extensions = [arg for path in files.values() for arg in ("--extension", str(path))]
    for fmt, render in (("text", render_stats_text), ("csv", export_stats_csv)):
        assert run("stats", *extensions, "--format", fmt) == (0, render(report).encode("utf-8"), "")

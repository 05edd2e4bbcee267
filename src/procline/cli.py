"""Command line front end.

Four subcommands: ``merge`` derives a variant and writes the merged model,
``validate`` runs the same pipeline but only reports, ``stats`` exports
usage statistics, and ``catalog`` lists operation types.

Exit codes: 0 on success, 2 when the inputs parse but do not validate
(typing issues, conflicts, broken family trees), and 1 for every other
procline error and for usage and I/O problems (bad flags, unreadable or
malformed files, unknown variant names).
Diagnostics go to stderr; requested output goes to stdout or ``--out``, as
UTF-8 bytes whatever the locale's encoding.

At import this module loads only what argument parsing and the exit codes
need; each command imports the modules it runs when it runs, so ``validate``
loads no writer and no statistics, and ``merge`` no statistics.
"""

from __future__ import annotations

import argparse
import gc
import io
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import (
    ConflictError,
    CycleError,
    DuplicateIdError,
    MissingParentError,
    ProclineError,
    ValidationFailedError,
)
from .model import MetamodelVersion, _gc_paused

if TYPE_CHECKING:
    from .catalog import OperationCatalog
    from .family import VariantSet
    from .merge import MergeTrace
    from .model import ProcessModel

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_INVALID = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; that code is reserved for
    # validation results here, so usage problems exit with 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _UsageError(Exception):
    pass


def _read_bytes(path: str) -> bytes:
    # the XML parser decodes, honouring the document's own encoding declaration
    return Path(path).read_bytes()


def _write_output(text: str, out: str | None) -> None:
    """Write requested output as UTF-8, the encoding the XML declares, whatever the locale's."""
    data = text.encode("utf-8")
    if out:
        Path(out).write_bytes(data)
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()  # text written before stays ahead of these bytes
        # an unbuffered stdout (python -u) is a raw stream, whose write may
        # take only part of the data and return the count it took
        view = memoryview(data)
        while view:
            view = view[sys.stdout.buffer.write(view) :]
    else:  # a text-only stream, such as an io.StringIO under redirect_stdout
        sys.stdout.write(text)


def _load_catalog(path: str | None) -> OperationCatalog:
    if path is None:
        from .catalog import builtin_catalog

        return builtin_catalog()
    from .xmlread import parse_catalog

    return parse_catalog(_read_bytes(path), source=path)


def _load_variant_set(args) -> tuple[VariantSet, OperationCatalog]:
    from .family import VariantSet
    from .xmlread import parse_extension, parse_model

    root = parse_model(_read_bytes(args.root), source=args.root)
    shared: dict[str, str] = {}  # one memo of exemplar values for the family
    extensions = [parse_extension(_read_bytes(p), source=p, shared=shared) for p in args.extension]
    try:
        variant_set = VariantSet.of(root, extensions, root_id=args.root_id)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    return variant_set, _load_catalog(args.catalog)


def _pick_leaf(args, variant_set: VariantSet) -> str:
    if args.leaf:
        return args.leaf
    if len(variant_set.extensions) == 1:
        return next(iter(variant_set.extensions))
    raise _UsageError("several extensions given; select the variant to derive with --leaf")


def _merge_for(args) -> tuple[str, ProcessModel, MergeTrace]:
    from .merge import merge_chain

    variant_set, catalog = _load_variant_set(args)
    leaf = _pick_leaf(args, variant_set)
    model, trace = merge_chain(variant_set, leaf, catalog, last_wins=args.last_wins)
    return leaf, model, trace


def _cmd_merge(args) -> int:
    from .xmlio import serialize_model, serialize_trace

    leaf, model, trace = _merge_for(args)
    _write_output(serialize_model(model), args.out)
    if args.trace:
        _write_output(serialize_trace(trace), args.trace)
    print(
        f"merged variant {leaf!r}: {len(model.elements)} elements, "
        f"{len(model.references)} references, metamodel {model.metamodel.value}, "
        f"{len(trace)} trace entries",
        file=sys.stderr,
    )
    return _EXIT_OK


def _cmd_validate(args) -> int:
    leaf, model, trace = _merge_for(args)
    untyped = len(trace.untyped_changes())
    _write_output(
        f"OK: variant {leaf!r} validates and merges "
        f"({len(trace)} trace entries, {untyped} untyped changes, "
        f"final metamodel {model.metamodel.value})\n",
        None,
    )
    return _EXIT_OK


def _cmd_stats(args) -> int:
    from .analytics import export_stats_csv, render_stats_text, usage_report

    variant_set, catalog = _load_variant_set(args)
    report = usage_report(variant_set, catalog)
    if args.format == "csv":
        _write_output(export_stats_csv(report), args.out)
    else:
        _write_output(render_stats_text(report), args.out)
    return _EXIT_OK


def _cmd_catalog(args) -> int:
    catalog = _load_catalog(args.catalog)
    if args.metamodel:
        types = catalog.defined_by(MetamodelVersion(args.metamodel))
    else:
        types = list(catalog)
    rows = [
        (
            t.name,
            t.group,
            t.target_kind.value,
            t.defining_metamodel.value,
            "true" if t.synthetic else "false",
            str(len(t.recipe)),
        )
        for t in types
    ]
    if args.format == "csv":
        import csv

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(("name", "group", "targetKind", "definingMetamodel", "synthetic", "steps"))
        writer.writerows(rows)
        listing = buffer.getvalue()
    else:
        listing = "".join("\t".join(row) + "\n" for row in rows)
    _write_output(listing, args.out)
    counts = catalog.counts_by_metamodel()
    summary = ", ".join(f"{mm.value}: {counts[mm]}" for mm in MetamodelVersion)
    print(f"{len(types)} of {len(catalog)} operation types listed ({summary})", file=sys.stderr)
    return _EXIT_OK


def _add_input_flags(parser: argparse.ArgumentParser, *, with_leaf: bool) -> None:
    parser.add_argument("--root", required=True, help="reference model XML file")
    parser.add_argument(
        "--extension",
        action="append",
        required=True,
        metavar="FILE",
        help="extension model XML file (repeat for a family of variants)",
    )
    parser.add_argument(
        "--catalog", help="operation catalog XML file (default: the built-in catalog)"
    )
    parser.add_argument(
        "--root-id", default="root", help="id the extensions use for the reference model"
    )
    if with_leaf:
        parser.add_argument(
            "--leaf", help="variant to derive (defaults to the only given extension)"
        )
        parser.add_argument(
            "--last-wins",
            action="store_true",
            help="resolve text replacement conflicts in favor of the later operation",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="procline",
        description="Derive and analyze process model variants from extension models.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    merge = sub.add_parser("merge", help="derive a variant and write the merged model")
    _add_input_flags(merge, with_leaf=True)
    merge.add_argument("--out", help="write the merged model here instead of stdout")
    merge.add_argument("--trace", metavar="FILE", help="also write the merge trace XML")
    merge.set_defaults(func=_cmd_merge)

    validate = sub.add_parser("validate", help="check that a variant merges cleanly")
    _add_input_flags(validate, with_leaf=True)
    validate.set_defaults(func=_cmd_validate)

    stats = sub.add_parser("stats", help="export operation usage statistics")
    _add_input_flags(stats, with_leaf=False)
    stats.add_argument("--format", choices=("csv", "text"), default="text")
    stats.add_argument("--out", help="write the report here instead of stdout")
    stats.set_defaults(func=_cmd_stats)

    catalog = sub.add_parser("catalog", help="list operation types")
    catalog.add_argument(
        "--catalog", help="operation catalog XML file (default: the built-in catalog)"
    )
    catalog.add_argument(
        "--metamodel",
        choices=[mm.value for mm in MetamodelVersion],
        help="only list types defined by this metamodel version",
    )
    catalog.add_argument("--format", choices=("csv", "text"), default="text")
    catalog.add_argument("--out", help="write the listing here instead of stdout")
    catalog.set_defaults(func=_cmd_catalog)

    return parser


@_gc_paused
def _run(args: argparse.Namespace) -> int:
    """Run the parsed command; its errors become a message and an exit code."""
    try:
        return args.func(args)
    except ValidationFailedError as exc:
        for issue in exc.issues:
            print(str(issue), file=sys.stderr)
        print(f"validation failed: {len(exc.issues)} issue(s)", file=sys.stderr)
        return _EXIT_INVALID
    except (ConflictError, CycleError, MissingParentError, DuplicateIdError) as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return _EXIT_INVALID
    except (ProclineError, OSError, _UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    The command runs with the cyclic collector paused (a usage error exits
    earlier, from argument parsing). As the process entry (``argv`` None)
    ``main`` then freezes the heap, so interpreter shutdown's collections
    skip it; ``main(argv)`` freezes nothing.
    """
    code = _run(build_parser().parse_args(argv))
    if argv is None:
        gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(main())

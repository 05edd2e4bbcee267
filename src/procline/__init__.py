"""Process line engine: derive process variants from typed extension models.

A reference process model plus a family of extension models yields merged,
consistency-checked variants. Extensions declare new assets, exclusions,
and exemplars of typed variability operations; every merge effect is logged
in a replayable trace, and the catalog/usage statistics answer which
operation types exist and how often they are used.

``import procline`` loads no submodule. Each exported name, and each
submodule read as an attribute (``procline.xmlio``), is imported on first
access (PEP 562), so a program loads only the modules whose names it uses.
"""

import importlib

__version__ = "0.1.0"

# home module -> the names exported from it
_EXPORTS = {
    "analytics": (
        "UnusedReport",
        "UnusedSlice",
        "UsageReport",
        "export_stats_csv",
        "render_stats_text",
        "top_n",
        "unused_report",
        "usage_report",
    ),
    "atomic": ("AtomicStep", "apply_atomic", "expand_exemplar", "validate_exemplar", "validate_step"),
    "catalog": (
        "AtomicKind",
        "OperationCatalog",
        "OperationExemplar",
        "OperationTypeDef",
        "StepTemplate",
        "builtin_catalog",
    ),
    "errors": (
        "ConflictError",
        "CycleError",
        "DuplicateIdError",
        "DuplicateTypeNameError",
        "FieldNotFoundError",
        "IllegalTargetError",
        "Issue",
        "IssueCode",
        "MergeError",
        "MissingArgumentError",
        "MissingParentDeclarationError",
        "MissingParentError",
        "ParseError",
        "ProclineError",
        "SchemaError",
        "UnknownIdError",
        "UnknownOperationTypeError",
        "UnknownVariantError",
        "ValidationFailedError",
    ),
    "family": ("ExtensionModel", "VariantSet"),
    "merge": ("MergeTrace", "TraceEntry", "TraceEntryKind", "merge_chain", "merge_once", "resolve_chain"),
    "model": (
        "ChangeSet",
        "ElementKind",
        "MetamodelVersion",
        "ProcessElement",
        "ProcessModel",
        "Reference",
        "ReferenceKind",
        "TextBlock",
        "apply_change_set",
        "compare_models",
    ),
    "xmlread": ("parse_catalog", "parse_extension", "parse_model"),
    "xmlio": (
        "render_trace_text",
        "serialize_catalog",
        "serialize_extension",
        "serialize_model",
        "serialize_trace",
    ),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "studyline"}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is not None:
        value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
        globals()[name] = value  # later reads skip this hook
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")  # the import binds it here too
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

"""Catalog and usage statistics over a variant set, and their exports.

The report counts operation exemplars as declared in the extension models,
keyed three ways: per type, per (variant, type), and per
(variant, group, defining metamodel). Types without exemplars stay in the
report with count zero so coverage questions ("which defined operations are
never used?") fall out directly.

Its exports, CSV and plain text, live here too, so ``procline stats``
loads no merge, step or XML writer module. The CSV writer imports
:mod:`csv` when it is called. It quotes each distinct field once through
the ``csv`` module (a variant id, a type's group, name and metamodel
columns) and builds each row from those quoted pieces, so the output is the
text a ``csv.writer`` writes for the same rows, built without a call per row.
It joins one variant's rows into one string at a time and then joins those,
so no more than one variant's row strings are alive at once, and it reads
each count from the report's own map, ``cells`` or ``unknown_types``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Mapping

from .catalog import OperationCatalog
from .family import VariantSet
from .model import MetamodelVersion, _gc_paused


@dataclass(frozen=True)
class UsageReport:
    """Exemplar usage statistics, self-contained (no catalog needed to read it)."""

    variant_ids: tuple[str, ...]
    defined_per_metamodel: Mapping[MetamodelVersion, int]
    per_type_counts: Mapping[str, int]
    cells: Mapping[tuple[str, str], int]
    matrix: Mapping[tuple[str, str, MetamodelVersion], int]
    variant_totals: Mapping[str, int]
    total_exemplars: int
    unknown_types: Mapping[tuple[str, str], int] = field(default_factory=dict)
    type_groups: Mapping[str, str] = field(default_factory=dict)
    type_metamodels: Mapping[str, MetamodelVersion] = field(default_factory=dict)

    @property
    def used_types(self) -> tuple[str, ...]:
        return tuple(sorted(n for n, c in self.per_type_counts.items() if c > 0))

    @property
    def unused_types(self) -> tuple[str, ...]:
        return tuple(sorted(n for n, c in self.per_type_counts.items() if c == 0))


@_gc_paused
def usage_report(variant_set: VariantSet, catalog: OperationCatalog) -> UsageReport:
    """Count declared exemplars across all variants of the set.

    Exemplars whose type name is not in the catalog land in
    ``unknown_types`` and still count toward the variant totals; everything
    else is keyed by catalog metadata.
    """
    variant_ids = tuple(variant_set.variant_ids())
    type_defs = list(catalog)  # sorted by name, once
    type_names = [t.name for t in type_defs]
    by_name = dict(zip(type_names, type_defs))

    per_type = dict.fromkeys(type_names, 0)
    cells = dict.fromkeys(itertools.product(variant_ids, type_names), 0)
    matrix = dict.fromkeys(
        itertools.product(variant_ids, catalog.groups(), MetamodelVersion), 0
    )
    variant_totals = dict.fromkeys(variant_ids, 0)
    unknown: dict[tuple[str, str], int] = {}

    for variant_id in variant_ids:
        exemplars = variant_set.extensions[variant_id].exemplars
        variant_totals[variant_id] = len(exemplars)
        for type_name, count in Counter(map(attrgetter("type_name"), exemplars)).items():
            type_def = by_name.get(type_name)
            if type_def is None:
                unknown[(variant_id, type_name)] = count
                continue
            per_type[type_name] += count
            cells[(variant_id, type_name)] = count
            matrix[(variant_id, type_def.group, type_def.defining_metamodel)] += count

    return UsageReport(
        variant_ids=variant_ids,
        defined_per_metamodel=catalog.counts_by_metamodel(),
        per_type_counts=per_type,
        cells=cells,
        matrix=matrix,
        variant_totals=variant_totals,
        total_exemplars=sum(variant_totals.values()),
        unknown_types=unknown,
        type_groups={t.name: t.group for t in type_defs},
        type_metamodels={t.name: t.defining_metamodel for t in type_defs},
    )


def top_n(report: UsageReport, n: int = 10) -> list[tuple[str, int]]:
    """The n most used types as (name, count), count descending, ties by name."""
    used = [(name, count) for name, count in report.per_type_counts.items() if count > 0]
    used.sort(key=lambda pair: (-pair[1], pair[0]))
    return used[:n]


@dataclass(frozen=True)
class UnusedSlice:
    unused_count: int
    defined_count: int

    @property
    def fraction(self) -> float:
        if self.defined_count == 0:
            return 0.0
        return self.unused_count / self.defined_count


@dataclass(frozen=True)
class UnusedReport:
    unused_types: tuple[str, ...]
    overall: UnusedSlice
    per_metamodel: Mapping[MetamodelVersion, UnusedSlice]


def unused_report(report: UsageReport) -> UnusedReport:
    """Defined-but-unused types, overall and sliced by defining metamodel."""
    unused = report.unused_types
    per_mm = {}
    for mm in MetamodelVersion:
        defined = report.defined_per_metamodel.get(mm, 0)
        unused_here = sum(1 for name in unused if report.type_metamodels[name] == mm)
        per_mm[mm] = UnusedSlice(unused_here, defined)
    return UnusedReport(
        unused_types=unused,
        overall=UnusedSlice(len(unused), len(report.per_type_counts)),
        per_metamodel=per_mm,
    )


# -- statistics exports ------------------------------------------------------------

CSV_HEADER = ("variantId", "operationGroup", "operationType", "definingMetamodel", "exemplarCount")

UNKNOWN_GROUP = "(unknown)"


class _Lines(list):
    """A list that a csv writer can write its lines into."""

    write = list.append


def export_stats_csv(report: UsageReport) -> str:
    """Usage statistics as CSV, one row per variant and operation type.

    The header comes first. Types without exemplars keep their zero rows so
    the output schema does not depend on the data. Exemplars of types
    missing from the catalog get the reserved group ``(unknown)`` and an
    empty metamodel column. Rows are sorted by variant, group and type.
    Fields are quoted as a default ``csv.writer`` quotes them, and each row
    ends with CRLF.
    """
    import csv

    lines = _Lines()
    writer = csv.writer(lines)
    writer.writerow(CSV_HEADER)

    def cells(*fields: str) -> str:
        # csv quotes a field by its own characters, so each distinct field is
        # quoted once: a row that ends in an empty field, less its line end,
        # is the fields each followed by the delimiter
        writer.writerow((*fields, ""))
        return lines.pop()[:-2]

    # the catalog types in row order as (group, name, cells, counts), sorted once
    types = sorted(
        (group, name, cells(group, name, report.type_metamodels[name].value), report.cells)
        for name, group in report.type_groups.items()
    )
    unknown: dict[str, list[tuple[str, str, str, Mapping[tuple[str, str], int]]]] = {}
    for variant_id, name in report.unknown_types:
        row = (UNKNOWN_GROUP, name, cells(UNKNOWN_GROUP, name, ""), report.unknown_types)
        unknown.setdefault(variant_id, []).append(row)
    for variant_id in sorted(report.variant_ids):
        prefix = cells(variant_id)
        # (group, type) is unique, so neither the cells nor the counts decide the order
        rows = sorted(types + unknown[variant_id]) if variant_id in unknown else types
        lines.append(
            "".join([f"{prefix}{columns}{counts[variant_id, name]}\r\n" for _, name, columns, counts in rows])
        )
    return "".join(lines)


def _format_count_table(rows: list[tuple[str, str]], indent: str = "  ") -> list[str]:
    width = max(len(label) for label, _ in rows)
    return [f"{indent}{label.ljust(width)}  {value}" for label, value in rows]


def render_stats_text(report: UsageReport) -> str:
    """Usage statistics as a small plain-text report."""
    defined = report.defined_per_metamodel
    total_defined = sum(defined.values())
    per_mm = ", ".join(f"{mm.value}: {defined[mm]}" for mm in MetamodelVersion)
    unused = unused_report(report)
    lines = [
        f"defined operation types: {total_defined} ({per_mm})",
        f"used: {len(report.used_types)}  "
        f"unused: {unused.overall.unused_count} ({unused.overall.fraction:.1%})",
        "",
        "exemplars per variant:",
    ]
    variant_rows = [(v, str(report.variant_totals[v])) for v in report.variant_ids]
    variant_rows.append(("total", str(report.total_exemplars)))
    lines.extend(_format_count_table(variant_rows))
    leaders = top_n(report)
    if leaders:
        lines.append("")
        lines.append("most used types:")
        leader_rows = [
            (
                name,
                f"{count}  ({report.type_metamodels[name].value}, {report.type_groups[name]})",
            )
            for name, count in leaders
        ]
        lines.extend(_format_count_table(leader_rows))
    if report.unknown_types:
        lines.append("")
        lines.append("exemplars of unknown types:")
        unknown_rows = [
            (f"{variant_id}: {type_name}", str(count))
            for (variant_id, type_name), count in sorted(report.unknown_types.items())
        ]
        lines.extend(_format_count_table(unknown_rows))
    return "\n".join(lines) + "\n"

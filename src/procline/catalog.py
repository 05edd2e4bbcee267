"""Typed variability operations: the catalog, its types and their exemplars.

An operation type binds a name to a target kind, the metamodel version that
introduced it, and a recipe of atomic step templates, each naming an
:class:`AtomicKind`. An exemplar names a type, a concrete target, and
argument values; expansion substitutes the arguments into the recipe. The
built-in catalog is the shipped ``data/catalog.xml``; types whose recipes
are not publicly documented are clearly flagged ``Synthetic...`` placeholder
entries there so catalog counts and groups stay complete.

This module describes operations and runs none, so it loads only
:mod:`procline.errors` and :mod:`procline.model`. Expansion and the
exemplar checks live in :mod:`procline.atomic`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, cached_property
from typing import Iterable, Iterator, Mapping

from .errors import DuplicateTypeNameError, UnknownOperationTypeError
from .model import ElementKind, MetamodelVersion, ReferenceKind, _trusted


class AtomicKind(str, Enum):
    """The atomic step kinds a recipe is assembled from; :mod:`procline.atomic` runs them."""

    RENAME_ELEMENT = "RenameElement"
    REPLACE_TEXT = "ReplaceText"
    ADD_TEXT = "AddText"
    SWAP_REFERENCES = "SwapReferences"
    REMOVE_ELEMENT = "RemoveElement"
    REMOVE_REFERENCE = "RemoveReference"
    ADD_REFERENCE = "AddReference"
    CHANGE_ATTRIBUTE = "ChangeAttribute"
    MOVE_ELEMENT = "MoveElement"


_PLACEHOLDER = re.compile(r"\{([A-Za-z][A-Za-z0-9]*)\}")

#: Placeholder bound to the exemplar's target id rather than a named argument.
TARGET_PLACEHOLDER = "target"


@dataclass(frozen=True)
class StepTemplate:
    """One recipe line. Values are literals or whole-string ``{placeholder}``s."""

    atomic: AtomicKind
    target: str = "{target}"
    args: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "atomic", AtomicKind(self.atomic))
        object.__setattr__(self, "args", dict(self.args))


def _placeholder(value: str) -> str | None:
    """The name of the placeholder ``value`` is, or None for a literal."""
    match = _PLACEHOLDER.fullmatch(value)  # not match with "$": "$" also matches before a final LF
    return match.group(1) if match else None


# a recipe value bound once per type: (its placeholder name or None, the value as written)
_Bound = tuple[str | None, str]


#: Each element and reference kind under its value, the one lookup of a
#: ``targetKind``: the two enums share no value, and a member hashes and
#: compares as its value, so it looks itself up too.
_TARGET_KINDS: Mapping[str, ElementKind | ReferenceKind] = {
    member.value: member for kind in (ElementKind, ReferenceKind) for member in kind
}


@dataclass(frozen=True)
class OperationTypeDef:
    """A named variability operation type."""

    name: str
    group: str
    target_kind: ElementKind | ReferenceKind
    defining_metamodel: MetamodelVersion
    recipe: tuple[StepTemplate, ...]
    synthetic: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("operation type name must be non-empty")
        if not self.group:
            raise ValueError(f"operation type {self.name!r}: group must be non-empty")
        if not self.recipe:
            raise ValueError(f"operation type {self.name!r}: recipe must not be empty")
        try:
            target_kind = _TARGET_KINDS[self.target_kind]
        except (KeyError, TypeError):
            raise ValueError(f"{self.target_kind!r} is not a valid ElementKind or ReferenceKind") from None
        object.__setattr__(self, "target_kind", target_kind)
        object.__setattr__(self, "defining_metamodel", MetamodelVersion(self.defining_metamodel))
        object.__setattr__(self, "recipe", tuple(self.recipe))

    @cached_property
    def placeholders(self) -> frozenset[str]:
        """Argument names an exemplar of this type must supply.

        Computed once per type: ``cached_property`` stores it in the instance
        ``__dict__``, past the frozen ``__setattr__``, and equality, hash and
        repr read only the fields.
        """
        names: set[str | None] = set()
        for _, (target_name, _), args in self._bound_recipe:
            names.add(target_name)
            names.update(name for _, (name, _) in args)
        return frozenset(names - {None, TARGET_PLACEHOLDER})

    @cached_property
    def _bound_recipe(self) -> tuple[tuple[AtomicKind, _Bound, tuple[tuple[str, _Bound], ...]], ...]:
        """The recipe with every value bound once: ``(atomic, target, ((key, value), ...))``.

        Each value is ``(placeholder name, value)``, the name None for a
        literal, so expansion looks names up and matches no pattern. Cached
        like :attr:`placeholders`, which reads it.
        """
        return tuple(
            (
                template.atomic,
                (_placeholder(template.target), template.target),
                tuple((key, (_placeholder(value), value)) for key, value in template.args.items()),
            )
            for template in self.recipe
        )

    @property
    def targets_reference(self) -> bool:
        return isinstance(self.target_kind, ReferenceKind)


@dataclass(frozen=True, slots=True)
class OperationExemplar:
    """A concrete use of an operation type inside an extension model."""

    type_name: str
    target: str
    args: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.type_name:
            raise ValueError("exemplar type name must be non-empty")
        if not self.target:
            raise ValueError(f"exemplar of {self.type_name!r}: target must be non-empty")
        object.__setattr__(self, "args", dict(self.args))


_new_exemplar = _trusted(OperationExemplar)


class OperationCatalog:
    """Immutable name-indexed collection of operation type definitions."""

    def __init__(self, type_defs: Iterable[OperationTypeDef]):
        types: dict[str, OperationTypeDef] = {}
        for type_def in type_defs:
            if type_def.name in types:
                raise DuplicateTypeNameError(f"duplicate operation type name {type_def.name!r}")
            types[type_def.name] = type_def
        self._types = types

    def lookup(self, name: str) -> OperationTypeDef:
        try:
            return self._types[name]
        except KeyError:
            raise UnknownOperationTypeError(f"no operation type named {name!r}") from None

    def get(self, name: str) -> OperationTypeDef | None:
        return self._types.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._types

    def __len__(self) -> int:
        return len(self._types)

    def __iter__(self) -> Iterator[OperationTypeDef]:
        return iter(sorted(self._types.values(), key=lambda t: t.name))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OperationCatalog):
            return NotImplemented
        return self._types == other._types

    def defined_by(self, metamodel: MetamodelVersion) -> list[OperationTypeDef]:
        return [t for t in self if t.defining_metamodel == metamodel]

    def counts_by_metamodel(self) -> dict[MetamodelVersion, int]:
        counts = {mm: 0 for mm in MetamodelVersion}
        for type_def in self._types.values():
            counts[type_def.defining_metamodel] += 1
        return counts

    def groups(self) -> list[str]:
        return sorted({t.group for t in self._types.values()})


@cache
def builtin_catalog() -> OperationCatalog:
    """The catalog shipped with the package: 69 types, 33 of them placeholders.

    Parsed on the first call; the catalog is immutable, so later calls share it.
    """
    # imported here: both modules import this one
    from .studyline import fixture_text
    from .xmlread import parse_catalog

    return parse_catalog(fixture_text("catalog.xml"), source="catalog.xml")

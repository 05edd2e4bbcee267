"""The variant family: extension models and the set they form over a reference model.

Reading and counting a family need these types and no merge code, so they
live apart from :mod:`procline.merge`, and this module loads only
:mod:`procline.errors`, :mod:`procline.model` and :mod:`procline.catalog`.
The rule on an extension's ids is :func:`_check_extension`, which the
constructor and the reader both call; the reader then builds the extension
trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .catalog import OperationExemplar
from .model import MetamodelVersion, ProcessElement, ProcessModel, Reference, _trusted


def _check_extension(variant_id: str, parent_id: str) -> None:
    """The rules on an extension's ids, which its constructor and the reader both call."""
    if not variant_id:
        raise ValueError("extension model needs a variant id")
    if not parent_id:
        raise ValueError(f"extension {variant_id!r} needs a parent id")


@dataclass(frozen=True)
class ExtensionModel:
    """Everything one variant declares on top of its parent."""

    variant_id: str
    parent_id: str
    metamodel: MetamodelVersion
    new_elements: tuple[ProcessElement, ...] = ()
    new_references: tuple[Reference, ...] = ()
    exclusions: tuple[str, ...] = ()
    exemplars: tuple[OperationExemplar, ...] = ()

    def __post_init__(self) -> None:
        _check_extension(self.variant_id, self.parent_id)
        object.__setattr__(self, "metamodel", MetamodelVersion(self.metamodel))
        object.__setattr__(self, "new_elements", tuple(self.new_elements))
        object.__setattr__(self, "new_references", tuple(self.new_references))
        object.__setattr__(self, "exclusions", tuple(self.exclusions))
        object.__setattr__(self, "exemplars", tuple(self.exemplars))


_new_extension = _trusted(ExtensionModel)


@dataclass(frozen=True)
class VariantSet:
    """A reference model plus the extension models derived from it."""

    root: ProcessModel
    extensions: Mapping[str, ExtensionModel] = field(default_factory=dict)
    root_id: str = "root"

    def __post_init__(self) -> None:
        extensions = dict(self.extensions)
        for key, ext in extensions.items():
            if key != ext.variant_id:
                raise ValueError(f"extension map key {key!r} does not match variant id {ext.variant_id!r}")
            if key == self.root_id:
                raise ValueError(f"variant id {key!r} collides with the root id")
        object.__setattr__(self, "extensions", extensions)

    @classmethod
    def of(
        cls,
        root: ProcessModel,
        extensions: Iterable[ExtensionModel],
        root_id: str = "root",
    ) -> "VariantSet":
        by_id: dict[str, ExtensionModel] = {}
        for ext in extensions:
            if ext.variant_id in by_id:
                raise ValueError(f"duplicate variant id {ext.variant_id!r}")
            by_id[ext.variant_id] = ext
        return cls(root=root, extensions=by_id, root_id=root_id)

    def variant_ids(self) -> list[str]:
        return sorted(self.extensions)

"""The bundled study data set: a reference model and its variant family.

One reference process model (the root), five extension models forming the
family tree root <- {Bund, A, B, D} and Bund <- C, and one small extra
extension that demonstrates a masking substitution. The content is
fabricated but shaped like a real process handbook so the numbers add up:
the five variants declare 167, 17, 72, 84, and 0 operation exemplars.

The XML files under ``procline/data`` are the data set; this module only
loads them. Each file is canonical: serializing what it parses to gives
back its exact bytes. ``catalog.xml`` is the built-in catalog itself:
:func:`procline.catalog.builtin_catalog` reads it through :func:`fixture_text`.
"""

from __future__ import annotations

from importlib import resources

from .family import ExtensionModel, VariantSet
from .model import ProcessModel
from .xmlread import parse_extension, parse_model

ROOT_ID = "root"
VARIANT_IDS = ("A", "B", "Bund", "C", "D")
MASKING_VARIANT_ID = "Mask"

DATA_FILES = (
    "root.xml",
    "catalog.xml",
    "ext-bund.xml",
    "ext-a.xml",
    "ext-b.xml",
    "ext-c.xml",
    "ext-d.xml",
    "ext-masking.xml",
)

_EXTENSION_FILES = {
    "A": "ext-a.xml",
    "B": "ext-b.xml",
    "Bund": "ext-bund.xml",
    "C": "ext-c.xml",
    "D": "ext-d.xml",
    MASKING_VARIANT_ID: "ext-masking.xml",
}


def fixture_text(name: str) -> str:
    """Content of one bundled data file (see ``DATA_FILES``)."""
    if name not in DATA_FILES:
        raise ValueError(f"no bundled data file named {name!r}")
    return (resources.files(__package__) / "data" / name).read_text(encoding="utf-8")


def _extension(variant_id: str, shared: dict[str, str] | None = None) -> ExtensionModel:
    name = _EXTENSION_FILES[variant_id]
    return parse_extension(fixture_text(name), source=name, shared=shared)


def reference_model() -> ProcessModel:
    """The root of the family: 182 elements, 88 references."""
    return parse_model(fixture_text("root.xml"), source="root.xml")


def masking_extension() -> ExtensionModel:
    """A minimal extension whose only change is one masking substitution.

    It excludes the configuration container ptv-03 and adds a replacement
    of the same kind, so a merge yields exactly one untyped-change entry.
    Not part of the study variant set.
    """
    return _extension(MASKING_VARIANT_ID)


def study_variant_set() -> VariantSet:
    """The five study variants over the reference model."""
    shared: dict[str, str] = {}  # one memo of exemplar values for the family
    extensions = [_extension(variant_id, shared) for variant_id in VARIANT_IDS]
    return VariantSet.of(reference_model(), extensions, root_id=ROOT_ID)

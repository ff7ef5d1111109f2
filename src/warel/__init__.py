"""Finite weakly associative relation algebras and their representations."""

from .core import (
    AtomStructure,
    ClassReport,
    StructureError,
    GuardExceeded,
    atoms_of,
    classify,
    mask_of,
    validate_atom_structure,
)

__all__ = [
    "AtomStructure",
    "ClassReport",
    "StructureError",
    "GuardExceeded",
    "atoms_of",
    "check_equation",
    "classify",
    "eval_term",
    "mask_of",
    "validate_atom_structure",
]


def __getattr__(name: str) -> object:
    # PEP 562: the term language is compiled only when first read
    if name in ("check_equation", "eval_term"):
        from . import laws

        return getattr(laws, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Exact toolkit for root-system and Weyl-coset combinatorics, weight
character filtrations, and Boolean-lattice incidence algebras.

Everything is computed over exact integers and rationals; no floating
point enters any kernel.  All enumeration orders are deterministic and
all randomized routines take explicit seeds, so every run is
reproducible bit for bit.

The incidence-algebra side (`catx.incidence`, `catx.linalg`, and the
`fractions` they compute in) is imported on first use of one of its
names, not with catx: only algebra requests need it.
"""

__version__ = "0.1.0"

from catx.errors import InputError, ResourceGuardError
from catx.rootsystem import CartanType, RootSystem, build_root_system
from catx.weyl import (
    WeylElement,
    element_from_word,
    enumerate_biclosed,
    enumerate_weyl,
    longest_element,
    min_coset_reps,
)
from catx.charcalc import (
    FormalCharacter,
    ModuleCharacter,
    TwistedCharacter,
    Weight,
    costandard_character,
    decompose_character,
    induced_character,
    simple_character,
    weight_lt,
)

__all__ = [
    "AlgebraModule",
    "CartanType",
    "FormalCharacter",
    "IncidenceAlgebra",
    "InputError",
    "ModuleCharacter",
    "ResourceGuardError",
    "RootSystem",
    "TwistedCharacter",
    "Weight",
    "WeylElement",
    "build_incidence_algebra",
    "build_root_system",
    "costandard_character",
    "decompose_character",
    "element_from_word",
    "enumerate_biclosed",
    "enumerate_weyl",
    "induced_character",
    "krull_schmidt_decompose",
    "longest_element",
    "min_coset_reps",
    "simple_character",
    "weight_lt",
]

# Bound by `__getattr__` on first use, then read like the other names.
# No submodule is among them: `from catx import incidence` must find
# catx.incidence missing, so that the import system loads it.
_ALGEBRA_NAMES = frozenset(
    {"AlgebraModule", "IncidenceAlgebra", "build_incidence_algebra", "krull_schmidt_decompose"}
)


def __getattr__(name: str):
    if name not in _ALGEBRA_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from catx import incidence

    value = globals()[name] = getattr(incidence, name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _ALGEBRA_NAMES)

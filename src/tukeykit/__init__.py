"""tukeykit: exact desk-scale calculus for Tukey morphisms between
combinatorial cardinal-invariant triples.

``import tukeykit`` loads no submodule.  The first public name read
through the package (a PEP 562 module ``__getattr__``) loads every
submodule and binds every public name, as the import itself once did, so
code that reads the package namespace sees what it always saw.  Code
that imports from a submodule (``from tukeykit.splitorder import
bt_edge``), as the command line does, loads only that submodule and its
imports.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

# the submodule that defines each public name, in the order they load
_EXPORTS = {
    "apfuncs": (
        "APFunc", "IDENTITY", "ZERO", "constant", "eventually_dominates",
        "parse_apfunc", "pointwise_max",
    ),
    "branchmap": (
        "Branch", "BoundCertificate", "ColumnTuple", "bound_from_trace",
        "branch_of", "common_witnesses", "exact_intersection",
        "image_contains", "image_prefix", "tuple_code", "tuple_decode",
        "witness_stream",
    ),
    "catalog": ("builtin_morphisms", "catalog", "compose", "vd_diagram"),
    "gadgets": (
        "refute_filterclass_to_unbounded",
        "refute_pseudo_intersection_to_tower",
    ),
    "splitorder": (
        "SplitSpec", "antichain", "bt_edge", "bucket_count",
        "bucket_count_by_filling", "min_columns_hit", "x_order",
    ),
    "triples": (
        "CodedTriple", "FiniteTriple", "MorphismCandidate", "check_morphism",
        "dual", "finite_norm", "is_dominating",
    ),
    "upsets": (
        "EMPTY", "EVENS", "FULL", "ODDS", "UPSet", "almost_disjoint",
        "almost_subset", "parse_upset", "splits",
    ),
    "adversary": (
        "AdversaryCertificate", "build_adversary", "identity_machine",
        "predicted_element", "splitter_from_free_class",
        "verify_certificate",
    ),
}
# the submodules that are public attributes; ``tukeykit.catalog`` is the
# catalog() function, and the catalog module is reached through
# ``sys.modules`` or ``from tukeykit.catalog import ...``
_SUBMODULES = ("adversary", "apfuncs", "branchmap", "gadgets", "splitorder", "triples", "upsets")

__all__ = sorted([*_SUBMODULES, *(name for names in _EXPORTS.values() for name in names)])


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    package = globals()
    for module, names in _EXPORTS.items():
        source = import_module(f"{__name__}.{module}")
        package.update((n, getattr(source, n)) for n in names)
    package.update((m, sys.modules[f"{__name__}.{m}"]) for m in _SUBMODULES)
    return package[name]


def __dir__() -> list[str]:
    return sorted({*__all__, *(name for name in globals() if name.startswith("__"))})


class _Package(ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # importing a submodule binds it on its package; the catalog
        # module must not take the place of the catalog() function
        if name == "catalog" and isinstance(value, ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

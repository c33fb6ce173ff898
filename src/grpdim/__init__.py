"""Dimension witnesses for finite groupoid windows.

Combinatorial models of finite ample groupoids, quantitative dad witness
search, control-function lifts, coarse decompositions of the arrow space,
and the constructive transfers between them.

The names below are exported lazily (PEP 562): ``grpdim.kl_dad_search``
imports ``grpdim.dad`` on first use, so ``import grpdim`` loads no module.
A name is looked up in its module at every access and never stored here,
so a function swapped in its module's namespace is what ``grpdim`` returns.
A submodule name (``grpdim.dad``) imports that submodule.
"""

import importlib

_EXPORTS = {
    "groupoid": (
        "ArrowSet", "AxiomError", "Groupoid", "GroupoidError", "OwnerMismatchError",
        "Tables", "UnitSet", "ValidationReport", "Violation", "arrows_within",
        "compose_sets", "from_triples", "generated", "is_principal", "power",
        "restrict", "symmetrize", "triples", "validate",
    ),
    "covers": (
        "ControlFunction", "Cover", "CoverError", "control_apply", "fold_number",
        "ostrand_lift", "shrink_nfold",
    ),
    "dad": (
        "DadWitness", "GluingCertificate", "HypothesisError", "WitnessError",
        "blowup_lift", "blowup_transfer", "discover_control_function", "glue_chain",
        "glue_two", "kl_dad_check", "kl_dad_search", "product_combine",
        "pullback_witness", "union_combine",
    ),
    "graphing": ("CoarseError", "Graphing"),
    "coarse": (
        "AsdimBridge", "TreeCoverResult", "asdim_fiber_decompositions", "asdim_to_dad",
        "dad_to_asdim", "ef_asdim_check", "ef_asdim_search", "fiber_gauge", "gauge_from",
        "treeable_cover",
    ),
    "builders": (
        "Blowup", "BuilderError", "LoadError", "PartialActionSpec", "Product",
        "action_groupoid", "blowup", "cyclic_table", "load", "load_graphing",
        "pair_groupoid", "pair_index", "partial_action_groupoid", "product",
        "replicate_psi", "rotation_perms", "save", "save_graphing", "tree_window",
        "trivial_perms", "z_shift_partial_spec",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("_search", "artifacts", "builders", "cli", "coarse", "covers", "dad",
               "graphing", "groupoid", "pipelines", "setspec")

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(importlib.import_module(f"{__name__}.{module}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})

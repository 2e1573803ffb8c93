"""Betti numbers of monomial ideals in four variables.

Closed-form multigraded Betti numbers through squarefree reduction and
a 66-class atlas, with an exact simplicial-homology oracle to verify
every number independently.
"""

import importlib

__version__ = "0.1.0"

# Every public name, mapped to the module that defines it.  A module loads
# on the first use of one of its names, so ``import betti4`` loads nothing
# else, importing the oracle alone pulls in no formula code, and the
# formula route never imports the oracle.
_LAZY = {
    "AtlasEntry": "atlas",
    "atlas_entries": "atlas",
    "atlas_records": "atlas",
    "lookup_multigraded": "atlas",
    "dominant_quadruples": "engine",
    "full_table": "engine",
    "pd_two_condition": "engine",
    "Betti4Error": "errors",
    "ExponentCapExceeded": "errors",
    "GeneratorCapExceeded": "errors",
    "InputUnreadable": "errors",
    "InternalInconsistency": "errors",
    "InvariantViolation": "errors",
    "ParseError": "errors",
    "VariableOutOfRange": "errors",
    "ALL_FIELDS": "homology",
    "RATIONALS": "homology",
    "koszul_complex": "homology",
    "oracle_betti": "homology",
    "NUM_VARS": "monomials",
    "UNIT": "monomials",
    "MonomialIdeal": "monomials",
    "minimalize": "monomials",
    "DEFAULT_GEN_CAP": "multidegrees",
    "enumerate_multidegrees": "multidegrees",
    "DEFAULT_EXP_CAP": "parsing",
    "parse_ideal": "parsing",
    "mask_monomial": "squarefree",
    "mask_string": "squarefree",
    "parse_mask": "squarefree",
    "shape_descriptor": "squarefree",
    "BettiTable": "tables",
    "TwinBundle": "twins",
    "build_bundle": "twins",
}

__all__ = sorted(_LAZY)


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value

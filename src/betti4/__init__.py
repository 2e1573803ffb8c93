"""Betti numbers of monomial ideals in four variables.

Closed-form multigraded Betti numbers through squarefree reduction and
a 66-class atlas, with an exact simplicial-homology oracle to verify
every number independently.
"""

import importlib

from .errors import (
    Betti4Error,
    ExponentCapExceeded,
    GeneratorCapExceeded,
    InputUnreadable,
    InternalInconsistency,
    InvariantViolation,
    ParseError,
    VariableOutOfRange,
)
from .monomials import (
    NUM_VARS,
    UNIT,
    MonomialIdeal,
    divides,
    lcm,
    minimalize,
    support_mask,
)
from .multidegrees import DEFAULT_GEN_CAP, enumerate_multidegrees
from .parsing import DEFAULT_EXP_CAP, parse_ideal
from .squarefree import SquarefreeIdeal, mask_monomial, mask_string, parse_mask, shape_descriptor
from .tables import BettiTable
from .twins import TwinBundle, build_bundle

__version__ = "0.1.0"

# The atlas and the engine build their tables when imported, so they load
# on first use: importing the oracle alone must not pull in formula code.
# The oracle loads on first use too, so the formula route never imports it.
_LAZY = {
    "ALL_FIELDS": "homology",
    "FieldSpec": "homology",
    "RATIONALS": "homology",
    "SimplicialComplex": "homology",
    "koszul_complex": "homology",
    "oracle_betti": "homology",
    "reduced_homology_rank": "homology",
    "AtlasEntry": "atlas",
    "CanonicalForm": "atlas",
    "atlas_entries": "atlas",
    "atlas_records": "atlas",
    "canonicalize": "atlas",
    "lookup_multigraded": "atlas",
    "dominant_quadruples": "engine",
    "full_table": "engine",
    "pd_two_condition": "engine",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "ALL_FIELDS",
    "AtlasEntry",
    "Betti4Error",
    "BettiTable",
    "CanonicalForm",
    "DEFAULT_EXP_CAP",
    "DEFAULT_GEN_CAP",
    "ExponentCapExceeded",
    "FieldSpec",
    "GeneratorCapExceeded",
    "InputUnreadable",
    "InternalInconsistency",
    "InvariantViolation",
    "MonomialIdeal",
    "NUM_VARS",
    "ParseError",
    "RATIONALS",
    "SimplicialComplex",
    "SquarefreeIdeal",
    "TwinBundle",
    "UNIT",
    "VariableOutOfRange",
    "atlas_entries",
    "atlas_records",
    "build_bundle",
    "canonicalize",
    "divides",
    "dominant_quadruples",
    "enumerate_multidegrees",
    "full_table",
    "koszul_complex",
    "lcm",
    "lookup_multigraded",
    "mask_monomial",
    "mask_string",
    "minimalize",
    "oracle_betti",
    "parse_ideal",
    "parse_mask",
    "pd_two_condition",
    "reduced_homology_rank",
    "shape_descriptor",
    "support_mask",
]

"""Distinct multidegrees of the Taylor resolution: lcms of generator subsets."""

from .errors import GeneratorCapExceeded
from .monomials import UNIT, lcm

DEFAULT_GEN_CAP = 20


def enumerate_multidegrees(ideal, cap=DEFAULT_GEN_CAP):
    """All distinct lcms of subsets of the generating set, as a lex-sorted tuple.

    The set is grown one generator at a time (new subsets containing g
    are lcms of old subsets with g), so memory tracks the number of
    distinct lcms rather than 2^q; the cap still guards the worst case.
    The empty subset contributes the constant monomial.
    """
    q = len(ideal.gens)
    if q > cap:
        raise GeneratorCapExceeded(f"{q} generators exceed the cap of {cap}")
    seen = {UNIT}
    for g in ideal.gens:
        seen |= {lcm(v, g) for v in seen}
    return tuple(sorted(seen))

"""Distinct multidegrees of the Taylor resolution: lcms of generator subsets."""

from functools import lru_cache

from .errors import GeneratorCapExceeded
from .monomials import UNIT

DEFAULT_GEN_CAP = 20


@lru_cache(maxsize=1)
def enumerate_multidegrees(ideal, cap=DEFAULT_GEN_CAP):
    """All distinct lcms of subsets of the generating set, as a lex-sorted tuple.

    The set is grown one generator at a time (new subsets containing g
    are lcms of old subsets with g), so memory tracks the number of
    distinct lcms rather than 2^q; the cap still guards the worst case.
    The empty subset contributes the constant monomial.  Both routes walk
    first, so this one cap check makes them refuse the same ideals.

    The result for the most recent (ideal, cap) is memoized (one entry),
    so `verify`'s formula pass and its four oracle passes share one walk.
    The cap is part of the key, so a call with a lower cap checks it
    again; an exception is never cached.
    """
    q = len(ideal.gens)
    if q > cap:
        raise GeneratorCapExceeded(f"{q} generators exceed the cap of {cap}")
    seen = {UNIT}
    for g0, g1, g2, g3 in ideal.gens:
        # lcm(v, g), written out: a call per pair costs more than the max itself
        seen |= {(v0 if v0 > g0 else g0, v1 if v1 > g1 else g1,
                  v2 if v2 > g2 else g2, v3 if v3 > g3 else g3)
                 for v0, v1, v2, v3 in seen}
    return tuple(sorted(seen))

"""The multidegrees both routes visit: the lcm-lattice points that are not cones."""

from functools import lru_cache

from .errors import GeneratorCapExceeded
from .monomials import UNIT

DEFAULT_GEN_CAP = 20


@lru_cache(maxsize=1)
def enumerate_multidegrees(ideal, cap=DEFAULT_GEN_CAP):
    """The unit and the lcm-lattice points that are not cones, lex-sorted.

    An lcm m of generators is a cone when x^(m - supp m) lies in the
    ideal: some generator h has h <= m - supp m, i.e. h divides m and
    lies strictly below it in every variable of its support.  The upper
    Koszul complex at a cone is the full simplex on supp(m), which is
    acyclic, so no Betti number sits there; the formula route keys such
    a point to the full family of twin masks, whose row is zero too.

    x^(m - supp m) is in the ideal iff m is in the ideal generated by
    the h + supp h, so the cones form an upward closed set: every lcm
    of a subset of a live (non-cone) point's generators is live as
    well.  The walk therefore grows lcms one generator at a time from
    the live points only and still reaches every live point.  Each
    candidate is tested once, by scanning the generators for one at or
    below m - supp m; a minimal generator is never a cone and joins
    without a test.  The unit is always returned: in the unit ideal it
    is the one lattice point and, though a cone, carries the row
    (1, 1, 0, 0, 0).  The cap guards the worst case, where every subset
    has its own lcm.  Both routes walk first, so this one cap check
    makes them refuse the same ideals.

    The result for the most recent (ideal, cap) is memoized (one entry),
    so `verify`'s formula pass and its four oracle passes share one walk.
    The cap is part of the key, so a call with a lower cap checks it
    again; an exception is never cached.
    """
    gens = ideal.gens
    if len(gens) > cap:
        raise GeneratorCapExceeded(f"{len(gens)} generators exceed the cap of {cap}")
    if gens == (UNIT,):
        return gens
    seen = set()
    live = []
    new = []
    for g in gens:
        g0, g1, g2, g3 = g
        for v0, v1, v2, v3 in live:
            # lcm(v, g), written out: a call per pair costs more than the max itself
            m = (v0 if v0 > g0 else g0, v1 if v1 > g1 else g1,
                 v2 if v2 > g2 else g2, v3 if v3 > g3 else g3)
            if m in seen:
                continue
            seen.add(m)
            m0, m1, m2, m3 = m
            n0 = m0 - 1 if m0 else 0
            n1 = m1 - 1 if m1 else 0
            n2 = m2 - 1 if m2 else 0
            n3 = m3 - 1 if m3 else 0
            # m is a cone iff some h <= n; the generators are lex-sorted,
            # so once h0 > n0 no later one fits either
            for h0, h1, h2, h3 in gens:
                if h0 > n0:
                    new.append(m)
                    break
                if h1 <= n1 and h2 <= n2 and h3 <= n3:
                    break
            else:
                new.append(m)
        if new:
            live += new
            new.clear()
        live.append(g)
    live.sort()
    return (UNIT, *live)
